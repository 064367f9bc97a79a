"""Endpoint handlers: HTTP in, :class:`~repro.serve.services.ServeReply` out.

Routers only parse and validate; everything that computes goes through
:meth:`~repro.serve.services.MarketService.execute` **on an executor
thread** (``loop.run_in_executor``) so the event loop stays free to
accept connections while datasets generate.  See ``docs/serving.md``
for the endpoint catalogue and the determinism contract each response
carries (``X-Serve-Source`` / ``X-Run-Key`` headers, byte-identical
bodies per run key).
"""

from __future__ import annotations

import asyncio
import re
from typing import Any, Dict, Optional, Tuple

from .. import __version__
from ..core.eras import ERAS, era_by_name
from ..report.experiments import EXPERIMENTS
from ..report.stream_experiments import STREAM_EXPERIMENTS
from .asgi import App, HTTPError, Request, Response
from .services import MarketService, ServeReply
from .settings import ServeSettings

__all__ = ["register_routes"]

_MONTH_RE = re.compile(r"^\d{4}-\d{2}$")
_ERA_NAMES = tuple(era.name for era in ERAS)


def _service(request: Request) -> MarketService:
    assert request.app is not None
    return request.app.state["service"]


def _settings(request: Request) -> ServeSettings:
    assert request.app is not None
    return request.app.state["settings"]


def _parse_float(request: Request, name: str, default: float) -> float:
    raw = request.query.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise HTTPError(400, f"query parameter {name!r} must be a number")


def _parse_int(request: Request, name: str, default: int) -> int:
    raw = request.query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise HTTPError(400, f"query parameter {name!r} must be an integer")


def _parse_bool(request: Request, name: str, default: bool) -> bool:
    raw = request.query.get(name)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise HTTPError(400, f"query parameter {name!r} must be a boolean")


def _market_params(request: Request) -> Dict[str, Any]:
    """The shared (scale, seed, posts, latent_k) query block."""
    settings = _settings(request)
    scale = _parse_float(request, "scale", 0.01)
    if not (0.0 < scale <= settings.max_scale):
        raise HTTPError(
            400,
            f"scale must be in (0, {settings.max_scale:g}] "
            f"(this server's --max-scale)",
        )
    seed = _parse_int(request, "seed", 20201027)
    posts = _parse_bool(request, "posts", True)
    latent_k = _parse_int(request, "latent_k", 12)
    if not (1 <= latent_k <= 64):
        raise HTTPError(400, "latent_k must be in [1, 64]")
    return {
        "scale": scale,
        "seed": seed,
        "posts": posts,
        "latent_k": latent_k,
    }


def _window_params(request: Request) -> Dict[str, Any]:
    """Streaming window selection: start / end months, era name."""
    params: Dict[str, Any] = {}
    for name in ("start", "end"):
        raw = request.query.get(name)
        if raw is not None:
            if not _MONTH_RE.match(raw):
                raise HTTPError(
                    400, f"query parameter {name!r} must look like YYYY-MM"
                )
            params[name] = raw
    era = request.query.get("era")
    if era is not None:
        try:
            # Canonicalize ("e3" / "COVID-19" / "covid19" → "COVID-19")
            # so every spelling of one era shares one run key.
            params["era"] = era_by_name(era).name
        except KeyError:
            raise HTTPError(
                400, f"unknown era {era!r}; one of: {', '.join(_ERA_NAMES)}"
            )
    return params


async def _resolve(request: Request, context: Any) -> Response:
    """Execute a context off-loop and render the reply."""
    service = _service(request)
    request_id = str(request.state.get("request_id", ""))
    loop = asyncio.get_running_loop()
    assert request.app is not None
    executor = request.app.state["executor"]
    reply: ServeReply = await loop.run_in_executor(
        executor, service.execute, context, request_id
    )
    return Response.json(
        reply.payload,
        status=200 if reply.ok else 500,
        headers=[
            ("x-serve-source", reply.source),
            ("x-run-key", reply.run_key),
        ],
    )


def _build_context(
    request: Request,
    command: str,
    experiments: Tuple[str, ...],
    market: Dict[str, Any],
    *,
    store_kind: str = "resident",
    params: Optional[Dict[str, Any]] = None,
) -> Any:
    service = _service(request)
    try:
        return service.build_context(
            command,
            experiments,
            market["scale"],
            market["seed"],
            posts=market["posts"],
            latent_k=market["latent_k"],
            store_kind=store_kind,
            params=params,
        )
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, f"invalid market parameters: {exc}")


# ----------------------------------------------------------------- handlers


async def healthz(request: Request) -> Response:
    """Unauthenticated liveness probe."""
    return Response.json({"status": "ok", "version": __version__})


async def meta(request: Request) -> Response:
    """Server capabilities: registries, eras, limits."""
    settings = _settings(request)
    return Response.json(
        {
            "version": __version__,
            "experiments": sorted(EXPERIMENTS),
            "slices": sorted(STREAM_EXPERIMENTS),
            "eras": list(_ERA_NAMES),
            "max_scale": settings.max_scale,
            "rate": {
                "capacity": settings.rate_capacity,
                "refill_per_second": settings.rate_refill_per_second,
            },
        }
    )


async def experiment(request: Request) -> Response:
    """One classic experiment (``table1`` … ``trust``)."""
    experiment_id = request.path_params["experiment_id"]
    if experiment_id not in EXPERIMENTS:
        raise HTTPError(404, f"unknown experiment {experiment_id!r}")
    market = _market_params(request)
    context = _build_context(
        request, "serve-report", (experiment_id,), market
    )
    return await _resolve(request, context)


async def report(request: Request) -> Response:
    """A batch of classic experiments (POST body selects them)."""
    body = request.json()
    if not isinstance(body, dict):
        raise HTTPError(400, "body must be a JSON object")
    wanted = body.get("experiments") or sorted(EXPERIMENTS)
    if not isinstance(wanted, list) or not all(
        isinstance(item, str) for item in wanted
    ):
        raise HTTPError(400, "'experiments' must be a list of ids")
    unknown = [item for item in wanted if item not in EXPERIMENTS]
    if unknown:
        raise HTTPError(400, f"unknown experiment ids: {', '.join(unknown)}")
    market = _market_params(request)
    context = _build_context(
        request, "serve-report", tuple(wanted), market
    )
    return await _resolve(request, context)


async def dataset_summary(request: Request) -> Response:
    """Entity counts for one generated market."""
    market = _market_params(request)
    context = _build_context(
        request, "serve-summary", ("summary",), market
    )
    return await _resolve(request, context)


async def market_slice(request: Request) -> Response:
    """One streaming slice over the partitioned store.

    ``start``/``end`` (YYYY-MM) and ``era`` select the window; only the
    touched month partitions are opened.
    """
    slice_id = request.path_params["slice_id"]
    if slice_id not in STREAM_EXPERIMENTS:
        raise HTTPError(404, f"unknown slice {slice_id!r}")
    market = _market_params(request)
    window = _window_params(request)
    context = _build_context(
        request,
        "serve-stream",
        (f"stream-{slice_id}",),
        market,
        store_kind="partitioned",
        params=window,
    )
    return await _resolve(request, context)


async def runs_index(request: Request) -> Response:
    """Filterable run-store listing (live state, never cached)."""
    service = _service(request)
    filters: Dict[str, Any] = {}
    if "command" in request.query:
        filters["command"] = request.query["command"]
    if "status" in request.query:
        filters["status"] = request.query["status"]
    if "seed" in request.query:
        filters["seed"] = _parse_int(request, "seed", 0)
    if "scale" in request.query:
        filters["scale"] = _parse_float(request, "scale", 0.0)
    loop = asyncio.get_running_loop()
    assert request.app is not None
    runs = await loop.run_in_executor(
        request.app.state["executor"],
        lambda: service.list_runs(**filters),
    )
    return Response.json(
        {"runs": runs}, headers=[("x-serve-source", "live")]
    )


async def runs_show(request: Request) -> Response:
    """One persisted run in detail."""
    service = _service(request)
    run_id = request.path_params["run_id"]
    loop = asyncio.get_running_loop()
    assert request.app is not None
    detail = await loop.run_in_executor(
        request.app.state["executor"], service.run_detail, run_id
    )
    if detail is None:
        raise HTTPError(404, f"unknown run {run_id!r}")
    return Response.json(detail, headers=[("x-serve-source", "live")])


def register_routes(app: App) -> None:
    """Attach every endpoint to ``app``."""
    app.add_route("GET", "/healthz", healthz, name="healthz")
    app.add_route("GET", "/v1/meta", meta, name="meta")
    app.add_route(
        "GET", "/v1/experiments/{experiment_id}", experiment,
        name="experiment",
    )
    app.add_route("POST", "/v1/reports", report, name="report")
    app.add_route(
        "GET", "/v1/dataset/summary", dataset_summary, name="summary"
    )
    app.add_route("GET", "/v1/slices/{slice_id}", market_slice, name="slice")
    app.add_route("GET", "/v1/runs", runs_index, name="runs")
    app.add_route("GET", "/v1/runs/{run_id}", runs_show, name="runs.show")
