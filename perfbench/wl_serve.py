"""The ``serve`` workload: one ``repro serve`` process under open-loop load.

The server runs with auth on, a rate limit it never reaches and default
workers and fork.  A separate client process (``loadgen.py``) drives two
keep-alive connections, each an open loop timed from every request's due
time:

- connection 1 sends a fixed mix at ``mix_rps``: 85% *hot* keys (a few
  summary, experiment and slice URLs, warmed before timing, so the memo
  tier answers) and 15% *recorded* keys (each distinct and asked once,
  recorded into the run store beforehand, so the store tier answers);
- connection 2 sends *fresh* keys (new seeds) at ``fresh_rps``, so the
  compute tier answers: fork, generate, publish, run, record.

Latencies are grouped by key class, not by the tier the server names in
``X-Serve-Source``; those names are counted per class.  The 85/15 split
is a choice: no production traffic exists to measure one.

The recorded run store is built once per program source by a set-up
server and kept under ``.perfbench/recorded``; every run works on a
fresh copy of it and a fresh, empty cache.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from catalog import KEY_CLASSES, SLICE_IDS, SOURCES
from common import (
    REPO, SRC, WORK_ROOT, BenchError, Proc, Run, finished, import_seconds,
    median, percentile, program_env, reap, run_store_metrics,
)

HERE = Path(__file__).resolve().parent
API_KEY = "perfbench"
SCALE = 0.004
#: The recorded keys' market; hot and fresh seeds never reach this range.
POOL_SEED = 7001
HOT_SHARE = 0.85
MONTHS = [f"{2018 + (5 + i) // 12}-{(5 + i) % 12 + 1:02d}" for i in range(25)]


def _hot_paths(seed: int) -> List[str]:
    market = f"scale={SCALE}&seed={1_000_000 + seed % 1_000_000}"
    return [
        f"/v1/dataset/summary?{market}",
        f"/v1/experiments/table1?{market}",
        f"/v1/experiments/fig01?{market}",
        f"/v1/slices/growth?{market}",
        f"/v1/slices/typemix?{market}&era=covid-19",
        f"/v1/slices/funnel?{market}&start=2019-03&end=2020-02",
    ]


def _fresh_path(seed: int, index: int) -> str:
    fresh = 2_000_000 + (seed % 1_000_000) * 1000 + index
    return f"/v1/experiments/table1?scale={SCALE}&seed={fresh}"


def _pool_paths(count: int) -> List[str]:
    """``count`` distinct slice URLs over one market, in a fixed order."""
    market = f"scale={SCALE}&seed={POOL_SEED}"
    every = [
        f"/v1/slices/{sid}?{market}&start={MONTHS[a]}&end={MONTHS[b]}"
        for sid in SLICE_IDS
        for a in range(len(MONTHS))
        for b in range(a, len(MONTHS))
    ]
    if count > len(every):
        raise BenchError(f"only {len(every)} recorded keys exist")
    return random.Random(POOL_SEED).sample(every, count)


# ------------------------------------------------------------- the server


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(conn: http.client.HTTPConnection, path: str) -> Tuple[int, str, bytes]:
    conn.request("GET", path, headers={"x-api-key": API_KEY})
    response = conn.getresponse()
    return response.status, response.getheader("x-serve-source") or "", response.read()


class Server:
    """One ``repro serve`` process, from spawn until it is reaped."""

    def __init__(self, run: Run, tag: str, home: Path) -> None:
        self.run, self.tag = run, tag
        self.port = _free_port()
        out, err = run.logs(tag)
        argv = [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
                "--api-key", API_KEY, "--rate", "1000000", "--burst", "1000000",
                "--cache-dir", str(home / "cache"), "--runs-dir", str(home / "runs")]
        print(f"perfbench: {tag}: {' '.join(argv[1:])}", file=sys.stderr)
        self._out, self._err = open(out, "wb"), open(err, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=REPO, env=program_env(),
                                     stdout=self._out, stderr=self._err)
        self.ready_s = self._wait_ready()

    def _wait_ready(self) -> float:
        deadline = time.monotonic() + min(60.0, self.run.left())
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"{self.tag} exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                time.sleep(0.01)
            finally:
                conn.close()
        self.stop()
        raise BenchError(f"{self.tag} never answered /healthz")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def cpu_s(self) -> float:
        """User+sys CPU of the server and its reaped children so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return sum(int(f) for f in fields[11:15]) / os.sysconf("SC_CLK_TCK")

    def stop(self, account: bool = True) -> Proc:
        """Interrupt the server (its Ctrl-C path), reap it, keep its accounting."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        code, usage = reap(self.proc, 15.0)
        self._out.close()
        self._err.close()
        out, err = self.run.logs(self.tag)
        proc = finished(self.tag, code, usage, time.perf_counter() - self.started,
                        out, err)
        # An interrupted server exits 0; a signal only if it had to be killed.
        self.run.check(code == 0, f"{self.tag}: exit code {code}")
        if account:
            self.run.procs.append(proc)
        return proc


# ---------------------------------------------------------- recorded store


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _record_pool(run: Run, home: Path, paths: Sequence[str]) -> Dict[str, str]:
    """Have a set-up server compute every path; returns each body's sha256."""
    server = Server(run, "recorder", home)
    bodies: Dict[str, str] = {}
    errors: List[str] = []

    def worker(share: Sequence[str]) -> None:
        conn = server.connect()
        try:
            for path in share:
                status, source, body = _get(conn, path)
                if status != 200 or source != "computed":
                    errors.append(f"{path}: {status} {source}")
                bodies[path] = hashlib.sha256(body).hexdigest()
        except OSError as exc:
            errors.append(repr(exc))
        finally:
            conn.close()

    try:
        threads = [threading.Thread(target=worker, args=(paths[i::2],))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        server.stop(account=False)
    if errors or len(bodies) != len(paths):
        raise BenchError(f"recording the store failed: {errors[:3]}")
    return bodies


def recorded_store(run: Run) -> Tuple[Path, Dict[str, str]]:
    """The recorded run store for this program source, built on first use."""
    count = run.size.recorded_keys
    root = WORK_ROOT / "recorded" / f"{_source_digest()}-{count}"
    keys_file = root / "keys.json"
    if not keys_file.is_file():
        started = time.perf_counter()
        stage = root.with_name(root.name + f".tmp-{os.getpid()}")
        shutil.rmtree(stage, ignore_errors=True)
        bodies = _record_pool(run, stage, _pool_paths(count))
        shutil.rmtree(stage / "cache")
        (stage / "keys.json").write_text(json.dumps(bodies), encoding="utf-8")
        shutil.rmtree(root, ignore_errors=True)
        stage.rename(root)
        run.details["recorded_store_built_s"] = time.perf_counter() - started
    return root / "runs", json.loads(keys_file.read_text(encoding="utf-8"))


# ------------------------------------------------------------------ load


def _plan(run: Run, seconds: float, hot: Sequence[str],
          recorded: Sequence[str]) -> Tuple[List[list], List[list]]:
    """Both connections' schedules: ``[offset_s, key_class, path]`` each."""
    rng = random.Random(run.seed)
    n_mix = int(run.size.mix_rps * seconds)
    n_recorded = min(round(n_mix * (1 - HOT_SHARE)), len(recorded))
    recorded_slots = set(rng.sample(range(n_mix), n_recorded))
    asked = iter(rng.sample(list(recorded), n_recorded))
    mix = []
    for i in range(n_mix):
        if i in recorded_slots:
            mix.append([i / run.size.mix_rps, "recorded", next(asked)])
        else:
            mix.append([i / run.size.mix_rps, "hot", rng.choice(hot)])
    n_fresh = max(1, int(run.size.fresh_rps * seconds))
    fresh = [[(j + 0.5) / run.size.fresh_rps, "fresh", _fresh_path(run.seed, j)]
             for j in range(n_fresh)]
    return mix, fresh


def _load(run: Run, server: Server, seconds: float, hot: Sequence[str],
          expected: Dict[str, str]) -> Dict[str, Any]:
    """Drive the timed phase; check every response; return per-class figures.

    ``expected`` maps each hot and recorded path to its body's sha256.
    """
    recorded = sorted(set(expected) - set(hot))
    mix, fresh = _plan(run, seconds, hot, recorded)
    plan_path = run.path("load") / "plan.json"
    result_path = run.path("load") / "result.json"
    plan_path.write_text(json.dumps({
        "host": "127.0.0.1", "port": server.port, "api_key": API_KEY,
        "duration_s": seconds, "grace_s": 10.0, "connections": [mix, fresh],
    }), encoding="utf-8")
    cpu_before = server.cpu_s()
    client = run.program([plan_path, result_path], "loadgen",
                         python_args=(str(HERE / "loadgen.py"),), account=False)
    cpu = server.cpu_s() - cpu_before
    run.check(client.ok, f"loadgen: exit code {client.code}")
    records = json.loads(result_path.read_text(encoding="utf-8"))["records"]

    first_body: Dict[str, str] = {}
    latency: Dict[str, List[float]] = {cls: [] for cls in KEY_CLASSES}
    sources: Dict[str, Dict[str, int]] = {
        cls: {src: 0 for src in SOURCES} for cls in KEY_CLASSES}
    late, failed, reasons = [], 0, {}
    for _conn, _i, cls, path, status, source, digest, due, sent, done, error in records:
        want = expected.get(path) or first_body.setdefault(path, digest)
        problem = (error or (status != 200 and f"status {status}")
                   or (digest != want and "body differs"))
        if problem:
            failed += 1
            reasons[problem] = reasons.get(problem, 0) + 1
            continue
        latency[cls].append(done - due)
        late.append(sent - due)
        sources[cls][source] = sources[cls].get(source, 0) + 1
    run.count_ops(len(records), len(records) - failed)
    run.check(not failed, f"serve: {failed} failed requests: {reasons}")
    quarter = max(1, len(mix) // 4)
    mix_late = [r[8] - r[7] for r in records if r[0] == 0 and r[8] is not None]
    run.details.update({
        "latency_ms": {
            cls: {"n": len(v), **{f"p{round(q * 100)}": _ms(v, q)
                                  for q in (0.5, 0.9, 0.99)}}
            for cls, v in latency.items() if v},
        "sources": sources,
        "server_cpu_s": cpu,
        "backlog_growing": bool(
            mix_late and statistics.median(mix_late[-quarter:])
            > statistics.median(mix_late[:quarter]) + 0.005),
    })
    return {"latency": latency, "late": late, "sources": sources}


# -------------------------------------------------------------- workload


def _prepare(run: Run) -> Tuple[Server, List[str], Dict[str, str]]:
    """Set-up: time fresh servers until ready, keep the last, warm hot keys."""
    pool_runs, pool = recorded_store(run)
    home = run.path("server")
    shutil.copytree(pool_runs, home / "runs")
    readies = []
    for i in range(run.size.setup_reps):
        server = Server(run, f"server{i}", home)
        readies.append(server.ready_s)
        if i + 1 < run.size.setup_reps:
            server.stop()
    run.details["setup_s"] = median(readies)
    expected = dict(pool)
    hot = _hot_paths(run.seed)
    conn = server.connect()
    try:
        for path in hot:
            first = _get(conn, path)
            again = _get(conn, path)
            run.check(first[0] == 200 and first[1] == "computed",
                      f"warming {path}: {first[:2]}")
            run.check(again[1] == "memo" and again[2] == first[2],
                      f"{path} is not memoized")
            expected[path] = hashlib.sha256(first[2]).hexdigest()
    except BaseException:
        server.stop()
        raise
    finally:
        conn.close()
    run.count_ops(2 * len(hot), 2 * len(hot))
    run.details["hot_keys"] = hot
    return server, hot, expected


def untraced(run: Run) -> None:
    server, hot, expected = _prepare(run)
    try:
        load = _load(run, server, run.seconds, hot, expected)
    finally:
        server.stop()
    run.metrics["setup_s"] = run.details["setup_s"]
    run.metrics["cold_s"] = median(load["latency"]["fresh"])
    run.metrics["warm_s"] = median(load["latency"]["recorded"])


def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1e3


def traced(run: Run) -> None:
    run.metrics["cli.import_s"] = import_seconds(run)
    server, hot, expected = _prepare(run)
    try:
        load = _load(run, server, run.size.traced_serve_s, hot, expected)
        conn = server.connect()
        floor = []
        try:
            for _ in range(200):
                started = time.perf_counter()
                status, _source, _body = _get(conn, "/v1/meta")
                floor.append(time.perf_counter() - started)
                run.check(status == 200, f"/v1/meta answered {status}")
        finally:
            conn.close()
    finally:
        server.stop()
    lat = load["latency"]
    run.metrics.update({
        "memo_p50_ms": _ms(lat["hot"], 0.5), "memo_p99_ms": _ms(lat["hot"], 0.99),
        "store_p50_ms": _ms(lat["recorded"], 0.5),
        "store_p99_ms": _ms(lat["recorded"], 0.99),
        "compute_p50_ms": _ms(lat["fresh"], 0.5),
        "compute_p90_ms": _ms(lat["fresh"], 0.9),
        "loadgen.late_p99_ms": _ms(load["late"], 0.99),
        "serve.http_floor_ms": _ms(floor, 0.5),
    })
    for cls in KEY_CLASSES:
        for source in SOURCES:
            run.metrics[f"serve.{cls}.{source}"] = load["sources"][cls].get(source, 0)
    _in_process(run, run.path("server"))


def _noop(item: Any) -> Any:
    return item


def _in_process(run: Run, home: Path) -> None:
    """``MarketService.execute`` per tier, the run store and ``forked_call``."""
    from repro.robust.parallel import forked_call
    from repro.runs import RunStore
    from repro.serve import ServeSettings
    from repro.serve.services import MarketService

    store = RunStore(str(home / "runs"))
    run_store_metrics(run, store)
    service = MarketService(ServeSettings(
        api_keys=(API_KEY,), cache_dir=str(home / "cache"),
        runs_dir=str(home / "runs")))

    def context(path: str, seed: Optional[int] = None):
        route, _, query = path.partition("?")
        params = dict(item.split("=") for item in query.split("&"))
        window = {k: params[k] for k in ("start", "end") if k in params}
        sid = route.rsplit("/", 1)[1]
        return service.build_context(
            "serve-stream", (f"stream-{sid}",), SCALE,
            seed if seed is not None else int(params["seed"]),
            store_kind="partitioned", params=window)

    def timed(ctx: Any, tier: str) -> float:
        started = time.perf_counter()
        reply = service.execute(ctx)
        elapsed = time.perf_counter() - started
        run.check(reply.ok and reply.source == tier,
                  f"in-process {tier} request answered by {reply.source}")
        return elapsed

    recorded = _pool_paths(run.size.recorded_keys)[:20]
    store_s = [timed(context(path), "store") for path in recorded]
    memo_s = [timed(context(recorded[0]), "memo") for _ in range(200)]
    compute_s = [timed(context(recorded[0], seed=3_000_000 + run.seed % 1_000_000 + i),
                       "computed") for i in range(3)]
    fork_s = []
    for _ in range(20):
        started = time.perf_counter()
        forked_call(_noop, None)
        fork_s.append(time.perf_counter() - started)
    last = store.load(store.run_ids()[-1])
    started = time.perf_counter()
    handle = store.begin(last.context)
    for result in last.results.values():
        handle.record(result)
    handle.finish()
    run.metrics.update({
        "serve.store_exec_ms": median(store_s) * 1e3,
        "serve.memo_exec_us": median(memo_s) * 1e6,
        "serve.compute_exec_ms": median(compute_s) * 1e3,
        "robust.fork_ms": median(fork_s) * 1e3,
        "runs.record_s": time.perf_counter() - started,
    })
