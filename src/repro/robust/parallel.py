"""Shared fork-based parallel mapper with tracer shipping and fallback.

The experiment runner (:mod:`repro.report.experiments`) and the
whole-program linter (:mod:`repro.devtools.lint.engine`) fan work across
processes the same way: a ``fork``-context ``ProcessPoolExecutor`` so
workers inherit parent state copy-on-write, a fresh
:class:`~repro.obs.Tracer` installed in each child whose picklable
snapshot is shipped home and grafted under the parent's current span,
and a serial in-process fallback when the pool dies (a worker killed by
the OS) or ``fork`` is unavailable.  :func:`forked_map` packages that
pattern once.

Results always come back in request order.  Serial execution (``workers
<= 1``, a single item, no ``fork`` start method) runs ``fn`` inline on
the parent's own tracer — no snapshots are produced.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.tracer import Tracer, get_tracer, set_tracer, tracing_enabled

__all__ = ["forked_map", "forked_call"]


class _TracedCall:
    """Picklable child-side wrapper: isolate telemetry in a fresh tracer.

    A forked worker inherits the parent's enabled tracer copy-on-write,
    but its mutations never flow back.  Install a fresh tracer, run the
    wrapped function, and return ``(result, snapshot)`` — ``snapshot`` is
    ``None`` when tracing is disabled.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> Tuple[Any, Optional[Dict[str, Any]]]:
        if tracing_enabled():
            set_tracer(Tracer())
            result = self.fn(item)
            return result, get_tracer().snapshot()
        return self.fn(item), None


def forked_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int = 1,
    *,
    span: str = "parallel.map",
    broken_counter: str = "parallel.pool_broken",
    return_traces: bool = False,
):
    """Map ``fn`` over ``items``, optionally across forked processes.

    Parameters
    ----------
    fn:
        A picklable (module-level) callable of one argument.  Large
        shared state should be reachable from the parent process —
        forked children inherit it copy-on-write.
    workers:
        Process count.  ``<= 1`` (or a single item, or platforms
        without ``fork``) runs serially in-process.
    span / broken_counter:
        Tracer span wrapping the parallel batch and the counter bumped
        when the pool breaks and the batch reruns serially.
    return_traces:
        When True, returns ``(results, traces)`` where ``traces[i]`` is
        the child tracer snapshot for ``items[i]`` (``None`` for serial
        execution or disabled tracing).  Snapshots are *also* merged
        into the parent tracer either way.

    The fallback contract matches the historical experiment runner: a
    :class:`BrokenProcessPool` aborts the parallel attempt, bumps
    ``broken_counter`` and reruns the whole batch serially — results
    stay complete and ordered, at the cost of duplicate work.
    """
    items = list(items)
    tracer = get_tracer()
    use_pool = (
        workers > 1
        and len(items) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    if not use_pool:
        results = [fn(item) for item in items]
        return (results, [None] * len(results)) if return_traces else results

    with tracer.span(span):
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(items)),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                shipped = list(pool.map(_TracedCall(fn), items))
        except BrokenProcessPool:
            tracer.count(broken_counter)
            results = [fn(item) for item in items]
            return (results, [None] * len(results)) if return_traces else results

        results: List[Any] = []
        traces: List[Optional[Dict[str, Any]]] = []
        for result, snapshot in shipped:
            if snapshot is not None:
                tracer.merge_child(snapshot)
            results.append(result)
            traces.append(snapshot)
    return (results, traces) if return_traces else results


def forked_call(
    fn: Callable[[Any], Any],
    item: Any,
    *,
    span: str = "parallel.call",
    broken_counter: str = "parallel.pool_broken",
    fallback_counter: str = "parallel.call_inline",
) -> Tuple[Any, bool]:
    """Run ``fn(item)`` once in a freshly forked child process.

    Returns ``(result, forked)``.  ``forked`` is True when the call
    actually ran in a child — whose *main* thread it occupies, so
    ``SIGALRM``-based limits (:func:`repro.robust.timeout.time_limit`)
    are enforceable there even when the caller is a worker thread of a
    server.  That is the point: a threaded caller with a hard deadline
    hops here instead of silently running unbounded (see
    ``RetryOutcome.enforced``).

    ``fn`` must be a picklable module-level callable and ``item`` a
    picklable argument; exceptions the child raises propagate to the
    caller.  Where ``fork`` is unavailable, or the pool breaks before
    delivering a result, the call reruns inline (``forked=False``) and
    ``fallback_counter`` / ``broken_counter`` record the degradation —
    matching :func:`forked_map`'s never-fail contract.  Child tracer
    snapshots are merged into the parent tracer.
    """
    tracer = get_tracer()
    if "fork" not in multiprocessing.get_all_start_methods():
        tracer.count(fallback_counter)
        return fn(item), False
    with tracer.span(span):
        try:
            with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                result, snapshot = pool.submit(_TracedCall(fn), item).result()
        except BrokenProcessPool:
            tracer.count(broken_counter)
            tracer.count(fallback_counter)
            return fn(item), False
        if snapshot is not None:
            tracer.merge_child(snapshot)
    return result, True
