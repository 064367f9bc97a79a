"""Streaming partitioned generation: emit each month as it completes.

A resident market holds its whole history at once; at paper scale
(seed 99, 2 CPUs) a resident build peaks at ~130 MB RSS where streaming
the same market into a store peaks at ~62 MB.
:func:`stream_partitioned` writes each month's table from
:meth:`~repro.synth.fastgen.MarketSimulator.months` to its month
partition (:mod:`repro.core.partitions`) and drops it before the next
month is generated.  Only the month-free lifetime state (users, threads,
ledger — a few MB) survives to the end, where it becomes the store's
``global.npz``.  Asked for the ``resident`` market as well, it keeps
the months and hands back their concatenation, so a caller that needs
both the store and the resident market generates once and reads
nothing back.

The tables are the ones :meth:`~repro.synth.fastgen.MarketSimulator.run`
concatenates, so a store's ``PartitionStore.tables()`` equals the
resident market of the same config in every column, ids and row order
included (``tests/test_streaming_kernels.py`` asserts it), and both
ways of building write the same bytes.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, Optional

from ..core.partitions import PartitionWriter
from ..obs.tracer import get_tracer, peak_rss_bytes
from .config import SimulationConfig
from .fastgen import MarketSimulator
from .marketsim import SimulationResult

__all__ = ["stream_partitioned"]

logger = logging.getLogger(__name__)


def stream_partitioned(
    config: SimulationConfig,
    final_path: str,
    meta: Optional[Dict] = None,
    resident: bool = False,
) -> Optional[SimulationResult]:
    """Generate a market straight into a partitioned store at ``final_path``.

    Each month's table is written (``partition.written``) and freed
    before the next month runs, so peak memory is one month of columns
    plus the small lifetime state.  With ``resident`` the months are
    kept instead and the resident market is returned; otherwise the
    return is ``None``.  The store is published atomically on success
    and the staging directory is dropped on failure.
    """
    tracer = get_tracer()
    logger.info(
        "streamgen: scale=%.3g seed=%d -> %s",
        config.scale, config.seed, final_path,
    )
    start = time.perf_counter()
    writer = PartitionWriter(final_path, meta=meta)
    try:
        simulator = MarketSimulator(config)
        result: Optional[SimulationResult] = None
        if resident:
            result = simulator.run(on_month=writer.add_month)
        else:
            with tracer.span("synth.generate"):
                for month_idx, table, _ in simulator.months():
                    writer.add_month(month_idx, table)
        with tracer.span("streamgen.finalize"):
            writer.set_global(simulator.lifetime_tables())
            path = writer.finalize()
    # robust: cleanup-and-reraise — staging must not leak, nothing is swallowed
    except BaseException:
        writer.abort()
        raise
    rss = peak_rss_bytes()
    if rss is not None:
        tracer.gauge("streamgen.peak_rss_bytes", float(rss))
    logger.info(
        "streamgen done in %.2fs -> %s", time.perf_counter() - start, path,
    )
    return result
