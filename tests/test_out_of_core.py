"""Out-of-core acceptance bar for the month-partitioned store.

At paper scale (1.0, seed 99) the COVID-19 funnel folded over the
partitioned store must open exactly the era's four month partitions and
peak at no more than half the RSS of the same single-era query answered
from the resident dataset, which has to load all 25 months to answer it.
The bar needs paper scale: at 0.05 the interpreter dominates both peaks
and the ratio is ~0.75.

Each query runs in a fresh interpreter against caches built beforehand
in another, so neither peak includes generation.  Peak RSS is read from
``VmHWM`` in ``/proc/self/status``: the kernel carries ``ru_maxrss``
over ``exec``, so a child of the pytest process would report at least
that process's own peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.eras import COVID19

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="peak RSS of a fresh process is read from /proc/self/status",
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCALE = 1.0
SEED = 99
RSS_BUDGET = 0.5

#: Shared head of every child: the cache directory is ``argv[1]``.
_PRELUDE = f"""
import json, sys
cache_dir = sys.argv[1]
SCALE, SEED = {SCALE!r}, {SEED!r}

def peak_rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
"""

_WARM = _PRELUDE + """
from repro.synth.cache import cached_generate, cached_partitioned_store
cached_generate(scale=SCALE, seed=SEED, cache_dir=cache_dir, engine="fastgen")
cached_partitioned_store(scale=SCALE, seed=SEED, cache_dir=cache_dir,
                         engine="fastgen")
"""

_RESIDENT_ERA = _PRELUDE + """
from repro.analysis.funnel import funnel_by_era
from repro.synth.cache import cached_generate
result, hit = cached_generate(scale=SCALE, seed=SEED, cache_dir=cache_dir,
                              engine="fastgen")
funnel = funnel_by_era(result.dataset)["COVID-19"]
print(json.dumps({"hit": hit, "proposed": funnel.total_proposed,
                  "peak_mb": peak_rss_mb()}))
"""

_PARTITIONED_ERA = _PRELUDE + """
from repro.analysis.streaming import FunnelKernel, fold_partitions
from repro.core.eras import ERAS, era_by_name
from repro.obs import enable_tracing
from repro.synth.cache import cached_partitioned_store
tracer = enable_tracing()
store, hit = cached_partitioned_store(scale=SCALE, seed=SEED,
                                      cache_dir=cache_dir, engine="fastgen")
funnel = FunnelKernel(era_index=ERAS.index(era_by_name("COVID-19")))
fold_partitions(store, [funnel], era="COVID-19")
print(json.dumps({
    "hit": hit,
    "proposed": funnel.finalize().total_proposed,
    "opened": tracer.snapshot()["counters"].get("partition.opened", 0),
    "peak_mb": peak_rss_mb(),
}))
"""


def _python(code: str, cache_dir: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, cache_dir],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


@pytest.fixture(scope="module")
def era_queries(tmp_path_factory):
    """The resident and partitioned COVID-19 queries on warm caches."""
    cache_dir = str(tmp_path_factory.mktemp("out-of-core-cache"))
    _python(_WARM, cache_dir)
    return _python(_RESIDENT_ERA, cache_dir), _python(_PARTITIONED_ERA, cache_dir)


def test_era_query_opens_only_the_eras_partitions(era_queries):
    resident, partitioned = era_queries
    assert resident["hit"] and partitioned["hit"]
    assert len(COVID19.months()) == 4  # Mar-Jun 2020
    assert partitioned["opened"] == len(COVID19.months())
    assert partitioned["proposed"] == resident["proposed"] > 0


def test_era_query_peak_rss_within_half_of_resident(era_queries):
    resident, partitioned = era_queries
    ratio = partitioned["peak_mb"] / resident["peak_mb"]
    assert ratio <= RSS_BUDGET, (
        f"partitioned era query peaked at {partitioned['peak_mb']:.0f} MB, "
        f"{ratio:.0%} of the resident query's {resident['peak_mb']:.0f} MB"
    )
