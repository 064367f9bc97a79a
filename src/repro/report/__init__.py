"""Text reporting and the experiment registry.

Every name below loads its submodule on first access
(:mod:`repro._exports`); ``repro.report.experiments`` and its analysis
stack load only when a registry name is read.
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

__all__ = [
    "EXPERIMENTS",
    "ExperimentContext",
    "ExperimentReport",
    "ExperimentRun",
    "run_all_experiments",
    "run_experiment",
    "era_marker",
    "render_series",
    "sparkline",
    "format_count_share",
    "format_pct",
    "format_usd",
    "render_table",
]

if TYPE_CHECKING:
    from .artefact import ExperimentReport
    from .experiments import (
        EXPERIMENTS,
        ExperimentContext,
        ExperimentRun,
        run_all_experiments,
        run_experiment,
    )
    from .figures import era_marker, render_series, sparkline
    from .tables import format_count_share, format_pct, format_usd, render_table
else:
    __getattr__, __dir__ = lazy_exports(globals(), {
        "artefact": ("ExperimentReport",),
        "experiments": (
            "EXPERIMENTS", "ExperimentContext", "ExperimentRun",
            "run_all_experiments", "run_experiment",
        ),
        "figures": ("era_marker", "render_series", "sparkline"),
        "tables": (
            "format_count_share", "format_pct", "format_usd", "render_table",
        ),
    })
