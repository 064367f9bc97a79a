"""Contract-graph construction, degree analyses and power-law fitting.

Every name below loads its submodule on first access
(:mod:`repro._exports`).
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

__all__ = [
    "DegreeDistributions",
    "DegreeGrowthPoint",
    "dataset_degree_distributions",
    "degree_distributions",
    "degree_growth",
    "DEGREE_KINDS",
    "ContractGraph",
    "GraphMetrics",
    "graph_metrics",
    "random_baseline_metrics",
    "PowerLawFit",
    "fit_power_law",
    "loglik_ratio_vs_exponential",
]

if TYPE_CHECKING:
    from .degrees import (
        DegreeDistributions,
        DegreeGrowthPoint,
        dataset_degree_distributions,
        degree_distributions,
        degree_growth,
    )
    from .graph import DEGREE_KINDS, ContractGraph
    from .metrics import GraphMetrics, graph_metrics, random_baseline_metrics
    from .powerlaw import PowerLawFit, fit_power_law, loglik_ratio_vs_exponential
else:
    __getattr__, __dir__ = lazy_exports(globals(), {
        "degrees": (
            "DegreeDistributions", "DegreeGrowthPoint",
            "dataset_degree_distributions", "degree_distributions",
            "degree_growth",
        ),
        "graph": ("DEGREE_KINDS", "ContractGraph"),
        "metrics": (
            "GraphMetrics", "graph_metrics", "random_baseline_metrics",
        ),
        "powerlaw": (
            "PowerLawFit", "fit_power_law", "loglik_ratio_vs_exponential",
        ),
    })
