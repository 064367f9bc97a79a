"""From-scratch statistical estimators used by the paper's analyses.

Every name below loads its submodule on first access
(:mod:`repro._exports`).
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

# ``kmeans`` names both a submodule and the function it defines.  Bound
# here, the package attribute is the function whichever module imports
# ``repro.stats.kmeans`` first; the hook would only run when it is unset.
from .kmeans import kmeans

__all__ = [
    "BootstrapResult",
    "bootstrap_ci",
    "bootstrap_gini",
    "bootstrap_top_share",
    "concentration_curve",
    "gini",
    "herfindahl",
    "lorenz_curve",
    "top_share",
    "chi2_contingency",
    "HurdleResult",
    "fit_hurdle",
    "aic",
    "bic",
    "mcfadden_r2",
    "KMeansResult",
    "choose_k",
    "kmeans",
    "silhouette_score",
    "LatentTransitionResult",
    "fit_latent_transitions",
    "PoissonMixtureResult",
    "fit_poisson_mixture",
    "select_poisson_mixture",
    "DispersionTest",
    "cameron_trivedi_test",
    "dispersion_index",
    "within_class_dispersion",
    "PoissonResult",
    "add_intercept",
    "fit_poisson",
    "poisson_loglik_terms",
    "Standardizer",
    "sqrt_transform",
    "standardize",
    "VuongResult",
    "vuong_test",
    "ZIPResult",
    "fit_zip",
]

if TYPE_CHECKING:
    from .bootstrap import (
        BootstrapResult,
        bootstrap_ci,
        bootstrap_gini,
        bootstrap_top_share,
    )
    from .descriptive import (
        concentration_curve,
        gini,
        herfindahl,
        lorenz_curve,
        top_share,
    )
    from .contingency import chi2_contingency
    from .hurdle import HurdleResult, fit_hurdle
    from .information import aic, bic, mcfadden_r2
    from .kmeans import KMeansResult, choose_k, kmeans, silhouette_score
    from .ltm import LatentTransitionResult, fit_latent_transitions
    from .mixture import PoissonMixtureResult, fit_poisson_mixture, select_poisson_mixture
    from .overdispersion import (
        DispersionTest,
        cameron_trivedi_test,
        dispersion_index,
        within_class_dispersion,
    )
    from .poisson_glm import PoissonResult, add_intercept, fit_poisson, poisson_loglik_terms
    from .preprocessing import Standardizer, sqrt_transform, standardize
    from .vuong import VuongResult, vuong_test
    from .zip_model import ZIPResult, fit_zip
else:
    __getattr__, __dir__ = lazy_exports(globals(), {
        "bootstrap": (
            "BootstrapResult", "bootstrap_ci", "bootstrap_gini",
            "bootstrap_top_share",
        ),
        "descriptive": (
            "concentration_curve", "gini", "herfindahl", "lorenz_curve",
            "top_share",
        ),
        "contingency": ("chi2_contingency",),
        "hurdle": ("HurdleResult", "fit_hurdle"),
        "information": ("aic", "bic", "mcfadden_r2"),
        "kmeans": ("KMeansResult", "choose_k", "kmeans", "silhouette_score"),
        "ltm": ("LatentTransitionResult", "fit_latent_transitions"),
        "mixture": (
            "PoissonMixtureResult", "fit_poisson_mixture",
            "select_poisson_mixture",
        ),
        "overdispersion": (
            "DispersionTest", "cameron_trivedi_test", "dispersion_index",
            "within_class_dispersion",
        ),
        "poisson_glm": (
            "PoissonResult", "add_intercept", "fit_poisson",
            "poisson_loglik_terms",
        ),
        "preprocessing": ("Standardizer", "sqrt_transform", "standardize"),
        "vuong": ("VuongResult", "vuong_test"),
        "zip_model": ("ZIPResult", "fit_zip"),
    })
