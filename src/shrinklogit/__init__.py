"""Shrinkage estimators for multicollinear binary logistic regression.

The package fits the logistic MLE by IRLS, evaluates a family of
restricted and Liu-type shrinkage estimators on the fitted working
quantities, computes their exact bias, covariance, and (matrix) mean
squared error at known truth, runs executable dominance checks between
them, and reproduces the standard correlated-design Monte Carlo
comparison with deterministic, parallel-safe seeding.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package republishes those lists. The command line
(:mod:`shrinklogit.cli`) is the program, not the library, and is not
republished.
"""

from . import datasets, dominance, errors, estimators, linalg, logit, risk, scenarios, simulation

# Read before the star imports, which rebind ``risk`` to the function.
__all__ = [
    name
    for module in (datasets, dominance, errors, estimators, linalg, logit, risk, scenarios, simulation)
    for name in module.__all__
]

from .datasets import *  # noqa: E402, F403
from .dominance import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .estimators import *  # noqa: E402, F403
from .linalg import *  # noqa: E402, F403
from .logit import *  # noqa: E402, F403
from .risk import *  # noqa: E402, F403
from .scenarios import *  # noqa: E402, F403
from .simulation import *  # noqa: E402, F403

__version__ = "0.1.0"
