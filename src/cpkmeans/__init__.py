"""Change-point detection for high-dimensional two-segment Gaussian signals.

The split estimator is the two-class k-means minimizer over the first T
coordinates of each signal; the truncation level T can be fixed, picked
by a windowed-energy rule on an off-line surrogate vector, or picked by
one of two practical selectors.  ``experiments`` reproduces the
associated Monte Carlo studies deterministically.

Each module's ``__all__`` is the one list of its public names; the
package exports all of them.
"""

from . import errors, estimator, experiments, model, smoothing, stats
from .errors import *  # noqa: F403
from .estimator import *  # noqa: F403
from .experiments import *  # noqa: F403
from .model import *  # noqa: F403
from .smoothing import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, model, estimator, smoothing, stats, experiments)
    for name in module.__all__
]
