"""Protection numbers of random plane trees, computed three independent ways.

The protection number of a vertex is its distance to the nearest leaf of
its own subtree.  This package computes the distribution of that number
for the root (X) and for a uniformly chosen vertex (Y) of a uniformly
chosen n-vertex plane tree, by a brute-force count over every tree word,
by exact generating-function arithmetic, and by asymptotic expansion, and
checks the three against each other.

The package root re-exports every name in the `__all__` of its six
library modules; it does not import `acceptance` or `cli`.
"""

from . import asymptotics, exact, mellin, sampler, series, trees
from .asymptotics import *
from .exact import *
from .mellin import *
from .sampler import *
from .series import *
from .trees import *

__version__ = "0.1.0"

__all__ = [
    *asymptotics.__all__,
    *exact.__all__,
    *mellin.__all__,
    *sampler.__all__,
    *series.__all__,
    *trees.__all__,
]
