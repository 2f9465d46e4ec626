"""edgestats: exact and sampled edge statistics of uniform hypergraphs.

Core objects: Hypergraph, MultilinearPoly, and the uniform k-slice.  The
modules provide exact edge-count profiles and Monte Carlo point estimates,
the pairs-plus-signs coupling of the slice to independent signs with its
exact sign-expansion coefficients, signed pair-sequence discrepancy,
anticoncentration comparisons (hypergeometric vs binomial, junta
pushforwards, Poisson-type interval bounds, slice moments), and greedy
vertex covers whose residual graphs all certify large matchings.

The package re-exports the ``__all__`` of each of those seven modules,
which is the one list of their public names.
"""

from . import anticonc, coupling, cover, discrepancy, hypergraph, multilinear, profiles
from .anticonc import *
from .coupling import *
from .cover import *
from .discrepancy import *
from .hypergraph import *
from .multilinear import *
from .profiles import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (hypergraph, profiles, multilinear, coupling, discrepancy, anticonc, cover)
    for name in module.__all__
]
