"""Numerical verification toolkit for Kahler submanifolds with parallel
pluri-mean curvature (ppmc).

The package checks, on an explicit fixture zoo, the identities relating a
Kahler immersion to its rotated second fundamental forms, its (real and
complex) Gauss maps, the isotropy decomposition of the normal bundle, and
the flag-manifold linear algebra behind the superhorizontal lifts.
"""

__version__ = "0.1.0"

from .chartcalc import ChartedImmersion, Jet3, eval_jet, fd_jet_oracle
from .fixtures import registry

__all__ = [
    "ChartedImmersion",
    "Jet3",
    "eval_jet",
    "fd_jet_oracle",
    "registry",
    "__version__",
]
