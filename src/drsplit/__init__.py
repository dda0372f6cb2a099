"""Douglas-Rachford splitting with matrix-inequality convergence certificates.

The library has three layers: a small proximal-operator toolbox and the DRS /
relaxed-ADMM iterations (``prox``, ``splitting``), the certificate algebra for
the three function-class regimes (``funclass``, ``certify``), and a validated
LAPACK-backed symmetric eigensolver plus the linear-rate optimizer
(``sdplite``).  ``cli`` exposes problem generators and a command-line harness.

The package re-exports the ``__all__`` of each library module, so each public
list is written once, in its module.
"""

from . import certify, funclass, prox, sdplite, splitting
from .funclass import *
from .prox import *
from .splitting import *
from .certify import *
from .sdplite import *

__all__ = [name for module in (funclass, prox, splitting, certify, sdplite)
           for name in module.__all__]

__version__ = "0.1.0"
