"""Exact arithmetic of integer normed pairings on binary quadratic forms.

A normed pairing for a form f is a bilinear map s: Z^2 x Z^2 -> Z^2 with
f(s(x, y)) = f(x) f(y); its existence makes the value set of f closed under
multiplication.  This package constructs the four families of such pairings,
verifies and types arbitrary candidates, transports them to 2x2 matrix
lattices and to ideals of quadratic orders, and decides (exactly, in the
positive definite case) which families a given form admits.

Modules:

    forms      forms, reduction, representation, semigroup probing
    pairings   the four pairing families, verification, typing
    trigroup   the trilinear bracket and anchored pairings
    matembed   pairings induced on matrix sublattices span(A, rE)
    lattices   rank-2 lattices in Q(tau), ideals, class-group checks
    classify   exact decision procedures for the four families
    curve      the real witness curve (floating point, for plotting)
    cli        command-line front end (JSON lines / CSV)
"""

from . import classify, curve, forms, lattices, matembed, pairings, trigroup
from .classify import *
from .curve import *
from .forms import *
from .lattices import *
from .matembed import *
from .pairings import *
from .trigroup import *

# Each module's __all__ states its public names once; a name listed twice
# would show up twice here.
__all__ = sorted(name
                 for module in (classify, curve, forms, lattices, matembed, pairings, trigroup)
                 for name in module.__all__)

__version__ = "0.1.0"
