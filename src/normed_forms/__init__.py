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

from .classify import (
    ClassificationReport,
    Decision,
    Order3Verdict,
    full_classification,
    minus_minus_bounds,
    minus_minus_witnesses,
    order3_verdict,
    search_minus_minus,
    search_plus,
)
from .curve import (
    CurvePoint,
    EmbeddingMatrix,
    curve_embedding,
    curve_phase,
    curve_quadruple,
    curve_sample,
    embedding_to_quadruple,
)
from .forms import (
    DegenerateFormError,
    Definiteness,
    Form,
    SemigroupReport,
    principal_form,
    reduced_forms,
    semigroup_probe,
)
from .lattices import (
    CanonicalBasis,
    Context,
    Lattice,
    QuadElem,
    embed_form,
    hnf_from_generators,
    order_lattice,
    quadratic_order,
    sigma,
)
from .matembed import (
    Sublattice,
    adjugate,
    canonicalize,
    check_stability,
    induced_pairing,
    matrix_pair,
)
from .pairings import (
    PLUS_VARIANT_TYPES,
    Pairing,
    PairingType,
    PlusParams,
    Quadruple,
    TYPE_MM,
    TYPE_MP,
    TYPE_PM,
    TYPE_PP,
    derive_form_minus_minus,
    from_commutative_traceless,
    from_operator_matrices,
    is_normed,
    left_map_det,
    make_minus_minus,
    make_plus,
    quadruple_of,
    right_map_det,
    type_of,
)
from .trigroup import (
    anchored_pairings,
    bracket,
    bracket_is_multiplicative,
)

__all__ = [
    "CanonicalBasis",
    "ClassificationReport",
    "Context",
    "CurvePoint",
    "Decision",
    "DegenerateFormError",
    "Definiteness",
    "EmbeddingMatrix",
    "Form",
    "Lattice",
    "Order3Verdict",
    "PLUS_VARIANT_TYPES",
    "Pairing",
    "PairingType",
    "PlusParams",
    "QuadElem",
    "Quadruple",
    "SemigroupReport",
    "Sublattice",
    "TYPE_MM",
    "TYPE_MP",
    "TYPE_PM",
    "TYPE_PP",
    "adjugate",
    "anchored_pairings",
    "bracket",
    "bracket_is_multiplicative",
    "canonicalize",
    "check_stability",
    "curve_embedding",
    "curve_phase",
    "curve_quadruple",
    "curve_sample",
    "derive_form_minus_minus",
    "embed_form",
    "embedding_to_quadruple",
    "from_commutative_traceless",
    "from_operator_matrices",
    "full_classification",
    "hnf_from_generators",
    "induced_pairing",
    "is_normed",
    "left_map_det",
    "make_minus_minus",
    "make_plus",
    "matrix_pair",
    "minus_minus_bounds",
    "minus_minus_witnesses",
    "order3_verdict",
    "order_lattice",
    "principal_form",
    "quadratic_order",
    "quadruple_of",
    "reduced_forms",
    "right_map_det",
    "search_minus_minus",
    "search_plus",
    "semigroup_probe",
    "sigma",
    "type_of",
]

__version__ = "0.1.0"
