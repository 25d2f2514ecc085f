"""Exact computer-algebra workbench for Lie-admissible varieties.

Builds relatively free algebras of Novikov, bicommutative,
assosymmetric, associative, and free magma varieties degree by degree
over the rationals or a prime field, verifies polynomial identities,
computes lower central chains and Lie powers with ideal closures, and
audits finite-dimensional algebras given by structure constants. All
arithmetic is exact; every verdict is decided by rank computations, not
sampling.
"""

from .errors import (
    ExprSyntaxError,
    FieldError,
    InputError,
    ResourceError,
    SchemaError,
    UnsupportedVarietyError,
    WorkbenchError,
)
from .exprs import BUILTIN_SOURCES, Identity, builtin, builtin_names
from .fdalg import (
    FiniteDimAlgebra,
    audit,
    check_membership,
    commutator_ideal_nilpotency,
    generate_nilpotent_corpus,
    lie_series_fd,
    lower_central_fd,
)
from .ideals import (
    AlgebraSlice,
    GradedSubspace,
    check_theorem,
    lie_power_series,
    lower_central_chain,
    theorem_names,
)
from .linalg import GF, QQ, EchelonBasis, Field, SparseVector, field_of_char, member, rref, sum_bases
from .reports import canonical_json, with_schema
from .terms import (
    Monomial,
    Polynomial,
    enumerate_monomials,
    format_multidegree,
    leaf,
    multidegree,
    node,
    render_monomial,
    render_polynomial,
    substitute,
)
from .variety import (
    FreeAlgebraComponent,
    VarietySpec,
    builtin_variety,
    clear_caches,
    component_basis,
    custom_variety,
    variety_names,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSlice",
    "BUILTIN_SOURCES",
    "EchelonBasis",
    "ExprSyntaxError",
    "Field",
    "FieldError",
    "FiniteDimAlgebra",
    "FreeAlgebraComponent",
    "GF",
    "GradedSubspace",
    "Identity",
    "InputError",
    "Monomial",
    "Polynomial",
    "QQ",
    "ResourceError",
    "SchemaError",
    "SparseVector",
    "UnsupportedVarietyError",
    "VarietySpec",
    "WorkbenchError",
    "audit",
    "builtin",
    "builtin_names",
    "builtin_variety",
    "canonical_json",
    "check_membership",
    "check_theorem",
    "clear_caches",
    "commutator_ideal_nilpotency",
    "component_basis",
    "custom_variety",
    "enumerate_monomials",
    "field_of_char",
    "format_multidegree",
    "generate_nilpotent_corpus",
    "leaf",
    "lie_power_series",
    "lie_series_fd",
    "lower_central_chain",
    "lower_central_fd",
    "member",
    "multidegree",
    "node",
    "render_monomial",
    "render_polynomial",
    "rref",
    "substitute",
    "sum_bases",
    "theorem_names",
    "variety_names",
    "verify_identity",
    "with_schema",
]
