"""Finite groupoids, circle-valued 2-cocycles, twisted convolution algebras,
and certified mode decompositions of their circle extensions."""

__version__ = "0.1.0"

from .exact import CircleScalar, Cyclo
from .groupoid import (
    FiniteGroupoid,
    GroupoidError,
    ValidationReport,
    abelian_group_groupoid,
    cover_groupoid,
    cyclic_group_groupoid,
    disjoint_union,
    group_groupoid,
    is_principal,
    is_proper,
    is_transitive,
    pair_groupoid,
    quotient_by_isotropy,
    symmetric_group_groupoid,
    validate,
)
from .cocycle import (
    CocycleError,
    IsotropyObstruction,
    OneCochain,
    TwoCocycle,
    bicharacter_cocycle,
    normalize,
    pauli_cocycle,
    solve_coboundary,
    trivialize_principal,
)
from .algebra import (
    AlgebraElement,
    AlgebraError,
    FullNormCertificate,
    NormReport,
    RegularRep,
    TwistedAlgebra,
)
from .cyclic_oracle import CyclicExtension, OracleError
from .extension import (
    DecompositionReport,
    ExtensionAlgebra,
    LaurentElement,
    WindowError,
    check_reduced_decomposition,
    cyclic_decompose,
    cyclic_extension,
    decompose,
    intertwine_check,
    mode_projection,
    oracle_norm_deviation,
)
from .morita import (
    FullnessCertificate,
    MoritaError,
    fullness_check,
    inner_products,
    positivity_check,
    saturation_report,
)
from .documents import (
    DocumentError,
    SpecDocument,
    parse_cocycle,
    parse_groupoid,
    parse_spec,
)
