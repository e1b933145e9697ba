"""Exact computations for finite-dimensional n-ary Lie (Filippov) algebras.

Algebras are given by totally antisymmetric structure constants over Q or
GF(p).  The package computes bracket expansions, the fundamental-identity
check, derived/lower-central series, centers, subspace classification,
exact maximal abelian subalgebra/ideal dimensions over prime fields,
certified bounds over Q, the classified catalog families, and small-scale
isomorphism certification.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    FundamentalIdentityError,
    InvalidParameterError,
    NLieError,
    NotAnIdealError,
    ParseError,
    UnsupportedRequestError,
)
from .fields import GF, QQ, Field, PrimeField, RationalField, is_prime
from .linalg import (
    Matrix,
    Subspace,
    coordinate_subspace,
    full_subspace,
    span,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)
from .core import (
    FIReport,
    FIViolation,
    NLieAlgebra,
    abelian_algebra,
    bracket,
    bracket_basis,
    bracket_subspaces,
    check_fundamental_identity,
    load_algebra,
    load_subspace,
    make_algebra,
    parse_algebra,
    parse_subspace,
    save_algebra,
    serialize_algebra,
    serialize_subspace,
    with_fi_checked,
)
from .invariants import (
    InvariantReport,
    SeriesReport,
    SubspaceClass,
    center,
    classify_subspace,
    derived_algebra,
    full_space,
    invariant_report,
    is_2step_s_solvable,
    is_nilpotent,
    is_s_solvable,
    lower_central_series,
    s_derived_series,
)
from .search import (
    AlphaBetaResult,
    abelian_bounds_q,
    alpha_beta_exact_fp,
    enumerate_subspaces,
    gaussian_binomial,
    reduce_mod_p,
)
from .catalog import (
    CATALOG,
    CatalogEntry,
    LIE_CATALOG,
    Theorem44Verdict,
    associated_lie,
    catalog_build,
    classify_theorem44,
    direct_sum,
    entries_for_dims,
    lie_catalog_build,
    representative_entries,
    semidirect_A4,
    trivial_extension,
)
from .iso import (
    Fingerprint,
    IsoResult,
    are_isomorphic,
    change_basis,
    fingerprint,
    random_basis_change,
    random_invertible_matrix,
)
from .verify import CheckResult, SuiteResult, run_suite
