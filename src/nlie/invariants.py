"""Basis-invariant structure computations.

Derived algebra, derived and lower central series, center, subspace
classification (subalgebra / ideal / abelian / hypo-abelian), and the
aggregated invariant report.  Everything is exact; over Q these values proxy
the algebraically closed characteristic-zero case because they are rank
conditions, stable under field extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import NLieAlgebra, bracket_subspaces
from .errors import DimensionMismatchError, InvalidParameterError, NotAnIdealError
from .fields import same_field
from .linalg import Matrix, Subspace, full_subspace, span

_SERIES_HARD_CAP_EXTRA = 2  # guard for tables that do not satisfy the identity


def full_space(L: NLieAlgebra) -> Subspace:
    return full_subspace(L.field, L.dim)


def derived_algebra(L: NLieAlgebra) -> Subspace:
    """Span of all basis brackets; L is abelian iff this is zero."""
    vectors = [val for _, val in L.entries]
    return span(L.field, L.dim, vectors)


def center(L: NLieAlgebra) -> Subspace:
    """Kernel of x -> (all brackets of x against basis (n-1)-tuples)."""
    f = L.field
    m = L.dim
    rows = []
    for contribs in L.maps[1].values():
        # contribs give [e_t, e_y] per t; transpose into coordinate rows
        block = {}
        for (t,), sparse in contribs:
            for r, c in sparse:
                block.setdefault(r, [f.zero] * m)[t] = c
        rows += block.values()
    if not rows:
        return full_space(L)
    return Matrix.from_rows(f, rows, m).kernel()


@dataclass(frozen=True)
class SubspaceClass:
    is_subalgebra: bool
    is_ideal: bool
    is_abelian_subalgebra: bool
    is_abelian_ideal: bool
    is_hypo_abelian_ideal: bool

    def to_dict(self) -> dict:
        return {
            "is_subalgebra": self.is_subalgebra,
            "is_ideal": self.is_ideal,
            "is_abelian_subalgebra": self.is_abelian_subalgebra,
            "is_abelian_ideal": self.is_abelian_ideal,
            "is_hypo_abelian_ideal": self.is_hypo_abelian_ideal,
        }


def classify_subspace(L: NLieAlgebra, S: Subspace) -> SubspaceClass:
    """Flags for S: closure under brackets with itself and with the whole algebra."""
    same_field(L.field, S.field)
    if S.ambient_dim != L.dim:
        raise DimensionMismatchError("subspace ambient dimension mismatch")
    n = L.arity
    full = full_space(L)
    self_bracket = bracket_subspaces(L, (S,) * n)
    is_subalgebra = self_bracket <= S
    is_abelian_sub = self_bracket.is_zero
    ideal_bracket = bracket_subspaces(L, (S,) + (full,) * (n - 1))
    is_ideal = ideal_bracket <= S
    pair_bracket = bracket_subspaces(L, (S, S) + (full,) * (n - 2))
    is_abelian_ideal = is_ideal and pair_bracket.is_zero
    is_hypo = is_ideal and is_abelian_sub and not pair_bracket.is_zero
    return SubspaceClass(is_subalgebra, is_ideal, is_abelian_sub,
                         is_abelian_ideal, is_hypo)


def is_ideal(L: NLieAlgebra, S: Subspace) -> bool:
    n = L.arity
    full = full_space(L)
    return bracket_subspaces(L, (S,) + (full,) * (n - 1)) <= S


@dataclass(frozen=True)
class SeriesReport:
    """Terms of a subspace series until it stabilizes or reaches zero."""

    terms: tuple         # Subspaces, starting with the input
    stabilized: bool
    terminated_at_zero: bool

    @property
    def dims(self) -> tuple:
        return tuple(t.dim for t in self.terms)


def _run_series(L, terms, step):
    """Extend ``terms`` by ``step`` until a term is zero or repeats the one before."""
    terms = list(terms)
    cap = L.dim + 1 + _SERIES_HARD_CAP_EXTRA
    while True:
        cur = terms[-1]
        if cur.is_zero:
            return SeriesReport(tuple(terms), True, True)
        if len(terms) > 1 and cur == terms[-2]:
            return SeriesReport(tuple(terms), True, False)
        if len(terms) > cap:
            return SeriesReport(tuple(terms), False, False)
        terms.append(step(cur))


def _derived_step(L, s):
    n = L.arity
    full = full_space(L)
    return lambda cur: bracket_subspaces(L, (cur,) * s + (full,) * (n - s))


def _central_step(L, I):
    n = L.arity
    full = full_space(L)
    return lambda cur: bracket_subspaces(L, (cur, I) + (full,) * (n - 2))


def s_derived_series(L: NLieAlgebra, I: Subspace, s: int) -> SeriesReport:
    """I, [I,..s..,I,L,..,L], ... for an ideal I; zero-terminating means s-solvable."""
    n = L.arity
    if not (2 <= s <= n):
        raise InvalidParameterError(f"s must be in 2..{n}, got {s}")
    if I.dim < L.dim and not is_ideal(L, I):  # L itself is an ideal
        raise NotAnIdealError("series input is not an ideal")
    return _run_series(L, [I], _derived_step(L, s))


def lower_central_series(L: NLieAlgebra, I: Subspace) -> SeriesReport:
    """I, [I, I, L..], [[I,I,L..], I, L..], ...; zero-terminating means nilpotent."""
    if I.dim < L.dim and not is_ideal(L, I):
        raise NotAnIdealError("series input is not an ideal")
    return _run_series(L, [I], _central_step(L, I))


def is_s_solvable(L: NLieAlgebra, s: int) -> bool:
    return s_derived_series(L, full_space(L), s).terminated_at_zero


def is_2step_s_solvable(L: NLieAlgebra, s: int) -> bool:
    """True when the second derived term already vanishes."""
    rep = s_derived_series(L, full_space(L), s)
    return rep.terminated_at_zero and len(rep.terms) <= 3


def is_nilpotent(L: NLieAlgebra) -> bool:
    return lower_central_series(L, full_space(L)).terminated_at_zero


@dataclass(frozen=True)
class InvariantReport:
    """Aggregated basis-invariant summary of one algebra."""

    arity: int
    dim: int
    derived_dim: int
    center_dim: int
    derived_series: tuple   # ((s, dims), ...) for s = 2..arity
    lower_central: tuple    # dims
    nilpotent: bool
    solvable: tuple         # ((s, flag), ...)
    # Subspaces, one tuple per series: (center,), the terms after L of each
    # s-derived series, then of the lower central series.  Basis-dependent,
    # so they take no part in equality, hashing, repr or to_dict.
    subspaces: tuple = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "arity": self.arity,
            "dim": self.dim,
            "derived_dim": self.derived_dim,
            "center_dim": self.center_dim,
            "derived_series": {str(s): list(d) for s, d in self.derived_series},
            "lower_central": list(self.lower_central),
            "nilpotent": self.nilpotent,
            "solvable": {str(s): flag for s, flag in self.solvable},
        }


def invariant_report(L: NLieAlgebra) -> InvariantReport:
    full = full_space(L)
    # every series from L continues with [L, .., L], the derived algebra
    head = [full, bracket_subspaces(L, (full,) * L.arity)]
    derived = [_run_series(L, head, _derived_step(L, s)) for s in range(2, L.arity + 1)]
    lower = _run_series(L, head, _central_step(L, full))
    z = center(L)
    return InvariantReport(
        arity=L.arity,
        dim=L.dim,
        derived_dim=head[1].dim,
        center_dim=z.dim,
        derived_series=tuple((s, rep.dims) for s, rep in enumerate(derived, 2)),
        lower_central=lower.dims,
        nilpotent=lower.terminated_at_zero,
        solvable=tuple((s, rep.terminated_at_zero) for s, rep in enumerate(derived, 2)),
        subspaces=((z,),) + tuple(rep.terms[1:] for rep in derived + [lower]),
    )
