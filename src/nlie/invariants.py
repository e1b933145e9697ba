"""Basis-invariant structure computations.

Derived algebra, derived and lower central series, center, subspace
classification (subalgebra / ideal / abelian / hypo-abelian), and the
aggregated invariant report.  Everything is exact; over Q these values proxy
the algebraically closed characteristic-zero case because they are rank
conditions, stable under field extension.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    kind: str            # "s-derived" or "lower-central"
    s: int | None
    terms: tuple         # Subspaces, starting with the input
    stabilized: bool
    terminated_at_zero: bool

    @property
    def dims(self) -> tuple:
        return tuple(t.dim for t in self.terms)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "dims": list(self.dims),
            "stabilized": self.stabilized,
            "terminated_at_zero": self.terminated_at_zero,
        }
        if self.s is not None:
            out["s"] = self.s
        return out


def _run_series(L, I, step, kind, s):
    terms = [I]
    cap = L.dim + len(terms) + _SERIES_HARD_CAP_EXTRA
    while True:
        cur = terms[-1]
        if cur.is_zero:
            return SeriesReport(kind, s, tuple(terms), True, True)
        nxt = step(cur)
        terms.append(nxt)
        if nxt.is_zero:
            return SeriesReport(kind, s, tuple(terms), True, True)
        if nxt == cur:
            return SeriesReport(kind, s, tuple(terms), True, False)
        if len(terms) > cap:
            return SeriesReport(kind, s, tuple(terms), False, False)


def s_derived_series(L: NLieAlgebra, I: Subspace, s: int) -> SeriesReport:
    """I, [I,..s..,I,L,..,L], ... for an ideal I; zero-terminating means s-solvable."""
    n = L.arity
    if not (2 <= s <= n):
        raise InvalidParameterError(f"s must be in 2..{n}, got {s}")
    if not is_ideal(L, I):
        raise NotAnIdealError("series input is not an ideal")
    full = full_space(L)

    def step(cur):
        return bracket_subspaces(L, (cur,) * s + (full,) * (n - s))

    return _run_series(L, I, step, "s-derived", s)


def lower_central_series(L: NLieAlgebra, I: Subspace) -> SeriesReport:
    """I, [I, I, L..], [[I,I,L..], I, L..], ...; zero-terminating means nilpotent."""
    n = L.arity
    if not is_ideal(L, I):
        raise NotAnIdealError("series input is not an ideal")
    full = full_space(L)

    def step(cur):
        return bracket_subspaces(L, (cur, I) + (full,) * (n - 2))

    return _run_series(L, I, step, "lower-central", None)


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
    series = []
    solvable = []
    for s in range(2, L.arity + 1):
        rep = s_derived_series(L, full, s)
        series.append((s, rep.dims))
        solvable.append((s, rep.terminated_at_zero))
    lower = lower_central_series(L, full)
    return InvariantReport(
        arity=L.arity,
        dim=L.dim,
        derived_dim=derived_algebra(L).dim,
        center_dim=center(L).dim,
        derived_series=tuple(series),
        lower_central=lower.dims,
        nilpotent=lower.terminated_at_zero,
        solvable=tuple(solvable),
    )
