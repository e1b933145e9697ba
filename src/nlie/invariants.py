"""Basis-invariant structure computations.

Derived algebra, derived and lower central series, center, subspace
classification (subalgebra / ideal / abelian / hypo-abelian), and the
aggregated invariant report.  Everything is exact; over Q these values proxy
the algebraically closed characteristic-zero case because they are rank
conditions, stable under field extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import NLieAlgebra, bracket_subspaces, bracket_vectors
from .errors import InvalidParameterError, NotAnIdealError
from .linalg import Subspace, full_subspace, reduce_vector, span

_SERIES_HARD_CAP_EXTRA = 2  # guard for tables that do not satisfy the identity


def full_space(L: NLieAlgebra) -> Subspace:
    return full_subspace(L.field, L.dim)


def derived_algebra(L: NLieAlgebra) -> Subspace:
    """Span of all basis brackets; L is abelian iff this is zero."""
    vectors = [val for _, val in L.entries]
    return span(L.field, L.dim, vectors)


def center(L: NLieAlgebra) -> Subspace:
    """Kernel of x -> (all brackets of x against basis (n-1)-tuples)."""
    return L.center


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


def _brackets_in(L: NLieAlgebra, S: Subspace, subspaces) -> bool:
    """Every bracket of basis tuples of ``subspaces`` lies in S; stops at the
    first that leaves it."""
    p = L.field.p
    return not any(any(reduce_vector(S.basis, S.pivots, w, p))
                   for w in bracket_vectors(L, subspaces))


def _brackets_vanish(L: NLieAlgebra, subspaces) -> bool:
    """Every bracket of basis tuples of ``subspaces`` is zero; stops at the
    first that is not."""
    return next(bracket_vectors(L, subspaces), None) is None


def _pair_vanishes(L: NLieAlgebra, S: Subspace) -> bool:
    """[S, S, L, .., L] = 0."""
    return _brackets_vanish(L, (S, S) + (full_space(L),) * (L.arity - 2))


def is_abelian_subalgebra(L: NLieAlgebra, S: Subspace) -> bool:
    """[S, .., S] = 0."""
    return _brackets_vanish(L, (S,) * L.arity)


def is_ideal(L: NLieAlgebra, S: Subspace) -> bool:
    """[S, L, .., L] lies in S."""
    return _brackets_in(L, S, (S,) + (full_space(L),) * (L.arity - 1))


def is_abelian_ideal(L: NLieAlgebra, S: Subspace) -> bool:
    """An ideal S with [S, S, L, .., L] = 0."""
    return _pair_vanishes(L, S) and is_ideal(L, S)


def classify_subspace(L: NLieAlgebra, S: Subspace) -> SubspaceClass:
    """Flags for S: closure under brackets with itself and with the whole algebra."""
    abelian_sub = is_abelian_subalgebra(L, S)
    subalgebra = abelian_sub or _brackets_in(L, S, (S,) * L.arity)
    ideal = is_ideal(L, S)
    pair_zero = ideal and _pair_vanishes(L, S)  # is_abelian_ideal, the ideal test done
    return SubspaceClass(subalgebra, ideal, abelian_sub, pair_zero,
                         ideal and abelian_sub and not pair_zero)


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
