"""Basis-invariant structure computations.

Derived algebra, derived and lower central series, center, subspace
classification (subalgebra / ideal / abelian / hypo-abelian), and the
aggregated invariant report.  The centre and the derived algebra are the
ones ``NLieAlgebra`` computes once and caches.  Everything is exact; over Q
these values proxy the algebraically closed characteristic-zero case because
they are rank conditions, stable under field extension.

The subspace predicates ``abelian_subalgebra``, ``ideal`` and
``abelian_ideal`` take RREF rows and pivots and are the only ones, for Q
(p = None) and GF(p) alike; the scans and the beta spin of ``search`` call
them directly.  They sum each bracket of ``L.maps`` exactly, reduce it mod p
only after the sum, and stop at the first bracket that decides; the brackets
of n vectors of S come from ``core.bracket_rows`` in ``brackets_within``.
``operators_generate_all`` decides that L has no proper ideal over any extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import combinations

from .core import NLieAlgebra, bracket_rows, bracket_subspaces, require_subspace
from .errors import InvalidParameterError, NotAnIdealError
from .linalg import Subspace, reduce_vector

_SERIES_HARD_CAP_EXTRA = 2  # guard for tables that do not satisfy the identity


def full_space(L: NLieAlgebra) -> Subspace:
    return L.full


def derived_algebra(L: NLieAlgebra) -> Subspace:
    """Span of all basis brackets; L is abelian iff this is zero."""
    return L.derived


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


def image(contribs, v, p, m):
    """[v, e_y] for the items ``contribs`` of one y of ``L.maps[1]``, as a
    raw list reduced mod p, or None when no item meets the support of v."""
    w = None
    for (t,), sparse in contribs:
        c = v[t]
        if c:
            if w is None:
                w = [0] * m
            for tt, cc in sparse:
                w[tt] += c * cc
    if w is not None and p is not None:
        for (t,), sparse in contribs:  # only the entries the sum reached
            if v[t]:
                for tt, _ in sparse:
                    w[tt] %= p
    return w


def commute(by_y2, u, v, p, m):
    """[u, v, e_y] = 0 for every y of ``L.maps[2]`` (given as its values)."""
    for contribs in by_y2:
        w = None
        for (c0, c1), sparse in contribs:
            d = u[c0] * v[c1] - u[c1] * v[c0]
            if d:
                if w is None:
                    w = [0] * m
                for tt, cc in sparse:
                    w[tt] += d * cc
        if w is not None:
            for x in w:  # a loop, not a reduced copy: most of these brackets are zero
                if x and (p is None or x % p):
                    return False
    return True


def brackets_within(L, rows, target, target_pivots):
    """Every bracket of n of ``rows`` lies in span(target), given in RREF."""
    p = L.field.p
    for combo in combinations(rows, L.arity):
        w = bracket_rows(L, combo)
        if w is not None and (not target or any(reduce_vector(target, target_pivots, w, p))):
            return False
    return True


def abelian_subalgebra(L: NLieAlgebra, rows, pivots) -> bool:
    """[S, .., S] = 0 for S = span(rows)."""
    return brackets_within(L, rows, (), ())


def ideal(L: NLieAlgebra, rows, pivots, vectors=None) -> bool:
    """[S, L, .., L] lies in S = span(rows); with ``vectors``, [v, L, .., L]
    lies in S for each v of them."""
    p, m = L.field.p, L.dim
    by_y = L.maps[1].values()
    for v in rows if vectors is None else vectors:
        for contribs in by_y:
            w = image(contribs, v, p, m)
            if w is not None and any(w) and any(reduce_vector(rows, pivots, w, p)):
                return False
    return True


def abelian_ideal(L: NLieAlgebra, rows, pivots) -> bool:
    """An ideal S = span(rows) with [S, S, L, .., L] = 0."""
    p, m = L.field.p, L.dim
    by_y2 = L.maps[2].values()
    for u, v in combinations(rows, 2):
        if not commute(by_y2, u, v, p, m):
            return False
    return ideal(L, rows, pivots)


def operators_generate_all(L: NLieAlgebra) -> bool:
    """The identity and the operators [., e_y] generate all of M_m.

    The ideals of L are the subspaces the operators leave invariant, so by
    Burnside's theorem this holds exactly when L has no proper nonzero ideal
    over any extension field: the absolute-irreducibility test of the
    MeatAxe (Parker 1984; Holt & Rees 1994).  The algebra is spun from the
    identity, each m x m matrix held as its columns laid end to end: every
    new element is multiplied by every operator, and each product adjoined
    to a semi-echelon basis until it holds m^2 elements."""
    f, m, p = L.field, L.dim, L.field.p
    rows, pivots = [], []
    todo = [([int(i % (m + 1) == 0) for i in range(m * m)], None)]  # the identity
    for x, contribs in todo:  # grows while it is read: every new element is spun in turn
        if contribs is not None:  # x times the operator of one y of maps[1]
            x = [v for j in range(0, m * m, m)
                 for v in image(contribs, x[j:j + m], p, m) or [0] * m]
        w = reduce_vector(rows, pivots, x, p)
        c = next((j for j, v in enumerate(w) if v), None)
        if c is None:
            continue
        inv = f.inv(w[c])
        rows.append([f.mul(v, inv) for v in w])
        pivots.append(c)
        if len(rows) == m * m:
            return True
        todo += ((rows[-1], contribs) for contribs in L.maps[1].values())
    return False


def is_abelian_subalgebra(L: NLieAlgebra, S: Subspace) -> bool:
    require_subspace(L, S)
    return abelian_subalgebra(L, S.basis, S.pivots)


def is_ideal(L: NLieAlgebra, S: Subspace) -> bool:
    require_subspace(L, S)
    return ideal(L, S.basis, S.pivots)


def is_abelian_ideal(L: NLieAlgebra, S: Subspace) -> bool:
    require_subspace(L, S)
    return abelian_ideal(L, S.basis, S.pivots)


def classify_subspace(L: NLieAlgebra, S: Subspace) -> SubspaceClass:
    """Flags for S: closure under brackets with itself and with the whole algebra."""
    require_subspace(L, S)
    rows, pivots = S.basis, S.pivots
    abelian_sub = abelian_subalgebra(L, rows, pivots)
    abelian_id = abelian_ideal(L, rows, pivots)
    is_id = abelian_id or ideal(L, rows, pivots)
    return SubspaceClass(abelian_sub or brackets_within(L, rows, rows, pivots), is_id,
                         abelian_sub, abelian_id, is_id and abelian_sub and not abelian_id)


@dataclass(frozen=True)
class SeriesReport:
    """Terms of a subspace series until it stabilizes or reaches zero."""

    terms: tuple         # Subspaces, starting with the input
    stabilized: bool
    terminated_at_zero: bool

    @property
    def dims(self) -> tuple:
        return tuple(t.dim for t in self.terms)


def _run_series(L, I, step):
    """I and its terms under ``step`` until a term is zero or repeats the one
    before; from L every series continues with the derived algebra."""
    terms = [I, derived_algebra(L)] if I.dim == L.dim else [I]
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
    return _run_series(L, I, _derived_step(L, s))


def lower_central_series(L: NLieAlgebra, I: Subspace) -> SeriesReport:
    """I, [I, I, L..], [[I,I,L..], I, L..], ...; zero-terminating means nilpotent."""
    if I.dim < L.dim and not is_ideal(L, I):
        raise NotAnIdealError("series input is not an ideal")
    return _run_series(L, I, _central_step(L, I))


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

    def differs_from(self, other: "InvariantReport") -> str | None:
        """Name of the first compared component separating the two, or None.
        A value that one side lacks (None, as a fingerprint's ``alpha_beta``
        when its search stopped at the budget) separates nothing."""
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.compare and a != b and None not in (a, b):
                return f.name
        return None


def invariant_report(L: NLieAlgebra) -> InvariantReport:
    full = full_space(L)
    derived = [_run_series(L, full, _derived_step(L, s)) for s in range(2, L.arity + 1)]
    lower = _run_series(L, full, _central_step(L, full))
    z = center(L)
    return InvariantReport(
        arity=L.arity,
        dim=L.dim,
        derived_dim=derived_algebra(L).dim,
        center_dim=z.dim,
        derived_series=tuple((s, rep.dims) for s, rep in enumerate(derived, 2)),
        lower_central=lower.dims,
        nilpotent=lower.terminated_at_zero,
        solvable=tuple((s, rep.terminated_at_zero) for s, rep in enumerate(derived, 2)),
        subspaces=((z,),) + tuple(rep.terms[1:] for rep in derived + [lower]),
    )
