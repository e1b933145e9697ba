"""Basis-invariant fingerprints and a small-scale isomorphism semidecision.

The fingerprint collects exactly the invariants used in non-isomorphism
arguments (dimensions of derived objects, series dimension profiles,
solvability/nilpotency flags, and alpha/beta over prime fields).  Equality of
fingerprints is necessary for isomorphism.

``are_isomorphic`` is exact: a ``yes`` always carries a witness matrix that
is re-verified entry by entry, and a ``no`` over GF(p) means the pruned
backtracking search exhausted all invertible maps.  Over Q the search only
tries small-entry candidate columns, so the outcome there is ``yes`` or
``unknown`` (or ``no`` via fingerprints); general isomorphism over Q is
deliberately left undecided.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace as dc_replace
from itertools import combinations, product

from .core import NLieAlgebra, bracket, bracket_basis, bracket_rows, make_algebra
from .errors import InvalidParameterError
from .fields import QQ, Field
from .invariants import (
    InvariantReport,
    center,
    full_space,
    invariant_report,
    lower_central_series,
    s_derived_series,
)
from .linalg import Matrix, reduce_vector

_AB_AUTO_LIMIT = 200_000


@dataclass(frozen=True)
class Fingerprint(InvariantReport):
    """Invariant summary; every component is stable under change of basis."""

    alpha_beta: tuple | None   # (alpha, beta) for prime fields, else None

    def to_dict(self):
        return dict(super().to_dict(),
                    alpha_beta=list(self.alpha_beta) if self.alpha_beta else None)

    def differs_from(self, other: "Fingerprint") -> str | None:
        """Name of the first component separating the two, or None."""
        for f in fields(self):
            if getattr(self, f.name) != getattr(other, f.name):
                return f.name
        return None


def fingerprint(L: NLieAlgebra, *, alpha_beta: str | bool = "auto",
                budget: int = _AB_AUTO_LIMIT) -> Fingerprint:
    """Deterministic basis-invariant of L: its invariant report plus alpha/beta.

    alpha/beta are included for prime fields when the full scan fits the
    budget (decided from (dim, p) only, so comparable inputs agree on
    inclusion); they are never included over Q, where the exact values are
    not computed.
    """
    from .search import alpha_beta_exact_fp, gaussian_binomial

    ab = None
    if L.field.p is not None:
        include = alpha_beta is True
        if alpha_beta == "auto":
            total = sum(gaussian_binomial(L.dim, k, L.field.p)
                        for k in range(L.dim + 1))
            include = 2 * total <= budget
        if include:
            res = alpha_beta_exact_fp(L, budget=budget)
            if res.alpha_exact and res.beta_exact:
                ab = (res.alpha, res.beta)
    return Fingerprint(**vars(invariant_report(L)), alpha_beta=ab)


def change_basis(L: NLieAlgebra, P: Matrix) -> NLieAlgebra:
    """Algebra in the basis whose vectors are the columns of P (old coordinates)."""
    if P.field != L.field or P.nrows != L.dim or P.ncols != L.dim:
        raise InvalidParameterError("change of basis needs a square matrix over the same field")
    if not P.is_invertible():
        raise InvalidParameterError("change of basis requires an invertible matrix")
    f = L.field
    m = L.dim
    inv = P.inverse()
    cols = [P.column(j) for j in range(m)]
    entries = {}
    for key in combinations(range(m), L.arity):
        w = bracket(L, [cols[i] for i in key])
        entries[tuple(i + 1 for i in key)] = inv.matvec(w)
    out = make_algebra(f, L.arity, m, entries)
    if L.fi_checked:
        # conjugation preserves the identity
        out = dc_replace(out, fi_checked=True)
    return out


def random_invertible_matrix(field: Field, n: int, seed: int) -> Matrix:
    """Seeded invertible matrix; over Q a product of unimodular row operations."""
    rng = random.Random(seed)
    if field.p is None:
        rows = [[QQ.one if i == j else QQ.zero for j in range(n)] for i in range(n)]
        for _ in range(3 * n + 4):
            op = rng.randrange(3)
            i = rng.randrange(n)
            j = rng.randrange(n)
            if op == 0 and i != j:
                rows[i], rows[j] = rows[j], rows[i]
            elif op == 1:
                rows[i] = [-x for x in rows[i]]
            elif i != j:
                k = rng.choice((-2, -1, 1, 2))
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        return Matrix.from_rows(field, rows)
    p = field.p
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        M = Matrix.from_rows(field, rows)
        if M.is_invertible():
            return M


def random_basis_change(L: NLieAlgebra, seed: int) -> NLieAlgebra:
    """Conjugate L by a seeded random invertible matrix (isomorphic by construction)."""
    return change_basis(L, random_invertible_matrix(L.field, L.dim, seed))


@dataclass(frozen=True)
class IsoResult:
    verdict: str               # "yes" | "no" | "unknown"
    witness: Matrix | None
    reason: str | None
    nodes: int

    def to_dict(self):
        wit = None
        if self.witness is not None:
            f = self.witness.field
            wit = [[f.format(x) for x in row] for row in self.witness.rows]
        return {"verdict": self.verdict, "witness": wit,
                "reason": self.reason, "nodes": self.nodes}


def _verify_witness(L1, L2, P: Matrix) -> bool:
    if not P.is_invertible():
        return False
    f = L1.field
    m = L1.dim
    cols = [P.column(j) for j in range(m)]
    for key in combinations(range(m), L1.arity):
        lhs = bracket(L2, [cols[i] for i in key])
        c = bracket_basis(L1, key)
        rhs = [f.zero] * m
        for t, coeff in enumerate(c):
            if coeff != f.zero:
                for r in range(m):
                    rhs[r] = f.add(rhs[r], f.mul(coeff, cols[t][r]))
        if lhs != tuple(rhs):
            return False
    return True


def _invariant_subspace_pairs(L1, L2):
    """Aligned invariant subspaces; an isomorphism maps each left one onto its mate."""
    pairs = [(center(L1), center(L2))]
    full1, full2 = full_space(L1), full_space(L2)
    for s in range(2, L1.arity + 1):
        t1 = s_derived_series(L1, full1, s).terms
        t2 = s_derived_series(L2, full2, s).terms
        pairs += list(zip(t1[1:], t2[1:]))
    t1 = lower_central_series(L1, full1).terms
    t2 = lower_central_series(L2, full2).terms
    pairs += list(zip(t1[1:], t2[1:]))
    return [(u, w) for u, w in pairs if u.dim == w.dim and u.dim < L1.dim]


def _candidate_vectors(field: Field, m: int):
    if field.p is not None:
        vals = list(range(field.p))
    else:
        vals = [QQ.validate(-1), QQ.zero, QQ.one]
    for tup in product(vals, repeat=m):
        if any(x != field.zero for x in tup):
            yield tup


def are_isomorphic(L1: NLieAlgebra, L2: NLieAlgebra, *,
                   budget: int = 2_000_000) -> IsoResult:
    """Decide isomorphism where feasible.

    Fingerprint mismatch gives a certified ``no``.  Otherwise a backtracking
    search assigns images of basis vectors (most-constrained index first,
    candidates in lexicographic order), pruning by linear independence,
    invariant-subspace containment and every bracket constraint as soon as
    its support is assigned.  Over GF(p) an exhausted search is a certified
    ``no``; over Q exhaustion of the small candidate pool gives ``unknown``.
    """
    if L1.arity != L2.arity or L1.dim != L2.dim or L1.field != L2.field:
        raise InvalidParameterError("isomorphism requires equal arity, dimension and field")
    m = L1.dim
    f = L1.field

    if L1.entries == L2.entries:
        return IsoResult("yes", Matrix.identity(f, m), "identical tables", 0)

    fp1, fp2 = fingerprint(L1), fingerprint(L2)
    diff = fp1.differs_from(fp2)
    if diff is not None:
        return IsoResult("no", None, f"fingerprint: {diff}", 0)

    pairs = _invariant_subspace_pairs(L1, L2)

    # most-constrained first: high bracket degree, then small image pool
    degree = {i: 0 for i in range(m)}
    for cols, _ in L1.entries:
        for i in cols:
            degree[i] += 1
    pool_dim = {}
    for i in range(m):
        dims = [w.dim for u, w in pairs if u.contains_vector(
            tuple(f.one if t == i else f.zero for t in range(m)))]
        pool_dim[i] = min(dims) if dims else m
    order = sorted(range(m), key=lambda i: (-degree[i], pool_dim[i], i))

    constraints = []
    for key in combinations(range(m), L1.arity):
        c = bracket_basis(L1, key)
        support = tuple(t for t, x in enumerate(c) if x != f.zero)
        constraints.append((key, c, support))

    unit = [tuple(f.one if t == i else f.zero for t in range(m)) for i in range(m)]
    candidates_all = list(_candidate_vectors(f, m))
    exhaustive = f.p is not None

    # static per-index candidate pools (image must lie in every invariant
    # subspace of L2 whose mate contains e_i); lexicographic order preserved
    pool_candidates = {}
    for i in range(m):
        targets = [w for u, w in pairs if u.contains_vector(unit[i])]
        if targets:
            pool_candidates[i] = [c for c in candidates_all
                                  if all(w.contains_vector(c) for w in targets)]
        else:
            pool_candidates[i] = candidates_all

    assigned_cols: dict[int, tuple] = {}
    nodes = 0
    budget_hit = False

    def constraint_ready(key, support, assigned):
        return all(i in assigned for i in key) and all(t in assigned for t in support)

    def check_constraints(assigned, fresh):
        for key, c, support in constraints:
            if fresh not in key and fresh not in support:
                continue
            if not constraint_ready(key, support, assigned):
                continue
            lhs = bracket_rows(L2, [assigned[i] for i in key])
            rhs = [f.zero] * m
            for t in support:
                coeff = c[t]
                col = assigned[t]
                for r in range(m):
                    if col[r] != f.zero:
                        rhs[r] = f.add(rhs[r], f.mul(coeff, col[r]))
            if (lhs or [f.zero] * m) != rhs:
                return False
        return True

    def extend(depth, rows, pivots):
        """Assign order[depth..]; rows/pivots: echelon form of the columns so far."""
        nonlocal nodes, budget_hit
        if depth == m:
            return True
        i = order[depth]
        for cand in pool_candidates[i]:
            nodes += 1
            if nodes > budget:
                budget_hit = True
                return False
            residual = reduce_vector(rows, pivots, cand, f.p)
            if not any(residual):
                continue
            assigned_cols[i] = cand
            if check_constraints(assigned_cols, i):
                piv = next(j for j, x in enumerate(residual) if x)
                inv = f.inv(residual[piv])
                row = tuple(f.mul(inv, x) for x in residual)
                if extend(depth + 1, rows + [row], pivots + [piv]):
                    return True
                if budget_hit:
                    del assigned_cols[i]
                    return False
            del assigned_cols[i]
        return False

    found = extend(0, [], [])
    if found:
        P = Matrix.from_rows(f, [[assigned_cols[j][r] for j in range(m)]
                                 for r in range(m)])
        if _verify_witness(L1, L2, P):
            return IsoResult("yes", P, None, nodes)
        return IsoResult("unknown", None, "internal witness verification failed", nodes)
    if budget_hit:
        return IsoResult("unknown", None, "budget exhausted", nodes)
    if exhaustive:
        return IsoResult("no", None, "search exhausted over the prime field", nodes)
    return IsoResult("unknown", None,
                     "no witness among small-entry candidates over Q", nodes)
