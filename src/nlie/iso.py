"""Basis-invariant fingerprints and a small-scale isomorphism semidecision.

The fingerprint collects exactly the invariants used in non-isomorphism
arguments (dimensions of derived objects, series dimension profiles,
solvability/nilpotency flags, and alpha/beta over prime fields).  Equality of
fingerprints is necessary for isomorphism.  It compares values only, so its
alpha/beta come from the value-only search, which reports no witness.

``are_isomorphic`` is exact.  Its certificates, in order: identical tables
(``yes``), unequal invariant reports (``no``), over GF(p) unequal numbers of
1-dimensional ideals (``no``), and a backtracking search whose columns lie
in the mates of the invariant subspaces that hold their basis vectors, stay
independent modulo those mates where L1 requires it, and meet each bracket
relation at its earliest depth; its ``yes`` carries a witness matrix
P re-checked on raw rows (P invertible, and for every increasing key the
bracket of L2 on P's columns equal to P applied to L1's value there) and its
exhaustion over GF(p) is a ``no``.  Over Q the search tries small-entry
columns and forced images only, so the outcome there is ``yes`` or
``unknown`` (or ``no`` via the reports).  No alpha/beta search runs and no
plane is counted: neither ever separated catalog or census tables whose
reports and numbers of ideal lines agree.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace as dc_replace
from functools import reduce
from itertools import combinations, product
from operator import itemgetter

from .core import NLieAlgebra, bracket, bracket_basis, bracket_rows, make_algebra
from .errors import DimensionMismatchError, InvalidParameterError
from .fields import QQ, Field
from .invariants import (
    InvariantReport,
    center,
    derived_algebra,
    ideal,
    invariant_report,
    operators_generate_all,
)
from .linalg import Matrix, full_subspace, reduce_vector, subspace_intersect
from .search import alpha_beta_exact_fp, gaussian_binomial, walk_within

_CERTIFICATE_BUDGET = 20_000
DEFAULT_ISO_BUDGET = 2_000_000


@dataclass(frozen=True)
class Fingerprint(InvariantReport):
    """Invariant summary; each component, when not None, is stable under
    change of basis.  ``are_isomorphic`` compares the report part only;
    alpha_beta is reported, never used as a certificate."""

    alpha_beta: tuple | None   # (alpha, beta) over GF(p) if the search completed

    def to_dict(self):
        return dict(super().to_dict(),
                    alpha_beta=list(self.alpha_beta) if self.alpha_beta else None)


def fingerprint(L: NLieAlgebra) -> Fingerprint:
    """Deterministic basis-invariant of L: its invariant report plus (alpha,
    beta) over GF(p) by the value-only search (``witnesses=False``) under
    ``_CERTIFICATE_BUDGET``; alpha_beta is None when that search stops, and
    over Q, where the exact values are not computed."""
    res = L.field.p and alpha_beta_exact_fp(L, budget=_CERTIFICATE_BUDGET, witnesses=False)
    ab = (res.alpha, res.beta) if res and res.complete else None
    return Fingerprint(**vars(invariant_report(L)), alpha_beta=ab)


def change_basis(L: NLieAlgebra, P: Matrix) -> NLieAlgebra:
    """Algebra in the basis whose vectors are the columns of P (old coordinates)."""
    if P.field != L.field or P.nrows != L.dim or P.ncols != L.dim:
        raise InvalidParameterError("change of basis needs a square matrix over the same field")
    try:
        inv = P.inverse()
    except DimensionMismatchError:
        raise InvalidParameterError("change of basis requires an invertible matrix") from None
    f = L.field
    m = L.dim
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
    """P maps L1 onto L2: P is invertible and, for every increasing key
    (those where L1's bracket is zero included), the bracket of L2 on P's
    columns at key is P applied to L1's value there.  This is
    ``change_basis(L2, P) == L1`` on raw rows, without P's inverse."""
    if not P.is_invertible():
        return False
    cols, table, zero = P.transpose().rows, L1.table, (L1.field.zero,) * L1.dim
    return all(tuple(bracket_rows(L2, [cols[i] for i in key]) or zero)
               == (P.matvec(table[key]) if key in table else zero)
               for key in combinations(range(L1.dim), L1.arity))


def _ideal_line_count(L: NLieAlgebra) -> int:
    """The number of 1-dimensional ideals of L over GF(p), from the centre Z
    and the derived algebra D.

    Every ideal J has [J, L, .., L] in J n D, so a line outside D is an ideal
    exactly when it lies in Z, and a line inside D is tested
    (``search.walk_within``).  This uses only the multilinear, antisymmetric
    table: neither the fundamental identity nor the characteristic.  A
    perfect L (D = L) whose operators generate all of M_m has no proper
    nonzero ideal (Burnside's theorem): the count is 0, with no walk."""
    p = L.field.p
    z, d = center(L), derived_algebra(L)
    if d.dim == L.dim and operators_generate_all(L):
        return 0
    in_d = sum(1 for rows, pivots in walk_within(d, 1) if ideal(L, rows, pivots))
    return gaussian_binomial(z.dim, 1, p) - gaussian_binomial(z.intersect(d).dim, 1, p) + in_d


def ideal_count_difference(L1: NLieAlgebra, L2: NLieAlgebra) -> str | None:
    """Why two algebras over GF(p) are not isomorphic, by the numbers of their
    1-dimensional ideals, which an isomorphism preserves; None if they agree,
    or if the derived algebra D has more than ``_CERTIFICATE_BUDGET`` lines
    (dim D is part of the invariant report, so both sides agree on it)."""
    if gaussian_binomial(derived_algebra(L1).dim, 1, L1.field.p) > _CERTIFICATE_BUDGET:
        return None
    c1, c2 = _ideal_line_count(L1), _ideal_line_count(L2)
    return f"ideal count in dimension 1: {c1} vs {c2}" if c1 != c2 else None


def are_isomorphic(L1: NLieAlgebra, L2: NLieAlgebra, *,
                   budget: int = DEFAULT_ISO_BUDGET) -> IsoResult:
    """Decide isomorphism where feasible.  Certificates, in order: identical
    tables, the invariant report, the number of 1-dimensional ideals (GF(p)
    only), backtracking search.  No alpha/beta search runs."""
    if L1.arity != L2.arity or L1.dim != L2.dim or L1.field != L2.field:
        raise InvalidParameterError("isomorphism requires equal arity, dimension and field")
    m = L1.dim
    f = L1.field

    if L1.entries == L2.entries:
        return IsoResult("yes", Matrix.identity(f, m), "identical tables", 0)

    rep1, rep2 = invariant_report(L1), invariant_report(L2)
    diff = rep1.differs_from(rep2)
    if diff is not None:
        return IsoResult("no", None, f"fingerprint: {diff}", 0)

    if f.p is not None:
        reason = ideal_count_difference(L1, L2)
        if reason is not None:
            return IsoResult("no", None, reason, 0)

    return _search_isomorphism(L1, L2, rep1.subspaces, rep2.subspaces, budget)


def _search_isomorphism(L1, L2, subspaces1, subspaces2, budget) -> IsoResult:
    """Backtracking search for an isomorphism L1 -> L2 of the same shape.

    ``subspaces1`` and ``subspaces2`` are the ``InvariantReport.subspaces`` of
    the two algebras; an isomorphism maps each subspace u of L1 onto its mate
    w.  Images of basis vectors are assigned most-constrained index first,
    those of e_i in lexicographic order from a pool: over GF(p) the nonzero
    points of the intersection of the mates of the u that hold e_i, over Q
    its columns with entries in {-1, 0, 1}.  The column a_d at depth d must
    be independent of S_d, the span of the columns so far, and of S_d + w for
    each pair that a plan from L1 keeps at d: an isomorphism maps T_d + u
    onto S_d + w (T_d the span of the e_i assigned), so a_d lies in S_d + w
    only if e_{i_d} lies in T_d + u.  The plan keeps (d, u) unless e_{i_d}
    lies in T_d + u, u in T_d, or T_d + u meets U only inside T_d, U the
    intersection of the u that hold e_{i_d}.  A relation plan, made once
    from L1, checks each linear relation among the assigned e_i and their
    brackets at the depth where its last vector is known, and gives an e_i
    in the span of those vectors its forced image as the only candidate
    (over Q too, whatever its entries).  Each candidate tried is a node; more
    than ``budget`` columns in F^m (over Q with entries in {-1, 0, 1}) give
    ``unknown`` before any node is visited.
    """
    m = L1.dim
    f = L1.field
    p = f.p

    vals = list(range(p)) if p is not None else [QQ.validate(-1), QQ.zero, QQ.one]
    pool_size = len(vals) ** m - 1
    if pool_size > budget:
        return IsoResult("unknown", None,
                         f"candidate pool of {pool_size} columns exceeds "
                         f"the node budget {budget}", 0)

    def inside(w, v):  # v in the subspace w, without validating v
        return not any(reduce_vector(w.basis, w.pivots, v, p))

    def adjoin(rows, pivots, r):
        """Echelon rows and pivots with the nonzero residual list r added."""
        piv = next(j for j, x in enumerate(r) if x)
        if r[piv] != 1:
            inv = f.inv(r[piv])
            r = [f.mul(inv, x) for x in r]
        return rows + [r], pivots + [piv]

    def grow(rows, pivots, *vectors):
        """Echelon rows and pivots of span(rows) + span(vectors)."""
        for v in vectors:
            r = reduce_vector(rows, pivots, v, p)
            if any(r):
                rows, pivots = adjoin(rows, pivots, r)
        return rows, pivots

    # the distinct proper mate pairs, aligned per series (the center first)
    pairs = list({(u.basis, w.basis): (u, w) for t1, t2 in zip(subspaces1, subspaces2)
                  for u, w in zip(t1, t2) if u.dim == w.dim and 0 < u.dim < m}.values())
    unit = [tuple(f.one if t == i else f.zero for t in range(m)) for i in range(m)]
    holds = [tuple(k for k, (u, _) in enumerate(pairs) if inside(u, e)) for e in unit]

    # most-constrained first: high bracket degree, then small image pool
    degree = Counter(i for cols, _ in L1.entries for i in cols)
    order = sorted(range(m), key=lambda i: (
        -degree[i], min((pairs[k][1].dim for k in holds[i]), default=m), i))

    # per set of pairs holding some e_i: the intersections U of the u and V of the w
    meets = {ks: [reduce(subspace_intersect, [pairs[k][side] for k in ks]) if ks
                  else full_subspace(f, m) for side in (0, 1)] for ks in set(holds)}

    # the plan: along the order, one echelon of T_d + u per pair; checks[d]
    # lists the pairs kept at depth d.  T_d + u meets U outside T_d when U = L1
    # (u outside T_d), never when U = <e_i>, and else when U has fewer
    # dimensions modulo T_d + u than modulo T_d
    checks = [[] for _ in range(m)]
    sums = [(list(u.basis), list(u.pivots)) for u, _ in pairs]
    for d, i in enumerate(order):
        U = meets[holds[i]][0]
        base = None  # the dimension of U modulo T_d, once needed
        for k, (rows, pivots) in enumerate(sums):
            sums[k] = grow(rows, pivots, unit[i])
            if len(sums[k][0]) == len(rows) or len(rows) == d or U.dim == 1:
                continue  # e_i in T_d + u, or u inside T_d, or U = <e_i>
            if U.dim < m:
                if base is None:
                    base = len(grow([unit[j] for j in order[:d]], order[:d], *U.basis)[0]) - d
                if len(grow(rows, pivots, *U.basis)[0]) - len(rows) == base:
                    continue
            checks[d].append(k)
    # carry[d]: the pairs whose echelon of S_d + w a node at depth d keeps
    carry = [sorted(set().union(*checks[d:])) for d in range(m + 1)]

    # the relation plan, from L1 alone: by one echelon, each known vector at a
    # depth (e_i, then each [e_key] with all indices assigned) is a new slot, whose
    # image is recorded, or a relation sum lam_k slot_k with image sum lam_k image_k
    ech_rows, ech_piv, read = [], [], set()

    def place(v):
        """Slot number of known vector v, or its relation [(k, lam_k), ...]."""
        w = reduce_vector(ech_rows, ech_piv, list(v) + [f.zero] * m, f.p)
        if any(w[:m]):
            ech_piv.append(next(j for j, x in enumerate(w) if x))
            w[m + len(ech_rows)] = f.one
            ech_rows.append([f.mul(f.inv(w[ech_piv[-1]]), x) for x in w])
            return len(ech_rows) - 1
        comb = [(k, f.neg(x)) for k, x in enumerate(w[m:]) if x]
        read.update(k for k, _ in comb)
        return comb

    # heads[d]: e_i's slot, or the relation that forces its image
    heads, steps = [], []
    for d, i in enumerate(order):
        heads.append(place(unit[i]))
        steps.append([(key, place(bracket_basis(L1, key)))
                      for key in combinations(sorted(order[:d + 1]), L1.arity) if i in key])
    # a slot that no relation reads is never computed
    steps = [[(itemgetter(*key), s) for key, s in st if not isinstance(s, int) or s in read]
             for st in steps]

    # per-index candidate pools in lexicographic order, one per set of pairs:
    # over GF(p) the nonzero points of V, each new basis row added to those so far
    def pool(V):
        if p is None:
            return [c for c in product(vals, repeat=m) if any(c) and inside(V, c)]
        if V.dim == m:
            return list(product(vals, repeat=m))[1:]
        points = [(0,) * m]
        for row in V.basis:
            points += [tuple([(c * x + y) % p for x, y in zip(row, pt)])
                       for c in vals[1:] for pt in points]
        return sorted(points)[1:]
    pools = {ks: pool(V) for ks, (_, V) in meets.items()}

    zero = [f.zero] * m
    # assigned[order[d]] is the image chosen at depth d, images[k] that of
    # slot k; deeper entries are stale
    assigned = [None] * m
    images = [None] * len(ech_rows)
    nodes = deepest = 0  # deepest: the most columns that passed every check at once
    budget_hit = False

    def combine(comb):
        out = zero
        for k, lam in comb:
            out = [a + lam * b for a, b in zip(out, images[k])]
        return out if p is None else [x % p for x in out]

    def extend(depth, rows, pivots, mods):
        """Assign order[depth..]; rows/pivots: echelon form of the columns so
        far, mods[k] that of the columns so far and pair k's mate."""
        nonlocal nodes, deepest, budget_hit
        if depth == m:
            return True
        deepest = max(deepest, depth)
        i, head, chk, nxt = order[depth], heads[depth], checks[depth], carry[depth + 1]
        cands = pools[holds[i]]
        if not isinstance(head, int):
            forced = tuple(combine(head))
            cands = [forced] if any(forced) and inside(meets[holds[i]][1], forced) else []
        for cand in cands:
            if nodes >= budget:
                budget_hit = True
                return False
            nodes += 1
            residual = reduce_vector(rows, pivots, cand, p)
            if not any(residual):
                continue
            if chk and not all(any(reduce_vector(*mods[k], cand, p)) for k in chk):
                continue
            assigned[i] = cand
            if isinstance(head, int):
                images[head] = cand
            for get, s in steps[depth]:
                img = bracket_rows(L2, get(assigned)) or zero
                if isinstance(s, int):
                    images[s] = img
                elif img != combine(s):
                    break
            else:
                child = {k: grow(*mods[k], cand) for k in nxt} if nxt else mods
                if extend(depth + 1, *adjoin(rows, pivots, residual), child):
                    return True
                if budget_hit:
                    return False
        return False

    if extend(0, [], [], {k: (list(pairs[k][1].basis), list(pairs[k][1].pivots))
                          for k in carry[0]}):
        P = Matrix.from_rows(f, [list(row) for row in zip(*assigned)])
        if _verify_witness(L1, L2, P):
            return IsoResult("yes", P, None, nodes)
        return IsoResult("unknown", None, "internal witness verification failed", nodes)
    if budget_hit:
        return IsoResult("unknown", None, f"search stopped at depth {deepest} of {m} after "
                         f"{nodes} nodes: budget {budget}", nodes)
    if f.p is not None:
        return IsoResult("no", None, "search exhausted over the prime field", nodes)
    return IsoResult("unknown", None,
                     "no witness among small-entry candidates over Q", nodes)
