"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's evaluation paths: the bracket oracle
(shipped as ``nlie.oracle``, which criterion 1 also uses) expands through an
explicitly antisymmetrized all-orderings table, membership oracles enumerate
whole vector spaces over GF(p), the counting oracle is the q-Pascal
recurrence rather than the product formula, the level walk is
``itertools.product`` over each profile's free entries, and the elimination
oracles are textbook RREF and cofactor expansion on Fractions.  The reference of the Q lower
bounds is their first implementation: flags read off whole bracket spans and
every growth run from scratch.
"""

from fractions import Fraction
from itertools import combinations, product

from nlie.core import bracket_rows, bracket_subspaces
from nlie.invariants import center
from nlie.linalg import (
    Matrix,
    coordinate_subspace,
    full_subspace,
    span,
    zero_subspace,
    zero_vector,
)
from nlie.oracle import naive_bracket, naive_fi_residual, perm_sign  # noqa: F401


def all_vectors_fp(m, p):
    return [tuple(v) for v in product(range(p), repeat=m)]


def span_members_fp(rows, m, p):
    """All vectors of the GF(p)-span of the given rows, by enumeration."""
    members = set()
    k = len(rows)
    for coeffs in product(range(p), repeat=k):
        v = [0] * m
        for c, row in zip(coeffs, rows):
            for j in range(m):
                v[j] = (v[j] + c * row[j]) % p
        members.add(tuple(v))
    return members


def gauss_count_recursive(m, k, p, _cache={}):
    """q-Pascal recurrence: G(m,k) = G(m-1,k-1) + p^k G(m-1,k)."""
    if k < 0 or k > m:
        return 0
    if k == 0 or k == m:
        return 1
    key = (m, k, p)
    if key not in _cache:
        _cache[key] = (gauss_count_recursive(m - 1, k - 1, p)
                       + p ** k * gauss_count_recursive(m - 1, k, p))
    return _cache[key]


def level_walk(m, k, p):
    """(rows, profile) of every k-dimensional subspace of GF(p)^m in the
    canonical order, by enumeration: pivot profiles lexicographic, then the
    free entries (row by row, left to right) lexicographic."""
    for profile in combinations(range(m), k):
        free = [(r, j) for r, c in enumerate(profile)
                for j in range(c + 1, m) if j not in profile]
        for values in product(range(p), repeat=len(free)):
            rows = [[int(j == c) for j in range(m)] for c in profile]
            for (r, j), x in zip(free, values):
                rows[r][j] = x
            yield tuple(map(tuple, rows)), profile


def rref_fractions(rows):
    """Textbook RREF on lists of Fractions, independent of the library."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    lead = 0
    for r in range(len(rows)):
        if lead >= ncols:
            break
        i = r
        while rows[i][lead] == 0:
            i += 1
            if i == len(rows):
                i = r
                lead += 1
                if lead == ncols:
                    return [row for row in rows if any(row)]
        rows[i], rows[r] = rows[r], rows[i]
        lv = rows[r][lead]
        rows[r] = [x / lv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][lead] != 0:
                lv = rows[i][lead]
                rows[i] = [a - lv * b for a, b in zip(rows[i], rows[r])]
        lead += 1
    return [row for row in rows if any(row)]


def det_cofactor(rows):
    """Determinant by Laplace expansion along the first row, on Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return Fraction(1)
    return sum(((-1) ** j * rows[0][j]
                * det_cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
                for j in range(len(rows)) if rows[0][j]), Fraction(0))


def _abelian_subalgebra_by_span(L, S):
    return bracket_subspaces(L, (S,) * L.arity).is_zero


def _abelian_ideal_by_span(L, S):
    full = full_subspace(L.field, L.dim)
    n = L.arity
    return (bracket_subspaces(L, (S,) + (full,) * (n - 1)) <= S
            and bracket_subspaces(L, (S, S) + (full,) * (n - 2)).is_zero)


def grow_abelian_reference(L, seed):
    """Greedy growth from ``seed``, each step solved from scratch: the
    subspaces passed through, seed first, the end last."""
    f, m, n = L.field, L.dim, L.arity
    zero = zero_vector(f, m)
    path = [seed]
    while True:
        rows = []
        for y_rows in combinations(path[-1].basis, n - 1):
            block = [bracket_rows(L, y_rows, (t,)) or zero for t in range(m)]
            rows += [[block[t][r] for t in range(m)] for r in range(m)]
        kernel = Matrix.from_rows(f, rows, m).kernel() if rows else full_subspace(f, m)
        outside = [v for v in kernel.basis if not path[-1].contains_vector(v)]
        if not outside:
            return path
        path.append(span(f, m, list(path[-1].basis) + [outside[0]]))


def abelian_bounds_q_reference(L):
    """(alpha, beta, alpha witness, beta witness, subspaces scanned, notes,
    the growth path of each abelian seed in seed order) as
    ``search.abelian_bounds_q`` computes them over Q."""
    f, m = L.field, L.dim
    z = center(L)
    seeds = [z] + [coordinate_subspace(f, m, (i,)) for i in range(m)]
    seeds += [coordinate_subspace(f, m, pair) for pair in combinations(range(m), 2)]
    paths = [grow_abelian_reference(L, S) for S in seeds if _abelian_subalgebra_by_span(L, S)]
    grown = [path[-1] for path in paths]
    best_alpha = None
    for S in grown:
        if best_alpha is None or S.dim > best_alpha.dim:
            best_alpha = S
    if best_alpha is None:
        best_alpha = zero_subspace(f, m)
    candidates = [z] + grown + [coordinate_subspace(f, m, subset)
                                for r in range(1, m + 1)
                                for subset in combinations(range(m), r)]
    best_beta = zero_subspace(f, m)
    for S in candidates:
        if S.dim > best_beta.dim and _abelian_ideal_by_span(L, S):
            best_beta = S
    return (best_alpha.dim, best_beta.dim, best_alpha if best_alpha.dim else None,
            best_beta if best_beta.dim else None, len(seeds) + len(candidates),
            ("lower bounds only; exact maxima over Q are not computed",), paths)
