"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's evaluation paths: the bracket oracle
(shipped as ``nlie.oracle``, which criterion 1 also uses) expands through an
explicitly antisymmetrized all-orderings table, membership oracles enumerate
whole vector spaces over GF(p), the counting oracle is the q-Pascal
recurrence rather than the product formula, the level walk is
``itertools.product`` over each profile's free entries, the trace radical
is read off dense operator matrices by a search of every vector, and the
elimination oracles are textbook RREF and cofactor expansion on Fractions.
The reference of the Q lower bounds is their first implementation: flags
read off whole bracket spans and every growth run from scratch.  The
isomorphism oracle over GF(2) tries every invertible matrix and checks each
bracket directly.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import xor

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


def trace_radical_fp(L):
    """The vectors v of GF(p)^m with tr([v, ., e_y'] M) = 0 for every
    (n-2)-tuple y' and every M in {identity} and the operators [., e_y],
    (n-1)-tuples y, by enumeration: each operator a dense m x m matrix of
    ``naive_bracket`` values, each trace a sum over the matrix product."""
    p, m, n = L.field.p, L.dim, L.arity
    unit = [tuple(int(t == i) for t in range(m)) for i in range(m)]

    def matrix(args_of):  # M[i][j] = coordinate i of the image of e_j
        images = [naive_bracket(L, args_of(unit[j])) for j in range(m)]
        return [[images[j][i] for j in range(m)] for i in range(m)]

    operators = [[list(r) for r in unit]]
    operators += [matrix(lambda x, y=y: [x] + [unit[i] for i in y])
                  for y in combinations(range(m), n - 1)]
    conditions = set()
    for y in combinations(range(m), n - 2):
        Rs = [matrix(lambda x, a=a: [unit[a], x] + [unit[i] for i in y]) for a in range(m)]
        for op in operators:
            conditions.add(tuple(sum(R[i][j] * op[j][i] for i in range(m) for j in range(m)) % p
                                 for R in Rs))
    return {v for v in all_vectors_fp(m, p)
            if all(sum(c * x for c, x in zip(row, v)) % p == 0 for row in conditions)}


def _bracket_bits_gf2(L):
    """Bracket of an arity-tuple of GF(2) vectors stored as bit masks (bit t
    is coordinate t), expanded by multilinearity from ``naive_bracket`` on
    basis vectors; memoized."""
    m = L.dim
    memo = {}

    def br(xs):
        if xs not in memo:
            s = next((s for s, x in enumerate(xs) if x & (x - 1)), None)
            if not all(xs):
                memo[xs] = 0
            elif s is None:
                w = naive_bracket(L, [tuple(x >> t & 1 for t in range(m)) for x in xs])
                memo[xs] = sum(1 << t for t, c in enumerate(w) if c)
            else:
                low = xs[s] & -xs[s]
                memo[xs] = (br(xs[:s] + (low,) + xs[s + 1:])
                            ^ br(xs[:s] + (xs[s] ^ low,) + xs[s + 1:]))
        return memo[xs]
    return br


def isomorphism_gf2(L1, L2):
    """Rows of the first invertible matrix P over GF(2), with columns in
    lexicographic order of their bit masks, such that
    [P e_i1, .., P e_in] = P [e_i1, .., e_in] on every basis tuple (an
    isomorphism L1 -> L2 whose columns are the images of the basis); None
    if there is none.

    Every invertible matrix is enumerated column by column, each column over
    the nonzero masks outside the span of the earlier ones.  A basis tuple is
    checked once the columns of its indices and of its bracket's support are
    all chosen, and a failed check drops every matrix with those columns."""
    m, n = L1.dim, L1.arity
    br1, br2 = _bracket_bits_gf2(L1), _bracket_bits_gf2(L2)
    checks = [[] for _ in range(m)]
    for key in combinations(range(m), n):
        w = br1(tuple(1 << i for i in key))
        support = [t for t in range(m) if w >> t & 1]
        checks[max(key + tuple(support))].append((key, support))

    def extend(cols, span):
        if len(cols) == m:
            return cols
        for c in range(1, 1 << m):
            if c in span:
                continue
            new = cols + (c,)
            for key, support in checks[len(cols)]:
                if br2(tuple(new[i] for i in key)) != reduce(xor, (new[t] for t in support), 0):
                    break
            else:
                found = extend(new, span | {s ^ c for s in span})
                if found:
                    return found
        return None

    cols = extend((), {0})
    return None if cols is None else tuple(tuple(c >> r & 1 for c in cols) for r in range(m))


def is_isomorphism_gf2(L1, L2, rows):
    """Whether the GF(2) matrix with these rows maps L1 onto L2, checked
    directly on every bracket of basis vectors with ``naive_bracket``, and
    whether it is invertible."""
    m = L1.dim
    cols = [tuple(rows[r][j] for r in range(m)) for j in range(m)]
    for key in combinations(range(m), L1.arity):
        w = naive_bracket(L1, [tuple(int(t == i) for t in range(m)) for i in key])
        image = [sum(c * cols[t][r] for t, c in enumerate(w)) % 2 for r in range(m)]
        if list(naive_bracket(L2, [cols[i] for i in key])) != image:
            return False
    return len(span_members_fp(cols, m, 2)) == 2 ** m
