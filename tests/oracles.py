"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's evaluation paths: the bracket oracle
(shipped as ``nlie.oracle``, which criterion 1 also uses) expands through an
explicitly antisymmetrized all-orderings table, membership oracles enumerate
whole vector spaces over GF(p), and the counting oracle is the q-Pascal
recurrence rather than the product formula.
"""

from fractions import Fraction
from itertools import product

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
