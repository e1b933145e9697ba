"""Independent exact algebra for checking outputs and making inputs.

Nothing here imports ``nlie``: documents are read with ``json``, scalars are
``Fraction`` over Q and ints mod p over GF(p), and brackets expand through an
all-orderings table built from raw permutation signs.  The benchmark uses it
to conjugate catalog tables by seeded basis changes and to re-verify every
witness the program returns, so a fault in the program's bracket or
elimination code cannot vouch for itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations


def _norm(x, p):
    return x % p if p is not None else x


def parse_scalar(text, p):
    if p is None:
        return Fraction(text)
    return int(text) % p


def format_scalar(x, p):
    return str(x % p) if p is not None else str(x)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class Table:
    """Structure constants: increasing 0-based key -> dense coefficient list."""

    def __init__(self, arity, dim, p, entries):
        self.arity = arity
        self.dim = dim
        self.p = p
        self.entries = {k: v for k, v in entries.items() if any(v)}
        self._full = None

    @classmethod
    def from_doc(cls, doc):
        if doc.get("format") != "nlie-v1":
            raise ValueError(f"not an nlie-v1 document: {doc.get('format')!r}")
        field = doc["field"]
        p = None if field == "Q" else field["p"]
        dim = doc["dim"]
        entries = {}
        for item in doc.get("brackets", []):
            vec = [_norm(0, p)] * dim
            for t, s in item.get("val", {}).items():
                vec[int(t) - 1] = parse_scalar(s, p)
            entries[tuple(i - 1 for i in item["on"])] = vec
        return cls(doc["arity"], dim, p, entries)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_doc(json.load(fh))

    def to_doc(self):
        field = "Q" if self.p is None else {"p": self.p}
        return {"format": "nlie-v1", "arity": self.arity, "dim": self.dim,
                "field": field,
                "brackets": [{"on": [i + 1 for i in key],
                              "val": {str(t + 1): format_scalar(c, self.p)
                                      for t, c in enumerate(vec) if c}}
                             for key, vec in sorted(self.entries.items())]}

    def reduce_mod(self, p):
        """Entry-wise image of a Q table in GF(p); denominators must be units."""
        def red(c):
            c = Fraction(c)
            return c.numerator * pow(c.denominator, p - 2, p) % p
        return Table(self.arity, self.dim, p,
                     {k: [red(c) for c in v] for k, v in self.entries.items()})

    def _full_table(self):
        if self._full is None:
            full = {}
            for key, vec in self.entries.items():
                for perm in permutations(range(len(key))):
                    full[tuple(key[i] for i in perm)] = (_perm_sign(perm), vec)
            self._full = full
        return self._full

    def bracket(self, vectors):
        """Multilinear expansion of [v1, .., vn] over every index ordering."""
        p = self.p
        full = self._full_table()
        out = [0] * self.dim
        supports = [[t for t, x in enumerate(v) if x] for v in vectors]
        n = self.arity

        def rec(slot, idx, coeff):
            if slot == n:
                hit = full.get(tuple(idx))
                if hit is not None:
                    sign, vec = hit
                    for t, x in enumerate(vec):
                        if x:
                            out[t] += sign * coeff * x
                return
            for t in supports[slot]:
                idx.append(t)
                rec(slot + 1, idx, coeff * vectors[slot][t])
                idx.pop()

        rec(0, [], 1)
        return [_norm(x, p) for x in out]

    def unit(self, i):
        return [1 if t == i else 0 for t in range(self.dim)]


# ---------------------------------------------------------------------------
# linear algebra


def _inv(x, p):
    return pow(x, p - 2, p) if p is not None else 1 / Fraction(x)


def echelon(rows, p):
    """Row echelon form as (rows, pivot columns); input is not modified."""
    rows = [[_norm(x, p) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _inv(rows[r][c], p)
        rows[r] = [_norm(x * inv, p) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [_norm(a - f * b, p) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(rows, p):
    return len(echelon(rows, p)[1]) if rows else 0


def in_span(rows, v, p):
    return not any(v) or rank(list(rows) + [v], p) == rank(rows, p)


def inverse(mat, p):
    n = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = echelon(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def matvec(mat, v, p):
    return [_norm(sum(a * b for a, b in zip(row, v)), p) for row in mat]


def random_invertible(rng, p, n):
    """Dense uniformly random invertible n x n matrix over GF(p)."""
    while True:
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank(mat, p) == n:
            return mat


def conjugate(T, P):
    """Table of T in the basis given by the columns of P."""
    p = T.p
    m = T.dim
    cols = [[P[r][j] for r in range(m)] for j in range(m)]
    Pinv = inverse(P, p)
    entries = {key: matvec(Pinv, T.bracket([cols[i] for i in key]), p)
               for key in combinations(range(m), T.arity)}
    return Table(T.arity, m, p, entries)


# ---------------------------------------------------------------------------
# witness checks


def is_isomorphism(T1, T2, P):
    """True when e_j -> column j of P maps T1's bracket onto T2's."""
    p = T1.p
    m = T1.dim
    if len(P) != m or any(len(r) != m for r in P) or rank(P, p) != m:
        return False
    cols = [[P[r][j] for r in range(m)] for j in range(m)]
    zero = [0] * m
    for key in combinations(range(m), T1.arity):
        c = T1.entries.get(key, zero)
        rhs = [0] * m
        for t, x in enumerate(c):
            if x:
                rhs = [a + x * b for a, b in zip(rhs, cols[t])]
        if T2.bracket([cols[i] for i in key]) != [_norm(x, p) for x in rhs]:
            return False
    return True


def is_abelian_subalgebra(T, rows):
    return all(not any(T.bracket(list(c))) for c in combinations(rows, T.arity))


def is_subalgebra(T, rows):
    return all(in_span(rows, T.bracket(list(c)), T.p)
               for c in combinations(rows, T.arity))


def is_abelian_ideal(T, rows):
    n = T.arity
    units = [T.unit(i) for i in range(T.dim)]
    for s in rows:
        for y in combinations(units, n - 1):
            if not in_span(rows, T.bracket([s] + list(y)), T.p):
                return False
    for a, b in combinations(rows, 2):
        for y in combinations(units, n - 2):
            if any(T.bracket([a, b] + list(y))):
                return False
    return True
