"""Exact dense linear algebra over Q and GF(p).

Matrices are immutable row-major tuples of scalars; subspaces are kept in
canonical reduced row echelon form, so two subspaces are equal exactly when
their basis tuples are equal.  Everything is a value type, safe to share.

The kernels ``minor_det``, ``reduce_vector``, ``rref`` (the one
elimination routine: ranks, kernels, inverses, spans and intersections) and
``null_basis`` work on raw scalars -- over Q ints and Fractions (see
``fields.RationalField``), over GF(p) ints reduced mod p -- and do not
validate; nor do ``span_rows`` and ``subspace_from_rref_rows``, the trusted
constructors for rows the library built itself.  The public constructors
and methods validate what they are given.
Over Q they divide only through the exact ``QQ.inv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import DimensionMismatchError
from .fields import QQ, Field, same_field


def validate_vector(field: Field, length: int, v) -> tuple:
    vec = tuple(field.validate(x) for x in v)
    if len(vec) != length:
        raise DimensionMismatchError(f"expected vector of length {length}, got {len(vec)}")
    return vec


def zero_vector(field: Field, length: int) -> tuple:
    return (field.zero,) * length


def unit_vector(field: Field, length: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(length))


def vec_is_zero(field, v):
    z = field.zero
    return all(x == z for x in v)


def minor_det(rows, cols, p=None):
    """Determinant of the square minor [rows[i][cols[j]]] of raw scalars.

    With a prime ``p`` the entries are ints in [0, p) and the result is
    reduced mod p; with ``p=None`` they are rationals (ints or Fractions).
    It serves ``Matrix.det``, ``search._grow_abelian`` and ``core.bracket_rows``
    at k = 0 and k >= 4 rows, which writes k = 1, 2, 3 out by these formulas.
    """
    n = len(cols)
    if n == 2:
        c0, c1 = cols
        det = rows[0][c0] * rows[1][c1] - rows[0][c1] * rows[1][c0]
    elif n == 3:
        c0, c1, c2 = cols
        a, b, c = rows[0][c0], rows[0][c1], rows[0][c2]
        d, e, f = rows[1][c0], rows[1][c1], rows[1][c2]
        g, h, i = rows[2][c0], rows[2][c1], rows[2][c2]
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    elif n == 1:
        det = rows[0][cols[0]]
    else:
        mat = [[row[c] for c in cols] for row in rows]
        det = 1
        for c in range(n):
            for pr in range(c, n):
                if mat[pr][c]:
                    break
            else:
                return 0
            if pr != c:
                mat[c], mat[pr] = mat[pr], mat[c]
                det = -det
            lead = mat[c]
            det *= lead[c]
            inv = QQ.inv(lead[c]) if p is None else pow(lead[c], p - 2, p)
            for i in range(c + 1, n):
                if mat[i][c]:
                    factor = inv * mat[i][c]
                    if p is None:
                        mat[i] = [x - factor * y for x, y in zip(mat[i], lead)]
                    else:
                        mat[i] = [(x - factor * y) % p for x, y in zip(mat[i], lead)]
    return det if p is None else det % p


def reduce_vector(rows, pivots, v, p=None):
    """Residual list of raw vector ``v`` after elimination against echelon rows.

    Each row has a 1 at its pivot column and zeros at the pivots of the rows
    before it.  With a prime ``p`` the arithmetic is mod p, else over Q.
    """
    w = list(v)
    for row, pc in zip(rows, pivots):
        c = w[pc]
        if c:
            if p is None:
                for j, x in enumerate(row):
                    if x:
                        w[j] -= c * x
            else:
                for j, x in enumerate(row):
                    if x:
                        w[j] = (w[j] - c * x) % p
    return w


def rref(rows, ncols, p=None):
    """Reduce a list of raw row lists to RREF in place and delete its zero
    rows, leaving a basis of the row space; returns the pivot list.

    The scalars are those of ``reduce_vector``: ints in [0, p) reduced mod
    a prime ``p``, or rationals with ``p=None``.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r]
        if lead[c] != 1:
            inv = QQ.inv(lead[c]) if p is None else pow(lead[c], p - 2, p)
            lead = rows[r] = [inv * x if p is None else inv * x % p for x in lead]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                if p is None:
                    rows[i] = [x - f * y if y else x for x, y in zip(rows[i], lead)]
                else:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    del rows[r:]
    return pivots


def null_basis(rows, pivots, ncols, p=None):
    """Basis of {v : rows . v = 0} for RREF rows with the given pivots: one
    raw vector per free column, 1 there and 0 at the other free columns."""
    out = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [0] * ncols
            v[fc] = 1
            for row, pc in zip(rows, pivots):
                v[pc] = -row[fc] if p is None else -row[fc] % p
            out.append(v)
    return out


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix; ``rows`` is a tuple of row tuples."""

    field: Field
    nrows: int
    ncols: int
    rows: tuple

    @staticmethod
    def from_rows(field: Field, rows, ncols: int | None = None) -> "Matrix":
        rws = tuple(tuple(field.validate(x) for x in r) for r in rows)
        if rws:
            width = len(rws[0]) if ncols is None else ncols
            if any(len(r) != width for r in rws):
                raise DimensionMismatchError("ragged or mismatched rows")
        else:
            if ncols is None:
                raise DimensionMismatchError("empty matrix needs an explicit column count")
            width = ncols
        return Matrix(field, len(rws), width, rws)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, n,
                      tuple(unit_vector(field, n, i) for i in range(n)))

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, tuple(zero_vector(field, ncols) for _ in range(nrows)))

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows,
                      tuple(tuple(self.rows[i][j] for i in range(self.nrows))
                            for j in range(self.ncols)))

    def matvec(self, v) -> tuple:
        v = validate_vector(self.field, self.ncols, v)
        return tuple(_dot(self.field, row, v) for row in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatchError("matrix product shape mismatch")
        f = self.field
        cols = other.transpose().rows
        rows = tuple(
            tuple(_dot(f, r, c) for c in cols)
            for r in self.rows
        )
        return Matrix(f, self.nrows, other.ncols, rows)

    def rref(self) -> tuple["Matrix", tuple]:
        rows = [list(r) for r in self.rows]
        pivots = rref(rows, self.ncols, self.field.p)
        rows += [[self.field.zero] * self.ncols] * (self.nrows - len(rows))
        return Matrix(self.field, self.nrows, self.ncols,
                      tuple(tuple(r) for r in rows)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Right kernel {v : M v = 0} as a canonical subspace of F^ncols."""
        red, pivots = self.rref()
        vectors = null_basis(red.rows, pivots, self.ncols, self.field.p)
        return span_rows(self.field, self.ncols, vectors)

    def det(self):
        if self.nrows != self.ncols:
            raise DimensionMismatchError("determinant of a non-square matrix")
        return self.field.validate(minor_det(self.rows, range(self.ncols), self.field.p))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatchError("inverse of a non-square matrix")
        f = self.field
        n = self.nrows
        aug = [list(self.rows[i]) + list(unit_vector(f, n, i)) for i in range(n)]
        if rref(aug, 2 * n, f.p) != list(range(n)):
            raise DimensionMismatchError("matrix is singular")
        return Matrix(f, n, n, tuple(tuple(r[n:]) for r in aug))


def _dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        if a != field.zero and b != field.zero:
            acc = field.add(acc, field.mul(a, b))
    return acc


@dataclass(frozen=True)
class Subspace:
    """Subspace of F^ambient_dim in canonical RREF; equality is representational."""

    field: Field
    ambient_dim: int
    basis: tuple      # RREF rows with no zero rows
    pivots: tuple     # strictly increasing pivot columns, one per basis row

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def matrix(self) -> Matrix:
        return Matrix(self.field, self.dim, self.ambient_dim, self.basis)

    def reduce(self, v) -> tuple:
        """Residual of v after elimination against the basis rows."""
        v = validate_vector(self.field, self.ambient_dim, v)
        return tuple(reduce_vector(self.basis, self.pivots, v, self.field.p))

    def contains_vector(self, v) -> bool:
        return vec_is_zero(self.field, self.reduce(v))

    def contains(self, other) -> bool:
        """Membership test for a vector or containment test for a subspace."""
        if isinstance(other, Subspace):
            _check_ambient(self, other)
            return all(self.contains_vector(row) for row in other.basis)
        return self.contains_vector(other)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains(self)

    def coordinates(self, v) -> tuple:
        """Coefficients of v in the RREF basis (requires membership)."""
        if not self.contains_vector(v):
            raise DimensionMismatchError("vector not in subspace")
        vv = validate_vector(self.field, self.ambient_dim, v)
        return tuple(vv[pc] for pc in self.pivots)

    def intersect(self, other: "Subspace") -> "Subspace":
        return subspace_intersect(self, other)

    def to_dict(self) -> dict:
        f = self.field
        return {"dim": self.dim, "rows": [[f.format(x) for x in r] for r in self.basis]}


def _check_ambient(u: Subspace, w: Subspace) -> None:
    same_field(u.field, w.field)
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError("ambient dimension mismatch")


def subspace_from_rref_rows(field, ambient_dim, rows, pivots) -> Subspace:
    """Trusted constructor for rows already in RREF; over Q it stores each
    integral value as an int (see ``fields.RationalField``)."""
    basis = tuple(map(tuple, rows))
    if field.p is None and Fraction in map(type, chain.from_iterable(basis)):
        basis = tuple(tuple(x.numerator if x.denominator == 1 else x for x in r) for r in basis)
    return Subspace(field, ambient_dim, basis, tuple(pivots))


def span(field: Field, ambient_dim: int, vectors) -> Subspace:
    """Smallest subspace containing the given vectors, in canonical form."""
    return span_rows(field, ambient_dim,
                     [validate_vector(field, ambient_dim, v) for v in vectors])


def span_rows(field: Field, ambient_dim: int, rows: list) -> Subspace:
    """The trusted core of ``span``, for raw rows of scalars of ``field`` (see
    ``rref``) that the library built itself; reduces the list ``rows``."""
    pivots = rref(rows, ambient_dim, field.p)
    return subspace_from_rref_rows(field, ambient_dim, rows, pivots)


def zero_subspace(field: Field, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, (), ())


def full_subspace(field: Field, ambient_dim: int) -> Subspace:
    return coordinate_subspace(field, ambient_dim, range(ambient_dim))


def coordinate_subspace(field: Field, ambient_dim: int, indices) -> Subspace:
    """Span of the listed coordinate basis vectors (0-based indices)."""
    idx = sorted(set(indices))
    return Subspace(field, ambient_dim,
                    tuple(unit_vector(field, ambient_dim, i) for i in idx),
                    tuple(idx))


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    _check_ambient(u, w)
    return span_rows(u.field, u.ambient_dim, list(u.basis + w.basis))


def subspace_intersect(u: Subspace, w: Subspace) -> Subspace:
    """The intersection by Zassenhaus: in the RREF of [u|u] stacked over [w|0], the
    rows whose pivot lies in the right half are [0|x], and their right halves
    x are the canonical basis of the intersection."""
    _check_ambient(u, w)
    f, m = u.field, u.ambient_dim
    rows = [list(r) * 2 for r in u.basis] + [list(r) + [f.zero] * m for r in w.basis]
    pivots = rref(rows, 2 * m, f.p)
    meet = [(r[m:], c - m) for r, c in zip(rows, pivots) if c >= m]
    return subspace_from_rref_rows(f, m, [r for r, _ in meet], [c for _, c in meet])
