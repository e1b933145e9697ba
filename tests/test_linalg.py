import random
from fractions import Fraction
from itertools import permutations

import pytest

from nlie import linalg
from nlie.catalog import entries_for_dims
from nlie.core import bracket_subspaces
from nlie.errors import DimensionMismatchError, FieldMismatchError
from nlie.fields import GF, QQ
from nlie.invariants import invariant_report
from nlie.iso import change_basis, random_invertible_matrix
from nlie.linalg import (
    Matrix,
    coordinate_subspace,
    full_subspace,
    span,
    span_rows,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)
from nlie.search import abelian_bounds_q, enumerate_subspaces

from oracles import perm_sign, rref_fractions, span_members_fp


def test_rref_identity_fixed():
    M = Matrix.identity(QQ, 3)
    R, pivots = M.rref()
    assert R == M
    assert pivots == (0, 1, 2)


def test_rref_collapses_dependent_rows():
    M = Matrix.from_rows(QQ, [[2, 4], [1, 2]])
    R, pivots = M.rref()
    assert pivots == (0,)
    assert R.rows[0] == (Fraction(1), Fraction(2))
    assert R.rows[1] == (Fraction(0), Fraction(0))


def test_rref_gf2_hand_computed():
    # hand Gaussian elimination: {(1,1,0),(0,1,1)} -> {(1,0,1),(0,1,1)}
    M = Matrix.from_rows(GF(2), [[1, 1, 0], [0, 1, 1]])
    R, pivots = M.rref()
    assert R.rows == ((1, 0, 1), (0, 1, 1))
    assert pivots == (0, 1)


def test_rref_matches_fraction_oracle():
    rows = [[3, 1, 4, 1], [5, 9, 2, 6], [8, 2, 6, 4]]
    R, _ = Matrix.from_rows(QQ, rows).rref()
    expected = rref_fractions(rows)
    assert [list(r) for r in R.rows[: len(expected)]] == expected


def test_rref_idempotent():
    M = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    R, _ = M.rref()
    R2, _ = R.rref()
    assert R == R2


def test_kernel_zero_matrix_is_full():
    K = Matrix.zeros(QQ, 2, 3).kernel()
    assert K.dim == 3
    assert K == full_subspace(QQ, 3)


def test_kernel_identity_is_zero():
    assert Matrix.identity(QQ, 4).kernel().dim == 0


def test_kernel_gf2_single_row_by_enumeration():
    K = Matrix.from_rows(GF(2), [[1, 1]]).kernel()
    members = span_members_fp(K.basis, 2, 2)
    brute = {v for v in [(0, 0), (0, 1), (1, 0), (1, 1)]
             if (v[0] + v[1]) % 2 == 0}
    assert members == brute
    assert K.dim == 1


def test_rank_nullity():
    M = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert M.rank() + M.kernel().dim == M.ncols


def test_span_empty_is_zero():
    S = span(QQ, 4, [])
    assert S.dim == 0
    assert S == zero_subspace(QQ, 4)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_trusted_span_matches_span_and_textbook_rref(field):
    """span_rows on raw rows (lists the library would build) equals the
    validating span, and over Q the textbook RREF on Fractions; over Q the
    entries are fractional and the basis holds no integral Fraction."""
    rng = random.Random(field.p or 0)
    scalars = ([Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)] if field.p is None
               else list(range(field.p)))
    for _ in range(60):
        m, k = rng.randint(1, 6), rng.randint(0, 7)
        rows = [[rng.choice(scalars) for _ in range(m)] for _ in range(k)]
        rows += [[2 * x for x in row] for row in rows[:1]]  # a dependent row
        if field.p is not None:
            rows = [[x % field.p for x in row] for row in rows]
        S = span_rows(field, m, [list(row) for row in rows])
        assert S == span(field, m, rows)
        if field.p is None:
            assert [list(r) for r in S.basis] == rref_fractions(rows)
            assert not any(type(x) is Fraction and x.denominator == 1
                           for r in S.basis for x in r)


def test_span_keeps_integral_rationals_ints():
    S = span(QQ, 2, [(2, 1)])
    assert S.basis == ((1, Fraction(1, 2)),)
    assert type(S.basis[0][0]) is int


def test_library_subspaces_over_q_hold_no_integral_fraction(monkeypatch):
    """Every Subspace built while reporting on the Q catalog at m = 4, 5 and
    on its conjugates by the upper- and the lower-bidiagonal basis change of
    determinant 2^m (2 on the diagonal, 1 beside it: fractional constants)
    stores each integral value as an int."""
    built = []
    init = linalg.Subspace.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(linalg.Subspace, "__init__", recording)
    for _, L in entries_for_dims((4, 5), QQ):
        m = L.dim
        upper, lower = (Matrix.from_rows(QQ, [[2 if j == i else 1 if j == i + side else 0
                                               for j in range(m)] for i in range(m)])
                        for side in (1, -1))
        for A in (L, change_basis(L, upper), change_basis(L, lower)):
            report = invariant_report(A)
            abelian_bounds_q(A)
            full = full_subspace(QQ, m)
            for T in [T for terms in report.subspaces for T in terms][:4]:
                bracket_subspaces(A, (T,) + (full,) * (A.arity - 1))
                subspace_sum(T, A.center)
                subspace_intersect(T, A.derived)
    assert any(type(x) is Fraction for S in built for r in S.basis for x in r)
    integral = [S for S in built if any(type(x) is Fraction and x.denominator == 1
                                        for r in S.basis for x in r)]
    assert not integral, integral[:3]


def test_span_canonicalizes():
    S = span(QQ, 3, [(1, 0, 0), (1, 1, 0)])
    assert S == coordinate_subspace(QQ, 3, (0, 1))


def test_span_collinear():
    assert span(QQ, 3, [(1, 2, 3), (2, 4, 6)]).dim == 1


def test_sum_with_zero_is_identity():
    U = span(QQ, 3, [(1, 2, 0)])
    assert subspace_sum(U, zero_subspace(QQ, 3)) == U


def test_intersect_coordinate_axes():
    U = coordinate_subspace(QQ, 2, (0,))
    W = coordinate_subspace(QQ, 2, (1,))
    assert subspace_intersect(U, W).dim == 0


def test_sum_intersect_gf2_by_enumeration():
    U = span(GF(2), 2, [(1, 1)])
    W = span(GF(2), 2, [(0, 1)])
    total = subspace_sum(U, W)
    meet = subspace_intersect(U, W)
    assert total == full_subspace(GF(2), 2)
    assert meet.dim == 0
    mu = span_members_fp(U.basis, 2, 2)
    mw = span_members_fp(W.basis, 2, 2)
    assert span_members_fp(total.basis, 2, 2) == {
        tuple((a[i] + b[i]) % 2 for i in range(2)) for a in mu for b in mw}
    assert mu & mw == {(0, 0)}


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3) for m in range(1, 5)])
def test_intersect_matches_member_sets(p, m):
    """The Zassenhaus intersection of every pair of subspaces of GF(p)^m is
    the subspace whose members are the common members of the two."""
    by_members = {}
    for k in range(m + 1):
        for S in enumerate_subspaces(m, k, p):
            by_members[frozenset(span_members_fp(S.basis, m, p))] = S
    for mu, U in by_members.items():
        for mw, W in by_members.items():
            assert subspace_intersect(U, W) == by_members[mu & mw], (U.basis, W.basis)


def test_grassmann_dimension_formula():
    U = span(QQ, 4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    W = span(QQ, 4, [(1, 1, 1, 1), (0, 0, 1, 1)])
    s = subspace_sum(U, W)
    i = subspace_intersect(U, W)
    assert s.dim + i.dim == U.dim + W.dim


def test_subspace_equality_is_representation_equality():
    A = span(QQ, 3, [(1, 1, 0), (0, 1, 1)])
    B = span(QQ, 3, [(1, 0, -1), (0, 1, 1)])
    assert A == B
    assert hash(A) == hash(B)


def test_contains_vector_and_subspace():
    U = span(QQ, 3, [(1, 0, 1), (0, 1, 0)])
    assert U.contains_vector((1, 1, 1))
    assert not U.contains_vector((0, 0, 1))
    assert U.contains(span(QQ, 3, [(1, 1, 1)]))
    assert span(QQ, 3, [(1, 1, 1)]) <= U


def test_field_and_ambient_mismatches():
    with pytest.raises(FieldMismatchError):
        subspace_sum(span(QQ, 2, [(1, 0)]), span(GF(2), 2, [(1, 0)]))
    with pytest.raises(DimensionMismatchError):
        subspace_intersect(span(QQ, 2, [(1, 0)]), span(QQ, 3, [(1, 0, 0)]))
    with pytest.raises(DimensionMismatchError):
        span(QQ, 2, [(1, 0, 0)])


def test_matrix_inverse_roundtrip():
    M = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    assert (M @ M.inverse()) == Matrix.identity(QQ, 2)
    assert M.det() == Fraction(1)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for n in range(1, 6):
            identity = Matrix.identity(field, n)
            for seed in range(6):
                M = random_invertible_matrix(field, n, seed)
                assert M @ M.inverse() == identity == M.inverse() @ M, (field, n, seed)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_det_matches_leibniz_sum(field):
    rng = random.Random(7)
    for n in range(6):
        for trial in range(8):
            rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            if trial == 1 and n > 0:
                rows[0][0] = 0  # forces a row swap
            if trial == 2 and n > 1:
                rows[-1] = list(rows[0])  # singular
            M = Matrix.from_rows(field, rows, n)
            leibniz = field.zero
            for perm in permutations(range(n)):
                term = field.from_int(perm_sign(perm))
                for i in range(n):
                    term = field.mul(term, M.rows[i][perm[i]])
                leibniz = field.add(leibniz, term)
            assert M.det() == leibniz, (n, rows)


def test_singular_inverse_raises():
    with pytest.raises(DimensionMismatchError):
        Matrix.from_rows(QQ, [[1, 2], [2, 4]]).inverse()


def test_coordinates_in_rref_basis():
    U = span(QQ, 3, [(1, 0, 2), (0, 1, 3)])
    v = (2, -1, 1)
    coords = U.coordinates(v)
    assert coords == (Fraction(2), Fraction(-1))
