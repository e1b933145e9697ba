"""Property-based checks with hypothesis."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from nlie.catalog import catalog_build, representative_entries
from nlie.core import bracket, bracket_rows, check_fundamental_identity, make_algebra, \
    parse_algebra, serialize_algebra
from nlie.fields import GF, QQ
from nlie.invariants import (
    center,
    classify_subspace,
    derived_algebra,
    full_space,
    lower_central_series,
    s_derived_series,
)
from nlie.iso import fingerprint, random_basis_change
from nlie.linalg import Matrix, rref, span, subspace_intersect, subspace_sum
from nlie.search import alpha_beta_exact_fp, enumerate_subspaces, gaussian_binomial

from oracles import naive_bracket


fields = st.sampled_from([QQ, GF(2), GF(3), GF(5)])


@st.composite
def matrices(draw, max_dim=4):
    field = draw(fields)
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    if field.p is None:
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        scalar = st.integers(0, field.p - 1)
    rows = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix.from_rows(field, rows)


@st.composite
def subspace_pairs(draw, ambient=4):
    field = draw(fields)
    if field.p is None:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    else:
        scalar = st.integers(0, field.p - 1)
    vec = st.lists(scalar, min_size=ambient, max_size=ambient)
    u = draw(st.lists(vec, min_size=0, max_size=3))
    w = draw(st.lists(vec, min_size=0, max_size=3))
    return span(field, ambient, u), span(field, ambient, w)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent_and_preserves_row_space(M):
    R, pivots = M.rref()
    R2, pivots2 = R.rref()
    assert R == R2 and pivots == pivots2
    assert span(M.field, M.ncols, M.rows) == span(M.field, M.ncols, R.rows)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(1, 4))
def test_rref_leaves_a_basis_of_the_row_space(M, c):
    """With a zero row and a dependent row added, ``rref`` keeps one row per
    pivot, spanning the input's rows; ``Matrix.rref`` keeps ``nrows`` rows."""
    f = M.field
    c = f.from_int(c)
    dependent = [f.add(f.mul(c, x), y) for x, y in zip(M.rows[0], M.rows[-1])]
    rows = [list(r) for r in M.rows] + [[f.zero] * M.ncols, dependent]
    padded = Matrix.from_rows(f, rows)
    pivots = rref(rows, M.ncols, f.p)
    assert len(rows) == len(pivots)
    assert span(f, M.ncols, rows) == span(f, M.ncols, M.rows)
    R, pivots2 = padded.rref()
    assert len(R.rows) == R.nrows == M.nrows + 2 and list(pivots2) == pivots


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(M):
    assert M.rank() + M.kernel().dim == M.ncols


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_grassmann_formula(pair):
    U, W = pair
    s = subspace_sum(U, W)
    i = subspace_intersect(U, W)
    assert s.dim + i.dim == U.dim + W.dim
    assert i <= U and i <= W
    assert U <= s and W <= s


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_subspace_equality_iff_mutual_containment(pair):
    U, W = pair
    assert (U == W) == (U <= W and W <= U)


algebras = st.sampled_from(
    [L for _, L in representative_entries(QQ)[:12]]
    + [L for _, L in representative_entries(GF(3))[:6]])


@st.composite
def algebra_with_vectors(draw, count):
    L = draw(algebras)
    if L.field.p is None:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    else:
        scalar = st.integers(0, L.field.p - 1)
    vecs = draw(st.lists(st.lists(scalar, min_size=L.dim, max_size=L.dim),
                         min_size=count, max_size=count))
    return L, [tuple(L.field.validate(x) for x in v) for v in vecs]


@settings(max_examples=80, deadline=None)
@given(algebra_with_vectors(3), st.integers(0, 10))
def test_bracket_antisymmetry_under_adjacent_swap(data, pos):
    L, vecs = data
    vecs = (vecs * 3)[: L.arity]
    i = pos % (L.arity - 1)
    swapped = list(vecs)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    f = L.field
    assert bracket(L, vecs) == tuple(f.neg(x) for x in bracket(L, swapped))


@settings(max_examples=50, deadline=None)
@given(algebra_with_vectors(4))
def test_bracket_linear_in_first_slot(data):
    L, vecs = data
    u, v = vecs[0], vecs[1]
    rest = (vecs[2:] * 3)[: L.arity - 1]
    f = L.field
    combo = tuple(f.add(a, b) for a, b in zip(u, v))
    lhs = bracket(L, [combo] + rest)
    rhs = tuple(f.add(a, b) for a, b in zip(bracket(L, [u] + rest),
                                            bracket(L, [v] + rest)))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(algebra_with_vectors(3))
def test_bracket_agrees_with_naive_oracle(data):
    L, vecs = data
    vecs = (vecs * 3)[: L.arity]
    assert bracket(L, vecs) == naive_bracket(L, vecs)


def _scalars(field):
    if field.p is None:
        return st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=2))
    return st.integers(0, field.p - 1)


@st.composite
def tables_with_rows(draw):
    """A random antisymmetric table of arity n = 2..5 on m = n..n+2 basis
    vectors (the identity need not hold), k = 0..n raw rows, among them zero,
    repeated and dependent ones, and an increasing (n - k)-tuple y."""
    field = draw(fields)
    n = draw(st.integers(2, 5))
    m = draw(st.integers(n, n + 2))
    scalar = _scalars(field)
    keys = draw(st.lists(st.sampled_from(list(combinations(range(1, m + 1), n))),
                         unique=True, min_size=1))
    L = make_algebra(field, n, m, {key: draw(st.lists(scalar, min_size=m, max_size=m))
                                   for key in keys})
    k = draw(st.integers(0, n))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(("random",) * 3 + ("zero",)
                                    + (("repeat", "dependent") if rows else ())))
        if kind == "random":
            row = [field.validate(x) for x in draw(st.lists(scalar, min_size=m, max_size=m))]
        elif kind == "zero":
            row = [field.zero] * m
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        else:
            c = field.validate(draw(scalar))
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = [field.add(field.mul(c, a), b) for a, b in zip(u, v)]
        rows.append(row)
    y = draw(st.sampled_from(list(combinations(range(m), n - k))))
    return L, rows, y


def _single_key(field, n, m):
    return make_algebra(field, n, m, {tuple(range(1, n + 1)): {1: 1}})


@settings(max_examples=400, deadline=None)
@given(tables_with_rows())
# 2 x 2 and 3 x 3 minors that are nonzero multiples of p: 2*2 - 1*1 = 3,
# 2*3 - 1*1 = 5 and det [[1, 1, 0], [0, 1, 1], [1, 0, 1]] = 2
@example((_single_key(GF(3), 3, 3), [[2, 1, 0], [1, 2, 0]], (2,)))
@example((_single_key(GF(5), 3, 4), [[2, 1, 0, 1], [1, 3, 0, 4]], (2,)))
@example((_single_key(GF(2), 3, 3), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], ()))
@example((_single_key(GF(2), 4, 4), [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]], (3,)))
# every term of a dense 3 x 3 expansion counts: 1*(-2) - 2*2 + 3*8 = 18
@example((_single_key(QQ, 3, 3), [[1, 2, 3], [4, 0, 1], [2, 2, 1]], ()))
def test_bracket_rows_matches_the_oracle_on_random_tables(case):
    """``bracket_rows`` (its minors inline for k = 1, 2, 3, by ``minor_det``
    otherwise) equals the brute-force bracket [rows..., e_y...], and is None
    exactly when that bracket is zero."""
    L, rows, y = case
    f, m = L.field, L.dim
    units = [[f.one if t == j else f.zero for t in range(m)] for j in y]
    want = naive_bracket(L, rows + units)
    got = bracket_rows(L, rows, y)
    assert (got is None) == (not any(want))
    assert tuple(got or want) == want


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([L for _, L in representative_entries(QQ)
                        if L.fi_checked][:10]),
       st.integers(0, 2**30))
def test_fi_random_instantiation(L, seed):
    import random
    rng = random.Random(seed)
    m, n = L.dim, L.arity
    f = L.field

    def rv():
        return tuple(Fraction(rng.randrange(-2, 3)) for _ in range(m))

    x = [rv() for _ in range(n)]
    y = [rv() for _ in range(n - 1)]
    lhs = bracket(L, [bracket(L, x)] + y)
    rhs = tuple([f.zero] * m)
    for i in range(n):
        args = list(x)
        args[i] = bracket(L, [x[i]] + y)
        rhs = tuple(f.add(a, b) for a, b in zip(rhs, bracket(L, args)))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([L for _, L in representative_entries(QQ)]),
       st.integers(0, 1000))
def test_fingerprint_basis_change_invariance(L, seed):
    assert fingerprint(random_basis_change(L, seed)) == fingerprint(L)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([L for _, L in representative_entries(QQ)]))
def test_series_dims_non_increasing(L):
    full = full_space(L)
    for s in range(2, L.arity + 1):
        dims = s_derived_series(L, full, s).dims
        assert all(a >= b for a, b in zip(dims, dims[1:]))
    dims = lower_central_series(L, full).dims
    assert all(a >= b for a, b in zip(dims, dims[1:]))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([L for _, L in representative_entries(QQ)]))
def test_derived_equals_full_bracket_and_center_abelian_ideal(L):
    from nlie.core import bracket_subspaces
    full = full_space(L)
    assert derived_algebra(L) == bracket_subspaces(L, (full,) * L.arity)
    assert classify_subspace(L, center(L)).is_abelian_ideal


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([L for _, L in representative_entries(QQ)]))
def test_serialize_parse_round_trip(L):
    assert parse_algebra(serialize_algebra(L)) == L


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.sampled_from([2, 3]))
def test_enumeration_matches_gaussian_binomial(m, k, p):
    if k > m:
        return
    count = sum(1 for _ in enumerate_subspaces(m, k, p))
    assert count == gaussian_binomial(m, k, p)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([("EX33", {}), ("EX32-2", {}), ("T34-a1", {"m": 4})]),
       st.sampled_from([2, 3]))
def test_beta_le_alpha_and_bound(spec, p):
    fid, params = spec
    L = catalog_build(fid, GF(p), **params)
    res = alpha_beta_exact_fp(L)
    assert res.beta <= res.alpha
    assert res.beta <= L.dim - 2
