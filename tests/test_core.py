import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from nlie.catalog import catalog_build, entries_for_dims, lie_catalog_build
from nlie.core import (
    NLieAlgebra,
    abelian_algebra,
    bracket,
    bracket_basis,
    bracket_rows,
    bracket_subspaces,
    check_fundamental_identity,
    make_algebra,
    parse_algebra,
    parse_subspace,
    serialize_algebra,
    serialize_subspace,
    sort_with_sign,
)
from nlie.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    ParseError,
)
from nlie.fields import GF, QQ
from nlie.iso import random_basis_change
from nlie.linalg import full_subspace, span, zero_subspace, unit_vector

from oracles import naive_bracket, naive_fi_residual


A4_TABLE = {(2, 3, 4): {1: 1}, (1, 3, 4): {2: 1},
            (1, 2, 4): {3: 1}, (1, 2, 3): {4: 1}}


def a4(field=QQ):
    return make_algebra(field, 3, 4, A4_TABLE)


def ex33(field=QQ):
    return make_algebra(field, 3, 4, {(1, 2, 3): {4: 1}})


def e(i, m=4, field=QQ):
    return unit_vector(field, m, i)


def test_bracket_repeated_argument_is_zero():
    L = a4()
    assert bracket(L, (e(0), e(0), e(1))) == (0, 0, 0, 0)
    v = (Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    assert bracket(L, (v, v, e(2))) == (0, 0, 0, 0)


def test_ex33_basis_bracket():
    L = ex33()
    assert bracket(L, (e(0), e(1), e(2))) == (0, 0, 0, 1)


def test_ex33_multilinearity_instance():
    L = ex33()
    u = tuple(Fraction(x) for x in (1, 1, 0, 0))
    got = bracket(L, (u, e(1), e(2)))
    assert got == (0, 0, 0, 1)
    assert got == naive_bracket(L, [u, e(1), e(2)])


def test_bracket_matches_naive_oracle_on_dense_vectors():
    L = a4()
    vecs = [tuple(Fraction(x) for x in row)
            for row in ((1, 2, 0, -1), (0, 1, 1, 1), (2, 0, 1, 3))]
    assert bracket(L, vecs) == naive_bracket(L, vecs)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_bracket_matches_naive_oracle_at_arity_2_4_5(field):
    rng = random.Random(3)
    algebras = [lie_catalog_build("simple3", field),
                lie_catalog_build("upper", field, n=3)]
    for n in (4, 5):
        algebras += [catalog_build("A(n)", field, n=n),
                     catalog_build("L21-c2", field, n=n, alpha=2),
                     catalog_build("L21-d(r)", field, n=n, r=3)]

    assert {L.arity for L in algebras} == {2, 4, 5}
    for L in algebras:
        for _ in range(3):
            vecs = [_dense_vector(field, L.dim, rng) for _ in range(L.arity)]
            assert bracket(L, vecs) == naive_bracket(L, vecs)


def _dense_vector(field, m, rng):
    if field.p is None:
        return tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                              rng.choice((1, 2, 3))) for _ in range(m))
    return tuple(rng.randrange(1, field.p) for _ in range(m))


def _published_and_conjugated(algebras):
    return [M for L in algebras for M in (L, random_basis_change(L, 1))]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_compiled_table_matches_naive_bracket(field):
    """bracket_rows(L, rows, y) == [rows..., e_y...] by the oracle for every
    k = 0..n and every increasing (n-k)-tuple y, at arities 2 to 5; the
    conjugated tables expose sign errors in the compiled maps."""
    rng = random.Random(5)
    algebras = _published_and_conjugated([
        lie_catalog_build("simple3", field),
        catalog_build("EX33", field),
        catalog_build("T35-b4", field),
        catalog_build("L21-c2", field, n=4, alpha=2),
        catalog_build("L21-d(r)", field, n=4, r=3),
        catalog_build("A(n)", field, n=5),
    ])
    assert {L.arity for L in algebras} == {2, 3, 4, 5}
    for L in algebras:
        m, n = L.dim, L.arity
        units = [unit_vector(field, m, i) for i in range(m)]
        for k in range(n + 1):
            for y in combinations(range(m), n - k):
                rows = [_dense_vector(field, m, rng) for _ in range(k)]
                w = bracket_rows(L, rows, y)
                got = tuple(w) if w is not None else (field.zero,) * m
                assert got == naive_bracket(L, rows + [units[j] for j in y]), (L, k, y)


def _compile_by_sorting(L, k):
    """maps[k] the slow way: every split of every key sorted by
    ``sort_with_sign``, and each signed value built for each split."""
    f = L.field
    by_y = {}
    for key, val in L.entries:
        for cols in combinations(key, k):
            y = tuple(i for i in key if i not in cols)
            sign = sort_with_sign(cols + y)[1]
            by_y.setdefault(y, []).append(
                (cols, tuple((t, c if sign == 1 else f.neg(c)) for t, c in enumerate(val) if c)))
    return {y: tuple(items) for y, items in by_y.items()}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_compiled_table_matches_a_compile_by_sorting(field, n):
    """Every maps[k], k = 0..n, equals the slow compile item for item and in
    the same order, on random tables with sparse values.  For 0 < k < n
    some splits are odd, so their values are negated."""
    rng = random.Random(100 * n + (field.p or 0))
    m = n + 2
    scalars = ([Fraction(a, b) for a in (-3, -1, 2) for b in (1, 2)] if field.p is None
               else list(range(1, field.p)))
    odd_splits = set()
    for _ in range(4):
        entries = tuple(
            (key, tuple(rng.choice(scalars) if rng.random() < 0.5 else field.zero
                        for _ in range(m)))
            for key in combinations(range(m), n) if rng.random() < 0.7)
        L = NLieAlgebra(field, n, m, tuple((key, val) for key, val in entries if any(val)))
        for k in range(n + 1):
            slow = _compile_by_sorting(L, k)
            assert list(L.maps[k].items()) == list(slow.items()), (n, k)
            odd_splits.update(k for key, _ in L.entries for cols in combinations(key, k)
                              if sort_with_sign(cols + tuple(i for i in key if i not in cols))[1] < 0)
    assert odd_splits == set(range(1, n))


def _ex41_plus_abelian_2(field):
    """EX41 + abelian(2), with e2 and e5 the central abelian summand: a
    table with violations and with indices in no stored tuple."""
    keep = (0, 2, 3, 5, 6)
    entries = []
    for key, val in catalog_build("EX41", field).entries:
        vec = [field.zero] * 7
        for i, c in zip(keep, val):
            vec[i] = c
        entries.append((tuple(keep[i] for i in key), tuple(vec)))
    return NLieAlgebra(field, 3, 7, tuple(entries))


def _fi_algebras(field):
    return _published_and_conjugated(
        [L for _, L in entries_for_dims((4,), field)]
        + [catalog_build("EX41", field), catalog_build("T43-c1", field, m=5, t=2),
           _ex41_plus_abelian_2(field)])


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_fi_check_matches_naive_residuals_on_every_instance(field):
    """The check reports exactly the instances with a nonzero oracle residual,
    with equal residuals, in lexicographic order, and counts every instance."""
    for L in _fi_algebras(field):
        m, n = L.dim, L.arity
        expected = []
        for x in combinations(range(m), n):
            for y in combinations(range(m), n - 1):
                r = naive_fi_residual(L, x, y)
                if any(r):
                    expected.append((tuple(i + 1 for i in x),
                                     tuple(j + 1 for j in y), r))
        report = check_fundamental_identity(L)
        assert report.instances_checked == comb(m, n) * comb(m, n - 1)
        got = [(v.x_indices, v.y_indices, v.residual) for v in report.violations]
        assert got == expected, L
        assert report.holds == (not expected)


def test_fi_check_on_an_empty_table_visits_no_instance():
    """Every index of an empty table is central, so the check answers at
    once, and it still reports every instance as checked."""
    m = 100_000
    report = check_fundamental_identity(NLieAlgebra(QQ, 3, m, ()))
    assert report.holds and not report.violations
    assert report.instances_checked == comb(m, 3) * comb(m, 2)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_bracket_subspaces_matches_span_of_naive_brackets(field):
    """Argument tuples mixing the whole space, repeated proper subspaces and
    distinct proper subspaces, against the span of the oracle's brackets over
    every tuple of basis vectors."""
    rng = random.Random(7)
    for L in (catalog_build("A(n)", field, n=3), catalog_build("T35-b5", field, m=5),
              catalog_build("L21-d(r)", field, n=4, r=4)):
        m, n = L.dim, L.arity
        pool = {"F": full_subspace(field, m),
                "S": span(field, m, [_dense_vector(field, m, rng) for _ in range(2)]),
                "T": span(field, m, [_dense_vector(field, m, rng) for _ in range(3)])}
        patterns = ["".join(c) for c in combinations("FFSSTT", n)]
        patterns.append("SF" + "S" * (n - 2))
        for pattern in sorted(set(patterns)):
            args = [pool[c] for c in pattern]
            naive = span(field, m, [naive_bracket(L, list(vs))
                                    for vs in product(*(a.basis for a in args))])
            assert bracket_subspaces(L, args) == naive, (L, pattern)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_bracket_subspaces_groups_equal_arguments_that_are_distinct_objects(field):
    """Arguments equal as subspaces but built separately give the span that
    one shared object gives, in every position and with the whole space."""
    rng = random.Random(3)
    for L in (catalog_build("A(n)", field, n=3), catalog_build("T35-b5", field, m=5),
              catalog_build("L21-d(r)", field, n=4, r=4)):
        m, n = L.dim, L.arity
        full = full_subspace(field, m)
        for k in (1, 2, 3):
            vectors = [_dense_vector(field, m, rng) for _ in range(k)]
            copies = [span(field, m, vectors) for _ in range(n)]
            assert all(c == copies[0] and c.basis is not copies[0].basis for c in copies[1:])
            for j in range(1, n + 1):
                shared = bracket_subspaces(L, (copies[0],) * j + (full,) * (n - j))
                assert bracket_subspaces(L, copies[:j] + [full] * (n - j)) == shared
                assert bracket_subspaces(L, [full] * (n - j) + copies[:j]) == shared


def test_high_arity_fi_check_compiles_only_the_maps_it_reads():
    """All k together hold 2^n compiled items per stored tuple (over a
    million here); the identity check needs only maps[1]."""
    L = catalog_build("A(n)", GF(2), n=16)
    assert check_fundamental_identity(L).holds
    assert sorted(L.maps) == [1]


def test_bracket_sign_under_swap():
    L = a4(GF(5))
    vecs = [(1, 2, 0, 4), (0, 1, 1, 1), (2, 0, 1, 3)]
    lhs = bracket(L, vecs)
    rhs = bracket(L, [vecs[1], vecs[0], vecs[2]])
    assert lhs == tuple((-x) % 5 for x in rhs)


def test_bracket_basis_out_of_order():
    L = ex33()
    assert bracket_basis(L, (2, 0, 1)) == (0, 0, 0, 1)   # even permutation
    assert bracket_basis(L, (1, 0, 2)) == (0, 0, 0, -1)  # odd permutation
    assert bracket_basis(L, (0, 0, 1)) == (0, 0, 0, 0)


def test_bracket_shape_errors():
    L = ex33()
    with pytest.raises(DimensionMismatchError):
        bracket(L, (e(0), e(1)))
    with pytest.raises(DimensionMismatchError):
        bracket(L, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_bracket_subspaces_zero_argument():
    L = ex33()
    full = full_subspace(QQ, 4)
    z = zero_subspace(QQ, 4)
    assert bracket_subspaces(L, (z, full, full)).dim == 0


def test_bracket_subspaces_derived_ex33():
    L = ex33()
    full = full_subspace(QQ, 4)
    assert bracket_subspaces(L, (full, full, full)) == span(QQ, 4, [(0, 0, 0, 1)])


def test_bracket_subspaces_derived_a4_is_full():
    L = a4()
    full = full_subspace(QQ, 4)
    assert bracket_subspaces(L, (full, full, full)) == full


def test_bracket_subspaces_monotone_in_each_argument():
    L = a4()
    full = full_subspace(QQ, 4)
    small = span(QQ, 4, [(1, 0, 0, 0)])
    bigger = span(QQ, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    lo = bracket_subspaces(L, (small, full, full))
    hi = bracket_subspaces(L, (bigger, full, full))
    assert lo <= hi


def test_fi_holds_for_a4_and_ex33():
    assert check_fundamental_identity(a4()).holds
    assert check_fundamental_identity(ex33()).holds
    assert check_fundamental_identity(a4(GF(2))).holds


def test_fi_violation_detected_and_cross_checked():
    # changing the target of [e1,e2,e3] from e4 to e1 genuinely breaks the identity
    bad = make_algebra(QQ, 3, 4, {(2, 3, 4): {1: 1}, (1, 3, 4): {2: 1},
                                  (1, 2, 4): {3: 1}, (1, 2, 3): {1: 1}})
    report = check_fundamental_identity(bad)
    assert not report.holds
    assert report.violations
    v = report.violations[0]
    residual = naive_fi_residual(bad, tuple(i - 1 for i in v.x_indices),
                                 tuple(j - 1 for j in v.y_indices))
    assert residual == v.residual
    assert any(x != 0 for x in residual)


def test_fi_violation_for_two_disjoint_pairs_to_noncentral_target():
    # [x1,x2,x5]=x5, [x3,x4,x5]=x5 violates the identity (rank-4 form)
    L = make_algebra(QQ, 3, 5, {(1, 2, 5): {5: 1}, (3, 4, 5): {5: 1}})
    report = check_fundamental_identity(L)
    assert not report.holds
    for v in report.violations:
        residual = naive_fi_residual(L, tuple(i - 1 for i in v.x_indices),
                                     tuple(j - 1 for j in v.y_indices))
        assert residual == v.residual


def test_fi_random_instantiation_zero_for_valid_algebra():
    import random
    rng = random.Random(11)
    L = a4()
    f = QQ
    for _ in range(25):
        x = [tuple(Fraction(rng.randrange(-2, 3)) for _ in range(4)) for _ in range(3)]
        y = [tuple(Fraction(rng.randrange(-2, 3)) for _ in range(4)) for _ in range(2)]
        lhs = bracket(L, [bracket(L, x)] + y)
        rhs = (0, 0, 0, 0)
        for i in range(3):
            args = list(x)
            args[i] = bracket(L, [x[i]] + y)
            term = bracket(L, args)
            rhs = tuple(f.add(a, b) for a, b in zip(rhs, term))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# document format


EX33_DOC = {
    "format": "nlie-v1",
    "arity": 3,
    "dim": 4,
    "field": "Q",
    "brackets": [{"on": [1, 2, 3], "val": {"4": "1"}}],
}


def test_parse_ex33_document():
    L = parse_algebra(json.dumps(EX33_DOC))
    assert L.arity == 3 and L.dim == 4 and L.field == QQ
    assert L.entries == (((0, 1, 2), (Fraction(0), Fraction(0),
                                                Fraction(0), Fraction(1))),)


def test_parse_empty_bracket_list_is_abelian():
    doc = {"format": "nlie-v1", "arity": 3, "dim": 5, "field": "Q", "brackets": []}
    L = parse_algebra(json.dumps(doc))
    assert L.entries == ()
    assert check_fundamental_identity(L).holds


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.update(format="nope"), "unsupported format"),
    (lambda d: d.update(arity=1), "bad arity"),
    (lambda d: d.update(dim=0), "bad dim"),
    (lambda d: d.update(field={"p": 6}), "prime"),
    (lambda d: d.update(field={"p": "3"}), "modulus"),
    (lambda d: d["brackets"].append({"on": [2, 1, 3], "val": {}}), "increasing"),
    (lambda d: d["brackets"].append({"on": [1, 2, 3], "val": {"4": "2"}}), "duplicate"),
    (lambda d: d["brackets"].append({"on": [1, 2, 5], "val": {}}), "out of range"),
    (lambda d: d["brackets"].__setitem__(0, {"on": [1, 2, 3], "val": {"9": "1"}}),
     "out of range"),
    (lambda d: d["brackets"].__setitem__(0, {"on": [1, 2, 3], "val": {"4": "1/0"}}),
     "denominator"),
    (lambda d: d.update(labels=["a"]), "labels"),
])
def test_parse_errors(mutate, msg):
    doc = json.loads(json.dumps(EX33_DOC))
    mutate(doc)
    with pytest.raises(ParseError, match=msg):
        parse_algebra(json.dumps(doc))


def test_parse_rejects_non_json():
    with pytest.raises(ParseError):
        parse_algebra("not json")


def test_round_trip_is_identity_on_canonical_documents():
    L = make_algebra(QQ, 3, 5, {(1, 2, 5): {1: Fraction(3, 2), 3: -2},
                                (2, 3, 4): {5: 7}}, labels=list("abcde"))
    text = serialize_algebra(L)
    back = parse_algebra(text)
    assert back == L
    assert back.labels == L.labels
    assert serialize_algebra(back) == text


def test_round_trip_gf_p():
    L = make_algebra(GF(7), 3, 4, {(1, 2, 3): {4: 6}, (1, 2, 4): {3: 3}})
    back = parse_algebra(serialize_algebra(L))
    assert back == L


def test_serialize_normalizes_scalar_text():
    doc = json.loads(json.dumps(EX33_DOC))
    doc["brackets"][0]["val"] = {"4": "2/2"}
    text = serialize_algebra(parse_algebra(json.dumps(doc)))
    assert '"1"' in text and "2/2" not in text


def test_make_algebra_validation():
    with pytest.raises(InvalidParameterError):
        make_algebra(QQ, 3, 4, {(2, 1, 3): {4: 1}})
    with pytest.raises(InvalidParameterError):
        make_algebra(QQ, 3, 4, {(1, 2): {4: 1}})
    with pytest.raises(InvalidParameterError):
        make_algebra(QQ, 3, 4, {(1, 2, 5): {4: 1}})
    with pytest.raises(InvalidParameterError):
        make_algebra(QQ, 3, 4, {(1, 2, 3): {5: 1}})


def test_abelian_algebra_has_no_entries():
    L = abelian_algebra(QQ, 3, 5)
    assert L.entries == ()
    assert L.fi_checked


def test_subspace_document_round_trip():
    S = span(GF(3), 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    back = parse_subspace(serialize_subspace(S))
    assert back == S


def test_subspace_document_errors():
    with pytest.raises(ParseError):
        parse_subspace(json.dumps({"format": "subspace-v1", "ambient": 2,
                                   "field": "Q", "rows": [[1, 2, 3]]}))
    with pytest.raises(ParseError):
        parse_subspace(json.dumps({"format": "other"}))
