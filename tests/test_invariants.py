import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from nlie.catalog import catalog_build, entries_for_dims, lie_catalog_build
from nlie.core import (
    NLieAlgebra,
    abelian_algebra,
    bracket_basis,
    check_fundamental_identity,
    make_algebra,
)
from nlie.errors import NotAnIdealError
from nlie.fields import GF, QQ
from nlie import invariants
from nlie.invariants import (
    SubspaceClass,
    center,
    classify_subspace,
    derived_algebra,
    full_space,
    invariant_report,
    is_2step_s_solvable,
    is_abelian_ideal,
    is_abelian_subalgebra,
    is_ideal,
    is_nilpotent,
    is_s_solvable,
    lower_central_series,
    operators_generate_all,
    s_derived_series,
)
from nlie.iso import (
    are_isomorphic,
    change_basis,
    fingerprint,
    ideal_count_difference,
    random_basis_change,
)
from nlie.linalg import Matrix, coordinate_subspace, span, unit_vector
from nlie.search import enumerate_subspaces, reduce_mod_p

from oracles import all_vectors_fp, naive_bracket, rref_fractions, span_members_fp


def test_derived_of_abelian_is_zero():
    assert derived_algebra(abelian_algebra(QQ, 3, 5)).dim == 0


def test_derived_dims_of_families():
    assert derived_algebra(catalog_build("T34-a1", QQ, m=6)).dim == 1
    assert derived_algebra(catalog_build("T34-a1", QQ, m=6)) == \
        coordinate_subspace(QQ, 6, (0,))
    assert derived_algebra(catalog_build("T35-b4", QQ, m=6)) == \
        coordinate_subspace(QQ, 6, (0, 1))


def test_s_derived_series_t34a1():
    L = catalog_build("T34-a1", QQ, m=5)
    rep = s_derived_series(L, full_space(L), 2)
    assert rep.dims == (5, 1, 0)
    assert rep.terminated_at_zero and rep.stabilized


def test_s_derived_series_a4_stabilizes():
    L = catalog_build("A(n)", QQ, n=3)
    rep = s_derived_series(L, full_space(L), 3)
    assert rep.dims == (4, 4)
    assert rep.stabilized and not rep.terminated_at_zero
    assert not is_s_solvable(L, 3)
    assert not is_s_solvable(L, 2)


def test_series_of_abelian():
    L = abelian_algebra(QQ, 3, 4)
    rep = s_derived_series(L, full_space(L), 2)
    assert rep.dims == (4, 0)
    assert is_s_solvable(L, 2) and is_s_solvable(L, 3)
    assert is_2step_s_solvable(L, 2)


def test_lower_central_ex33_nilpotent():
    L = catalog_build("EX33", QQ)
    rep = lower_central_series(L, full_space(L))
    assert rep.terminated_at_zero
    assert is_nilpotent(L)


def test_lower_central_b2_vs_b3():
    b2 = catalog_build("T35-b2", QQ, m=6)
    b3 = catalog_build("T35-b3", QQ, m=6)
    assert not is_nilpotent(b2)
    assert is_nilpotent(b3)


def test_lower_central_a4_constant():
    L = catalog_build("A(n)", QQ, n=3)
    rep = lower_central_series(L, full_space(L))
    assert rep.dims == (4, 4)
    assert not is_nilpotent(L)


def test_series_requires_ideal():
    L = catalog_build("A(n)", QQ, n=3)
    S = coordinate_subspace(QQ, 4, (0,))
    with pytest.raises(NotAnIdealError):
        s_derived_series(L, S, 2)
    with pytest.raises(NotAnIdealError):
        lower_central_series(L, S)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_first_term_after_l_is_the_derived_algebra(field):
    """Every series from L continues with [L, .., L]; invariant_report, the
    ``derived`` verb and classify_theorem44 read the derived algebra there."""
    for label, L in entries_for_dims((4, 5, 6), field):
        full, d = full_space(L), derived_algebra(L)
        for s in range(2, L.arity + 1):
            assert s_derived_series(L, full, s).terms[1] == d, (label, s)
        assert lower_central_series(L, full).terms[1] == d, label
        subspaces = invariant_report(L).subspaces
        assert subspaces[0] == (center(L),), label
        assert [terms[0] for terms in subspaces[1:]] == [d] * L.arity, label


def test_each_span_is_computed_once(monkeypatch):
    """invariant_report, and are_isomorphic on top of it, compute each bracket
    span of an algebra once.  The subspaces that a fingerprint carries take
    no part in its comparisons or its document."""
    L = catalog_build("T35-b4", GF(3), m=4)
    D = random_basis_change(L, seed=0)
    fp_l, fp_d = fingerprint(L), fingerprint(D)
    assert fp_l == fp_d and fp_l.differs_from(fp_d) is None
    assert fp_l.to_dict().keys() == fp_d.to_dict().keys()
    assert "subspaces" not in fp_l.to_dict()
    assert fp_l.subspaces != fp_d.subspaces

    calls = []
    original = invariants.bracket_subspaces

    def counted(L, subspaces):
        calls.append((id(L), tuple(S.basis for S in subspaces)))
        return original(L, subspaces)

    monkeypatch.setattr(invariants, "bracket_subspaces", counted)
    alive = []  # no algebra is freed, so no id is reused
    for field in (QQ, GF(3)):
        for _, L in entries_for_dims((4, 5), field):
            alive.append(L)
            invariant_report(L)
    for p in (2, 3):
        for seed, (_, L) in enumerate(entries_for_dims((4,), GF(p))):
            D = random_basis_change(L, seed)
            alive += [L, D]
            are_isomorphic(L, D, budget=2_000)
    assert calls
    assert [key for key, count in Counter(calls).items() if count > 1] == []


def test_center_dims():
    assert center(catalog_build("T34-a1", QQ, m=6)).dim == 3
    assert center(catalog_build("T35-b5", QQ, m=6)).dim == 2


def test_center_ex41_zero_via_oracle():
    L = catalog_build("EX41", QQ)
    z = center(L)
    assert z.dim == 0
    # independent check: assemble the full linear system and row-reduce it
    # with the textbook Fraction elimination
    rows = []
    for y in combinations(range(5), 2):
        block = [bracket_basis(L, (t,) + y) for t in range(5)]
        for r in range(5):
            rows.append([Fraction(block[t][r]) for t in range(5)])
    reduced = rref_fractions(rows)
    rank = len(reduced)
    assert 5 - rank == 0


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_center_matches_brute_force(field):
    """Over GF(3) the center is the set of all vectors killed by every
    oracle bracket against basis tuples; over Q its basis is killed and its
    dimension is the corank of the oracle's linear system (textbook RREF)."""
    algebras = [L for _, L in entries_for_dims((4,), field)]
    algebras += [random_basis_change(L, 1) for L in algebras]
    for L in algebras:
        m, n = L.dim, L.arity
        units = [unit_vector(field, m, i) for i in range(m)]
        ys = [[units[j] for j in y] for y in combinations(range(m), n - 1)]

        def killed(v):
            return all(not any(naive_bracket(L, [v] + y)) for y in ys)

        z = center(L)
        assert span(field, m, z.basis) == z, L  # canonical RREF
        if field.p is None:
            assert all(killed(v) for v in z.basis)
            rows = [[naive_bracket(L, [units[t]] + y)[r] for t in range(m)]
                    for y in ys for r in range(m)]
            assert z.dim == m - len(rref_fractions(rows)), L
        else:
            members = {v for v in all_vectors_fp(m, field.p) if killed(v)}
            assert span_members_fp(z.basis, m, field.p) == members, L


def test_center_ex42_m6():
    L = catalog_build("EX42", QQ, m=6)
    assert center(L) == coordinate_subspace(QQ, 6, (2,))


def _flags_by_naive_spans(L, S):
    """classify_subspace's flags read off spans of the oracle's brackets
    over every tuple of basis vectors."""
    f, m, n = L.field, L.dim, L.arity
    units = [unit_vector(f, m, i) for i in range(m)]

    def naive(*bases):
        return span(f, m, [naive_bracket(L, list(vs)) for vs in product(*bases)])

    own = naive(*(S.basis,) * n)
    ideal = naive(S.basis, *(units,) * (n - 1)) <= S
    pair_zero = naive(S.basis, S.basis, *(units,) * (n - 2)).is_zero
    return SubspaceClass(own <= S, ideal, own.is_zero, ideal and pair_zero,
                         ideal and own.is_zero and not pair_zero)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_subspace_predicates_match_spans_of_naive_brackets(field):
    """The early-exit predicates and classify_subspace against whole spans of
    oracle brackets, on every coordinate subspace and on seeded random
    subspaces, at arities 2 and 3; EX41 violates the identity.  Over Q, four
    tables also go through an upper-triangular basis change of determinant
    2^m, which makes the constants of EX33, A(3) and EX41 non-integral
    fractions."""
    rng = random.Random(11)
    algebras = [catalog_build(fid, field, **params) for fid, params in (
        ("A(n)", {"n": 3}), ("EX32-1", {}), ("EX33", {}), ("EX41", {}),
        ("T35-b2", {"m": 5}))]
    algebras += [lie_catalog_build("heisenberg", field, dim=3),
                 lie_catalog_build("upper", field, n=2)]
    if field.p is None:
        conjugates = []
        for L in [algebras[i] for i in (2, 0, 4, 3)]:  # EX33, A(3), T35-b2, EX41
            m = L.dim
            conjugates.append(change_basis(L, Matrix.from_rows(QQ, [
                [2 if j == i else 1 if j == i + 1 else 0 for j in range(m)] for i in range(m)])))
        assert [any(isinstance(c, Fraction) for _, val in D.entries for c in val)
                for D in conjugates] == [True, True, False, True]
        algebras += conjugates
    for L in algebras:
        m = L.dim
        subspaces = [coordinate_subspace(field, m, idx)
                     for k in range(m + 1) for idx in combinations(range(m), k)]
        values = range(-1, 2) if field.p is None else range(field.p)
        subspaces += [span(field, m, [[rng.choice(values) for _ in range(m)] for _ in range(k)])
                      for k in range(1, m) for _ in range(3)]
        for S in subspaces:
            flags = _flags_by_naive_spans(L, S)
            assert classify_subspace(L, S) == flags, (L, S)
            assert (is_abelian_subalgebra(L, S), is_ideal(L, S), is_abelian_ideal(L, S)) \
                == (flags.is_abelian_subalgebra, flags.is_ideal, flags.is_abelian_ideal), (L, S)


def _has_proper_ideal(L):
    """Reference: walk every proper nonzero subspace of GF(p)^m for an ideal."""
    m, p = L.dim, L.field.p
    return any(is_ideal(L, S) for k in range(1, m) for S in enumerate_subspaces(m, k, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_operators_generate_all_matches_proper_ideal_walk(p):
    """The spin against the walk over every proper subspace, on every
    4-dimensional catalog table and 3 basis changes of each.  Generating M_4
    certifies that there is no proper ideal over any extension field, which
    is stronger than the walk's "none over GF(p)"; on these tables the two
    agree, and 8 of them (A(3) and EX31, each with its basis changes) are
    absolutely simple."""
    tables = entries_for_dims((4,), GF(p))
    simple = []
    for label, L in tables:
        for A in [L] + [random_basis_change(L, seed) for seed in (1, 2, 3)]:
            spun = operators_generate_all(A)
            assert spun is not _has_proper_ideal(A), (label, A)
            if spun:
                simple.append(label)
    assert len(tables) == 19
    assert sorted(simple) == ["A(n)@m=4 {'n': 3}"] * 4 + ["EX31@m=4"] * 4


def _sl2_of_gaussian_rationals():
    """sl2(Q(i)) as a 6-dimensional Lie algebra over Q, on the basis h, ih,
    e, ie, f, if: simple over Q, but over Q(i) the sum of two copies of
    sl2, since multiplication by i commutes with every operator ad y."""
    return make_algebra(QQ, 2, 6, {
        (1, 3): {3: 2}, (1, 4): {4: 2}, (2, 3): {4: 2}, (2, 4): {3: -2},
        (1, 5): {5: -2}, (1, 6): {6: -2}, (2, 5): {6: -2}, (2, 6): {5: 2},
        (3, 5): {1: 1}, (3, 6): {2: 1}, (4, 5): {2: 1}, (4, 6): {1: -1}})


def test_operators_generate_all_rejects_a_perfect_algebra_that_splits():
    """sl2(Q(i)) is perfect, but its operators span only Q(i)-linear maps,
    over Q and mod 3 (where i lies in GF(9), not GF(3)); the split simple
    algebras generate everything."""
    L = _sl2_of_gaussian_rationals()
    assert check_fundamental_identity(L).holds
    for A in (L, reduce_mod_p(L, 3)):
        assert derived_algebra(A).dim == 6
        assert not operators_generate_all(A)
    assert operators_generate_all(lie_catalog_build("simple3", QQ))
    for n in (3, 4, 5):
        assert operators_generate_all(catalog_build("A(n)", QQ, n=n))


def test_fingerprint_computes_the_centre_once(monkeypatch):
    """Over GF(p) a fingerprint reads the centre and the derived algebra for
    alpha and beta and for the invariant report, and the ideal counts of a
    pair read them again; the report's series read the full space at every
    step.  Each algebra computes each of them once."""
    names = ("center", "derived", "full")
    calls = []
    for name in names:
        prop = getattr(NLieAlgebra, name)

        def counted(L, compute=prop.func, name=name):
            calls.append((name, id(L)))
            return compute(L)

        monkeypatch.setattr(prop, "func", counted)
    for p, dims in ((2, (4, 5)), (3, (4,))):
        for seed, (label, L) in enumerate(entries_for_dims(dims, GF(p))):
            D = random_basis_change(L, seed)
            calls.clear()
            assert fingerprint(L).alpha_beta is not None, label
            assert fingerprint(D).alpha_beta is not None, label
            ideal_count_difference(L, D)
            assert sorted(calls) == sorted((name, id(A)) for name in names for A in (L, D)), label


def test_classify_ex32_1_hypo_abelian():
    L = catalog_build("EX32-1", QQ)
    cls = classify_subspace(L, coordinate_subspace(QQ, 4, (0, 1, 2)))
    assert cls.is_hypo_abelian_ideal
    assert cls.is_ideal and cls.is_abelian_subalgebra
    assert not cls.is_abelian_ideal


def test_classify_ex33_abelian_ideal():
    L = catalog_build("EX33", QQ)
    cls = classify_subspace(L, coordinate_subspace(QQ, 4, (0, 3)))
    assert cls.is_abelian_ideal
    assert cls.is_subalgebra and cls.is_ideal
    assert not cls.is_hypo_abelian_ideal


@pytest.mark.parametrize("fid,params", [
    ("A(n)", {"n": 3}), ("EX33", {}), ("T34-a1", {"m": 5}),
    ("T35-b6", {"m": 5, "alpha": 1}), ("EX42", {"m": 6}),
])
def test_center_always_classifies_as_abelian_ideal(fid, params):
    L = catalog_build(fid, QQ, **params)
    z = center(L)
    cls = classify_subspace(L, z)
    assert cls.is_abelian_ideal


@pytest.mark.parametrize("fid,params", [
    ("A(n)", {"n": 3}), ("EX33", {}), ("T35-b2", {"m": 5}),
    ("T43-c3", {"m": 6, "t": 2}), ("EX42", {"m": 5}),
])
def test_derived_algebra_is_an_ideal(fid, params):
    L = catalog_build(fid, QQ, **params)
    assert classify_subspace(L, derived_algebra(L)).is_ideal


def test_solvable_monotone_in_s():
    for fid, params in [("EX33", {}), ("T35-b1", {"m": 6}), ("T43-c2", {"m": 5})]:
        L = catalog_build(fid, QQ, **params)
        if is_s_solvable(L, 2):
            assert is_s_solvable(L, 3)


def test_2step_solvable_b1():
    assert is_2step_s_solvable(catalog_build("T35-b1", QQ, m=6), 2)


def test_invariant_report_examples():
    rep = invariant_report(catalog_build("EX41", QQ))
    assert rep.derived_dim == 1

    rep = invariant_report(catalog_build("EX42", QQ, m=6))
    assert rep.nilpotent
    assert rep.center_dim == 1

    rep = invariant_report(abelian_algebra(QQ, 3, 5))
    assert rep.derived_dim == 0
    assert rep.center_dim == 5
    assert rep.lower_central == (5, 0)
    assert dict(rep.solvable) == {2: True, 3: True}


def test_nilpotent_implies_2solvable_on_catalog():
    from nlie.catalog import representative_entries
    for label, L in representative_entries(QQ):
        if is_nilpotent(L):
            assert is_s_solvable(L, 2), label


def test_invariants_over_prime_field():
    L = catalog_build("EX33", GF(5))
    assert derived_algebra(L).dim == 1
    assert center(L).dim == 1
    assert is_nilpotent(L)
