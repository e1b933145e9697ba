import json
import re
from fractions import Fraction

import pytest

from nlie.catalog import (
    CATALOG,
    associated_lie,
    catalog_build,
    classify_theorem44,
    direct_sum,
    entries_for_dims,
    lie_catalog_build,
    representative_entries,
    semidirect_A4,
    trivial_extension,
)
from nlie.core import (
    abelian_algebra,
    check_fundamental_identity,
    make_algebra,
)
from nlie.errors import FundamentalIdentityError, InvalidParameterError
from nlie.fields import GF, QQ
from nlie import catalog, cli
from nlie.invariants import (
    center,
    classify_subspace,
    derived_algebra,
    invariant_report,
    is_nilpotent,
    operators_generate_all,
)
from nlie.iso import change_basis, random_basis_change
from nlie.linalg import Matrix, coordinate_subspace
from nlie.search import (
    alpha_beta_exact_fp,
    enumerate_subspaces,
    reduce_mod_p,
)


def entries_1based(L):
    f = L.field
    return {tuple(i + 1 for i in key): {t + 1: c for t, c in enumerate(val) if c != f.zero}
            for key, val in L.entries}


def test_t34_a2_exact_table():
    L = catalog_build("T34-a2", QQ, m=5)
    assert entries_1based(L) == {(1, 4, 5): {1: Fraction(1)}}


def test_t35_b6_exact_table():
    L = catalog_build("T35-b6", QQ, m=6, alpha=2)
    assert entries_1based(L) == {
        (2, 5, 6): {1: Fraction(2), 2: Fraction(1)},
        (1, 5, 6): {2: Fraction(1)},
    }


def test_a3_is_the_four_dim_simple_table():
    L = catalog_build("A(n)", QQ, n=3)
    assert entries_1based(L) == {
        (2, 3, 4): {1: Fraction(1)}, (1, 3, 4): {2: Fraction(1)},
        (1, 2, 4): {3: Fraction(1)}, (1, 2, 3): {4: Fraction(1)},
    }


def test_a_n_equals_l21_d_full():
    for n in (3, 4):
        a = catalog_build("A(n)", QQ, n=n)
        d = catalog_build("L21-d(r)", QQ, n=n, r=n + 1)
        assert a == d


def test_catalog_ids_complete():
    expected = {"L21-b1", "L21-b2", "L21-c1", "L21-c2", "L21-c3", "L21-d(r)",
                "A(n)", "T34-a1", "T34-a2", "T35-b1", "T35-b2", "T35-b3",
                "T35-b4", "T35-b5", "T35-b6", "T43-c1", "T43-c2", "T43-c3",
                "EX31", "EX32-1", "EX32-2", "EX33", "EX41", "EX42", "T44-3"}
    assert set(CATALOG) == expected


def test_fi_status_of_representatives():
    bad = {label for label, L in representative_entries(QQ) if not L.fi_checked}
    # the two defective shipped tables; everything else passes
    assert bad == {"T43-c1[('m', 5), ('t', 2)]", "EX41"}


def test_ex41_violation_is_real():
    from oracles import naive_fi_residual
    L = catalog_build("EX41", QQ)
    report = check_fundamental_identity(L)
    assert not report.holds
    v = report.violations[0]
    residual = naive_fi_residual(L, tuple(i - 1 for i in v.x_indices),
                                 tuple(j - 1 for j in v.y_indices))
    assert residual == v.residual
    assert any(x != 0 for x in residual)


def test_t43_c1_single_pair_is_valid():
    L = catalog_build("T43-c1", QQ, m=5, t=1)
    assert L.fi_checked


def test_strict_build_raises_on_defective_family():
    with pytest.raises(FundamentalIdentityError):
        catalog_build("EX41", QQ, strict=True)


@pytest.mark.parametrize("fid,params", [
    ("T35-b6", {"m": 6, "alpha": 0}),
    ("L21-c2", {"n": 3, "alpha": 0}),
    ("T34-a1", {"m": 3}),
    ("T35-b1", {"m": 5}),
    ("T35-b2", {"m": 4}),
    ("T43-c1", {"m": 5, "t": 3}),
    ("T43-c1", {"m": 4}),
    ("T43-c3", {"m": 6, "t": 0}),
    ("L21-d(r)", {"n": 3, "r": 2}),
    ("A(n)", {"n": 1}),
    ("EX42", {"m": 3}),
])
def test_parameter_validation(fid, params):
    with pytest.raises(InvalidParameterError):
        catalog_build(fid, QQ, **params)


@pytest.mark.parametrize("fid", [fid for fid, e in CATALOG.items()
                                 if "m" in e.params or "n" in e.params])
def test_min_dim_is_the_least_dimension_build_accepts(capsys, fid):
    """``min_dim``, as ``catalog list`` prints it, is what ``catalog build``
    enforces on the dimension m or the arity n (dimension n + 1)."""
    entry = CATALOG[fid]
    name, least = ("m", entry.min_dim) if "m" in entry.params else ("n", entry.min_dim - 1)
    for field in (QQ, GF(2)):
        assert catalog_build(fid, field, **{name: least}).dim == entry.min_dim
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(fid)} requires"):
            catalog_build(fid, field, **{name: least - 1})
    assert cli.main(["catalog", "list", "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)["result"]["families"]
    assert [f["min_dim"] for f in listed if f["id"] == fid] == [entry.min_dim]


def test_registry_entry_enforces_min_dim_itself():
    with pytest.raises(InvalidParameterError, match=r"^EX42 requires dim >= 4, got 3$"):
        CATALOG["EX42"].build(QQ, m=3)


def test_unknown_family():
    with pytest.raises(InvalidParameterError):
        catalog_build("nope", QQ)


def test_alpha_zero_mod_p_rejected():
    # alpha = 2 reduces to zero mod 2, violating the family constraint
    with pytest.raises(InvalidParameterError):
        catalog_build("T35-b6", GF(2), m=5, alpha=2)
    L = catalog_build("T35-b6", GF(5), m=5, alpha=2)
    assert L.fi_checked


def test_default_t_is_maximal():
    L = catalog_build("T43-c3", QQ, m=8)
    assert len(L.entries) == 3  # pairs (2,3),(4,5),(6,7)


# ---------------------------------------------------------------------------
# constructions


def test_associated_lie_ex32_1_table():
    L = catalog_build("EX32-1", QQ)
    L0 = associated_lie(L, (0, 0, 0, 1))
    assert entries_1based(L0) == {
        (1, 2): {3: Fraction(1)}, (1, 3): {2: Fraction(1)},
        (2, 3): {1: Fraction(1)},
    }
    assert L0.fi_checked


def test_associated_lie_at_central_vector_is_abelian():
    L = catalog_build("EX33", QQ)
    L0 = associated_lie(L, (0, 0, 0, 1))  # x4 is central
    assert L0.entries == ()


def test_associated_lie_ex42_at_x1():
    L = catalog_build("EX42", QQ, m=6)
    L0 = associated_lie(L, (1, 0, 0, 0, 0, 0))
    assert entries_1based(L0) == {
        (2, 4): {3: Fraction(1)}, (2, 5): {4: Fraction(1)},
        (2, 6): {5: Fraction(1)},
    }


def test_trivial_extension_of_heisenberg_is_ex33_relabeled():
    heis = lie_catalog_build("heisenberg", QQ, dim=3)
    L = trivial_extension(heis)
    assert entries_1based(L) == {(1, 2, 4): {3: Fraction(1)}}
    # swapping x3 and x4 recovers the EX33 table exactly
    perm = Matrix.from_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 0, 1], [0, 0, 1, 0]])
    assert change_basis(L, perm) == catalog_build("EX33", QQ)


def test_trivial_extension_of_abelian_is_abelian():
    L = trivial_extension(abelian_algebra(QQ, 2, 3))
    assert L.entries == ()
    assert L.dim == 4


def test_trivial_extension_of_simple3_is_ex32_1():
    L = trivial_extension(lie_catalog_build("simple3", QQ))
    assert L == catalog_build("EX32-1", QQ)


def test_trivial_extension_rejects_non_lie_input():
    bad = make_algebra(QQ, 2, 3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    if not check_fundamental_identity(bad).holds:
        with pytest.raises(FundamentalIdentityError):
            trivial_extension(bad)


def test_trivial_extension_requires_arity_2():
    with pytest.raises(InvalidParameterError):
        trivial_extension(catalog_build("EX33", QQ))


def test_trivial_extension_fi_for_all_lie_entries():
    inputs = [lie_catalog_build("abelian", QQ, dim=3),
              lie_catalog_build("affine", QQ, dim=2),
              lie_catalog_build("heisenberg", QQ, dim=3),
              lie_catalog_build("heisenberg", QQ, dim=5),
              lie_catalog_build("simple3", QQ),
              lie_catalog_build("upper", QQ, n=2),
              lie_catalog_build("upper", QQ, n=3),
              lie_catalog_build("strictly-upper", QQ, n=3),
              lie_catalog_build("strictly-upper", QQ, n=4)]
    for J0 in inputs:
        L = trivial_extension(J0)
        assert L.fi_checked
        assert L.dim == J0.dim + 1


def test_trivial_extension_fi_for_random_commutator_members():
    # 100 random basis changes of the small matrix-commutator fixtures; the
    # extension of each must satisfy the identity (asserted at build)
    from nlie.iso import random_basis_change
    bases = [lie_catalog_build("upper", QQ, n=2),
             lie_catalog_build("strictly-upper", QQ, n=3),
             lie_catalog_build("heisenberg", QQ, dim=3)]
    for seed in range(100):
        J0 = random_basis_change(bases[seed % len(bases)], seed)
        L = trivial_extension(J0)
        assert L.fi_checked


def test_direct_sum_dims_add():
    a4 = catalog_build("A(n)", QQ, n=3)
    ex33 = catalog_build("EX33", QQ)
    s = direct_sum(a4, ex33)
    assert s.dim == 8
    assert derived_algebra(s).dim == derived_algebra(a4).dim + derived_algebra(ex33).dim
    assert center(s).dim == center(a4).dim + center(ex33).dim
    assert s.fi_checked


def test_direct_sum_with_abelian_preserves_derived():
    L = catalog_build("EX33", QQ)
    s = direct_sum(L, abelian_algebra(QQ, 3, 2))
    assert derived_algebra(s).dim == derived_algebra(L).dim


def test_direct_sum_summands_are_ideals():
    a4 = catalog_build("A(n)", QQ, n=3)
    s = direct_sum(a4, abelian_algebra(QQ, 3, 2))
    assert classify_subspace(s, coordinate_subspace(QQ, 6, range(4))).is_ideal
    assert classify_subspace(s, coordinate_subspace(QQ, 6, (4, 5))).is_abelian_ideal


def test_direct_sum_requires_same_arity():
    with pytest.raises(InvalidParameterError):
        direct_sum(catalog_build("EX33", QQ), abelian_algebra(QQ, 2, 2))


def test_semidirect_zero_action_is_direct_sum():
    sd = semidirect_A4(QQ, 6)
    ds = direct_sum(catalog_build("A(n)", QQ, n=3), abelian_algebra(QQ, 3, 2))
    assert sd == ds
    tau = coordinate_subspace(QQ, 6, (4, 5))
    assert classify_subspace(sd, tau).is_abelian_ideal
    assert classify_subspace(sd, coordinate_subspace(QQ, 6, range(4))).is_subalgebra


def test_semidirect_rejects_fi_violating_action():
    with pytest.raises(FundamentalIdentityError) as exc:
        semidirect_A4(QQ, 6, action={(1, 2, 5): {5: 1}})
    assert exc.value.report is not None
    assert exc.value.report.violations


def test_semidirect_action_validation():
    with pytest.raises(InvalidParameterError):
        semidirect_A4(QQ, 6, action={(1, 5, 6): {5: 1}})
    with pytest.raises(InvalidParameterError):
        semidirect_A4(QQ, 6, action={(1, 2, 5): {1: 1}})


def test_classify44_three_cases():
    assert classify_theorem44(catalog_build("EX33", QQ)).case == "3-solvable"
    assert classify_theorem44(catalog_build("A(n)", QQ, n=3)).case == "simple-A4"
    v = classify_theorem44(semidirect_A4(QQ, 6))
    assert v.case == "A4-semidirect"
    assert v.tau is not None and v.tau.dim == 2
    assert v.block is not None and v.block.dim == 4


def test_classify44_budget_exhaustion_returns_unknown():
    """The budget counts the beta lines and the blocks tested: semidirect_A4(Q,
    6) mod 2 finds tau after 15 beta lines, and D = [L, L, L] is 4-dimensional,
    so its one block is D, simple by one spin: a budget of 16 decides it and
    15 or less stop it."""
    for budget in (0, 1, 15):
        v = classify_theorem44(semidirect_A4(QQ, 6), budget=budget)
        assert v.case == "unknown"
        assert v.evidence == {"reason": "budget exceeded"}
    v = classify_theorem44(semidirect_A4(QQ, 6), budget=16)
    assert (v.case, v.evidence["subspaces_scanned"]) == ("A4-semidirect", 16)


def test_classify44_works_on_prime_field_input():
    assert classify_theorem44(catalog_build("A(n)", GF(3), n=3)).case == "simple-A4"


@pytest.mark.parametrize("m,scanned", [(5, 1), (6, 16), (7, 16)])
def test_classify44_t44_3_over_gf2_is_pinned(m, scanned):
    """tau = Z is the beta witness, and the block is D = [L, L, L] itself,
    the one 4-dimensional subspace of D, tested once.  At m = 5 the beta
    bound is dim Z, so no line is tried; at m = 6, 7 the trace forms of A(3)
    vanish mod 2 and cut nothing, and the search tries 15 lines."""
    v = classify_theorem44(catalog_build("T44-3", GF(2), m=m))
    assert v.case == "A4-semidirect"
    assert v.evidence == {"p": 2, "tau_dim": m - 4, "subspaces_scanned": scanned}
    assert v.tau == coordinate_subspace(GF(2), m, range(4, m))
    assert v.block == coordinate_subspace(GF(2), m, range(4))


@pytest.mark.parametrize("m", [8, 9, 10])
def test_classify44_t44_3_over_gf3_fits_the_default_budget(m):
    """At m = 8..10 over GF(3) the trace forms cut the beta search down to Z,
    so it tries no line, and the one block, D = [L, L, L], is simple: 1 test
    in all."""
    v = classify_theorem44(catalog_build("T44-3", GF(3), m=m))
    assert v.case == "A4-semidirect"
    assert v.evidence == {"p": 3, "tau_dim": m - 4, "subspaces_scanned": 1}
    assert v.tau == coordinate_subspace(GF(3), m, range(4, m))
    assert v.block == coordinate_subspace(GF(3), m, range(4))


@pytest.mark.parametrize("p,m", [(2, 5), (2, 6), (2, 7), (3, 5)])
def test_classify44_blocks_of_a_dense_conjugate_match_a_subspace_walk(p, m):
    """On a dense basis change of T44-3 the classifier takes tau from the
    beta search and walks the blocks inside D only.  A walk over
    ``enumerate_subspaces`` that tries every abelian ideal containing Z as
    tau and every 4-dimensional subspace of L as a block, tested by
    ``intersect`` and ``classify_subspace``, finds the same tau and the same
    block."""
    L = random_basis_change(catalog_build("T44-3", GF(p), m=m), 1)
    v = classify_theorem44(L)
    for tau in enumerate_subspaces(m, m - 4, p):
        if not (tau.contains(center(L)) and classify_subspace(L, tau).is_abelian_ideal):
            continue
        for S in enumerate_subspaces(m, 4, p):
            if (S.intersect(tau).dim == 0 and classify_subspace(L, S).is_subalgebra
                    and operators_generate_all(catalog.restrict_to_subalgebra(L, S))):
                assert (v.case, v.tau, v.block) == ("A4-semidirect", tau, S)
                return
    raise AssertionError("no block")


@pytest.mark.parametrize("p,m", [(3, 7), (5, 6), (5, 7)])
def test_classify44_dense_conjugates_decide_within_a_small_budget(p, m):
    """Dense basis changes of T44-3 at the sizes where walking every abelian
    ideal as tau, and every 4-dimensional subspace of L as a block, took
    seconds to minutes: a budget of 100 decides them.  tau is an abelian
    ideal and the block a subalgebra meeting it in 0, whose operators
    generate M_4."""
    L = random_basis_change(catalog_build("T44-3", GF(p), m=m), 1)
    v = classify_theorem44(L, budget=100)
    assert v.case == "A4-semidirect"
    assert v.tau.dim == m - 4 and classify_subspace(L, v.tau).is_abelian_ideal
    assert v.block.dim == 4 and classify_subspace(L, v.block).is_subalgebra
    assert v.block.intersect(v.tau).dim == 0
    assert operators_generate_all(catalog.restrict_to_subalgebra(L, v.block))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("other", [("A(n)", {"n": 3}), ("T43-c2", {})], ids=["A3", "T43-c2"])
def test_classify44_direct_sums_without_an_abelian_complement_are_unknown(p, other):
    """A(3) + A(3) and A(3) + T43-c2 are neither 3-solvable nor S + tau: an
    abelian ideal of A(3) + X lies in X, whose abelian ideals are smaller
    than X, so beta is not dim - 4.  As published and after a dense basis
    change, the verdict is ``unknown``."""
    fid, params = other
    L = direct_sum(catalog_build("A(n)", GF(p), n=3), catalog_build(fid, GF(p), **params))
    for M in (L, random_basis_change(L, 1)):
        v = classify_theorem44(M)
        assert (v.case, v.evidence["reason"]) == (
            "unknown", "no simple block + abelian ideal decomposition found mod p")
        assert v.tau is v.block is None


def test_classify44_perfect_but_not_absolutely_simple_is_unknown(monkeypatch):
    """A perfect 4-dimensional algebra whose operators do not generate M_4
    mod p has a proper ideal over the closure of GF(p), so the verdict is
    ``unknown`` and says why."""
    monkeypatch.setattr(catalog, "operators_generate_all", lambda L: False)
    v = classify_theorem44(catalog_build("A(n)", QQ, n=3), p=3)
    assert (v.case, v.evidence) == ("unknown", {
        "reason": "dimension 4, perfect, but not absolutely simple mod p", "p": 3})


def test_classify44_simple_evidence_is_pinned():
    v = classify_theorem44(catalog_build("A(n)", GF(3), n=3))
    assert v.evidence == {"p": 3, "derived_dim": 4}


# ---------------------------------------------------------------------------
# Lie fixtures


def test_lie_heisenberg_table():
    L = lie_catalog_build("heisenberg", QQ, dim=3)
    assert entries_1based(L) == {(1, 2): {3: Fraction(1)}}


def test_lie_strictly_upper_nilpotent():
    L = lie_catalog_build("strictly-upper", QQ, n=3)
    assert L.dim == 3
    assert L.fi_checked
    assert is_nilpotent(L)


def test_lie_upper_solvable_not_nilpotent():
    L = lie_catalog_build("upper", QQ, n=3)
    assert L.dim == 6
    rep = invariant_report(L)
    assert dict(rep.solvable)[2] is True
    assert not rep.nilpotent


def test_lie_affine_beta_one():
    L = lie_catalog_build("affine", QQ, dim=2)
    assert classify_subspace(L, coordinate_subspace(QQ, 2, (1,))).is_abelian_ideal
    for p in (2, 3):
        res = alpha_beta_exact_fp(reduce_mod_p(L, p))
        assert res.beta == 1
        assert res.alpha == 1


def test_lie_catalog_validation():
    with pytest.raises(InvalidParameterError):
        lie_catalog_build("affine", QQ, dim=3)
    with pytest.raises(InvalidParameterError):
        lie_catalog_build("heisenberg", QQ, dim=4)
    with pytest.raises(InvalidParameterError):
        lie_catalog_build("nope", QQ)


def test_entries_for_dims_all_valid():
    entries = entries_for_dims((4, 5), QQ)
    labels = [label for label, _ in entries]
    assert any("EX33" in lbl for lbl in labels)
    assert any("T44-3" in lbl for lbl in labels)
    dims = {L.dim for _, L in entries}
    assert dims == {4, 5}
