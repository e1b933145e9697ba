import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

from nlie import iso, search
from nlie.catalog import catalog_build, direct_sum, entries_for_dims, representative_entries
from nlie.core import NLieAlgebra, bracket, check_fundamental_identity, make_algebra
from nlie.errors import InvalidParameterError
from nlie.fields import GF, QQ
from nlie.invariants import invariant_report
from nlie.iso import (
    _search_isomorphism,
    _verify_witness,
    are_isomorphic,
    change_basis,
    fingerprint,
    ideal_count_difference,
    random_basis_change,
    random_invertible_matrix,
)
from nlie.linalg import Matrix

from oracles import is_isomorphism_gf2, isomorphism_gf2

SRC = Path(__file__).resolve().parent.parent / "src"


def _b_cores(m=4):
    return [("T35-b4", catalog_build("T35-b4", GF(2), m=m)),
            ("T35-b5", catalog_build("T35-b5", GF(2), m=m)),
            ("T35-b6", catalog_build("T35-b6", GF(2), m=m, alpha=1))]


def test_fingerprint_separates_t34_cases():
    a1 = catalog_build("T34-a1", QQ, m=5)
    a2 = catalog_build("T34-a2", QQ, m=5)
    f1, f2 = fingerprint(a1), fingerprint(a2)
    assert f1 != f2
    assert f1.differs_from(f2) is not None
    assert f1.nilpotent and not f2.nilpotent


def test_fingerprint_separates_b2_b3_by_nilpotency():
    b2 = catalog_build("T35-b2", QQ, m=6)
    b3 = catalog_build("T35-b3", QQ, m=6)
    assert fingerprint(b2).nilpotent is False
    assert fingerprint(b3).nilpotent is True
    assert fingerprint(b2).differs_from(fingerprint(b3)) in ("lower_central", "nilpotent")


def test_fingerprint_includes_alpha_beta_over_prime_fields_only():
    over_q = fingerprint(catalog_build("EX33", QQ))
    over_f2 = fingerprint(catalog_build("EX33", GF(2)))
    assert over_q.alpha_beta is None
    assert over_f2.alpha_beta == (3, 2)


def test_fingerprint_invariant_under_basis_change():
    for label, L in representative_entries(QQ)[:8]:
        fp = fingerprint(L)
        for seed in range(3):
            assert fingerprint(random_basis_change(L, seed)) == fp, label


def test_fingerprints_at_gf2_dim_8_carry_alpha_beta_and_never_give_no():
    """The families of ``bench/tasks.families(8)`` over GF(2), each against
    its conjugates at seeds 1 and 2: the fingerprints are equal and carry
    (alpha, beta), which no (dim, p) table cuts off.  ``are_isomorphic`` at a
    node budget of 2000 is never ``no``; to keep the test short it runs on
    one conjugate per family, the two seeds in turn."""
    verdicts = Counter()
    for i, (label, L) in enumerate(entries_for_dims((8,), GF(2))):
        fp = fingerprint(L)
        assert fp.alpha_beta is not None, label
        conjugates = [random_basis_change(L, seed) for seed in (1, 2)]
        for D in conjugates:
            assert fingerprint(D) == fp, label
        res = are_isomorphic(L, conjugates[i % 2], budget=2000)
        assert res.verdict != "no", (label, res.reason)
        verdicts[res.verdict] += 1
    assert verdicts["yes"] >= 17, verdicts  # 17 yes and 7 unknown when written


def test_a_stopped_alpha_beta_search_separates_nothing(monkeypatch):
    """The work of the value-only search depends on the basis: T35-b4 over
    GF(3) takes 3 units, its conjugate 33.  With a budget between the two,
    one fingerprint carries (alpha, beta) and the other None, and neither
    order of the pair is a ``no``."""
    L = catalog_build("T35-b4", GF(3), m=4)
    D = random_basis_change(L, 1)
    monkeypatch.setattr(iso, "_CERTIFICATE_BUDGET", 10)
    fl, fd = fingerprint(L), fingerprint(D)
    assert fl.alpha_beta is not None and fd.alpha_beta is None
    assert fl.differs_from(fd) is None and fd.differs_from(fl) is None
    for A, B in ((L, D), (D, L)):
        assert are_isomorphic(A, B).verdict == "yes"


def test_iso_runs_no_alpha_beta_search(monkeypatch):
    """``are_isomorphic`` runs no alpha/beta search, in either order of the
    arguments: not when the invariant reports agree (T35-b4 over GF(3) and
    its conjugate, ``yes`` by the search), not when the line counts differ
    (T35-b4 and T35-b5 over GF(2) at m = 4), and not when the reports differ.
    ``fingerprint`` still runs one per call."""
    calls, search_fp = [], iso.alpha_beta_exact_fp

    def counted(L, **options):
        calls.append(L)
        return search_fp(L, **options)

    monkeypatch.setattr(iso, "alpha_beta_exact_fp", counted)
    L = catalog_build("T35-b4", GF(3), m=4)
    D = random_basis_change(L, 1)
    A, B = catalog_build("T35-b4", GF(2), m=4), catalog_build("T35-b5", GF(2), m=4)
    for X, Y in ((L, D), (D, L)):
        assert are_isomorphic(X, Y).verdict == "yes"
    for X, Y in ((A, B), (B, A)):
        assert are_isomorphic(X, Y).reason.startswith("ideal count in dimension 1:")
    res = are_isomorphic(catalog_build("T34-a1", GF(2), m=5),
                         catalog_build("T35-b2", GF(2), m=5))
    assert res.reason == "fingerprint: derived_dim"
    assert calls == []
    assert fingerprint(D).alpha_beta is not None
    assert calls == [D]


def test_ideal_line_count_walks_the_lines_of_d_only_within_the_budget(monkeypatch):
    """The line counts are compared when the derived algebra D has at most
    ``_CERTIFICATE_BUDGET`` lines, and no plane is walked.  A(3) + A(3) is
    perfect, so D = L: its 3,280 lines over GF(3) and 255 over GF(2) are
    walked on both sides, and its 97,656 over GF(5) are not.  A(n) is
    perfect and absolutely simple, so its count is 0, with no walk."""
    walks, walk = Counter(), search.walk_subspaces

    def counted(m, k, p, containing=None):
        for item in walk(m, k, p, containing):
            walks[k] += 1
            yield item

    monkeypatch.setattr(search, "walk_subspaces", counted)
    for p, lines in ((3, 3280), (2, 255), (5, 0)):
        A = catalog_build("A(n)", GF(p), n=3)
        L = direct_sum(A, A)
        walks.clear()
        assert ideal_count_difference(L, random_basis_change(L, 1)) is None
        assert walks == Counter({1: 2 * lines}), p
    for n, p in ((3, 2), (4, 3), (6, 3), (6, 2)):
        L = catalog_build("A(n)", GF(p), n=n)
        walks.clear()
        assert iso._ideal_line_count(L) == 0, (n, p)
        assert ideal_count_difference(L, random_basis_change(L, 1)) is None
        assert not walks, (n, p)


def test_kept_certificates_decide_every_report_tied_catalog_pair():
    """Every pair of catalog families over GF(2) at m = 4..7 and over GF(3)
    at m = 4, 5 whose invariant reports agree is ``yes`` or is told apart by
    the numbers of 1-dimensional ideals.  No such pair is left to the search
    as a ``no``, so alpha/beta and the plane counts, which ``are_isomorphic``
    no longer computes, would separate none of them.  A family added later
    that breaks this reopens the question."""
    verdicts = Counter()
    for p, m in ((2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5)):
        algebras = entries_for_dims((m,), GF(p))
        reports = [invariant_report(L) for _, L in algebras]
        for i, j in combinations(range(len(algebras)), 2):
            if reports[i].differs_from(reports[j]) is not None:
                continue
            (a, A), (b, B) = algebras[i], algebras[j]
            res = are_isomorphic(A, B)
            assert res.verdict == "yes" or (
                res.verdict == "no"
                and res.reason.startswith("ideal count in dimension 1:")), (a, b, res)
            verdicts[res.verdict] += 1
    assert verdicts == Counter(yes=60, no=56), verdicts  # the 116 tied pairs


def test_random_basis_change_preserves_identity_validity():
    L = catalog_build("A(n)", QQ, n=3)
    for seed in range(5):
        Lc = random_basis_change(L, seed)
        assert check_fundamental_identity(Lc).holds


def test_random_invertible_matrix_is_invertible():
    for seed in range(5):
        assert random_invertible_matrix(QQ, 4, seed).is_invertible()
        assert random_invertible_matrix(GF(2), 5, seed).is_invertible()


def test_change_basis_identity_keeps_table():
    L = catalog_build("EX33", QQ)
    assert change_basis(L, Matrix.identity(QQ, 4)) == L


def test_change_basis_requires_invertible():
    L = catalog_build("EX33", QQ)
    with pytest.raises(InvalidParameterError):
        change_basis(L, Matrix.zeros(QQ, 4, 4))


def test_iso_reflexive_with_identity_witness():
    L = catalog_build("EX33", GF(2))
    res = are_isomorphic(L, L)
    assert res.verdict == "yes"
    assert res.witness == Matrix.identity(GF(2), 4)


def test_iso_yes_on_conjugated_algebra_with_verified_witness():
    L = catalog_build("T35-b4", GF(3), m=4)
    Lc = random_basis_change(L, seed=5)
    res = are_isomorphic(L, Lc)
    assert res.verdict == "yes"
    # the witness reproduces the target table entry for entry
    P = res.witness
    assert change_basis(Lc, P) == L
    # direct check: bracket_{Lc}(P ei, P ej, P ek) = P [ei,ej,ek]_L
    f = GF(3)
    cols = [P.column(j) for j in range(4)]
    from nlie.core import bracket_basis
    for key in combinations(range(4), 3):
        lhs = bracket(Lc, [cols[i] for i in key])
        c = bracket_basis(L, key)
        rhs = [f.zero] * 4
        for t, coeff in enumerate(c):
            for r in range(4):
                rhs[r] = f.add(rhs[r], f.mul(coeff, cols[t][r]))
        assert lhs == tuple(rhs)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_verify_witness_rejects_singular_wrong_and_unrelated_maps(field):
    """The check of a witness P for L1 -> L2 rejects a singular P (the zero
    matrix maps every bracket correctly, so only its rank rejects it), a P
    that is wrong on exactly one bracket (L1 changed at one stored tuple,
    for each tuple in turn) and the identity on two unequal tables."""
    for fid, params in (("EX33", {}), ("T35-b4", {"m": 4}), ("A(n)", {"n": 4})):
        L = catalog_build(fid, field, **params)
        m = L.dim
        P = random_invertible_matrix(field, m, 3)
        D = change_basis(L, P)
        assert D != L and _verify_witness(D, L, P)
        assert not _verify_witness(D, L, Matrix.zeros(field, m, m))
        singular = [list(row) for row in P.rows]
        for row in singular:
            row[0] = row[1]
        assert not _verify_witness(D, L, Matrix.from_rows(field, singular))
        table = dict(D.entries)
        for key in combinations(range(m), L.arity):
            wrong = dict(table)
            val = wrong.get(key, (field.zero,) * m)
            wrong[key] = (field.add(val[0], field.one),) + val[1:]
            entries = tuple(sorted((k, v) for k, v in wrong.items() if any(v)))
            assert not _verify_witness(NLieAlgebra(field, L.arity, m, entries), L, P), key
        assert not _verify_witness(L, D, Matrix.identity(field, m))


def _certifies(L1, L2, P):
    """The certificate ``_verify_witness`` replaces: L2 in the basis of P's
    columns has L1's table."""
    return P.is_invertible() and change_basis(L2, P) == L1


def _perturbed_columns(P):
    """P with one entry of column j raised by one, for each column j."""
    f, m = P.field, P.nrows
    for j in range(m):
        rows = [list(row) for row in P.rows]
        rows[(j + 1) % m][j] = f.add(rows[(j + 1) % m][j], f.one)
        yield Matrix.from_rows(f, rows)


@pytest.mark.parametrize("field, dims, yes, stopped", [(GF(2), (4, 5), 75, 5),
                                                      (GF(3), (4,), 36, 2)], ids=str)
def test_verify_witness_accepts_every_search_witness_and_agrees_on_perturbed_ones(
        field, dims, yes, stopped):
    """The families and levels of the benchmark's identify-fp iso pairs, each
    against a conjugate, both ways round: every ``yes`` witness the search
    returns within 20,000 nodes passes the raw-row check again, and for each witness with one
    column perturbed the check agrees with ``change_basis(L2, P) == L1``,
    rejecting at least one.  The other searches stop at the budget."""
    verdicts, rejected = Counter(), 0
    for label, L in entries_for_dims(dims, field):
        D = random_basis_change(L, 1)
        for A, B in ((L, D), (D, L)):
            res = are_isomorphic(A, B, budget=20_000)
            verdicts[res.verdict] += 1
            if res.verdict != "yes":
                assert res.reason.startswith("search stopped"), (label, res.reason)
                continue
            assert _verify_witness(A, B, res.witness), label
            for Q in _perturbed_columns(res.witness):
                assert _verify_witness(A, B, Q) == _certifies(A, B, Q), label
                rejected += not _certifies(A, B, Q)
    assert verdicts == Counter(yes=yes, unknown=stopped)
    assert rejected


def test_verify_witness_over_q_rejects_singular_perturbed_and_unrelated_maps():
    """Over Q, the search's witness for EX32-1 against a conjugate passes;
    the witness with two columns made equal, with one column perturbed, and
    checked against EX32-2 (the same shape) fails; and a rank-1 map that
    carries every bracket of EX33 correctly fails on its rank alone."""
    L, other = catalog_build("EX32-1", QQ), catalog_build("EX32-2", QQ)
    D = random_basis_change(L, 1)
    res = are_isomorphic(L, D, budget=20_000)
    assert res.verdict == "yes"
    P = res.witness
    assert _verify_witness(L, D, P)
    singular = [list(row) for row in P.rows]
    for row in singular:
        row[0] = row[1]
    assert not _verify_witness(L, D, Matrix.from_rows(QQ, singular))
    for Q in _perturbed_columns(P):
        assert _verify_witness(L, D, Q) == _certifies(L, D, Q)
    assert not all(_verify_witness(L, D, Q) for Q in _perturbed_columns(P))
    assert other.dim == L.dim and not _verify_witness(other, D, P)
    for field in (QQ, GF(2), GF(3)):
        ex33 = catalog_build("EX33", field)  # [x1, x2, x3] = x4
        rank_one = Matrix.from_rows(field, [[0] * 4, [0] * 4, [0] * 4, [1, 0, 0, 0]])
        assert not _verify_witness(ex33, ex33, rank_one)


def test_iso_no_for_b_cores_over_gf2():
    for (_, A), (_, B) in combinations(_b_cores(), 2):
        # fingerprints tie, so the numbers of 1-dimensional ideals decide
        # these before any search node (the search itself is covered below)
        assert fingerprint(A).differs_from(fingerprint(B)) is None
        res = are_isomorphic(A, B)
        assert res.verdict == "no"
        assert res.reason.startswith("ideal count in dimension 1:")
        assert res.nodes == 0


def test_search_alone_proves_b_cores_distinct():
    """The backtracking search on its own, without the ideal counts in front
    of it, proves the tied cores distinct at m = 4 and 5 in a fixed number of
    nodes (the pairs b4-b5, b4-b6, b5-b6)."""
    for m, expected in ((4, (771, 483, 771)), (5, (3820, 2668, 3820))):
        for ((la, A), (lb, B)), nodes in zip(combinations(_b_cores(m), 2), expected):
            res = _search_isomorphism(A, B, invariant_report(A).subspaces,
                                      invariant_report(B).subspaces, 2_000_000)
            assert res.verdict == "no", (m, la, lb)
            assert res.reason == "search exhausted over the prime field"
            assert res.nodes == nodes, (m, la, lb)


def test_search_on_conjugate_keeps_witness_and_node_count():
    L = catalog_build("T35-b4", GF(3), m=4)
    res = are_isomorphic(L, random_basis_change(L, seed=0))
    assert res.verdict == "yes"
    assert res.nodes == 97
    assert res.witness.rows == ((0, 1, 0, 0), (0, 0, 0, 2), (0, 1, 1, 0), (1, 0, 0, 0))


def test_forced_images_cut_the_search_on_a_dense_conjugate():
    """Each e_i in the span of the brackets already assigned has a forced
    image, its only candidate; without that rule this search takes 2,473
    nodes."""
    L = catalog_build("T35-b5", GF(2), m=5)
    D = random_basis_change(L, 1)
    res = are_isomorphic(D, L)
    assert res.verdict == "yes"
    assert res.nodes == 275
    assert change_basis(L, res.witness) == D


@pytest.mark.parametrize("seed", [0, 1])
def test_iso_q_forced_images_find_witness_off_the_small_pool(seed):
    """Over Q a forced image is tried exactly, whatever its entries, so a
    conjugate of EX33 is recognised although no witness has all its entries
    in {-1, 0, 1}."""
    L = catalog_build("EX33", QQ)
    D = random_basis_change(L, seed)
    res = are_isomorphic(L, D)
    assert res.verdict == "yes"
    assert change_basis(D, res.witness) == L


# every catalog table of dimension 4 over GF(2)
_M4_GF2 = [("L21-b1", {"n": 3}), ("L21-b2", {"n": 3}), ("L21-c1", {"n": 3}),
           ("L21-c2", {"n": 3, "alpha": 1}), ("L21-c3", {"n": 3}),
           ("L21-d(r)", {"n": 3, "r": 3}), ("L21-d(r)", {"n": 3, "r": 4}),
           ("A(n)", {"n": 3}), ("T34-a1", {"m": 4}), ("T34-a2", {"m": 4}),
           ("T35-b4", {"m": 4}), ("T35-b5", {"m": 4}), ("T35-b6", {"m": 4, "alpha": 1}),
           ("T43-c2", {"m": 4}), ("T43-c3", {"m": 4, "t": 1}), ("EX31", {}),
           ("EX32-1", {}), ("EX32-2", {}), ("EX33", {}), ("EX42", {"m": 4}),
           ("T44-3", {"m": 4})]


def test_search_matches_brute_force_over_gf2():
    """The search alone agrees with trying every invertible matrix on each
    pair of tied m = 4 tables over GF(2), on each table against one basis
    change, both ways, and on each pair of two dense basis changes of one
    table (seeds 1 and 2), where neither side's invariant subspaces are
    coordinate subspaces; every witness is re-checked bracket by bracket."""
    n = len(_M4_GF2)
    tables = [(f"{fid} {params}", catalog_build(fid, GF(2), **params))
              for fid, params in _M4_GF2]
    tables += [(f"{label} conjugate {seed}", random_basis_change(L, seed))
               for seed in (0, 1, 2) for label, L in tables[:n]]
    report = {label: invariant_report(L) for label, L in tables}
    pairs = [(a, b) for a, b in combinations(tables[:n], 2)
             if report[a[0]] == report[b[0]]]
    assert len(pairs) > 20
    for L, D, D1, D2 in zip(*(tables[k * n:(k + 1) * n] for k in range(4))):
        pairs += [(L, D), (D, L), (D1, D2)]
    verdicts = Counter()
    for (la, A), (lb, B) in pairs:
        res = _search_isomorphism(A, B, report[la].subspaces, report[lb].subspaces,
                                  2_000_000)
        expected = "no" if isomorphism_gf2(A, B) is None else "yes"
        assert res.verdict == expected, (la, lb, res.reason)
        if expected == "yes":
            assert is_isomorphism_gf2(A, B, res.witness.rows), (la, lb)
        verdicts[expected] += 1
    assert verdicts["no"] > 10


def _lie_algebras_gf2(m):
    """Every Lie algebra on GF(2)^m: each alternating table, as one bit mask
    per bracket [e_i, e_j] with i < j, kept when the Jacobi identity holds on
    every triple of basis vectors."""
    keys = list(combinations(range(m), 2))

    def br(table, x, y):  # bit masks
        out = 0
        for (i, j), w in zip(keys, table):
            if (x >> i & y >> j ^ x >> j & y >> i) & 1:
                out ^= w
        return out

    for table in product(range(1 << m), repeat=len(keys)):
        if all(br(table, br(table, 1 << i, 1 << j), 1 << k)
               ^ br(table, br(table, 1 << j, 1 << k), 1 << i)
               ^ br(table, br(table, 1 << k, 1 << i), 1 << j) == 0
               for i, j, k in combinations(range(m), 3)):
            yield make_algebra(GF(2), 2, m, {
                (i + 1, j + 1): {t + 1: 1 for t in range(m) if w >> t & 1}
                for (i, j), w in zip(keys, table) if w})


def test_census_of_3_dimensional_lie_algebras_over_gf2():
    """The 512 alternating tables on GF(2)^3 hold 120 Lie algebras in 7
    isomorphism classes (de Graaf's count).  Each algebra is classified by
    the search alone against the representatives so far whose invariant
    reports tie with it; every verdict agrees with trying every invertible
    matrix, and every witness is re-checked bracket by bracket."""
    algebras = list(_lie_algebras_gf2(3))
    reps = []
    for L in algebras:
        rep = invariant_report(L)
        for R, rep_r in reps:
            if rep_r != rep:
                continue
            res = _search_isomorphism(L, R, rep.subspaces, rep_r.subspaces, 2_000_000)
            assert res.verdict == ("no" if isomorphism_gf2(L, R) is None else "yes")
            if res.verdict == "yes":
                assert is_isomorphism_gf2(L, R, res.witness.rows)
                break
        else:
            reps.append((L, rep))
    assert (len(algebras), len(reps)) == (120, 7)


def test_iso_symmetric_verdicts():
    b4 = catalog_build("T35-b4", GF(2), m=4)
    b5 = catalog_build("T35-b5", GF(2), m=4)
    assert are_isomorphic(b4, b5).verdict == are_isomorphic(b5, b4).verdict


def test_iso_no_via_fingerprint_over_q():
    a1 = catalog_build("T34-a1", QQ, m=5)
    a2 = catalog_build("T34-a2", QQ, m=5)
    res = are_isomorphic(a1, a2)
    assert res.verdict == "no"
    assert res.reason.startswith("fingerprint")


def test_iso_budget_exhaustion_is_unknown():
    # a table against its own basis change reaches the search (97 nodes);
    # the 80 candidate columns fit the budget, the nodes do not
    L = catalog_build("T35-b4", GF(3), m=4)
    res = are_isomorphic(L, random_basis_change(L, seed=0), budget=90)
    assert res.verdict == "unknown"
    assert "budget" in res.reason


@pytest.mark.parametrize("label,L1,L2", [
    ("Lie GF(2) no", make_algebra(GF(2), 2, 3, {(1, 2): {3: 1}, (1, 3): {2: 1}}),
     make_algebra(GF(2), 2, 3, {(1, 2): {2: 1}, (1, 3): {3: 1}})),
    ("Lie GF(3) no", make_algebra(GF(3), 2, 3, {(1, 3): {1: 2}, (2, 3): {2: 2}}),
     make_algebra(GF(3), 2, 3, {(1, 2): {3: 1}, (1, 3): {2: 2}})),
    ("A(3) GF(2) yes", catalog_build("A(n)", GF(2), n=3),
     random_basis_change(catalog_build("A(n)", GF(2), n=3), 0)),
    ("EX31 GF(3) yes", catalog_build("EX31", GF(3)),
     random_basis_change(catalog_build("EX31", GF(3)), 1)),
], ids=["lie-gf2-no", "lie-gf3-no", "a3-gf2-yes", "ex31-gf3-yes"])
def test_iso_budget_is_a_count_of_nodes(label, L1, L2):
    """For every budget from 0 to the unbudgeted nodes: the nodes never pass
    the budget; the search stops exactly when the budget is below the
    unbudgeted nodes, and a stop in the search (its reason names the depth
    reached, the nodes and the budget) has used all of it;
    and the decided verdict, witness and nodes are the unbudgeted ones."""
    s1, s2 = invariant_report(L1).subspaces, invariant_report(L2).subspaces
    full = _search_isomorphism(L1, L2, s1, s2, 2_000_000)
    assert full.verdict in ("yes", "no"), label
    for budget in range(full.nodes + 1):
        res = _search_isomorphism(L1, L2, s1, s2, budget)
        assert res.nodes <= budget, (label, budget)
        if budget == full.nodes:
            assert res == full, (label, budget)
            continue
        assert res.verdict == "unknown" and "budget" in res.reason, (label, budget)
        if res.reason.startswith("search stopped at depth"):
            assert res.nodes == budget, (label, budget)
            assert res.reason.endswith(f"after {budget} nodes: budget {budget}"), (label, budget)
        else:  # the candidate pool alone is over the budget
            assert res.nodes == 0, (label, budget)


def test_iso_candidate_pool_over_budget_fails_fast():
    """p^m - 1 candidate columns beyond the budget give ``unknown`` before
    any are built.  Run under an address-space limit, so that building them
    (about 4e9 tuples here) fails with MemoryError instead of exhausting the
    machine."""
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))\n"
        "from nlie.catalog import lie_catalog_build\n"
        "from nlie.fields import GF\n"
        "from nlie.iso import are_isomorphic, random_basis_change\n"
        "L = lie_catalog_build('affine', GF(65521), dim=2)\n"
        "res = are_isomorphic(L, random_basis_change(L, 1), budget=1000)\n"
        "print(res.verdict, res.nodes, res.reason)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "unknown", "0", "candidate", "pool", "of", "4293001440", "columns",
        "exceeds", "the", "node", "budget", "1000"]


def test_iso_requires_matching_shape():
    with pytest.raises(InvalidParameterError):
        are_isomorphic(catalog_build("EX33", QQ), catalog_build("EX33", GF(2)))
    with pytest.raises(InvalidParameterError):
        are_isomorphic(catalog_build("EX33", QQ), catalog_build("EX41", QQ))


def test_iso_q_unknown_when_no_small_witness():
    # same fingerprints, Q field, tables differing by a transcendental-ish
    # rescaling outside the candidate pool: verdict must not be "no"
    L1 = make_algebra(QQ, 3, 4, {(1, 2, 3): {4: 1}})
    L2 = make_algebra(QQ, 3, 4, {(1, 2, 3): {4: 5}})
    res = are_isomorphic(L1, L2, budget=50_000)
    assert res.verdict in ("yes", "unknown")
