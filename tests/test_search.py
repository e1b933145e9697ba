import random
from fractions import Fraction
from itertools import combinations

import pytest

from nlie.catalog import (
    associated_lie,
    catalog_build,
    direct_sum,
    entries_for_dims,
    lie_catalog_build,
)
from nlie.core import abelian_algebra, check_fundamental_identity, make_algebra
from nlie.errors import InvalidParameterError, UnsupportedRequestError
from nlie.fields import GF, QQ
from nlie.invariants import center, classify_subspace
from nlie.iso import random_basis_change
from nlie.linalg import (
    Matrix,
    coordinate_subspace,
    full_subspace,
    null_basis,
    span,
    subspace_from_rref_rows,
    unit_vector,
    zero_subspace,
)
from nlie import invariants, iso, search
from nlie.search import (
    abelian_bounds_q,
    alpha_beta_exact_fp,
    enumerate_subspaces,
    gaussian_binomial,
    reduce_mod_p,
    walk_subspaces,
    walk_within,
)

from oracles import (
    abelian_bounds_q_reference,
    gauss_count_recursive,
    level_walk,
    naive_bracket,
    span_members_fp,
    trace_radical_fp,
)


def test_gaussian_binomial_product_vs_recurrence():
    for p in (2, 3, 5):
        for m in range(7):
            for k in range(m + 1):
                assert gaussian_binomial(m, k, p) == gauss_count_recursive(m, k, p)


def test_gaussian_binomial_edge_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    assert gaussian_binomial(3, 4, 2) == 0


def test_enumeration_count_and_uniqueness():
    for p in (2, 3):
        for m in range(1, 6):
            for k in range(m + 1):
                seen = set()
                for S in enumerate_subspaces(m, k, p):
                    assert S.dim == k
                    seen.add(S.basis)
                assert len(seen) == gaussian_binomial(m, k, p)


def test_enumeration_k0_and_km():
    assert [S.dim for S in enumerate_subspaces(4, 0, 2)] == [0]
    full = list(enumerate_subspaces(3, 3, 2))
    assert len(full) == 1
    assert full[0] == full_subspace(GF(2), 3)


def test_enumeration_gf2_dim2_lines():
    lines = [S.basis for S in enumerate_subspaces(2, 1, 2)]
    assert lines == [((1, 0),), ((1, 1),), ((0, 1),)]


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(InvalidParameterError):
        list(enumerate_subspaces(3, 4, 2))
    with pytest.raises(InvalidParameterError):
        list(enumerate_subspaces(3, 1, 4))


def _subspaces_to_contain(m, p):
    """Subspaces Z of GF(p)^m: zero, whole, coordinate, and a random
    non-coordinate one (an RREF row with two nonzero entries) of each
    dimension 1..m-1."""
    f = GF(p)
    rng = random.Random(10 * m + p)
    out = [zero_subspace(f, m), full_subspace(f, m), coordinate_subspace(f, m, (0,)),
           coordinate_subspace(f, m, (m - 1,)), coordinate_subspace(f, m, range(1, m, 2))]
    for d in range(1, m):
        Z = zero_subspace(f, m)
        while Z.dim != d or all(sum(map(bool, row)) == 1 for row in Z.basis):
            Z = span(f, m, [[rng.randrange(p) for _ in range(m)] for _ in range(d)])
        out.append(Z)
    return out


def _walk(m, k, p, containing=None):
    """``walk_subspaces`` with each step's rows copied as tuples."""
    return [(tuple(map(tuple, rows)), profile)
            for rows, profile in walk_subspaces(m, k, p, containing)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_walk_containing_a_subspace_matches_filtered_enumeration(p):
    """``walk_subspaces`` given a subspace Z yields exactly the subspaces of
    ``enumerate_subspaces`` that contain Z, in its order, and
    ``walk_within(Z, k)`` those that lie in Z.  Without Z it yields the
    whole level in the order of the brute-force ``oracles.level_walk``."""
    for m in range(1, 6):
        for k in range(m + 1):
            walk = list(level_walk(m, k, p))
            assert _walk(m, k, p) == walk, (m, k)
            level = list(enumerate_subspaces(m, k, p))
            assert [(S.basis, S.pivots) for S in level] == walk, (m, k)
            for Z in _subspaces_to_contain(m, p):
                expected = [(S.basis, S.pivots) for S in level if S.contains(Z)]
                assert _walk(m, k, p, Z) == expected, (m, k, Z.basis)
                within = [(S.basis, S.pivots) for S in level if Z.contains(S)]
                assert [(tuple(map(tuple, rows)), tuple(pivots))
                        for rows, pivots in walk_within(Z, k)] == within, (m, k, Z.basis)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_walk_keys_strictly_increase(p):
    """The witness-mode beta search takes the first subspace of
    ``walk_subspaces(m, k, p, I)`` as a floor on the key (pivots, rows) of
    every k-dimensional subspace that contains I: the walk's keys strictly
    increase, for every k at small m, with nothing, the zero subspace or a
    seeded random subspace to contain."""
    f, rng = GF(p), random.Random(p)
    checked = 0
    for m in range(1, 6 if p < 5 else 5):
        containing = [None, zero_subspace(f, m)]
        containing += [span(f, m, [[rng.randrange(p) for _ in range(m)] for _ in range(d)])
                       for d in range(1, m) for _ in range(2)]
        for Z in containing:
            for k in range(m + 1):
                keys = [(profile, rows) for rows, profile in _walk(m, k, p, Z)]
                assert all(a < b for a, b in zip(keys, keys[1:])), (m, k, Z)
                checked += len(keys)
    assert checked > 1000


@pytest.mark.parametrize("p,m", [(2, 4), (3, 4), (2, 5)], ids=["2", "3", "2-m5"])
def test_fast_predicates_match_classifier_and_brute_force(p, m):
    """The scan predicates, classify_subspace flags (which share their code)
    and brute-force membership agree on every subspace of every arity-(m-1)
    catalog family (at m = 4 all of them, at m = 5 the arity-4 L21-* and
    A(n), whose pair brackets read 2-tuple keys of ``L.maps[2]``), as
    published and after a dense basis change (which exposes sign errors)."""
    zero = (0,) * m
    algebras = []
    for label, L in entries_for_dims((m,), GF(p)):
        if L.arity == m - 1:
            algebras += [(label, L), (label + " conj", random_basis_change(L, 1))]
    assert algebras
    for label, L in algebras:
        n = L.arity
        units = [unit_vector(L.field, m, i) for i in range(m)]
        memo = {}

        def nb(vectors):
            if vectors not in memo:
                memo[vectors] = naive_bracket(L, vectors)
            return memo[vectors]

        for k in range(m + 1):
            for S in enumerate_subspaces(m, k, p):
                rows, pivots = S.basis, S.pivots
                fast = tuple(predicate(L, rows, pivots) for predicate in
                             (invariants.abelian_subalgebra, invariants.ideal,
                              invariants.abelian_ideal))
                cls = classify_subspace(L, S)
                generic = (cls.is_abelian_subalgebra, cls.is_ideal,
                           cls.is_abelian_ideal)
                members = span_members_fp(rows, m, p)
                ideal = all(nb((v,) + ys) in members
                            for v in rows for ys in combinations(units, n - 1))
                brute = (
                    all(nb(xs) == zero for xs in combinations(rows, n)),
                    ideal,
                    ideal and all(nb(uv + ys) == zero
                                  for uv in combinations(rows, 2)
                                  for ys in combinations(units, n - 2)),
                )
                assert fast == generic == brute, (label, rows)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ideal_counts_match_classifier_and_basis_change(p):
    """The line count that certifies ``no`` in are_isomorphic.  On every
    catalog family at m = 4 and 5 (m = 4 over GF(5)), EX41 and T43-c1 with
    t >= 2 among them, which violate the identity, on an abelian table and,
    over GF(2) and GF(3), on heisenberg(3) + abelian(2), whose centre meets
    the derived algebra D in a line; each as published and after a basis
    change: the lines and planes of ``walk_subspaces`` that pass ``ideal``
    are, in order, the ideals that classify_subspace finds, and
    ``_ideal_line_count``, which walks only the lines of D, gives the number
    of those lines."""
    dims = (4,) if p == 5 else (4, 5)
    algebras = entries_for_dims(dims, GF(p))
    algebras += [(f"abelian@m={m}", abelian_algebra(GF(p), 3, m)) for m in dims]
    if p != 5:
        H = lie_catalog_build("heisenberg", GF(p), dim=3)
        algebras.append(("heisenberg(3) + abelian(2)", direct_sum(H, abelian_algebra(GF(p), 2, 2))))
    assert any(label.startswith("EX41") for label, _ in algebras) == (p != 5)
    for label, L0 in algebras:
        for L in (L0, random_basis_change(L0, 2)):
            m = L.dim
            for k in (1, 2):
                brute = [(S.basis, S.pivots) for S in enumerate_subspaces(m, k, p)
                         if classify_subspace(L, S).is_ideal]
                hits = [(rows, profile) for rows, profile in _walk(m, k, p)
                        if invariants.ideal(L, rows, profile)]
                assert hits == brute, (label, k)
                if k == 1:
                    assert iso._ideal_line_count(L) == len(brute), label


def test_value_only_search_gives_the_fingerprint_values():
    """``fingerprint`` asks ``alpha_beta_exact_fp`` for values only.  On every
    catalog family over GF(2) at m <= 6 and over GF(3) at m <= 5, EX41 and
    T43-c1 with t >= 2 included, that search completes under
    ``_CERTIFICATE_BUDGET`` with the (alpha, beta) of the witness mode, carries
    no witness and tries no more beta closures.  It stops once beta reaches
    the beta bound of ``_derived_bounds``; the closure totals are pinned."""
    for p, dims, totals in ((2, (4, 5, 6), (127, 130)), (3, (4, 5), (36, 36))):
        value_closures = witness_closures = 0
        for label, L in entries_for_dims(dims, GF(p)):
            full = alpha_beta_exact_fp(L)
            fast = alpha_beta_exact_fp(L, budget=iso._CERTIFICATE_BUDGET, witnesses=False)
            assert fast.complete, label
            assert (fast.alpha, fast.beta) == (full.alpha, full.beta), label
            assert fast.alpha_witness is fast.beta_witness is None, label
            assert iso.fingerprint(L).alpha_beta == (full.alpha, full.beta), label
            value = alpha_beta_exact_fp(L, compute="beta", witnesses=False).subspaces_scanned
            witness = alpha_beta_exact_fp(L, compute="beta").subspaces_scanned
            assert value <= witness, label
            value_closures += value
            witness_closures += witness
        assert (value_closures, witness_closures) == totals, p


@pytest.mark.parametrize("p", [2, 3])
def test_alpha_beta_match_brute_force_walk(p):
    """On every m = 4 catalog family, as published and after a basis change:
    alpha, beta and the witnesses (the canonically first subspace of the
    maximal dimension, None at dimension 0) equal a walk through
    ``enumerate_subspaces`` and ``classify_subspace``; alpha's share of
    ``subspaces_scanned`` is the walk's count of the subspaces that contain
    the centre, from the alpha bound down to the hit, and the candidate
    closures of the beta search add up to a pinned total."""
    m = 4
    beta_counts = []
    for label, L0 in entries_for_dims((m,), GF(p)):
        for L in (L0, random_basis_change(L0, 3)):
            levels = [[(S, classify_subspace(L, S)) for S in enumerate_subspaces(m, k, p)]
                      for k in range(m + 1)]

            def first_max(top, flag, keep=lambda S: True):
                scanned = 0
                for k in range(top, -1, -1):
                    for S, cls in levels[k]:
                        if keep(S):
                            scanned += 1
                            if getattr(cls, flag):
                                return k, S if k else None, scanned

            res = alpha_beta_exact_fp(L)
            alpha, alpha_w, _ = first_max(m, "is_abelian_subalgebra")
            assert (res.alpha, res.alpha_witness) == (alpha, alpha_w), label
            z = center(L)
            _, _, alpha_n = first_max(search._derived_bounds(L)[0], "is_abelian_subalgebra",
                                      lambda S: S.contains(z))
            assert alpha_beta_exact_fp(L, compute="alpha").subspaces_scanned == alpha_n
            if not L.entries:  # abelian: answered without a scan
                assert (res.beta, res.subspaces_scanned) == (m, 0), label
                continue
            beta, beta_w, _ = first_max(m - 1, "is_abelian_ideal")
            assert (res.beta, res.beta_witness) == (beta, beta_w), label
            beta_counts.append(res.subspaces_scanned - alpha_n)
            assert res.complete
    assert sum(beta_counts) == {2: 51, 3: 39}[p]


def _largest_abelian(L):
    """Brute force: (beta, every abelian ideal of dimension beta) and
    (alpha, every abelian subalgebra of dimension alpha), each list in the
    canonical order of ``enumerate_subspaces``."""
    found = {}
    for k in range(L.dim, -1, -1):
        level = [(S, classify_subspace(L, S)) for S in enumerate_subspaces(L.dim, k, L.field.p)]
        for flag in ("is_abelian_ideal", "is_abelian_subalgebra"):
            hits = [S for S, cls in level if getattr(cls, flag)]
            if hits and flag not in found:
                found[flag] = (k, hits)
        if len(found) == 2:
            return found["is_abelian_ideal"], found["is_abelian_subalgebra"]


@pytest.fixture(scope="module")
def beta_walks():
    """(label, L, brute-force walks of L) for every catalog family over GF(2)
    at m = 4, 5 and over GF(3) at m = 4, Lie fixtures over GF(2) and GF(3),
    and A(4) over GF(3); each as published and after a dense basis change."""
    algebras = list(entries_for_dims((4, 5), GF(2))) + list(entries_for_dims((4,), GF(3)))
    for p in (2, 3):
        for fid, params in (("affine", {"dim": 2}), ("heisenberg", {"dim": 5}),
                            ("upper", {"n": 2}), ("strictly-upper", {"n": 3})):
            algebras.append((f"lie {fid} {params}", lie_catalog_build(fid, GF(p), **params)))
    algebras.append(("A(4)", catalog_build("A(n)", GF(3), n=4)))
    out = []
    for label, L in algebras:
        for name, Lx in ((f"{label} GF({L.field.p})", L),
                         (f"{label} GF({L.field.p}) conj", random_basis_change(L, 5))):
            out.append((name, Lx) + _largest_abelian(Lx))
    return out


@pytest.fixture(scope="module")
def arity_walks():
    """(label, L, beta, the canonically first abelian ideal of dimension beta
    or None at 0) for the arity m - 1 families (L21-*, A(n)) over GF(2) at m
    = 6 and over GF(3) at m = 5, as published and after a dense basis
    change, by a walk down through every subspace (``oracles.level_walk``)
    tested by ``abelian_ideal``.  Those over GF(2) at m = 5 are in
    ``beta_walks``."""
    out = []
    for m, p in ((6, 2), (5, 3)):
        for label, L in entries_for_dims((m,), GF(p)):
            if L.arity != m - 1:
                continue
            for name, Lx in ((f"{label} GF({p})", L),
                             (f"{label} GF({p}) conj", random_basis_change(L, 5))):
                for k in range(m, -1, -1):
                    hit = next((sub for sub in level_walk(m, k, p)
                                if invariants.abelian_ideal(Lx, *sub)), None)
                    if hit:
                        out.append((name, Lx, k, subspace_from_rref_rows(Lx.field, m, *hit)
                                    if k else None))
                        break
    return out


def test_beta_search_matches_brute_force_walk(beta_walks, arity_walks):
    """The branch and bound from the centre gives the beta and the witness
    (the canonically first abelian ideal of the largest dimension) of a walk
    through every subspace, on ``beta_walks`` and ``arity_walks``."""
    walks = [(label, L, beta, hits[0] if beta else None)
             for label, L, (beta, hits), _ in beta_walks]
    for label, L, beta, witness in walks + arity_walks:
        res = alpha_beta_exact_fp(L, compute="beta")
        assert res.beta_exact, label
        assert (res.beta, res.beta_witness) == (beta, witness), label


def test_every_largest_abelian_ideal_contains_the_center(beta_walks):
    """J + Z is an abelian ideal whenever J is one, so every abelian ideal of
    the largest dimension contains the centre: the fact the beta search
    starts from."""
    for label, L, (_, hits), _ in beta_walks:
        z = center(L)
        assert all(J.contains(z) for J in hits), label


def test_every_largest_abelian_subalgebra_contains_the_center(beta_walks):
    """S + Z is an abelian subalgebra whenever S is one, so every abelian
    subalgebra of the largest dimension contains the centre: the fact the
    alpha scan rests on, which tests only the subspaces that contain Z.  Its
    value and witness are those of the walk through every subspace."""
    for label, L, _, (alpha, hits) in beta_walks:
        z = center(L)
        assert all(S.contains(z) for S in hits), label
        res = alpha_beta_exact_fp(L, compute="alpha")
        assert (res.alpha, res.alpha_witness) == (alpha, hits[0] if alpha else None), label


@pytest.mark.parametrize("p,m,alpha,scanned", [(5, 5, 3, 19_533), (3, 6, 4, 10_815),
                                               (2, 7, 5, 2_593)])
def test_alpha_deep_hits_are_pinned(p, m, alpha, scanned):
    """T44-3 meets its first abelian subspace deep in a walk through every
    subspace from dimension m down: that walk tests ``scanned`` subspaces,
    the whole levels above alpha and then the alpha level up to the hit (at
    GF(5), m = 5, the 18,751st three-dimensional subspace).  The hit is the
    first subspace of the alpha level that contains the centre, and the alpha
    bound is alpha, so the scan tests one subspace and reports 1, with the
    value and the witness of the walk through every subspace."""
    L = catalog_build("T44-3", GF(p), m=m)
    res = alpha_beta_exact_fp(L, compute="alpha")
    assert center(L) == coordinate_subspace(GF(p), m, tuple(range(4, m)))
    witness = coordinate_subspace(GF(p), m, (0, 1) + tuple(range(4, m)))
    level = list(enumerate_subspaces(m, alpha, p))
    position = level.index(witness) + 1
    assert sum(gaussian_binomial(m, k, p) for k in range(alpha + 1, m + 1)) + position == scanned
    assert not any(classify_subspace(L, S).is_abelian_subalgebra for S in level[:position - 1])
    assert next(S for S in level if S.contains(center(L))) == witness
    assert search._derived_bounds(L)[0] == alpha
    assert (res.alpha, res.alpha_witness, res.subspaces_scanned) == (alpha, witness, 1)


def test_beta_lines_outside_the_derived_algebra_match_brute_force(monkeypatch):
    """A line of (K(I) n T)/I outside (D + I)/I is decided without a spin:
    the child is I + <v> when every [v, e_y] lies in I (untested when D lies
    in I), and the line is skipped when one does not, as that image's own
    line lies in D + I and is spun.  On every family over GF(3) at m = 5 and
    over GF(2) at m = 6, as published and after a basis change, where the
    search decides a line without a spin, beta and the witness equal the
    brute-force walk's; over the set the search both skips lines and takes
    children it never spun."""
    spins, tests, unspun = [], [], []
    spin, test, constraints = search._fp_spin, search.ideal, search._fp_constraints

    def counted_spin(*args):
        spins.append(spin(*args))
        return spins[-1]

    def counted_test(*args):
        tests.append(test(*args))
        return tests[-1]

    def counted_constraints(by_y2, new, p, m):
        # every closure a spin returns holds a new list of new vectors
        unspun.append(not any(closure is not None and closure[2] is new for closure in spins))
        return constraints(by_y2, new, p, m)

    monkeypatch.setattr(search, "_fp_spin", counted_spin)
    monkeypatch.setattr(search, "ideal", counted_test)
    monkeypatch.setattr(search, "_fp_constraints", counted_constraints)
    for p, m in ((3, 5), (2, 6)):
        for label, L0 in entries_for_dims((m,), GF(p)):
            for L in (L0, random_basis_change(L0, 3)):
                spun = len(spins)
                res = alpha_beta_exact_fp(L, compute="beta")
                if len(spins) - spun < res.subspaces_scanned:
                    (beta, hits), _ = _largest_abelian(L)
                    assert (res.beta, res.beta_witness) == (beta, hits[0] if beta else None), label
    assert tests.count(False) > 0 and any(unspun)


@pytest.mark.parametrize("fid,p,params,alpha,beta,witness,scanned", [
    ("T43-c3", 2, {"m": 9, "t": 3}, 8, 5, [(0,), (1, 6), (2, 5), (3,), (7,)], 1_454),
    ("T43-c3", 5, {"m": 7, "t": 2}, 6, 4, [(0,), (1, 4), (2, 3), (5,)], 940),
    ("L21-b1", 3, {"n": 5}, 5, 2, [(0,), (1,)], 2),
], ids=["T43-c3-GF2-m9-t3", "T43-c3-GF5-m7-t2", "L21-b1-GF3-m6"])
def test_beta_spins_nothing_where_the_derived_algebra_is_central(monkeypatch, fid, p, params,
                                                                 alpha, beta, witness, scanned):
    """D lies in Z, so at every node D lies in I: each line of (K(I) n T)/I
    is outside D + I and gives I + <v> with no spin and no image test.
    Alpha, beta, the witnesses and the work are those of the search that
    spun every line (the beta witness's rows are given by their supports,
    each entry 1; the alpha witness is spanned by the first alpha unit
    vectors)."""
    def no_spin(*args):
        raise AssertionError("a line was spun")

    monkeypatch.setattr(search, "_fp_spin", no_spin)
    L = catalog_build(fid, GF(p), **params)
    m = L.dim
    assert L.derived.dim == 1 and center(L).contains(L.derived)
    rows = [[int(j in support) for j in range(m)] for support in witness]
    res = alpha_beta_exact_fp(L)
    assert (res.alpha, res.beta, res.subspaces_scanned) == (alpha, beta, scanned)
    assert res.alpha_witness == coordinate_subspace(GF(p), m, tuple(range(alpha)))
    assert res.beta_witness == span(GF(p), m, rows)


@pytest.mark.parametrize("fid,p,params,beta,witness,lines", [
    ("EX42", 5, {"m": 5}, 3, [(2,), (3,), (4,)], (3, 3)),
    ("EX42", 3, {"m": 6}, 4, [(2,), (3,), (4,), (5,)], (6, 3)),
    ("T43-c3", 2, {"m": 6, "t": 2}, 3, [(0,), (1, 4), (2, 3)], (48, 47)),
], ids=["EX42-GF5-m5", "EX42-GF3-m6", "T43-c3-GF2-m6-t2"])
def test_beta_decides_each_node_on_its_kernel(fid, p, params, beta, witness, lines):
    """Each node is decided on W = K(I) n T: W itself is tested once when it
    is within the beta bound, a witness tie is bounded by the first
    subspace between I and W, and once a line outside (D + I)/I fails the
    ideal test only the lines of ((D + I) n W)/I and (N(I) n W)/I are tried.
    The lines tried with and without witnesses are pinned; the search that
    tried every line of W/I took 157 and 152, 126 and 111, 76 and 76.  Beta
    and the witness (rows given by their supports, each entry 1) are those
    of that search."""
    L = catalog_build(fid, GF(p), **params)
    rows = [[int(j in support) for j in range(L.dim)] for support in witness]
    full = alpha_beta_exact_fp(L, compute="beta")
    fast = alpha_beta_exact_fp(L, compute="beta", witnesses=False)
    assert (full.beta, full.beta_witness) == (beta, span(GF(p), L.dim, rows))
    assert (fast.beta, fast.beta_witness) == (beta, None)
    assert (full.subspaces_scanned, fast.subspaces_scanned) == lines


def test_beta_tests_that_a_whole_kernel_is_an_ideal():
    """W = K(I) n T is tested as a whole only by checking that W/I commutes
    and maps into W, as W need not be an ideal: on this table, which
    violates the fundamental identity, Z = 0 and W at the root is the trace
    radical T, abelian, with [T, T, L] = 0 and within the beta bound, but
    [T, L, L] leaves T.  The search gives the brute-force walk's beta and
    witness."""
    L = make_algebra(GF(2), 3, 5, {(1, 2, 3): {1: 1}, (1, 3, 5): {5: 1}, (3, 4, 5): {5: 1}})
    assert not check_fundamental_identity(L).holds and center(L).dim == 0
    T = span(GF(2), 5, null_basis(*search._fp_trace_rows(L), 5, 2))
    assert all(invariants.commute(L.maps[2].values(), u, v, 2, 5)
               for u, v in combinations(T.basis, 2))
    assert not classify_subspace(L, T).is_ideal and T.dim <= search._derived_bounds(L)[1]
    (beta, hits), _ = _largest_abelian(L)
    res = alpha_beta_exact_fp(L, compute="beta")
    assert (res.beta, res.beta_witness) == (beta, hits[0]) == (1, hits[0])


def _fi_violating_table():
    return make_algebra(GF(3), 3, 5, {(1, 3, 5): {2: 1}, (2, 4, 5): {4: 1}})


def test_beta_search_on_a_table_that_violates_the_identity():
    """K(I) is an ideal only when the fundamental identity holds; on a table
    that violates it the search still checks every new vector against K(I),
    so the witness is an abelian ideal and equals the brute-force walk's."""
    L = _fi_violating_table()
    assert not check_fundamental_identity(L).holds
    (beta, hits), _ = _largest_abelian(L)
    res = alpha_beta_exact_fp(L, compute="beta")
    assert (res.beta, res.beta_witness) == (beta, hits[0]) == (1, hits[0])
    assert classify_subspace(L, res.beta_witness).is_abelian_ideal


def test_trace_rows_match_a_dense_oracle(beta_walks):
    """The kernel T of the trace rows the beta search starts from equals the
    trace radical read off dense operator matrices, on every algebra of
    ``beta_walks`` and on a table that violates the fundamental identity;
    and every abelian ideal of those algebras, of any dimension, lies in T,
    so starting the search in T loses none."""
    algebras = [(label, L) for label, L, _, _ in beta_walks]
    algebras.append(("FI-violating", _fi_violating_table()))
    cut = 0
    for label, L in algebras:
        p, m = L.field.p, L.dim
        rows, pivots = search._fp_trace_rows(L)
        kernel = span_members_fp(null_basis(rows, pivots, m, p), m, p)
        assert kernel == trace_radical_fp(L), label
        cut += len(kernel) < p ** m
        for k in range(1, m + 1):
            for S in enumerate_subspaces(m, k, p):
                if classify_subspace(L, S).is_abelian_ideal:
                    assert set(S.basis) <= kernel, (label, S)
    assert cut >= 10


@pytest.mark.parametrize("p", [2, 3, 5])
def test_trace_rows_pin_the_simple_algebras(p):
    """Over GF(3) and GF(5) the trace rows of A(n), n = 3..6, and of EX31
    cut L to 0.  Over GF(2) the trace forms of these algebras vanish and T =
    L, a limit of characteristic 2, but their derived algebra is L, so the
    beta bound is 0 = dim Z.  Either way beta = 0 is decided with no closure
    tried: the beta share of ``subspaces_scanned`` is 0."""
    algebras = [catalog_build("A(n)", GF(p), n=n) for n in range(3, 7)]
    for L in algebras + [catalog_build("EX31", GF(p))]:
        rows, _ = search._fp_trace_rows(L)
        assert len(rows) == (0 if p == 2 else L.dim)
        assert search._derived_bounds(L) == (L.dim - 2, 0)
        res = alpha_beta_exact_fp(L, compute="beta")
        assert (res.beta, res.beta_witness, res.beta_exact) == (0, None, True)
        assert res.subspaces_scanned == 0


def test_derived_bounds_hold_on_brute_force_walks(beta_walks, arity_walks):
    """Alpha and beta of a walk through every subspace lie within the bounds
    of ``_derived_bounds``, on every algebra of ``beta_walks`` and on tables
    that violate the fundamental identity (EX41 as published, and a small
    table); the bounds use neither the identity nor the characteristic.  So
    does beta on every algebra of ``arity_walks``, where the bound of 2 is
    attained on the 20 tables of L21-b1, -b2, -c1, -c2 and -c3, and a bound
    one lower would fail."""
    walks = [(label, L, beta, alpha) for label, L, (beta, _), (alpha, _) in beta_walks]
    for label, L in [(f"EX41 GF({p})", catalog_build("EX41", GF(p))) for p in (2, 3)] + [
            ("FI-violating", _fi_violating_table())]:
        assert not check_fundamental_identity(L).holds, label
        (beta, _), (alpha, _) = _largest_abelian(L)
        walks.append((label, L, beta, alpha))
    for label, L, beta, alpha in walks:
        bound_alpha, bound_beta = search._derived_bounds(L)
        assert alpha <= bound_alpha and beta <= bound_beta, label
    tight = 0
    for label, L, beta, _ in arity_walks:
        bound_beta = search._derived_bounds(L)[1]
        assert beta <= bound_beta, label
        tight += beta == bound_beta == 2
    assert tight == 20


@pytest.mark.parametrize("p", [2, 3])
def test_beta_bound_is_2_at_arity_dim_minus_1(p):
    """At arity n = m - 1 a basis bracket has two arguments in an abelian
    ideal of dimension 3 or more, so it vanishes: the beta bound of
    ``_derived_bounds`` is 2 on L21-b1, -b2, -c1, -c2 and -c3 at m = 5..8,
    where the count k + C(m - k, n) allows m - 2.  On L21-d(r) with r = 3,
    where d = 3 and Z = 0, it is 0: beta is decided with no line tried."""
    for m in range(5, 9):
        for fid, params in (("L21-b1", {}), ("L21-b2", {}), ("L21-c1", {}),
                            ("L21-c2", {"alpha": 1}), ("L21-c3", {})):
            L = catalog_build(fid, GF(p), n=m - 1, **params)
            assert search._derived_bounds(L)[1] == 2, (fid, m)
        L = catalog_build("L21-d(r)", GF(p), n=m - 1, r=3)
        assert search._derived_bounds(L)[1] == 0, m
        res = alpha_beta_exact_fp(L, compute="beta")
        assert (res.beta, res.beta_exact, res.subspaces_scanned) == (0, True, 0), m


@pytest.mark.parametrize("p", [2, 3])
def test_alpha_scan_tests_only_level_alpha(monkeypatch, p):
    """On A(n) (m = 4..6) and T44-3 (m = 5..7) the alpha bound is alpha =
    m - 2, so the scan tests subspaces of that level only, and
    ``subspaces_scanned`` is the number it tests.  Each test brackets the
    rows of a subspace off the pivots of the centre Z, so its level is their
    number plus dim Z."""
    levels = []
    predicate = search.abelian_subalgebra
    monkeypatch.setattr(search, "abelian_subalgebra", lambda L, rows, pivots: levels.append(
        len(rows) + L.center.dim) or predicate(L, rows, pivots))
    algebras = [catalog_build("A(n)", GF(p), n=n) for n in (3, 4, 5)]
    algebras += [catalog_build("T44-3", GF(p), m=m) for m in (5, 6, 7)]
    for L in algebras:
        levels.clear()
        res = alpha_beta_exact_fp(L, compute="alpha")
        assert res.alpha == L.dim - 2
        assert set(levels) == {res.alpha}
        assert res.subspaces_scanned == len(levels)


def test_budget_bounds_the_subspaces_the_alpha_scan_tests():
    """The budget counts the subspaces the alpha scan tests (those that
    contain the centre, from the alpha bound down), and so does
    ``subspaces_scanned``.  The Heisenberg Lie algebra of dimension 5 over
    GF(3) has a 1-dimensional centre and alpha bound 4 (alpha is 3): its
    scan tests a level of 40 subspaces and hits at the 13th of the next, so
    it needs a budget of 53 and stops in the middle of that level at 52."""
    L = lie_catalog_build("heisenberg", GF(3), dim=5)
    assert search._derived_bounds(L)[0] == 4
    res = alpha_beta_exact_fp(L, budget=53, compute="alpha")
    assert (res.alpha, res.alpha_exact, res.subspaces_scanned, res.notes) == (3, True, 53, ())
    res = alpha_beta_exact_fp(L, budget=52, compute="alpha")
    assert (res.alpha, res.alpha_exact, res.subspaces_scanned) == (None, False, 52)
    assert res.notes == ("alpha scan stopped in dimension 3 after 52 subspaces: budget 52",)


@pytest.mark.parametrize("label,L", [
    ("EX33 GF(2)", catalog_build("EX33", GF(2))),
    ("EX33 GF(3)", catalog_build("EX33", GF(3))),
    ("EX42 m=6 GF(3)", catalog_build("EX42", GF(3), m=6)),
    ("heisenberg(5) GF(3)", lie_catalog_build("heisenberg", GF(3), dim=5)),
], ids=["EX33-GF2", "EX33-GF3", "EX42-m6-GF3", "heisenberg5-GF3"])
def test_budget_is_a_count_of_tests(label, L):
    """For every budget from 0 to the unbudgeted work: the work never passes
    the budget; a search stops (a note names it) exactly when the budget is
    below the unbudgeted work, and then the work equals the budget; and a
    decided value is the unbudgeted one, so it never changes or becomes
    undecided as the budget grows."""
    full = alpha_beta_exact_fp(L)
    assert full.complete and not full.notes
    decided = {"alpha": False, "beta": False}
    for budget in range(full.subspaces_scanned + 1):
        res = alpha_beta_exact_fp(L, budget=budget)
        assert res.subspaces_scanned <= budget, (label, budget)
        stopped = budget < full.subspaces_scanned
        assert bool(res.notes) == stopped, (label, budget)
        assert all(f": budget {budget}" in note for note in res.notes), (label, budget)
        if stopped:
            assert res.subspaces_scanned == budget, (label, budget)
        for name in decided:
            value = getattr(res, name)
            if decided[name]:
                assert value is not None, (label, budget, name)
            if value is not None:
                decided[name] = True
                assert (value, getattr(res, name + "_witness")) == (
                    getattr(full, name), getattr(full, name + "_witness")), (label, budget)
    assert res == full


def test_simple_algebra_alpha_is_decided_by_one_test():
    """A(6) over GF(5): the alpha level 5 holds 12,714,681 subspaces, but the
    first one the scan tests is abelian, and the trace rows decide beta = 0
    with no closure, so the default budget gives both values after 1 test."""
    L = catalog_build("A(n)", GF(5), n=6)
    res = alpha_beta_exact_fp(L)
    assert (res.alpha, res.beta, res.complete, res.subspaces_scanned) == (5, 0, True, 1)
    assert classify_subspace(L, res.alpha_witness).is_abelian_subalgebra


def test_enumerated_bases_are_rref():
    for S in enumerate_subspaces(4, 2, 3):
        R, pivots = S.matrix.rref()
        assert R.rows[: S.dim] == S.basis
        assert pivots == S.pivots


@pytest.mark.parametrize("fid,params,expected", [
    ("EX31", {}, (2, 0)),
    ("EX32-1", {}, (3, 0)),
    ("EX32-2", {}, (3, 2)),
    ("EX33", {}, (3, 2)),
    ("EX41", {}, (4, 1)),
    ("EX42", {"m": 6}, (5, 4)),
])
@pytest.mark.parametrize("p", [2, 3])
def test_alpha_beta_paper_values(fid, params, expected, p):
    L = catalog_build(fid, GF(p), **params)
    res = alpha_beta_exact_fp(L)
    assert (res.alpha, res.beta) == expected
    assert res.alpha_exact and res.beta_exact
    assert res.beta <= res.alpha
    if res.alpha_witness is not None:
        assert classify_subspace(L, res.alpha_witness).is_abelian_subalgebra
    if res.beta_witness is not None:
        assert classify_subspace(L, res.beta_witness).is_abelian_ideal


def test_alpha_beta_abelian_algebra():
    L = abelian_algebra(GF(2), 3, 4)
    res = alpha_beta_exact_fp(L)
    assert (res.alpha, res.beta) == (4, 4)
    assert res.alpha_witness == full_subspace(GF(2), 4)


def test_alpha_beta_beta_le_dim_minus_2():
    for fid, params in [("A(n)", {"n": 3}), ("EX33", {}), ("T35-b5", {"m": 5})]:
        L = catalog_build(fid, GF(2), **params)
        res = alpha_beta_exact_fp(L)
        assert res.beta <= L.dim - 2


def test_alpha_beta_requires_prime_field():
    with pytest.raises(UnsupportedRequestError):
        alpha_beta_exact_fp(catalog_build("EX33", QQ))


def test_alpha_beta_budget_partial():
    L = catalog_build("EX42", GF(3), m=6)
    res = alpha_beta_exact_fp(L, budget=10)
    assert not res.complete
    assert res.notes


def test_alpha_beta_deterministic_witness():
    L = catalog_build("EX33", GF(2))
    r1 = alpha_beta_exact_fp(L)
    r2 = alpha_beta_exact_fp(L)
    assert r1 == r2


def test_alpha_beta_invariant_under_basis_change():
    L = catalog_build("EX33", GF(3))
    base = alpha_beta_exact_fp(L)
    for seed in range(3):
        Lc = random_basis_change(L, seed)
        res = alpha_beta_exact_fp(Lc)
        assert (res.alpha, res.beta) == (base.alpha, base.beta)


def test_beta_at_least_center_dim():
    for fid, params in [("EX33", {}), ("T34-a1", {"m": 5}), ("EX42", {"m": 5})]:
        L = catalog_build(fid, GF(2), **params)
        res = alpha_beta_exact_fp(L)
        assert res.beta >= center(L).dim


def test_direct_sum_alpha_beta_with_abelian_line():
    a4 = catalog_build("A(n)", QQ, n=3)
    L = direct_sum(a4, abelian_algebra(QQ, 3, 1))
    for p in (2, 3):
        res = alpha_beta_exact_fp(reduce_mod_p(L, p))
        assert (res.alpha, res.beta) == (3, 1)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_mod_p_a4():
    L = catalog_build("A(n)", QQ, n=3)
    Lp = reduce_mod_p(L, 2)
    assert Lp.field == GF(2)
    assert check_fundamental_identity(Lp).holds
    assert Lp.fi_checked  # propagated


def test_reduce_mod_p_denominator_error():
    L = make_algebra(QQ, 3, 4, {(1, 2, 3): {4: Fraction(1, 3)}})
    with pytest.raises(InvalidParameterError):
        reduce_mod_p(L, 3)
    assert reduce_mod_p(L, 2).field == GF(2)


def test_reduce_mod_p_ex33_values_unchanged():
    L = catalog_build("EX33", QQ)
    res = alpha_beta_exact_fp(reduce_mod_p(L, 5))
    assert (res.alpha, res.beta) == (3, 2)


def test_reduce_rejects_prime_field_input():
    with pytest.raises(InvalidParameterError):
        reduce_mod_p(catalog_build("EX33", GF(2)), 3)


# ---------------------------------------------------------------------------
# Q lower bounds


def test_bounds_q_ex42():
    L = catalog_build("EX42", QQ, m=6)
    res = abelian_bounds_q(L)
    assert res.mode == "lower-bound-q"
    assert res.alpha >= 5
    assert res.alpha_upper == 5
    assert classify_subspace(L, res.alpha_witness).is_abelian_subalgebra
    assert res.beta >= 4
    assert classify_subspace(L, res.beta_witness).is_abelian_ideal


def test_bounds_q_abelian_full_space():
    L = abelian_algebra(QQ, 3, 4)
    res = abelian_bounds_q(L)
    assert res.alpha == 4
    assert res.alpha_witness == full_subspace(QQ, 4)
    assert res.alpha_upper == 4 and res.beta_upper == 4


def test_bounds_q_t43_c2_beta_witness():
    L = catalog_build("T43-c2", QQ, m=5)
    res = abelian_bounds_q(L)
    assert res.beta >= 1
    assert classify_subspace(L, res.beta_witness).is_abelian_ideal


def test_upper_bounds_of_lie_algebras_allow_codimension_1_abelian_ideals():
    """At arity 2 beta can reach dim - 1, so the bound is dim - 1 there and
    dim - 2 only at arity >= 3."""
    affine = lie_catalog_build("affine", QQ, dim=2)
    res = abelian_bounds_q(affine)
    assert (res.beta, res.alpha_upper, res.beta_upper) == (1, 1, 1)
    for p in (2, 3):
        assert alpha_beta_exact_fp(lie_catalog_build("affine", GF(p), dim=2)).beta == 1
    L = reduce_mod_p(associated_lie(catalog_build("EX42", QQ, m=6), (1, 0, 0, 0, 0, 0)), 2)
    res = alpha_beta_exact_fp(L)
    assert (res.beta, res.alpha_upper, res.beta_upper) == (5, 5, 5)
    ternary = abelian_bounds_q(catalog_build("EX33", QQ))
    assert (ternary.alpha_upper, ternary.beta_upper) == (3, 2)


def test_exact_values_within_upper_bounds_on_lie_catalog():
    for fid, params in [("affine", {"dim": 2}), ("heisenberg", {"dim": 3}),
                        ("heisenberg", {"dim": 5}), ("simple3", {"dim": 3}),
                        ("upper", {"n": 2}), ("strictly-upper", {"n": 3})]:
        for p in (2, 3):
            res = alpha_beta_exact_fp(lie_catalog_build(fid, GF(p), **params))
            assert res.alpha <= res.alpha_upper, (fid, params, p)
            assert res.beta <= res.beta_upper, (fid, params, p)


def test_bounds_q_requires_rationals():
    with pytest.raises(UnsupportedRequestError):
        abelian_bounds_q(catalog_build("EX33", GF(2)))


def test_q_bounds_test_each_beta_candidate_once(monkeypatch):
    """Within one abelian_bounds_q call no subspace goes to abelian_ideal
    twice: a repeated candidate cannot win again."""
    tested = []
    test = search.abelian_ideal

    def recorded(L, rows, pivots):
        tested.append(rows)
        return test(L, rows, pivots)

    monkeypatch.setattr(search, "abelian_ideal", recorded)
    for label, L in entries_for_dims((4, 5), QQ):
        tested.clear()
        abelian_bounds_q(L)
        assert tested and len(tested) == len(set(tested)), label


def test_q_bounds_match_the_reference_growth(monkeypatch):
    """abelian_bounds_q against ``oracles.abelian_bounds_q_reference`` (whole
    spans, every growth from scratch) on every catalog family over Q at m =
    4, 5, 6, on each m = 4, 5 table conjugated by the lower-bidiagonal basis
    change (2 on the diagonal, 1 below it), whose witnesses hold fractions,
    and on the Lie fixtures, one after another in this process, so a memo
    that outlived its call would show.  Each call keeps one memo, and it
    maps exactly the bases of the reference's growth paths to the (basis,
    pivots) where their growth ends."""
    memos = []
    grow = search._grow_abelian

    def recorded(L, rows, pivots, memo):
        memos.append(memo)
        return grow(L, rows, pivots, memo)

    monkeypatch.setattr(search, "_grow_abelian", recorded)
    algebras = entries_for_dims((4, 5, 6), QQ)
    for label, L in entries_for_dims((4, 5), QQ):
        m = L.dim
        P = Matrix.from_rows(QQ, [[2 if j == i else 1 if j == i - 1 else 0 for j in range(m)]
                                  for i in range(m)])
        algebras.append((f"{label} conjugate", iso.change_basis(L, P)))
    for fid, params in (("affine", {"dim": 2}), ("heisenberg", {"dim": 3}),
                        ("heisenberg", {"dim": 5}), ("upper", {"n": 2}),
                        ("strictly-upper", {"n": 3})):
        algebras.append((f"lie {fid} {params}", lie_catalog_build(fid, QQ, **params)))
    fractional = 0
    for label, L in algebras:
        memos.clear()
        res = abelian_bounds_q(L)
        *expected, paths = abelian_bounds_q_reference(L)
        assert [res.alpha, res.beta, res.alpha_witness, res.beta_witness,
                res.subspaces_scanned, res.notes] == expected, label
        assert memos and all(memo is memos[0] for memo in memos), label
        assert memos[0] == {S.basis: (path[-1].basis, path[-1].pivots)
                            for path in paths for S in path}, label
        fractional += any(type(x) is Fraction for W in (res.alpha_witness, res.beta_witness)
                          if W for r in W.basis for x in r)
    assert fractional
