"""Machine verification suite for the classification claims behind the catalog.

Nine criteria.  Each is a generator that yields one (passed, failure text)
pair per check; one decorator, ``_criterion``, runs it, counts the pairs,
collects the failing texts into a CheckResult and registers the criterion
for ``run_suite``.  A failure text is formatted when its pair is yielded,
so it does no work beyond formatting.  All arithmetic is exact; alpha/beta
statements are established by exact searches over small prime fields and
linear-algebra statements exactly over Q.  The suite is deterministic for a
fixed seed.

Known defect, surfaced honestly rather than patched around: the shipped
tables for the families T43-c1 (pair count >= 2) and EX41 do NOT satisfy the
fundamental identity -- the alternating form encoding their brackets has rank
four, and the identity forces rank <= 2.  Criterion 1 therefore reports
failures for exactly those samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import wraps
from itertools import combinations

from .catalog import (
    associated_lie,
    catalog_build,
    classify_theorem44,
    direct_sum,
    entries_for_dims,
    lie_catalog_build,
    representative_entries,
    restrict_to_subalgebra,
    trivial_extension,
)
from .core import (
    abelian_algebra,
    bracket,
    check_fundamental_identity,
    make_algebra,
)
from .errors import FundamentalIdentityError, InvalidParameterError
from .fields import GF, QQ
from .invariants import (
    center,
    classify_subspace,
    derived_algebra,
    invariant_report,
    is_2step_s_solvable,
)
from .iso import are_isomorphic, fingerprint, random_basis_change
from .linalg import coordinate_subspace, subspace_intersect
from .oracle import naive_fi_residual
from .search import (
    abelian_bounds_q,
    alpha_beta_exact_fp,
    enumerate_subspaces,
    gaussian_binomial,
    reduce_mod_p,
)

DEFAULT_SEED = 0

_CRITERIA = {}


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    checks_run: int
    failures: tuple

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"criterion {self.criterion} [{status}] {self.name}: {self.checks_run} checks"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line

    def to_dict(self):
        return {"criterion": self.criterion, "name": self.name,
                "passed": self.passed, "checks_run": self.checks_run,
                "failures": list(self.failures)}


@dataclass(frozen=True)
class SuiteResult:
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self):
        return {"passed": self.passed,
                "results": [r.to_dict() for r in self.results]}


def _criterion(number: int, name: str):
    """Make a generator of (passed, failure text) pairs, one per check, into
    criterion ``number``: a function with the generator's arguments that
    returns the tally as a CheckResult, registered in ``_CRITERIA``."""
    def tally(checks):
        @wraps(checks)
        def run(*args, **kwargs) -> CheckResult:
            outcomes = list(checks(*args, **kwargs))
            failures = tuple(text for passed, text in outcomes if not passed)
            return CheckResult(number, name, not failures, len(outcomes), failures)
        _CRITERIA[number] = run
        return run
    return tally


def _built(construct, *args):
    """``construct(*args)``, or None when it raises FundamentalIdentityError
    because its result fails the identity."""
    try:
        return construct(*args)
    except FundamentalIdentityError:
        return None


# ---------------------------------------------------------------------------
# criterion sample sets


def _fi_sample_specs():
    specs = []
    for m in range(4, 9):
        n = m - 1
        specs += [(f"L21-b1 n={n}", "L21-b1", {"n": n}),
                  (f"L21-b2 n={n}", "L21-b2", {"n": n}),
                  (f"L21-c1 n={n}", "L21-c1", {"n": n}),
                  (f"L21-c3 n={n}", "L21-c3", {"n": n}),
                  (f"A(n) n={n}", "A(n)", {"n": n})]
        specs += [(f"L21-c2 n={n} a={a}", "L21-c2", {"n": n, "alpha": a})
                  for a in (1, 2)]
        specs += [(f"L21-d r={r} n={n}", "L21-d(r)", {"n": n, "r": r})
                  for r in sorted({3, n + 1})]
        specs += [(f"T34-a1 m={m}", "T34-a1", {"m": m}),
                  (f"T34-a2 m={m}", "T34-a2", {"m": m}),
                  (f"T35-b4 m={m}", "T35-b4", {"m": m}),
                  (f"T35-b5 m={m}", "T35-b5", {"m": m}),
                  (f"T43-c2 m={m}", "T43-c2", {"m": m}),
                  (f"EX42 m={m}", "EX42", {"m": m}),
                  (f"T44-3 m={m}", "T44-3", {"m": m})]
        specs += [(f"T35-b6 m={m} a={a}", "T35-b6", {"m": m, "alpha": a})
                  for a in (1, 2)]
        if m >= 5:
            specs += [(f"T35-b2 m={m}", "T35-b2", {"m": m}),
                      (f"T35-b3 m={m}", "T35-b3", {"m": m})]
            tmax = (m - 1) // 2
            specs += [(f"T43-c1 m={m} t={t}", "T43-c1", {"m": m, "t": t})
                      for t in sorted({1, 2, tmax})]
        if m >= 6:
            specs += [(f"T35-b1 m={m}", "T35-b1", {"m": m})]
        tmax3 = (m - 2) // 2
        specs += [(f"T43-c3 m={m} t={t}", "T43-c3", {"m": m, "t": t})
                  for t in sorted({1, tmax3})]
    specs += [("EX31", "EX31", {}), ("EX32-1", "EX32-1", {}),
              ("EX32-2", "EX32-2", {}), ("EX33", "EX33", {}),
              ("EX41", "EX41", {})]
    return specs


@_criterion(1, "fundamental identity over Q and mod {2,5}")
def criterion_1():
    """Fundamental-identity validity of the catalog plus a mutation detection check."""
    for label, fid, params in _fi_sample_specs():
        L = catalog_build(fid, QQ, **params)
        yield L.fi_checked, f"{label}: identity fails over Q"
        for p in (2, 5):
            yield (check_fundamental_identity(reduce_mod_p(L, p)).holds,
                   f"{label}: identity fails mod {p}")

    # the stated mutation check: flipping the sign of the [e1,e2,e3] constant
    # of the simple 4-dim table must be reported as a violation
    mutated = make_algebra(QQ, 3, 4, {
        (2, 3, 4): {1: 1}, (1, 3, 4): {2: 1}, (1, 2, 4): {3: 1},
        (1, 2, 3): {4: -1},
    })
    report = check_fundamental_identity(mutated)
    if report.holds:
        # cross-check the verdict with the independent expander; a diagonal
        # rescaling of the simple table preserves the identity over every
        # field (the rescaled family is isomorphic to it over the closure),
        # so the expected violation cannot exist
        sample = [((0, 1, 2), (0, 1)), ((0, 1, 2), (2, 3)), ((1, 2, 3), (0, 3))]
        oracle_zero = all(
            all(x == QQ.zero for x in naive_fi_residual(mutated, xs, ys))
            for xs, ys in sample)
        yield (False, "sign-flip mutation passes the identity (independent expander "
               f"agrees on sampled instances: {oracle_zero}); single-entry "
               "rescalings of the simple table are identity-preserving")
        return
    yield True, "sign-flip mutation detected"
    v = report.violations[0]
    residual = naive_fi_residual(
        mutated, tuple(i - 1 for i in v.x_indices),
        tuple(j - 1 for j in v.y_indices))
    yield residual == v.residual, "checker residual disagrees with the independent expander"
    yield (not all(x == QQ.zero for x in residual),
           "independent expander found no residual for the reported tuple")


_AB_EXPECTED = (
    ("EX31", {}, (2, 0)),
    ("EX32-1", {}, (3, 0)),
    ("EX32-2", {}, (3, 2)),
    ("EX33", {}, (3, 2)),
    ("EX41", {}, (4, 1)),
    ("EX42", {"m": 6}, (5, 4)),
)


@_criterion(2, "alpha/beta values by exhaustive enumeration at p=2,3")
def criterion_2():
    """Exhaustive alpha/beta values at p in {2, 3}, with cross-prime agreement."""
    for fid, params, expected in _AB_EXPECTED:
        got = {}
        for p in (2, 3):
            res = alpha_beta_exact_fp(catalog_build(fid, GF(p), **params))
            got[p] = (res.alpha, res.beta)
            yield got[p] == expected, f"{fid}{params} at p={p}: got {got[p]}, expected {expected}"
        yield got[2] == got[3], f"{fid}{params}: primes disagree {got}"


@_criterion(3, "abelian-ideal codimension bound over GF(2), m <= 6")
def criterion_3():
    """beta <= dim-2 for every non-abelian catalog algebra (m <= 6, GF(2)),
    and no abelian ideal of codimension 1 exists."""
    for label, L in entries_for_dims((4, 5, 6), GF(2)):
        m = L.dim
        res = alpha_beta_exact_fp(L, compute="beta")
        yield (res.beta is not None and res.beta <= m - 2,
               f"{label}: beta={res.beta} exceeds dim-2={m - 2}")
        # codimension-1 sweep, independent of the beta branch and bound
        yield (not any(classify_subspace(L, S).is_abelian_ideal
                       for S in enumerate_subspaces(m, m - 1, 2)),
               f"{label}: found a codim-1 abelian ideal")


def _t3435_cases(m):
    cases = [("T34-a1", {"m": m}, 1), ("T34-a2", {"m": m}, 1),
             ("T35-b2", {"m": m}, 2), ("T35-b3", {"m": m}, 2),
             ("T35-b4", {"m": m}, 2), ("T35-b5", {"m": m}, 2),
             ("T35-b6", {"m": m, "alpha": 1}, 2)]
    if m >= 6:
        cases.insert(2, ("T35-b1", {"m": m}, 2))
    return cases


@_criterion(4, "derived-dim 1/2 families: dimensions and distinctness")
def criterion_4():
    """Structure of the derived-dimension-1 and -2 families at m in {5, 6, 7}:
    dimensions, the codimension-2 abelian ideal, 2-step solvability, and
    pairwise non-isomorphism at fixed m."""
    for m in (5, 6, 7):
        cases = _t3435_cases(m)
        for fid, params, d1 in cases:
            label = f"{fid} m={m}"
            L = catalog_build(fid, QQ, **params)
            rep = invariant_report(L)
            expected_z = m - 3 if d1 == 1 else m - 4
            yield rep.derived_dim == d1, f"{label}: derived dim {rep.derived_dim} != {d1}"
            yield rep.center_dim == expected_z, f"{label}: center dim {rep.center_dim} != {expected_z}"
            yield is_2step_s_solvable(L, 2), f"{label}: not 2-step solvable"
            ideal = coordinate_subspace(QQ, m, range(m - 2))
            yield (classify_subspace(L, ideal).is_abelian_ideal,
                   f"{label}: span(x1..x{m - 2}) is not an abelian ideal")
            yield (ideal.contains(derived_algebra(L)),
                   f"{label}: derived algebra not inside the codim-2 ideal")
        # pairwise distinction at this m, over GF(2)
        f2 = [(f"{fid} m={m}", catalog_build(fid, GF(2), **params))
              for fid, params, _ in cases]
        for (la, A), (lb, B) in combinations(f2, 2):
            verdict = are_isomorphic(A, B).verdict
            yield verdict == "no", f"{la} vs {lb}: not separated ({verdict})"
    # the dimension-4 cores of the three fingerprint-tied cases
    cores = [(fid, catalog_build(fid, GF(2), m=4, **extra))
             for fid, extra in (("T35-b4", {}), ("T35-b5", {}),
                                ("T35-b6", {"alpha": 1}))]
    for (la, A), (lb, B) in combinations(cores, 2):
        verdict = are_isomorphic(A, B).verdict
        yield verdict == "no", f"core {la} vs {lb} at m=4: {verdict}"


@_criterion(5, "codim-1 hypo-abelian ideal for nilpotent alpha=dim-1")
def criterion_5():
    """Every nilpotent catalog algebra with alpha = dim-1 has a codimension-1
    hypo-abelian ideal, found by exhaustive scan over GF(2)."""
    samples = [("EX33", catalog_build("EX33", GF(2))),
               ("EX42 m=5", catalog_build("EX42", GF(2), m=5)),
               ("EX42 m=6", catalog_build("EX42", GF(2), m=6))]
    for label, L in samples:
        yield (any(classify_subspace(L, S).is_hypo_abelian_ideal
                   for S in enumerate_subspaces(L.dim, L.dim - 1, 2)),
               f"{label}: no codim-1 hypo-abelian ideal found")


def _criterion6_inputs():
    affine = lie_catalog_build("affine", QQ, dim=2)
    heis = lie_catalog_build("heisenberg", QQ, dim=3)
    ab1 = abelian_algebra(QQ, 2, 1)
    return [("affine(2)", affine),
            ("heisenberg(3)", heis),
            ("affine(2)+abelian(1)", direct_sum(affine, ab1)),
            ("heisenberg(3)+abelian(1)", direct_sum(heis, ab1))]


@_criterion(6, "trivial-extension constructions")
def criterion_6():
    """Trivial extensions of 2-step solvable Lie algebras with a codim-1
    abelian ideal: identity holds, second derived term vanishes, beta equals
    dim-2 over GF(2) and GF(3), and the embedded copy is hypo-abelian."""
    for label, J0 in _criterion6_inputs():
        solvable = is_2step_s_solvable(J0, 2)
        yield solvable, f"{label}: input not 2-step solvable"
        if not solvable:
            continue
        beta = abelian_bounds_q(J0).beta
        yield beta == J0.dim - 1, f"{label}: no codim-1 abelian ideal found (beta>={beta})"
        if beta != J0.dim - 1:
            continue
        L = _built(trivial_extension, J0)
        yield L is not None, f"{label}: extension violates the identity"
        if L is None:
            continue
        yield is_2step_s_solvable(L, 2), f"ext({label}): second derived term nonzero"
        for p in (2, 3):
            res = alpha_beta_exact_fp(reduce_mod_p(L, p), compute="beta")
            yield res.beta == L.dim - 2, f"ext({label}) mod {p}: beta={res.beta} != {L.dim - 2}"
        embedded = coordinate_subspace(QQ, L.dim, range(J0.dim))
        yield (classify_subspace(L, embedded).is_hypo_abelian_ideal,
               f"ext({label}): embedded copy not a hypo-abelian ideal")


@_criterion(7, "associated binary algebras (Jacobi + examples)")
def criterion_7():
    """Associated binary algebras: Jacobi at every basis vector for every
    catalog algebra (m <= 6), plus the two quantitative examples."""
    for label, L in entries_for_dims((4, 5, 6), QQ):
        if L.arity != 3:
            continue
        f = L.field
        for i in range(L.dim):
            w = tuple(f.one if t == i else f.zero for t in range(L.dim))
            yield (_built(associated_lie, L, w) is not None,
                   f"{label}: Jacobi fails at basis vector {i + 1}")

    L0 = associated_lie(catalog_build("EX32-1", QQ), (0, 0, 0, 1))
    z0 = center(L0)
    d0 = derived_algebra(L0)
    yield z0.dim == 1, f"assoc(EX32-1, x4): center dim {z0.dim} != 1"
    yield d0.dim == 3, f"assoc(EX32-1, x4): derived dim {d0.dim} != 3"
    yield (subspace_intersect(z0, d0).dim == 0,
           "assoc(EX32-1, x4): center meets the derived subalgebra")

    L0 = associated_lie(catalog_build("EX42", QQ, m=6), (1, 0, 0, 0, 0, 0))
    res = alpha_beta_exact_fp(reduce_mod_p(L0, 2))
    ab = (res.alpha, res.beta)
    yield ab == (5, 5), f"assoc(EX42 m=6, x1): alpha/beta {ab} != (5, 5)"


@_criterion(8, "alpha = dim-2 trichotomy and direct-sum checks")
def criterion_8():
    """Trichotomy checks and the strong-semisimplicity corroboration."""
    v = classify_theorem44(catalog_build("EX33", QQ))
    yield v.case == "3-solvable", f"EX33 classified as {v.case}"

    a4 = catalog_build("A(n)", QQ, n=3)
    v = classify_theorem44(a4)
    yield v.case == "simple-A4", f"simple 4-dim algebra classified as {v.case}"

    sd = direct_sum(a4, abelian_algebra(QQ, 3, 2))
    v = classify_theorem44(sd)
    has_tau = v.case == "A4-semidirect" and v.tau is not None and v.tau.dim == 2
    yield has_tau, f"A4+F^2 classified as {v.case} (tau={v.tau and v.tau.dim})"
    if has_tau:
        sd2 = reduce_mod_p(sd, 2)
        yield classify_subspace(sd2, v.tau).is_abelian_ideal, "reported tau is not an abelian ideal"
        complementary = (v.block is not None and subspace_intersect(v.block, v.tau).dim == 0
                         and v.block.dim + v.tau.dim == sd.dim)
        yield complementary, "reported block is not complementary to tau"
        if complementary:
            block = restrict_to_subalgebra(sd2, v.block)
            yield classify_theorem44(block).case == "simple-A4", "reported block is not simple"

    res = alpha_beta_exact_fp(reduce_mod_p(direct_sum(a4, a4), 2), compute="beta")
    yield res.beta == 0, f"beta(A4+A4) over GF(2) = {res.beta} != 0"


@_criterion(9, "property suites (randomized + enumeration counts)")
def criterion_9(seed: int = DEFAULT_SEED):
    """Standalone property suites: randomized multilinearity/antisymmetry,
    fingerprint invariance under basis change, and subspace enumeration counts."""
    rng = random.Random(seed)

    reps_q = representative_entries(QQ)
    pool = reps_q + representative_entries(GF(3))
    for case in range(1000):
        label, L = pool[rng.randrange(len(pool))]
        f = L.field
        m = L.dim
        n = L.arity

        def rand_vec():
            if f.p is None:
                return tuple(QQ.from_int(rng.randrange(-3, 4)) for _ in range(m))
            return tuple(rng.randrange(f.p) for _ in range(m))

        vecs = [rand_vec() for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = list(vecs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        ok = bracket(L, vecs) == tuple(f.neg(x) for x in bracket(L, swapped))
        yield ok, f"case {case} ({label}): antisymmetry fails"
        if not ok:
            break
        slot = rng.randrange(n)
        u, v = rand_vec(), rand_vec()
        c = (QQ.from_int(rng.randrange(-3, 4)) if f.p is None
             else rng.randrange(f.p))
        combo = tuple(f.add(a, f.mul(c, b)) for a, b in zip(u, v))
        with_u = list(vecs)
        with_u[slot] = u
        with_v = list(vecs)
        with_v[slot] = v
        with_c = list(vecs)
        with_c[slot] = combo
        ok = bracket(L, with_c) == tuple(
            f.add(a, f.mul(c, b)) for a, b in zip(bracket(L, with_u), bracket(L, with_v)))
        yield ok, f"case {case} ({label}): multilinearity fails"
        if not ok:
            break

    for label, L in reps_q:
        fp = fingerprint(L)
        for s in range(20):
            ok = fingerprint(random_basis_change(L, seed + s)) == fp
            yield ok, f"{label}: fingerprint not invariant (seed {seed + s})"
            if not ok:
                break

    for p in (2, 3):
        for m in range(1, 7):
            for k in range(0, m + 1):
                bases = [S.basis for S in enumerate_subspaces(m, k, p)]
                count, expected = len(bases), gaussian_binomial(m, k, p)
                yield count == expected, f"count(m={m},k={k},p={p}) = {count} != {expected}"
                yield len(set(bases)) == count, f"duplicates in enumeration m={m},k={k},p={p}"


def run_suite(only=None, seed: int = DEFAULT_SEED, report=print) -> SuiteResult:
    """Run the verification criteria (all by default) and report one line each."""
    selected = sorted(set(only)) if only else sorted(_CRITERIA)
    unknown = [cid for cid in selected if cid not in _CRITERIA]
    if unknown:
        raise InvalidParameterError(f"unknown criterion: {unknown[0]}")
    results = []
    for cid in selected:
        res = criterion_9(seed) if cid == 9 else _CRITERIA[cid]()
        results.append(res)
        if report is not None:
            report(res.summary())
            for failure in res.failures:
                report(f"    - {failure}")
    return SuiteResult(tuple(results))
