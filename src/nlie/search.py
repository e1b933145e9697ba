"""Abelian subalgebra/ideal search: alpha and beta invariants.

Over GF(p) the values are computed exactly, and both searches rest on the
centre Z: S + Z is an abelian subalgebra (ideal) whenever S is one, so every
abelian subalgebra or ideal of the largest dimension contains Z.

Alpha is an exhaustive scan of the subspaces that contain Z, in canonical
RREF order (profiles of pivot columns in lexicographic order, free entries
in odometer order), dimensions downward from the alpha bound of
``_derived_bounds`` with early exit.  At a level k >= dim Z an abelian
k-subspace exists exactly when one contains Z, and none exists above the
bound, so the value and the witness are those of a scan of every subspace.

Beta is a branch and bound over abelian ideals that starts at Z.  Every
abelian ideal J lies in the radical T of the trace forms tr([v, ., e_y'] o
M), M the identity or an operator [., e_y]: for v in J the product maps L
into J and J to 0, so it is nilpotent (the Killing-form argument of Cartan's
criterion, carried to n-Lie algebras by Kasymov 1987).  An abelian ideal J
containing an ideal I also lies in K(I) = {v : [v, i, x_1, .., x_{n-2}] = 0
for all i in I and all x}.  Both are kernels linear in v, so dim K(I) n T
bounds every branch below I; the root is Z in T (K(Z) = L), and where T = Z
or the beta bound of ``_derived_bounds`` is dim Z it tries no line at all;
that bound counts the brackets an abelian ideal lets occur (beta <= 2 at
arity dim - 1), and a node of its dimension is a leaf.
Nodes grow by one line <v> of W/I at a time, W = K(I) n T.  A line inside
(D + I)/I, D = [L, .., L], is spun to the ideal closure of I + <v> (the
spinning closure of the MeatAxe; Lux, Mueller & Ringe 1994).  A line outside
it is not spun: the images [v, e_y] lie in D, so when all of them lie in I
(always when D lies in I) the child is I + <v>, abelian as v is in K(I), and
otherwise the line is skipped.  No abelian ideal J above I is lost: either
[J, L, .., L] lies in I, and every line of J/I gives a child inside J, or J
holds an image w = [v, e_y] outside I, whose line lies in D + I and spins to
a closure inside J.
A node is judged on W as one subspace, as a maximum-clique search judges a
node by its candidate set (Carraghan & Pardalos 1990); no rule below loses
an abelian ideal.  When dim W is within the cap, one test checks W itself:
I is abelian and W lies in K(I), so W is an abelian ideal when the
representatives of W/I commute and map into W; then it holds every abelian
ideal above I and ends the node, and else the branch's bound is dim W - 1.  Once a line outside (D + I)/I fails its test, only the lines
left in ((D + I) n W)/I (spun) and in (N(I) n W)/I, N(I) = {v : [v, e_y] in
I for all y} (children as they stand), are tried: a line in neither lies
outside D + I and fails the same test.  Both sets are kernels of maps read
off the images of W/I's basis, computed only at a node where a line fails.
Both searches report the canonically first subspace of the largest
dimension.  Beta also prunes a branch below I whose bound only ties the best
ideal once the first subspace of that dimension between I and W (in the
walk's order; its pivots are I's and then the first of W's others) cannot
precede it; asked for values only, beta skips that tie-break and stops once
it reaches its bound.  The order in which it tries lines moves only the
work it reports, as it keeps the best ideal by dimension, then by key.

Over Q only certified lower bounds are produced, plus the universal upper
bounds of ``_upper_bounds`` (dim for abelian algebras; else dim-1 for alpha,
and dim-1 for beta at arity 2, dim-2 at arity >= 3).  The lower bounds grow
abelian subalgebras S greedily by K(S), whose conditions are combinations of
the operators [., e_y], on raw RREF rows: only the two witnesses become
``Subspace``s.

The alpha scan walks the Grassmannian through ``walk_subspaces``, which can
walk only the subspaces that contain a given one; ``walk_within`` walks
those inside one (the ideal lines of ``iso``, classify44's blocks).  The
work of a search is the subspaces a predicate is called on plus the beta
lines and whole kernels tried: that is what ``subspaces_scanned`` reports
and what a budget bounds.  Each test is charged before it is made, and a
search stops at the first untested subspace once its budget is spent, in
the middle of a level if need be.

The scans, the beta spin and the Q bounds test subspaces with the one set
of subspace predicates, in ``invariants``; the tests check it against a
brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from math import comb
from operator import mul

from .core import NLieAlgebra
from .errors import InvalidParameterError, UnsupportedRequestError
from .fields import GF, QQ, is_prime
from .invariants import (
    abelian_ideal,
    abelian_subalgebra,
    center,
    commute,
    derived_algebra,
    ideal,
    image,
)
from .linalg import (
    Subspace,
    minor_det,
    null_basis,
    reduce_vector,
    rref,
    subspace_from_rref_rows,
)

DEFAULT_BUDGET = 10_000_000


def gaussian_binomial(m: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _profile_free_positions(m, profile):
    pset = set(profile)
    pos = []
    for r, c in enumerate(profile):
        for j in range(c + 1, m):
            if j not in pset:
                pos.append((r, j))
    return pos


def _containing_solutions(m, profile, free, z_basis, p):
    """(x0, D): the free entries x (listed as ``free``) of the subspaces with
    pivot ``profile`` that contain span(z_basis) are x0 + span(D), with D in
    RREF and x0 zero at its pivots.  They solve sum_r z[c_r] x(r, j) = z[j],
    one equation for each z and each column j off the profile.  When the
    profile holds the pivots of the RREF ``z_basis`` these are consistent:
    each equation that is not 0 = 0 has an unknown x(r, j), with c_r the
    pivot of its z, that no other equation holds."""
    nfree = len(free)
    index = {pos: f for f, pos in enumerate(free)}
    eqs = []
    for z in z_basis:
        for j in range(m):
            if j not in profile:
                row = [0] * (nfree + 1)
                for r, c in enumerate(profile):
                    if c < j and z[c]:
                        row[index[r, j]] = z[c]
                row[nfree] = z[j]
                eqs.append(row)
    pivots = rref(eqs, nfree, p)
    x0 = [0] * nfree
    for row, c in zip(eqs, pivots):
        x0[c] = row[nfree]
    directions = null_basis(eqs, pivots, nfree, p)
    x0 = reduce_vector(directions, rref(directions, nfree, p), x0, p)
    return x0, directions


def _profile_start(m, profile, z_basis, p):
    """(RREF rows, free positions, D) of the first subspace of pivot
    ``profile`` that contains span(z_basis), in odometer order: its free
    entries are x0, those of the others x0 + t.D (``_containing_solutions``)."""
    free = _profile_free_positions(m, profile)
    base = [[0] * m for _ in profile]
    for r, c in enumerate(profile):
        base[r][c] = 1
    x0, directions = _containing_solutions(m, profile, free, z_basis, p)
    for (r, j), c in zip(free, x0):
        base[r][j] = c
    return base, free, directions


def walk_subspaces(m, k, p, containing=None):
    """(RREF rows, pivot profile) of every k-dimensional subspace of GF(p)^m
    that contains the subspace ``containing`` (when given), in canonical
    order: profiles lexicographic, free entries in odometer order.  The rows
    are lists the walk goes on to change: read them, or copy them, before
    the next step.

    A profile that misses a pivot of Z holds no subspace containing Z and
    is skipped.  Otherwise the free entries are x0 + t.D (see
    ``_containing_solutions``): as D is in RREF and x0 is zero at its
    pivots, the lexicographic order of t is the odometer order of the free
    entries, so an odometer over t adds one row of D per digit it moves (a
    wrap too, as p.d = 0).  Without Z there are no equations: D is the unit
    vectors and x0 = 0."""
    z_basis = containing.basis if containing is not None else ()
    z_pivots = set(containing.pivots) if containing is not None else set()
    for profile in combinations(range(m), k):
        if not z_pivots <= set(profile):
            continue
        base, free, directions = _profile_start(m, profile, z_basis, p)
        steps = [[(r, j, c) for (r, j), c in zip(free, d) if c] for d in directions]
        digits = [0] * len(steps)
        i = 0  # the odometer digit that moved last; -1 once all of them wrapped
        while i >= 0:
            yield base, profile
            i = len(steps) - 1
            while i >= 0:
                for r, j, c in steps[i]:
                    base[r][j] = (base[r][j] + c) % p
                digits[i] += 1
                if digits[i] < p:
                    break
                digits[i] = 0
                i -= 1


def walk_within(W, k):
    """(RREF rows, pivots) of each k-dimensional subspace of the subspace W, in
    the order of ``walk_subspaces`` over the whole space (on W's RREF basis, a
    subspace's entries at W's pivots are its coordinates), as new lists."""
    p, columns = W.field.p, list(zip(*W.basis))
    for coeffs, profile in walk_subspaces(W.dim, k, p):
        yield ([[sum(map(mul, row, col)) % p for col in columns] for row in coeffs],
               [W.pivots[q] for q in profile])


def enumerate_subspaces(m: int, k: int, p: int):
    """Yield every k-dimensional subspace of GF(p)^m exactly once, canonically ordered."""
    if not is_prime(p):
        raise InvalidParameterError(f"p must be prime, got {p}")
    if not (0 <= k <= m):
        raise InvalidParameterError(f"k must be in 0..{m}, got {k}")
    fld = GF(p)
    for rows, profile in walk_subspaces(m, k, p):
        yield subspace_from_rref_rows(fld, m, rows, profile)


def _scan_down(L, top, budget, notes):
    """Alpha by a scan down from ``top``, the alpha bound of
    ``_derived_bounds``: the largest k with an abelian k-dimensional
    subalgebra; returns (k or None when the budget stopped it, the
    canonically first witness or None at k = 0, the subspaces tested).

    The scan tests only the subspaces that contain the centre Z (see the
    module docstring), each charged to ``budget``; it stops at the first
    untested one once the budget is spent.  Z itself is abelian, so the scan
    hits at level dim Z at the latest."""
    z = center(L)
    tested = 0
    for k in range(top, z.dim - 1, -1):
        for rows, profile in walk_subspaces(L.dim, k, L.field.p, z):
            if tested >= budget:
                notes.append(f"alpha scan stopped in dimension {k} after {tested} "
                             f"subspaces: budget {budget}")
                return None, None, tested
            tested += 1
            # S = Z + span(its rows off Z's pivots) and Z is central: only those rows' brackets count
            if abelian_subalgebra(L, [r for r, c in zip(rows, profile) if c not in z.pivots], ()):
                witness = subspace_from_rref_rows(L.field, L.dim, rows, profile) if k else None
                return k, witness, tested


def _upper_bounds(L: NLieAlgebra) -> tuple:
    """Universal bounds (alpha, beta): dim if L is abelian; else dim - 1,
    and for beta dim - 1 at arity 2 (affine(2) attains it) or dim - 2 at
    arity >= 3 (with I of codimension 1, every bracket has two arguments in
    I, so an abelian ideal I would make L abelian)."""
    m = L.dim
    if not L.entries:
        return m, m
    return m - 1, m - 1 if L.arity == 2 else m - 2


def _derived_bounds(L: NLieAlgebra) -> tuple:
    """Bounds (alpha, beta), the largest k allowed (beta's within
    ``_upper_bounds``) by d = dim [L, .., L], z = dim Z, m = dim L and the
    arity n, in every characteristic and without the fundamental identity.
    An abelian subalgebra S of dim k containing Z gives d <= C(m - z, n) -
    C(k - z, n): in a basis through Z, then S, then a complement, a basis
    bracket vanishes when an argument is central or all lie in S.  An abelian
    ideal J of dim k containing Z gives d <= min(k, (k - z) C(m - k, n - 1))
    + C(m - k, n): a bracket with two arguments in J vanishes, and one with
    one argument in J off Z lies in J (k = z passes; at arity m - 1, k <= 2)."""
    m, n, z = L.dim, L.arity, center(L).dim
    d = derived_algebra(L).dim
    alpha = max(k for k in range(z, m + 1) if comb(k - z, n) <= comb(m - z, n) - d)
    beta = max(k for k in range(z, _upper_bounds(L)[1] + 1)
               if d <= min(k, (k - z) * comb(m - k, n - 1)) + comb(m - k, n))
    return alpha, beta


def _fp_constraints(by_y2, vectors, p, m):
    """Rows of the linear conditions [v, u, e_y] = 0 on v, for each u of
    ``vectors`` and each y of ``L.maps[2]`` (given as its values)."""
    rows = []
    for u in vectors:
        for contribs in by_y2:
            block = {}  # target coordinate -> its row of coefficients of v
            for (c0, c1), sparse in contribs:
                a, b = u[c1], u[c0]  # det(v, u; c0, c1) = v[c0] u[c1] - v[c1] u[c0]
                if a or b:
                    for tt, cc in sparse:
                        row = block.setdefault(tt, [0] * m)
                        row[c0] = (row[c0] + a * cc) % p
                        row[c1] = (row[c1] - b * cc) % p
            rows += block.values()
    return rows


def _fp_trace_rows(L):
    """RREF rows and pivots of the linear conditions tr([v, ., e_y'] o M) = 0
    on v, one for each y' of ``L.maps[2]`` and each M in {identity} and the
    operators [., e_y] of ``L.operators``.  Every abelian ideal J lies in
    their kernel T: for v in J, R = [v, ., e_y'] maps L into J and J to 0,
    and M maps J into J, so (R o M)^2 = 0 and its trace is 0, in every
    characteristic and whether or not the fundamental identity holds.  M is
    read by its nonzero rows, as in ``NLieAlgebra.operators``: the identity
    is {i: unit row i}."""
    p, m = L.field.p, L.dim
    identity = {i: tuple(int(j == i) for j in range(m)) for i in range(m)}
    rows = []
    for contribs in L.maps[2].values():
        for op in (identity,) + L.operators:
            # [e_c0, e_c1, e_y'] = sum cc e_tt puts cc at (tt, c1) of R(e_c0) and
            # -cc at (tt, c0) of R(e_c1); tr(R o M) = sum R(i, j) M(j, i)
            row = [0] * m
            for (c0, c1), sparse in contribs:
                if c1 in op:
                    m1 = op[c1]
                    for tt, cc in sparse:
                        row[c0] += cc * m1[tt]
                if c0 in op:
                    m0 = op[c0]
                    for tt, cc in sparse:
                        row[c1] -= cc * m0[tt]
            row = [x % p for x in row]
            if any(row):
                rows.append(row)
    pivots = rref(rows, m, p)
    return rows, pivots


def _fp_points(basis, p):
    """One nonzero vector of each line of span(basis): the first nonzero
    coefficient is 1, in a fixed order."""
    for j, head in enumerate(basis):
        tail = basis[j + 1:]
        for coeffs in product(range(p), repeat=len(tail)):
            v = head
            for c, row in zip(coeffs, tail):
                if c:
                    v = [(x + c * y) % p for x, y in zip(v, row)]
            yield v


def _fp_spin(L, rows, pivots, cons, v, limit):
    """Ideal closure of the ideal span(rows) + <v>, spun under the operators
    [., e_y] of ``L.maps[1]``: (RREF rows, pivots, the new vectors), or None
    as soon as a new vector leaves K = {x : cons . x = 0}, two new vectors
    fail to commute, or the dimension would pass ``limit``.  K is K(I) n T
    (see ``_beta_search``), which is not an ideal in general, so the spin
    can leave it; then no abelian ideal contains span(rows) + <v>, as every
    one lies in K and contains the closure."""
    p, m = L.field.p, L.dim
    by_y2 = L.maps[2].values()
    rows, pivots = [list(r) for r in rows], list(pivots)
    new = []

    def adjoin(w):
        w = reduce_vector(rows, pivots, w, p)
        c = next((j for j, x in enumerate(w) if x), None)
        if c is None:
            return True
        if (len(rows) == limit
                or any(sum(a * b for a, b in zip(row, w)) % p for row in cons)
                or not all(commute(by_y2, u, w, p, m) for u in new)):
            return False
        inv = pow(w[c], p - 2, p)
        w = [x * inv % p for x in w]
        rows.append(w)
        pivots.append(c)
        new.append(w)
        return True

    if not adjoin(v):
        return None
    for w in new:  # grows while it is read: every new vector is spun in turn
        for contribs in L.maps[1].values():
            img = image(contribs, w, p, m)
            if img is not None and not adjoin(img):
                return None
    return rows, rref(rows, m, p), new


def _fp_kernel_in(basis, images, p):
    """RREF rows of the vectors sum a_q basis[q] with sum a_q images[q] = 0,
    for ``basis`` in RREF (so the map from the a to the vectors keeps RREF)."""
    k = len(basis)
    rows = [list(col) for col in zip(*images) if any(col)]
    coeffs = null_basis(rows, rref(rows, k, p), k, p)
    rref(coeffs, k, p)
    return [[sum(map(mul, a, col)) % p for col in zip(*basis)] for a in coeffs]


def _fp_admissible(L, rows, pivots, quotient, derived, derived_pivots, drawn):
    """The lines of (K(I) n T)/I, given by its RREF basis ``quotient``, that
    can give a child of the ideal I = span(rows) and are not in ``drawn``:
    first those of ((D + I) n W)/I, then the others of (N(I) n W)/I, with
    N(I) = {v : [v, e_y] in I for every y}.  Each set is the kernel of a map
    read off the images of the basis (reduced against (D + I)/I, or each
    [q, e_y] against I)."""
    p, m = L.field.p, L.dim
    spun = _fp_kernel_in(
        quotient, [reduce_vector(derived, derived_pivots, q, p) for q in quotient], p)
    zero = [0] * m
    fixed = _fp_kernel_in(quotient, [
        list(chain.from_iterable(reduce_vector(rows, pivots, image(contribs, q, p, m) or zero, p)
                                 for contribs in L.maps[1].values()))
        for q in quotient], p)
    spun_pivots = [next(j for j, x in enumerate(row) if x) for row in spun]
    others = (v for v in _fp_points(fixed, p) if any(reduce_vector(spun, spun_pivots, v, p)))
    return (v for v in chain(_fp_points(spun, p), others) if tuple(v) not in drawn)


def _first_rows(rows, quotient, profile, m, p):
    """RREF rows of the first subspace of pivots ``profile`` in the order of
    ``walk_subspaces`` between I = span(rows), in RREF, and W = I +
    span(quotient).  I's pivots are among W's, and on W's RREF basis a
    subspace's coordinates are its entries at W's pivots, so it is the first
    subspace of that profile above I's coordinates, in the order
    ``walk_within`` keeps."""
    within = list(rows) + quotient
    within_pivots = rref(within, m, p)
    index = {c: q for q, c in enumerate(within_pivots)}
    coords = [[row[c] for c in within_pivots] for row in rows]
    first = _profile_start(len(within), [index[c] for c in profile], coords, p)[0]
    columns = list(zip(*within))
    return tuple(tuple(sum(map(mul, r, col)) % p for col in columns) for r in first)


def _beta_search(L, limit, budget, spent, notes, witnesses=True):
    """Largest abelian ideal by branch and bound from the centre Z; returns
    (beta or None when the budget stopped it, the canonically first witness
    or None at beta = 0 or without ``witnesses``, the tests made).

    A node is an abelian ideal I containing Z, kept with the RREF rows
    ``cons`` of the conditions that cut out W = K(I) n T, where K(I) = {v :
    [v, I, L, .., L] = 0} and T is the kernel of ``_fp_trace_rows``; every
    abelian ideal containing I lies in both.  The root is Z with the trace
    rows alone, as K(Z) = L.  No abelian ideal is larger than ``limit``, the
    beta bound of ``_derived_bounds``: a spin past it is given up, a child
    that reaches it is a leaf, and where it is dim Z no line is tried.  So
    no abelian ideal below I is larger than min(dim W, limit), the bound of
    the branch.  Each line <v> of W/I gives at most one child: the closure
    of I + <v>, spun, if v lies in D + I, else I + <v> if every [v, e_y]
    lies in I (see the module docstring).  Three rules decide a node on W;
    none loses an abelian ideal:

    1. When W is within ``limit`` and larger than I, one test checks W
       itself: the representatives of W/I commute and map into W (I is
       abelian and W lies in K(I), so that makes W an abelian ideal).  If
       they do, W holds every abelian ideal below I and is the one the
       branch can give; if not, each of those is a proper subspace of W and
       the bound falls to dim W - 1.
    2. With ``witnesses``, a branch whose bound equals the best dimension
       is pruned once the best's key (pivots, rows) is no greater than that
       of the first subspace of ``walk_subspaces`` of that dimension between
       I and W (``_first_rows``): every abelian ideal below I of that
       dimension lies between them, the walk's keys strictly increase, and
       a tie replaces the best only with a smaller key.
    3. Once a line outside (D + I)/I fails its test, the lines left are
       drawn only from ((D + I) n W)/I and (N(I) n W)/I
       (``_fp_admissible``): a line in neither lies outside D + I and has an
       image outside I, so it would fail the same test.

    The test of rule 1 and each line tried count one against what
    ``budget`` leaves after ``spent``; a line that is not tried is not
    counted, and a child met before is not expanded again.  With
    ``witnesses`` a branch is also pruned when its bound is below the best
    dimension found, so the canonically first abelian ideal of the largest
    dimension is kept.  Without them only the value is sought: a branch is
    pruned unless its bound exceeds the best dimension found, and a child is
    expanded only when dim K(child) n T does, so the search returns as soon
    as the best reaches ``limit``.
    """
    p, m = L.field.p, L.dim
    by_y2 = L.maps[2].values()
    z = center(L)
    best = (z.dim, z.pivots, z.basis)  # dimension, then the scan's order key
    gain = 0 if witnesses else 1  # how far a branch's bound must pass best
    seen = set()
    tried = 0

    def expand(rows, pivots, cons, cons_pivots):
        """False when the budget stopped the search below this node."""
        nonlocal best, tried
        kernel = (reduce_vector(rows, pivots, x, p) for x in null_basis(cons, cons_pivots, m, p))
        quotient = [r for r in kernel if any(r)]
        quotient_pivots = rref(quotient, m, p)  # W/I
        derived = [reduce_vector(rows, pivots, d, p) for d in L.derived.basis]
        derived_pivots = rref(derived, m, p)  # (D + I)/I, empty when D lies in I
        bound, floor = min(m - len(cons), limit), None

        def pruned():
            """No abelian ideal below I can replace the best."""
            nonlocal floor
            if bound < best[0] + gain:
                return True
            if gain or bound > best[0]:
                return False
            if floor is None:  # the first key of the walk of the bound's level from I to W
                # its pivots: I's, then the first of W's others (those of W/I)
                floor = (tuple(sorted(chain(pivots, quotient_pivots[:bound - len(rows)]))),)
            if best[1] == floor[0] and len(floor) == 1:  # the rows decide
                floor += (_first_rows(rows, quotient, floor[0], m, p),)
            return best[1:] <= floor

        if quotient and bound == m - len(cons):  # rule 1: W itself
            if pruned():
                return True
            if spent + tried >= budget:
                return False
            tried += 1
            within = list(rows) + quotient  # I is abelian and W lies in K(I): W/I decides
            if (all(commute(by_y2, u, v, p, m) for u, v in combinations(quotient, 2))
                    and ideal(L, within, list(pivots) + quotient_pivots, quotient)):
                key = (tuple(rref(within, m, p)), tuple(map(tuple, within)))
                if len(within) > best[0] or (len(within) == best[0] and key < best[1:]):
                    best = (len(within),) + key
                return True
            bound, floor = bound - 1, None
        # drawn: the lines tried before rule 3, which applies only where D is not in I
        lines, drawn = _fp_points(quotient, p), set() if derived else None
        while not pruned():
            v = next(lines, None)
            if v is None:
                return True
            if spent + tried >= budget:
                return False
            tried += 1
            if drawn is not None:
                drawn.add(tuple(v))
            if not any(reduce_vector(derived, derived_pivots, v, p)):
                closure = _fp_spin(L, rows, pivots, cons, v, limit)
                if closure is None:
                    continue
                child, child_pivots, new = closure
            elif drawn is not None and not ideal(L, rows, pivots, (v,)):
                lines = _fp_admissible(L, rows, pivots, quotient, derived, derived_pivots, drawn)
                drawn = None  # rule 3: every line left can give a child
                continue
            else:  # an abelian ideal, so within ``limit``
                inv = pow(next(x for x in v if x), p - 2, p)
                new = [[x * inv % p for x in v]]
                child = list(rows) + new
                child_pivots = rref(child, m, p)
            key = (tuple(child_pivots), tuple(map(tuple, child)))
            if key in seen:
                continue
            seen.add(key)
            if len(child) > best[0] or (len(child) == best[0] and key < best[1:]):
                best = (len(child),) + key
            if len(child) >= limit:  # no abelian ideal is larger: a leaf
                continue
            child_cons = cons + _fp_constraints(by_y2, new, p, m)
            child_cons_pivots = rref(child_cons, m, p)
            dim_k = m - len(child_cons_pivots)
            if (dim_k > len(child) and dim_k >= best[0] + gain
                    and not expand(child, child_pivots, child_cons, child_cons_pivots)):
                return False
        return True

    if limit > z.dim and not expand(z.basis, z.pivots, *_fp_trace_rows(L)):
        notes.append(f"beta search stopped after {tried} candidate ideals: budget {budget}")
        return None, None, tried
    k, pivots, rows = best
    witness = subspace_from_rref_rows(L.field, m, rows, pivots) if k and witnesses else None
    return k, witness, tried


@dataclass(frozen=True)
class AlphaBetaResult:
    """Maximal abelian subalgebra/ideal dimensions with canonical witnesses."""

    alpha: int | None
    beta: int | None
    alpha_witness: Subspace | None
    beta_witness: Subspace | None
    mode: str                     # "exact-fp(p)" or "lower-bound-q"
    p: int | None
    subspaces_scanned: int
    alpha_exact: bool
    beta_exact: bool
    alpha_upper: int | None = None
    beta_upper: int | None = None
    notes: tuple = ()

    @property
    def complete(self) -> bool:
        return self.alpha_exact and self.beta_exact

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "alpha_witness": self.alpha_witness and self.alpha_witness.to_dict(),
            "beta_witness": self.beta_witness and self.beta_witness.to_dict(),
            "mode": self.mode,
            "p": self.p,
            "subspaces_scanned": self.subspaces_scanned,
            "alpha_exact": self.alpha_exact,
            "beta_exact": self.beta_exact,
            "alpha_upper": self.alpha_upper,
            "beta_upper": self.beta_upper,
            "notes": list(self.notes),
        }


def alpha_beta_exact_fp(L: NLieAlgebra, *, budget: int = DEFAULT_BUDGET,
                        compute: str = "both", witnesses: bool = True) -> AlphaBetaResult:
    """Exact alpha by a downward scan and beta by branch and bound over GF(p).

    Each witness is the canonically first subspace of maximal dimension.
    With ``witnesses=False`` only the values are computed and both witnesses
    are None: the beta search then skips the tie-break among the abelian
    ideals of the largest dimension and stops at the beta bound (see
    ``_beta_search``).  ``subspaces_scanned`` counts the work, and the budget
    bounds it: the subspaces the alpha scan tests (those that contain the
    centre) plus the candidate lines and whole kernels the beta search
    tests, which gets what alpha left.  A search stops at the first test
    past the budget; the value it stopped is None, reported inexact, and the
    note names where it stopped.
    """
    if L.field.p is None:
        raise UnsupportedRequestError(
            "exact alpha/beta requires GF(p); use abelian_bounds_q over Q")
    if compute not in ("both", "alpha", "beta"):
        raise InvalidParameterError(f"bad compute selector: {compute}")
    p = L.field.p
    m = L.dim
    alpha_upper, beta_upper = _upper_bounds(L)
    if not L.entries:
        fullspace = L.full if witnesses else None
        return AlphaBetaResult(m, m, fullspace, fullspace, f"exact-fp({p})", p, 0,
                               True, True, alpha_upper, beta_upper)

    notes = []
    alpha = beta = alpha_w = beta_w = None
    scanned = 0
    alpha_top, beta_limit = _derived_bounds(L)
    if compute in ("both", "alpha"):
        alpha, alpha_w, scanned = _scan_down(L, alpha_top, budget, notes)
        if not witnesses:
            alpha_w = None
    if compute in ("both", "beta"):
        beta, beta_w, tried = _beta_search(L, beta_limit, budget, scanned, notes, witnesses)
        scanned += tried
    return AlphaBetaResult(alpha, beta, alpha_w, beta_w, f"exact-fp({p})", p,
                           scanned, alpha is not None, beta is not None,
                           alpha_upper=alpha_upper, beta_upper=beta_upper,
                           notes=tuple(notes))


# ---------------------------------------------------------------------------
# certified lower bounds over Q


def _grow_abelian(L: NLieAlgebra, rows: tuple, pivots: tuple, memo: dict) -> tuple:
    """Deterministic greedy growth of an abelian subalgebra containing S, of
    RREF ``rows`` and ``pivots``; returns the (rows, pivots) of its end.

    While there is one, adjoins the first RREF basis vector of K(S) = {v :
    [v, s_1, .., s_{n-1}] = 0 for all s_j in S} outside S.  The conditions
    of an (n - 1)-tuple s are the rows of sum_y det(s; y) [., e_y], over the
    y of ``L.maps[1]`` and ``L.operators`` (by multilinearity).  K(S)
    depends on S alone, so a step adds only the conditions of the tuples
    that contain the new vector; and so does the end of the growth, so
    ``memo`` maps the rows of each subspace met (a Fraction equals and
    hashes as its int) to its end, and a later seed stops at the first one.
    """
    m, n, zero = L.dim, L.arity, (0,) * L.dim
    operators = list(zip(L.maps[1], L.operators))
    path = []
    cons = []  # RREF rows of the conditions on v met so far
    new = combinations(rows, n - 1)
    final = memo.get(rows)
    while final is None:
        path.append(rows)
        for s in new:
            block = {}  # r -> the coefficients of v in coordinate r of [v, s]
            for y, op in operators:
                d = minor_det(s, y)
                for r, row in op.items() if d else ():
                    block[r] = [a + d * x for a, x in zip(block.get(r, zero), row)]
            cons += block.values()
        cons_pivots = rref(cons, m)
        kernel = null_basis(cons, cons_pivots, m)
        rref(kernel, m)  # K(S) in its canonical basis
        v = next((x for x in kernel if any(reduce_vector(rows, pivots, x))), None)
        if v is None:
            final = (rows, pivots)
        else:
            new = [s + (v,) for s in combinations(rows, n - 2)]
            grown = list(rows) + [v]
            pivots = tuple(rref(grown, m))
            rows = tuple(map(tuple, grown))
            final = memo.get(rows)
    for basis in path:
        memo[basis] = final
    return final


def abelian_bounds_q(L: NLieAlgebra) -> AlphaBetaResult:
    """Certified lower bounds for alpha/beta over Q (not tight in general).

    alpha: greedy growth seeded with the center and with the small coordinate
    spans.  beta: the grown subspaces, all coordinate-subset spans and the
    center, filtered through the abelian-ideal classifier.  Each candidate is
    its RREF (rows, pivots); only the witnesses become ``Subspace``s.
    """
    if L.field != QQ:
        raise UnsupportedRequestError("lower-bound search is the Q mode")
    m = L.dim
    z = center(L)
    unit = [tuple(int(j == i) for j in range(m)) for i in range(m)]

    def coordinate(ranks):  # (rows, pivots) of the coordinate spans of each rank in turn
        return ((tuple(unit[i] for i in subset), subset)
                for r in ranks for subset in combinations(range(m), r))

    seeds = [(z.basis, z.pivots), *coordinate((1, 2))]
    memo = {}
    grown_list = [_grow_abelian(L, rows, pivots, memo) for rows, pivots in seeds
                  if abelian_subalgebra(L, rows, pivots)]  # z at least
    best_alpha = max(grown_list, key=lambda grown: len(grown[0]))  # the first largest

    # the candidates: z, the grown subspaces and the 2^m - 1 coordinate spans by
    # dimension, each made only when it could beat the best; a repeated
    # candidate cannot win again: test each basis once
    best_beta = ((), ())
    coordinates = coordinate(r for r in range(1, m + 1) if r > len(best_beta[0]))
    tested = set()
    for rows, pivots in chain(seeds[:1], grown_list, coordinates):
        if len(rows) > len(best_beta[0]) and rows not in tested:
            tested.add(rows)
            if abelian_ideal(L, rows, pivots):
                best_beta = (rows, pivots)

    alpha_upper, beta_upper = _upper_bounds(L)
    alpha_w, beta_w = (subspace_from_rref_rows(L.field, m, *best) if best[0] else None
                       for best in (best_alpha, best_beta))
    return AlphaBetaResult(
        alpha=len(best_alpha[0]),
        beta=len(best_beta[0]),
        alpha_witness=alpha_w,
        beta_witness=beta_w,
        mode="lower-bound-q",
        p=None,
        subspaces_scanned=len(seeds) + 1 + len(grown_list) + 2 ** m - 1,
        alpha_exact=False,
        beta_exact=False,
        alpha_upper=alpha_upper,
        beta_upper=beta_upper,
        notes=("lower bounds only; exact maxima over Q are not computed",),
    )


def reduce_mod_p(L: NLieAlgebra, p: int) -> NLieAlgebra:
    """Entry-wise reduction of a Q-algebra mod p; denominators must be units."""
    if L.field.p is not None:
        raise InvalidParameterError("algebra is already over a prime field")
    fld = GF(p)
    entries = []
    for key, val in L.entries:
        vec = []
        for c in val:
            if c.denominator % p == 0:
                raise InvalidParameterError(
                    f"p={p} divides a structure-constant denominator ({c})")
            vec.append((c.numerator * pow(c.denominator, p - 2, p)) % p)
        if any(vec):
            entries.append((key, tuple(vec)))
    # reduction preserves the identity: every instance is an integer polynomial
    # relation among the constants
    return NLieAlgebra(fld, L.arity, L.dim, tuple(sorted(entries)),
                       fi_checked=L.fi_checked, labels=L.labels)
