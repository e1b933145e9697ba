"""Constructions and the catalog of classified families.

Constructions: the binary algebra associated to a ternary one at a vector w
(``[x,y]_0 = [x,y,w]``), the one-point trivial extension of a Lie algebra to
a ternary algebra, direct sums, and semidirect sums with the simple
4-dimensional algebra.  The catalog exposes every classified family under a
stable id; builders emit exact tables and record whether the fundamental
identity holds (``fi_checked``).

Catalog ids: L21-b1, L21-b2, L21-c1, L21-c2, L21-c3, L21-d(r), A(n),
T34-a1, T34-a2, T35-b1..T35-b6, T43-c1, T43-c2, T43-c3, EX31, EX32-1,
EX32-2, EX33, EX41, EX42, T44-3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .core import (
    NLieAlgebra,
    bracket,
    check_fundamental_identity,
    make_algebra,
    require_arity,
    with_fi_checked,
)
from .errors import FundamentalIdentityError, InvalidParameterError
from .fields import QQ, Field, same_field
from .invariants import (
    brackets_within,
    full_space,
    operators_generate_all,
    s_derived_series,
)
from .linalg import Subspace, subspace_from_rref_rows, validate_vector
from .search import alpha_beta_exact_fp, reduce_mod_p, walk_within


# ---------------------------------------------------------------------------
# constructions


def associated_lie(L: NLieAlgebra, w) -> NLieAlgebra:
    """Binary algebra on the same space with [x,y]_0 = [x,y,w]; Jacobi asserted."""
    require_arity(L, 3, "associated binary algebra")
    f = L.field
    w = validate_vector(f, L.dim, w)
    entries = {}
    for i, j in combinations(range(L.dim), 2):
        ei = tuple(f.one if t == i else f.zero for t in range(L.dim))
        ej = tuple(f.one if t == j else f.zero for t in range(L.dim))
        entries[(i + 1, j + 1)] = bracket(L, (ei, ej, w))
    out = make_algebra(f, 2, L.dim, entries, labels=L.labels)
    return with_fi_checked(out)


def trivial_extension(J0: NLieAlgebra) -> NLieAlgebra:
    """Adjoin w to a Lie algebra: [x,y,w] = [x,y]_0, inner triple brackets zero."""
    require_arity(J0, 2, "trivial extension")
    report = check_fundamental_identity(J0)
    if not report.holds:
        v = report.violations[0]
        raise FundamentalIdentityError(
            f"input fails the Jacobi identity at x={v.x_indices}, y={v.y_indices}",
            report=report)
    d = J0.dim
    f = J0.field
    entries = {}
    for (i, j), val in J0.entries:
        entries[(i + 1, j + 1, d + 1)] = tuple(val) + (f.zero,)
    out = make_algebra(f, 3, d + 1, entries)
    return with_fi_checked(out)


def direct_sum(L1: NLieAlgebra, L2: NLieAlgebra) -> NLieAlgebra:
    """Block sum with vanishing cross brackets; each summand embeds as an ideal."""
    same_field(L1.field, L2.field)
    if L1.arity != L2.arity:
        raise InvalidParameterError("direct sum requires equal arities")
    f = L1.field
    m1, m2 = L1.dim, L2.dim
    entries = {}
    for key, val in L1.entries:
        entries[tuple(i + 1 for i in key)] = tuple(val) + (f.zero,) * m2
    for key, val in L2.entries:
        entries[tuple(i + 1 + m1 for i in key)] = (f.zero,) * m1 + tuple(val)
    out = make_algebra(f, L1.arity, m1 + m2, entries)
    report = check_fundamental_identity(out)
    return replace(out, fi_checked=report.holds)


def semidirect_A4(field: Field, m: int, action=None) -> NLieAlgebra:
    """Simple 4-dimensional block acting on an abelian ideal spanned by e5..em.

    ``action`` maps 1-based tuples (i, j, k) with i < j <= 4 < k <= m to sparse
    values supported on 5..m.  Brackets with two or more arguments from the
    abelian part are structurally zero.  Candidates violating the fundamental
    identity are rejected, not repaired.
    """
    if m < 4:
        raise InvalidParameterError(f"dimension must be >= 4, got {m}")
    entries = {}
    for key, val in _a4_table().items():
        entries[key] = {t: field.validate(c) for t, c in val.items()}
    for key, val in (action or {}).items():
        key = tuple(int(i) for i in key)
        if len(key) != 3 or not (1 <= key[0] < key[1] <= 4 < key[2] <= m):
            raise InvalidParameterError(
                f"action tuple {key} must satisfy i < j <= 4 < k <= {m}")
        if key in entries:
            raise InvalidParameterError(f"duplicate action tuple {key}")
        sval = {}
        for t, c in (val.items() if isinstance(val, dict) else enumerate(val, 1)):
            t = int(t)
            if not (5 <= t <= m):
                raise InvalidParameterError(
                    f"action value of {key} must lie in the abelian part (5..{m})")
            sval[t] = field.validate(c)
        entries[key] = sval
    out = make_algebra(field, 3, m, entries)
    return with_fi_checked(out)


# ---------------------------------------------------------------------------
# catalog families


def _a4_table():
    return {(2, 3, 4): {1: 1}, (1, 3, 4): {2: 1},
            (1, 2, 4): {3: 1}, (1, 2, 3): {4: 1}}


def _require_nonzero_alpha(field, alpha, family):
    a = field.validate(alpha)
    if field.is_zero(a):
        raise InvalidParameterError(f"{family} requires a nonzero alpha parameter")
    return a


def _build_l21_b1(field, n=3):
    return make_algebra(field, n, n + 1, {tuple(range(2, n + 2)): {1: 1}})


def _build_l21_b2(field, n=3):
    return make_algebra(field, n, n + 1, {tuple(range(1, n + 1)): {1: 1}})


def _build_l21_c1(field, n=3):
    return make_algebra(field, n, n + 1, {
        tuple(range(2, n + 2)): {1: 1},
        (1,) + tuple(range(3, n + 2)): {2: 1},
    })


def _build_l21_c2(field, n=3, alpha=1):
    a = _require_nonzero_alpha(field, alpha, "L21-c2")
    return make_algebra(field, n, n + 1, {
        tuple(range(2, n + 2)): {1: a, 2: 1},
        (1,) + tuple(range(3, n + 2)): {2: 1},
    })


def _build_l21_c3(field, n=3):
    return make_algebra(field, n, n + 1, {
        (1,) + tuple(range(3, n + 2)): {1: 1},
        tuple(range(2, n + 2)): {2: 1},
    })


def _build_l21_d(field, n=3, r=None):
    if r is None:
        r = n + 1
    if not isinstance(r, int) or not (3 <= r <= n + 1):
        raise InvalidParameterError(f"L21-d(r) requires 3 <= r <= {n + 1}, got {r}")
    table = {}
    for i in range(1, r + 1):
        key = tuple(j for j in range(1, n + 2) if j != i)
        table[key] = {i: 1}
    return make_algebra(field, n, n + 1, table)


def _build_a_n(field, n=3):
    return _build_l21_d(field, n, n + 1)


def _build_t34_a1(field, m=5):
    return make_algebra(field, 3, m, {(2, m - 1, m): {1: 1}})


def _build_t34_a2(field, m=5):
    return make_algebra(field, 3, m, {(1, m - 1, m): {1: 1}})


def _build_t35_b1(field, m=6):
    return make_algebra(field, 3, m, {(3, m - 1, m): {2: 1},
                                      (4, m - 1, m): {1: 1}})


def _build_t35_b2(field, m=5):
    return make_algebra(field, 3, m, {(2, m - 1, m): {2: 1},
                                      (3, m - 1, m): {1: 1}})


def _build_t35_b3(field, m=5):
    return make_algebra(field, 3, m, {(2, m - 1, m): {1: 1},
                                      (3, m - 1, m): {2: 1}})


def _build_t35_b4(field, m=4):
    return make_algebra(field, 3, m, {(1, m - 1, m): {1: 1},
                                      (2, m - 1, m): {2: 1}})


def _build_t35_b5(field, m=4):
    return make_algebra(field, 3, m, {(1, m - 1, m): {2: 1},
                                      (2, m - 1, m): {1: 1}})


def _build_t35_b6(field, m=4, alpha=1):
    a = _require_nonzero_alpha(field, alpha, "T35-b6")
    return make_algebra(field, 3, m, {(2, m - 1, m): {1: a, 2: 1},
                                      (1, m - 1, m): {2: 1}})


def _t43_c1_tmax(m):
    return (m - 1) // 2


def _build_t43_c1(field, m=5, t=None):
    tmax = _t43_c1_tmax(m)
    if t is None:
        t = tmax
    if not isinstance(t, int) or not (1 <= t <= tmax):
        raise InvalidParameterError(
            f"T43-c1 requires pair count 1 <= t <= {tmax} for dim {m}, got {t}")
    table = {(2 * i - 1, 2 * i, m): {m: 1} for i in range(1, t + 1)}
    return make_algebra(field, 3, m, table)


def _build_t43_c2(field, m=4):
    return make_algebra(field, 3, m, {(1, 2, m): {1: 1}})


def _t43_c3_tmax(m):
    return (m - 2) // 2


def _build_t43_c3(field, m=5, t=None):
    tmax = _t43_c3_tmax(m)
    if t is None:
        t = tmax
    if not isinstance(t, int) or not (1 <= t <= tmax):
        raise InvalidParameterError(
            f"T43-c3 requires pair count 1 <= t <= {tmax} for dim {m}, got {t}")
    table = {(2 * i, 2 * i + 1, m): {1: 1} for i in range(1, t + 1)}
    return make_algebra(field, 3, m, table)


def _build_ex31(field):
    return _build_a_n(field, 3)


def _build_ex32_1(field):
    return make_algebra(field, 3, 4, {(1, 3, 4): {2: 1},
                                      (2, 3, 4): {1: 1},
                                      (1, 2, 4): {3: 1}})


def _build_ex32_2(field):
    return make_algebra(field, 3, 4, {(1, 3, 4): {1: 1},
                                      (2, 3, 4): {2: 1}})


def _build_ex33(field):
    return make_algebra(field, 3, 4, {(1, 2, 3): {4: 1}})


def _build_ex41(field):
    return make_algebra(field, 3, 5, {(1, 2, 5): {5: 1},
                                      (3, 4, 5): {5: 1}})


def _build_ex42(field, m=5):
    return make_algebra(field, 3, m, {(1, 2, i): {i - 1: 1}
                                      for i in range(4, m + 1)})


def _build_t44_3(field, m=6, action=None):
    return semidirect_A4(field, m, action)


def _require_params(family_id: str, takes: tuple, given) -> None:
    """Refuse a parameter name that the family ``family_id`` does not take."""
    extra = [name for name in given if name not in takes]
    if extra:
        raise InvalidParameterError(f"{family_id} takes {', '.join(takes) or 'no parameters'}, "
                                    f"got {', '.join(extra)}")


@dataclass(frozen=True)
class CatalogEntry:
    """Registry record: stable id, parameters, minimal dimension, builder.

    ``build`` refuses a parameter not in ``params`` and enforces ``min_dim``
    on a given dimension ``m`` or arity ``n`` (dimension n + 1); the
    builders' defaults meet it."""

    family_id: str
    summary: str
    params: tuple
    min_dim: int
    builder: object

    def build(self, field: Field = QQ, **params) -> NLieAlgebra:
        _require_params(self.family_id, self.params, params)
        for name, what, least in (("m", "dim", self.min_dim), ("n", "arity n", self.min_dim - 1)):
            v = params.get(name, least)
            if name in self.params and (not isinstance(v, int) or v < least):
                raise InvalidParameterError(
                    f"{self.family_id} requires {what} >= {least}, got {v}")
        return self.builder(field, **params)


CATALOG = {
    e.family_id: e for e in (
        CatalogEntry("L21-b1", "(n+1)-dim, arity n: [e2..e_{n+1}] = e1", ("n",), 3, _build_l21_b1),
        CatalogEntry("L21-b2", "(n+1)-dim, arity n: [e1..en] = e1", ("n",), 3, _build_l21_b2),
        CatalogEntry("L21-c1", "(n+1)-dim: [e2..e_{n+1}]=e1, [e1,e3..e_{n+1}]=e2", ("n",), 3, _build_l21_c1),
        CatalogEntry("L21-c2", "(n+1)-dim: [e2..e_{n+1}]=a*e1+e2, [e1,e3..]=e2, a != 0", ("n", "alpha"), 3, _build_l21_c2),
        CatalogEntry("L21-c3", "(n+1)-dim: [e1,e3..e_{n+1}]=e1, [e2..e_{n+1}]=e2", ("n",), 3, _build_l21_c3),
        CatalogEntry("L21-d(r)", "(n+1)-dim: [e1..^ei..e_{n+1}] = ei for i <= r, 3 <= r <= n+1", ("n", "r"), 3, _build_l21_d),
        CatalogEntry("A(n)", "simple (n+1)-dim arity-n algebra: [e1..^ei..e_{n+1}] = ei", ("n",), 3, _build_a_n),
        CatalogEntry("T34-a1", "[x2, x_{m-1}, x_m] = x1, derived dim 1, central target", ("m",), 4, _build_t34_a1),
        CatalogEntry("T34-a2", "[x1, x_{m-1}, x_m] = x1, derived dim 1, non-central", ("m",), 4, _build_t34_a2),
        CatalogEntry("T35-b1", "[x3,x_{m-1},x_m]=x2, [x4,x_{m-1},x_m]=x1", ("m",), 6, _build_t35_b1),
        CatalogEntry("T35-b2", "[x2,x_{m-1},x_m]=x2, [x3,x_{m-1},x_m]=x1", ("m",), 5, _build_t35_b2),
        CatalogEntry("T35-b3", "[x2,x_{m-1},x_m]=x1, [x3,x_{m-1},x_m]=x2", ("m",), 5, _build_t35_b3),
        CatalogEntry("T35-b4", "[x1,x_{m-1},x_m]=x1, [x2,x_{m-1},x_m]=x2", ("m",), 4, _build_t35_b4),
        CatalogEntry("T35-b5", "[x1,x_{m-1},x_m]=x2, [x2,x_{m-1},x_m]=x1", ("m",), 4, _build_t35_b5),
        CatalogEntry("T35-b6", "[x2,x_{m-1},x_m]=a*x1+x2, [x1,x_{m-1},x_m]=x2, a != 0", ("m", "alpha"), 4, _build_t35_b6),
        CatalogEntry("T43-c1", "[x_{2i-1}, x_{2i}, x_m] = x_m for i <= t", ("m", "t"), 5, _build_t43_c1),
        CatalogEntry("T43-c2", "[x1, x2, x_m] = x1", ("m",), 3, _build_t43_c2),
        CatalogEntry("T43-c3", "[x_{2i}, x_{2i+1}, x_m] = x1 for i <= t", ("m", "t"), 4, _build_t43_c3),
        CatalogEntry("EX31", "the simple 4-dimensional ternary algebra", (), 4, lambda field: _build_ex31(field)),
        CatalogEntry("EX32-1", "[x1,x3,x4]=x2, [x2,x3,x4]=x1, [x1,x2,x4]=x3", (), 4, lambda field: _build_ex32_1(field)),
        CatalogEntry("EX32-2", "[x1,x3,x4]=x1, [x2,x3,x4]=x2", (), 4, lambda field: _build_ex32_2(field)),
        CatalogEntry("EX33", "[x1,x2,x3]=x4, nilpotent", (), 4, lambda field: _build_ex33(field)),
        CatalogEntry("EX41", "[x1,x2,x5]=x5, [x3,x4,x5]=x5", (), 5, lambda field: _build_ex41(field)),
        CatalogEntry("EX42", "[x1,x2,xi]=x_{i-1} for 4 <= i <= m, nilpotent", ("m",), 4, _build_ex42),
        CatalogEntry("T44-3", "semidirect sum of the simple 4-dim block and an abelian ideal", ("m", "action"), 4, _build_t44_3),
    )
}


def _normalize_family_id(family_id: str) -> str:
    fid = family_id.strip()
    if fid in CATALOG:
        return fid
    # accept "A", "L21-d" for the parametric ids
    for key in CATALOG:
        if "(" in key and fid == key[: key.index("(")]:
            return key
    raise InvalidParameterError(f"unknown catalog family: {family_id!r}")


def catalog_build(family_id: str, field: Field = QQ, *, strict: bool = False,
                  **params) -> NLieAlgebra:
    """Build a catalog family; ``fi_checked`` records the identity check outcome.

    With ``strict=True`` a table violating the fundamental identity raises
    instead (two shipped families are known to violate it; see the docs).
    """
    entry = CATALOG[_normalize_family_id(family_id)]
    out = entry.build(field, **params)
    if out.fi_checked:
        return out
    report = check_fundamental_identity(out)
    if strict and not report.holds:
        v = report.violations[0]
        raise FundamentalIdentityError(
            f"{entry.family_id} table violates the fundamental identity "
            f"at x={v.x_indices}, y={v.y_indices}", report=report)
    return replace(out, fi_checked=report.holds)


def representative_entries(field: Field = QQ):
    """One canonical instantiation of every family, all of dimension <= 6."""
    specs = [
        ("L21-b1", {"n": 3}), ("L21-b2", {"n": 3}), ("L21-c1", {"n": 3}),
        ("L21-c2", {"n": 3, "alpha": 1}), ("L21-c3", {"n": 3}),
        ("L21-d(r)", {"n": 3, "r": 3}), ("A(n)", {"n": 3}),
        ("T34-a1", {"m": 5}), ("T34-a2", {"m": 5}),
        ("T35-b1", {"m": 6}), ("T35-b2", {"m": 5}), ("T35-b3", {"m": 5}),
        ("T35-b4", {"m": 5}), ("T35-b5", {"m": 5}), ("T35-b6", {"m": 5, "alpha": 1}),
        ("T43-c1", {"m": 5, "t": 2}), ("T43-c2", {"m": 5}), ("T43-c3", {"m": 5, "t": 1}),
        ("EX31", {}), ("EX32-1", {}), ("EX32-2", {}), ("EX33", {}),
        ("EX41", {}), ("EX42", {"m": 5}), ("T44-3", {"m": 6}),
    ]
    out = []
    for fid, params in specs:
        label = fid + (str(sorted(params.items())) if params else "")
        out.append((label, catalog_build(fid, field, **params)))
    return out


def entries_for_dims(dims, field: Field = QQ):
    """Every family instantiated at each valid dimension in ``dims``."""
    out = []
    for m in dims:
        specs = []
        if m >= 4:
            specs += [("L21-b1", {"n": m - 1}), ("L21-b2", {"n": m - 1}),
                      ("L21-c1", {"n": m - 1}), ("L21-c2", {"n": m - 1, "alpha": 1}),
                      ("L21-c3", {"n": m - 1}), ("L21-d(r)", {"n": m - 1, "r": 3}),
                      ("A(n)", {"n": m - 1})]
            specs += [("T34-a1", {"m": m}), ("T34-a2", {"m": m}),
                      ("T35-b4", {"m": m}), ("T35-b5", {"m": m}),
                      ("T35-b6", {"m": m, "alpha": 1}),
                      ("T43-c2", {"m": m}), ("EX42", {"m": m})]
            specs += [("T43-c3", {"m": m, "t": t})
                      for t in range(1, _t43_c3_tmax(m) + 1)]
        if m >= 5:
            specs += [("T35-b2", {"m": m}), ("T35-b3", {"m": m})]
            specs += [("T43-c1", {"m": m, "t": t})
                      for t in range(1, _t43_c1_tmax(m) + 1)]
            specs += [("T44-3", {"m": m})]
        if m >= 6:
            specs += [("T35-b1", {"m": m})]
        if m == 4:
            specs += [("EX31", {}), ("EX32-1", {}), ("EX32-2", {}), ("EX33", {})]
        if m == 5:
            specs += [("EX41", {})]
        for fid, params in specs:
            label = f"{fid}@m={m}" + (f" {params}" if params else "")
            out.append((label, catalog_build(fid, field, **params)))
    return out


# ---------------------------------------------------------------------------
# binary (Lie) fixtures


def _lie_from_table(field, dim, table):
    out = make_algebra(field, 2, dim, table)
    return with_fi_checked(out)


def _build_lie_abelian(field, dim=3):
    if not isinstance(dim, int) or dim < 1:
        raise InvalidParameterError(f"abelian requires dim >= 1, got {dim}")
    return with_fi_checked(make_algebra(field, 2, dim, {}))


def _build_lie_affine(field, dim=2):
    if dim != 2:
        raise InvalidParameterError("the affine family is 2-dimensional")
    return _lie_from_table(field, 2, {(1, 2): {2: 1}})


def _build_lie_heisenberg(field, dim=3):
    if dim < 3 or dim % 2 == 0:
        raise InvalidParameterError(f"Heisenberg dimension must be odd >= 3, got {dim}")
    k = (dim - 1) // 2
    return _lie_from_table(field, dim,
                           {(2 * i - 1, 2 * i): {dim: 1} for i in range(1, k + 1)})


def _build_lie_simple3(field, dim=3):
    if dim != 3:
        raise InvalidParameterError("the simple3 family is 3-dimensional")
    return _lie_from_table(field, 3, {(1, 2): {3: 1}, (1, 3): {2: 1}, (2, 3): {1: 1}})


def _triangular_pairs(n, strict):
    return [(i, j) for i in range(1, n + 1) for j in range(i if not strict else i + 1, n + 1)]


def _build_lie_triangular(field, n=3, strict=False):
    """Upper (or strictly upper) triangular n x n matrices under the commutator."""
    if not isinstance(n, int) or n < 2:
        raise InvalidParameterError(f"matrix size must be >= 2, got {n}")
    pairs = _triangular_pairs(n, strict)
    index = {pq: t + 1 for t, pq in enumerate(pairs)}
    dim = len(pairs)
    table = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            (i, j), (k, l) = pairs[a], pairs[b]
            vec = {}
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            if j == k and (i, l) in index:
                vec[index[(i, l)]] = vec.get(index[(i, l)], 0) + 1
            if l == i and (k, j) in index:
                vec[index[(k, j)]] = vec.get(index[(k, j)], 0) - 1
            vec = {t: c for t, c in vec.items() if c}
            if vec:
                table[(a + 1, b + 1)] = vec
    return _lie_from_table(field, dim, table)


@dataclass(frozen=True)
class LieCatalogEntry:
    family_id: str
    summary: str
    params: tuple
    builder: object

    def build(self, field: Field = QQ, **params) -> NLieAlgebra:
        _require_params(self.family_id, self.params, params)
        return self.builder(field, **params)


LIE_CATALOG = {
    e.family_id: e for e in (
        LieCatalogEntry("abelian", "abelian Lie algebra of a given dimension", ("dim",), _build_lie_abelian),
        LieCatalogEntry("affine", "2-dim: [y1, y2] = y2", ("dim",), _build_lie_affine),
        LieCatalogEntry("heisenberg", "odd dim: [y_{2i-1}, y_{2i}] = y_dim", ("dim",), _build_lie_heisenberg),
        LieCatalogEntry("simple3", "3-dim: [y1,y2]=y3, [y1,y3]=y2, [y2,y3]=y1", ("dim",), _build_lie_simple3),
        LieCatalogEntry("upper", "upper-triangular n x n matrices under commutator", ("n",), lambda field, n=3: _build_lie_triangular(field, n, strict=False)),
        LieCatalogEntry("strictly-upper", "strictly upper-triangular matrices under commutator", ("n",), lambda field, n=3: _build_lie_triangular(field, n, strict=True)),
    )
}


def lie_catalog_build(family_id: str, field: Field = QQ, **params) -> NLieAlgebra:
    entry = LIE_CATALOG.get(family_id.strip())
    if entry is None:
        raise InvalidParameterError(f"unknown Lie catalog family: {family_id!r}")
    return entry.build(field, **params)


# ---------------------------------------------------------------------------
# trichotomy classifier for alpha = dim - 2


@dataclass(frozen=True)
class Theorem44Verdict:
    case: str                 # "3-solvable" | "simple-A4" | "A4-semidirect" | "unknown"
    evidence: dict
    tau: Subspace | None = None
    block: Subspace | None = None

    def to_dict(self):
        return {"case": self.case, "evidence": self.evidence,
                "tau": self.tau and self.tau.to_dict(),
                "block": self.block and self.block.to_dict()}


def restrict_to_subalgebra(L: NLieAlgebra, S: Subspace) -> NLieAlgebra:
    """Structure constants of a bracket-closed subspace in its RREF basis."""
    f = L.field
    k = S.dim
    entries = {}
    for combo in combinations(range(k), L.arity):
        vecs = [S.basis[i] for i in combo]
        w = bracket(L, vecs)
        coords = S.coordinates(w)
        val = {t + 1: c for t, c in enumerate(coords) if c != f.zero}
        if val:
            entries[tuple(i + 1 for i in combo)] = val
    return make_algebra(f, L.arity, k, entries)


DEFAULT_CLASSIFY44_BUDGET = 2_000_000


def classify_theorem44(L: NLieAlgebra, *, p: int | None = None,
                       budget: int = DEFAULT_CLASSIFY44_BUDGET) -> Theorem44Verdict:
    """Trichotomy for ternary algebras: 3-solvable, simple 4-dim, or a
    semidirect sum of the simple block with an abelian ideal.

    Solvability is decided exactly over the input field, the rest over
    GF(p), evidence key ``"p"``: the input's own prime field, or the
    reduction of a Q input at ``p`` (default 2).  A 4-dimensional algebra (a
    perfect L, or a semidirect block) is simple when its operators generate
    M_4 mod p (``operators_generate_all``).  They generate no more mod p than
    over Q, so this certifies simplicity over the closure of Q; a perfect L
    that fails is not absolutely simple mod p, and gets ``unknown``.  For L
    = S + tau, S simple and tau an abelian ideal, every abelian ideal maps
    onto one of L/tau = S, which is 0: tau holds them all and is the beta
    search's witness (beta = dim L - 4).  The blocks are the 4-dimensional
    subspaces of D = [L, L, L], which holds S = [S, S, S]; a simple one meets
    tau in an abelian ideal of itself, 0.  The budget bounds the beta lines
    and the blocks tested together, each charged before it is tested;
    ``unknown`` is returned at the first test past it.
    """
    require_arity(L, 3, "trichotomy classification")
    m = L.dim

    rep = s_derived_series(L, full_space(L), 3)
    if rep.terminated_at_zero:
        return Theorem44Verdict("3-solvable", {"series_dims": list(rep.dims)})

    p_used = L.field.p or (p if p is not None else 2)
    Lp = L if L.field.p else reduce_mod_p(L, p_used)

    if m == 4 and rep.terms[1].dim == 4:  # [L, L, L] = L
        if operators_generate_all(Lp):
            return Theorem44Verdict("simple-A4", {"p": p_used, "derived_dim": 4})
        return Theorem44Verdict("unknown", {
            "reason": "dimension 4, perfect, but not absolutely simple mod p", "p": p_used})

    if m < 4:
        return Theorem44Verdict("unknown", {"reason": "not solvable and dim < 4"})

    over_budget = Theorem44Verdict("unknown", {"reason": "budget exceeded"})
    ab = alpha_beta_exact_fp(Lp, budget=budget, compute="beta")
    if ab.beta is None:
        return over_budget
    tested, tau = ab.subspaces_scanned, ab.beta_witness
    blocks = walk_within(Lp.derived, 4) if ab.beta == m - 4 else ()
    for rows, pivots in blocks:
        if tested >= budget:
            return over_budget
        tested += 1
        if brackets_within(Lp, rows, rows, pivots):
            S = subspace_from_rref_rows(Lp.field, m, rows, pivots)
            if operators_generate_all(restrict_to_subalgebra(Lp, S)):
                return Theorem44Verdict(
                    "A4-semidirect",
                    {"p": p_used, "tau_dim": m - 4, "subspaces_scanned": tested},
                    tau=tau, block=S)
    return Theorem44Verdict("unknown", {
        "reason": "no simple block + abelian ideal decomposition found mod p",
        "p": p_used, "subspaces_scanned": tested})
