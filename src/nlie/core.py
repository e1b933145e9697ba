"""n-ary Lie algebras given by totally antisymmetric structure constants.

An algebra of arity n and dimension m is stored canonically: one coefficient
vector per strictly increasing index tuple, all other values implied by the
sign rule.  Evaluation of the bracket on arbitrary vectors expands through
n x n minors, one per stored tuple, so sparse tables stay cheap.

The structure every computation on an algebra reads is built once, on first
use, and cached on the algebra: the compiled table ``maps``, the operators
[., e_y], the centre and the derived algebra [L, .., L].

Indices are 0-based internally and 1-based in every external surface
(documents, reports, CLI).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, product
from math import comb
from operator import itemgetter

from .errors import (
    DimensionMismatchError,
    FundamentalIdentityError,
    InvalidParameterError,
    ParseError,
    UnsupportedRequestError,
)
from .fields import GF, QQ, Field, same_field
from .linalg import (
    Subspace,
    full_subspace,
    minor_det,
    null_basis,
    rref,
    span,
    span_rows,
    validate_vector,
    vec_is_zero,
    zero_vector,
)

FORMAT_NAME = "nlie-v1"
SUBSPACE_FORMAT_NAME = "subspace-v1"

# The most scalars a dense basis of the whole space (m unit vectors of length
# m) may hold: m <= 3162, far above every catalog and benchmark dimension,
# and far below the m at which building it exhausts memory.
MAX_DENSE_SCALARS = 10_000_000


def require_dense(m: int, count: int, what: str) -> None:
    """Refuse, before it is built, a dense ``what`` of ``count`` vectors of length m."""
    if count * m > MAX_DENSE_SCALARS:
        raise UnsupportedRequestError(f"dim {m} is too large: the dense {what} = "
                                      f"{count * m} scalars, more than {MAX_DENSE_SCALARS}")


def sort_with_sign(indices):
    """Sorted tuple and permutation sign; sign 0 when an index repeats."""
    lst = list(indices)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return tuple(lst), 0
    return tuple(lst), sign


@dataclass(frozen=True)
class NLieAlgebra:
    """An n-Lie algebra candidate given by its canonical table.

    ``entries`` holds sorted (increasing 0-based index tuple, value tuple)
    pairs with zero values dropped.  ``fi_checked`` records a verified
    identity; it and ``labels`` take no part in equality, so two algebras
    are equal exactly when their tables are.
    """

    field: Field
    arity: int
    dim: int
    entries: tuple
    fi_checked: bool = dataclasses.field(default=False, compare=False)
    labels: tuple | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        if self.arity < 2:
            raise InvalidParameterError(f"arity must be >= 2, got {self.arity}")
        if self.dim < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {self.dim}")

    @cached_property
    def table(self) -> dict:
        return dict(self.entries)

    @cached_property
    def maps(self) -> "CompiledTable":
        return CompiledTable(self.field, self.entries)

    @cached_property
    def full(self) -> Subspace:
        """L itself, spanned by the unit vectors (see ``require_dense``)."""
        require_dense(self.dim, self.dim, "full space needs m^2")
        return full_subspace(self.field, self.dim)

    @cached_property
    def derived(self) -> Subspace:
        """[L, .., L], the span of the table's values."""
        return span_rows(self.field, self.dim, [val for _, val in self.entries])

    @cached_property
    def operators(self) -> tuple:
        """The operators [., e_y], one for each y of ``maps[1]``, each as its
        nonzero rows ``{r: row}``: row[t] is the coefficient of e_r in
        [e_t, e_y]."""
        f, m = self.field, self.dim
        ops = []
        for contribs in self.maps[1].values():
            op = {}
            for (t,), sparse in contribs:
                for r, c in sparse:
                    op.setdefault(r, [f.zero] * m)[t] = c
            ops.append({r: tuple(row) for r, row in op.items()})
        return tuple(ops)

    @cached_property
    def center(self) -> Subspace:
        """The common kernel of the operators [., e_y]."""
        f, m = self.field, self.dim
        rows = [row for op in self.operators for row in op.values()]
        if not rows:
            return self.full
        pivots = rref(rows, m, f.p)
        require_dense(m, m - len(pivots), "kernel basis needs (m - rank) * m")
        # the rows hold canonical scalars already; RREF is unique, so one
        # elimination of the null basis gives the canonical kernel
        return span_rows(f, m, null_basis(rows, pivots, m, f.p))


def _picker(positions):
    """The function key -> the tuple of its entries at ``positions``."""
    if len(positions) == 1:
        return lambda key, i=positions[0]: (key[i],)
    return itemgetter(*positions) if positions else (lambda key: ())


class CompiledTable(dict):
    """The table of one algebra compiled for evaluation, for Q and GF(p).

    ``maps[k][y]`` lists ``(cols, ((t, c), ...))`` for an increasing
    (n-k)-tuple y, such that ``[v_1..v_k, e_y] = sum det_k(v; cols) c e_t``
    over the listed items; signs are folded into the coefficients, and y
    without a nonzero bracket is absent.  ``maps[n][()]`` is the table.
    Each k is compiled on first use: all of them together hold 2^n items
    per stored tuple.
    """

    def __init__(self, field: Field, entries: tuple):
        super().__init__()
        self.field = field
        self.entries = entries

    def __missing__(self, k):
        neg = self.field.neg
        by_y = {}
        # moving the positions s (a k-subset of an increasing key) to the front
        # takes sum(s) - k(k-1)/2 transpositions, whatever the key
        n = len(self.entries[0][0]) if self.entries else 0
        splits = [(_picker(s), _picker([i for i in range(n) if i not in s]),
                   (sum(s) - k * (k - 1) // 2) % 2) for s in combinations(range(n), k)]
        for key, val in self.entries:
            sparse = [(t, c) for t, c in enumerate(val) if c]
            signed = (tuple(sparse), tuple([(t, neg(c)) for t, c in sparse]))
            for cols, y, odd in splits:
                by_y.setdefault(y(key), []).append((cols(key), signed[odd]))
        self[k] = {y: tuple(items) for y, items in by_y.items()}
        return self[k]


def require_arity(L: NLieAlgebra, n: int, what: str = "operation") -> None:
    if L.arity != n:
        raise InvalidParameterError(f"{what} requires arity {n}, got {L.arity}")


def require_subspace(L: NLieAlgebra, S: Subspace) -> None:
    same_field(L.field, S.field)
    if S.ambient_dim != L.dim:
        raise DimensionMismatchError("subspace ambient dimension mismatch")


def make_algebra(field: Field, arity: int, dim: int, entries, labels=None) -> NLieAlgebra:
    """Build an algebra from 1-based table entries.

    ``entries`` maps strictly increasing 1-based tuples either to a sparse
    ``{target_index: coefficient}`` mapping or to a dense coefficient vector.
    """
    table = {}
    for key, value in entries.items():
        key = tuple(int(i) for i in key)
        if len(key) != arity:
            raise InvalidParameterError(f"bracket tuple {key} has wrong arity")
        if any(not (1 <= i <= dim) for i in key):
            raise InvalidParameterError(f"bracket tuple {key} out of range 1..{dim}")
        if any(a >= b for a, b in zip(key, key[1:])):
            raise InvalidParameterError(f"bracket tuple {key} is not strictly increasing")
        key0 = tuple(i - 1 for i in key)
        if key0 in table:
            raise InvalidParameterError(f"duplicate bracket tuple {key}")
        if isinstance(value, dict):
            vec = [field.zero] * dim
            for t, c in value.items():
                t = int(t)
                if not (1 <= t <= dim):
                    raise InvalidParameterError(f"target index {t} out of range 1..{dim}")
                vec[t - 1] = field.validate(c)
            vec = tuple(vec)
        else:
            vec = validate_vector(field, dim, value)
        if not vec_is_zero(field, vec):
            table[key0] = vec
    lab = tuple(labels) if labels is not None else None
    return NLieAlgebra(field, arity, dim, tuple(sorted(table.items())), labels=lab)


def abelian_algebra(field: Field, arity: int, dim: int) -> NLieAlgebra:
    return NLieAlgebra(field, arity, dim, (), fi_checked=True)


def bracket_basis(L: NLieAlgebra, indices) -> tuple:
    """Bracket of basis vectors e_{i} for a 0-based index tuple in any order."""
    key, sign = sort_with_sign(indices)
    if sign == 0:
        return zero_vector(L.field, L.dim)
    val = L.table.get(key)
    if val is None:
        return zero_vector(L.field, L.dim)
    if sign == 1:
        return val
    f = L.field
    return tuple(f.neg(x) for x in val)


def bracket_rows(L: NLieAlgebra, rows, y=()):
    """``[rows..., e_y]`` for trusted raw rows and an increasing index tuple y.

    Each item's k x k minor (k = len(rows)) is written out inline for k = 1,
    2 and 3, by the formulas of ``minor_det``, which serves k = 0 and k >= 4
    (and ``Matrix.det``).
    The sum is exact and reduced mod p once at the end, so an unreduced minor
    that is a multiple of p does no harm; returns a list of scalars, or None
    when the bracket is zero.
    """
    f = L.field
    out = None
    k = len(rows)
    items = L.maps[k].get(y, ())
    # one loop per k, so that no item pays a call or a branch on k
    if k == 3:
        r0, r1, r2 = rows
        for (c0, c1, c2), sparse in items:
            d = (r0[c0] * (r1[c1] * r2[c2] - r1[c2] * r2[c1])
                 - r0[c1] * (r1[c0] * r2[c2] - r1[c2] * r2[c0])
                 + r0[c2] * (r1[c0] * r2[c1] - r1[c1] * r2[c0]))
            if d:
                out = out or [f.zero] * L.dim
                for t, c in sparse:
                    out[t] += d * c
    elif k == 1:
        (r0,) = rows
        for (c0,), sparse in items:
            d = r0[c0]
            if d:
                out = out or [f.zero] * L.dim
                for t, c in sparse:
                    out[t] += d * c
    elif k == 2:
        r0, r1 = rows
        for (c0, c1), sparse in items:
            d = r0[c0] * r1[c1] - r0[c1] * r1[c0]
            if d:
                out = out or [f.zero] * L.dim
                for t, c in sparse:
                    out[t] += d * c
    else:
        for cols, sparse in items:
            d = minor_det(rows, cols, f.p)
            if d:
                out = out or [f.zero] * L.dim
                for t, c in sparse:
                    out[t] += d * c
    if out and f.p is not None:
        out = [x % f.p for x in out]
    return out if out and any(out) else None


def bracket(L: NLieAlgebra, vectors) -> tuple:
    """Multilinear totally antisymmetric bracket of ``arity`` vectors."""
    f = L.field
    n = L.arity
    if len(vectors) != n:
        raise DimensionMismatchError(f"bracket needs {n} arguments, got {len(vectors)}")
    w = bracket_rows(L, [validate_vector(f, L.dim, v) for v in vectors])
    return zero_vector(f, L.dim) if w is None else tuple(w)


def bracket_subspaces(L: NLieAlgebra, subspaces) -> Subspace:
    """Span of brackets over all basis tuples of the given subspaces.

    Whole-space arguments contribute the basis tuples y of ``L.maps``, so
    only the proper subspaces are enumerated.  Proper arguments with equal
    bases are grouped: by antisymmetry each unordered choice of distinct
    basis vectors within a group contributes one generator (up to sign), so
    combinations replace full products there.
    """
    f = L.field
    n = L.arity
    if len(subspaces) != n:
        raise DimensionMismatchError(f"need {n} subspaces, got {len(subspaces)}")
    for s in subspaces:
        require_subspace(L, s)
    # bases compared with ==, not hashed: a hash would visit every scalar;
    # a zero argument has no basis tuples, so it gives no bracket
    proper = [s.basis for s in subspaces if s.dim < L.dim]
    groups = [(b, proper.count(b)) for i, b in enumerate(proper) if b not in proper[:i]]
    by_y = L.maps[len(proper)]
    vectors = []
    for picks in product(*(combinations(b, c) for b, c in groups)):
        rows = [row for pick in picks for row in pick]
        for y in by_y:
            w = bracket_rows(L, rows, y)
            if w is not None:
                vectors.append(w)
    return span_rows(f, L.dim, vectors)


@dataclass(frozen=True)
class FIViolation:
    """One violated instance; indices are 1-based for reporting."""

    x_indices: tuple
    y_indices: tuple
    residual: tuple


@dataclass(frozen=True)
class FIReport:
    holds: bool
    violations: tuple
    instances_checked: int

    def to_dict(self, field: Field) -> dict:
        return {
            "holds": self.holds,
            "instances_checked": self.instances_checked,
            "violations": [
                {
                    "x": list(v.x_indices),
                    "y": list(v.y_indices),
                    "residual": [field.format(c) for c in v.residual],
                }
                for v in self.violations
            ],
        }


def check_fundamental_identity(L: NLieAlgebra) -> FIReport:
    """Check the defining identity on every pair of increasing basis tuples.

    The identity is multilinear and alternating in the inner tuple and in the
    outer arguments, so holding on increasing basis tuples is equivalent to
    holding on all vectors.  An index in no stored tuple gives a central basis
    vector, and every instance with a central argument vanishes, so only the
    tuples of the other indices are visited; all instances are counted.
    Violations are reported in lexicographic order.
    """
    f = L.field
    n = L.arity
    m = L.dim
    used = sorted({i for key, _ in L.entries for i in key})
    violations = []
    for x in combinations(used, n):
        bx = L.table.get(x)
        for y in combinations(used, n - 1):
            # lhs = [[x...], y...]; rhs term i = [x_1, .., [x_i, y...], .., x_n]
            # = (-1)^i [[x_i, y...], x without x_i]; maps[1][y] lists the
            # nonzero [e_t, y...]
            acc = bx and bracket_rows(L, [bx], y)
            for (t,), sparse in L.maps[1].get(y, ()):
                if t not in x:
                    continue
                i = x.index(t)
                inner = [f.zero] * m
                for r, c in sparse:
                    inner[r] = c
                term = bracket_rows(L, [inner], x[:i] + x[i + 1:])
                if term:
                    acc = acc or [f.zero] * m
                    for r, c in enumerate(term):
                        acc[r] += c if i % 2 else -c
            if not acc:
                continue
            residual = tuple(acc) if f.p is None else tuple(c % f.p for c in acc)
            if any(residual):
                violations.append(FIViolation(
                    tuple(i + 1 for i in x), tuple(j + 1 for j in y), residual))
    return FIReport(not violations, tuple(violations), comb(m, n) * comb(m, n - 1))


def with_fi_checked(L: NLieAlgebra) -> NLieAlgebra:
    """Return L flagged as verified, or raise carrying the violation report."""
    report = check_fundamental_identity(L)
    if not report.holds:
        v = report.violations[0]
        raise FundamentalIdentityError(
            f"fundamental identity fails at x={v.x_indices}, y={v.y_indices}",
            report=report,
        )
    return replace(L, fi_checked=True)


# ---------------------------------------------------------------------------
# nlie-v1 document format


def _parse_field_tag(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"}:
        p = obj["p"]
        if not isinstance(p, int):
            raise ParseError(f"malformed modulus: {p!r}")
        try:
            return GF(p)
        except InvalidParameterError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"malformed field tag: {obj!r}")


def _field_tag(field: Field):
    return "Q" if field.p is None else {"p": field.p}


def parse_algebra(text: str) -> NLieAlgebra:
    """Parse an nlie-v1 document (see serialize_algebra for the layout)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return algebra_from_dict(doc)


def algebra_from_dict(doc) -> NLieAlgebra:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise ParseError(f"unsupported format: {doc.get('format')!r}")
    arity = doc.get("arity")
    dim = doc.get("dim")
    if not isinstance(arity, int) or arity < 2:
        raise ParseError(f"bad arity: {arity!r}")
    if not isinstance(dim, int) or dim < 1:
        raise ParseError(f"bad dim: {dim!r}")
    fld = _parse_field_tag(doc.get("field"))
    labels = doc.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != dim
                or not all(isinstance(s, str) for s in labels)):
            raise ParseError("labels must be a list of dim strings")
        labels = tuple(labels)
    table = {}
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list")
    for item in brackets:
        if not isinstance(item, dict) or "on" not in item:
            raise ParseError(f"malformed bracket entry: {item!r}")
        on = item["on"]
        if (not isinstance(on, list) or len(on) != arity
                or not all(isinstance(i, int) for i in on)):
            raise ParseError(f"malformed bracket tuple: {on!r}")
        if any(not (1 <= i <= dim) for i in on):
            raise ParseError(f"bracket tuple {on} out of range 1..{dim}")
        if any(a >= b for a, b in zip(on, on[1:])):
            raise ParseError(f"bracket tuple {on} is not strictly increasing")
        key = tuple(i - 1 for i in on)
        if key in table:
            raise ParseError(f"duplicate bracket tuple {on}")
        vec = [fld.zero] * dim
        val = item.get("val", {})
        if not isinstance(val, dict):
            raise ParseError(f"malformed value for tuple {on}")
        for tkey, scalar in val.items():
            try:
                t = int(tkey)
            except (TypeError, ValueError):
                raise ParseError(f"bad target index {tkey!r}") from None
            if not (1 <= t <= dim):
                raise ParseError(f"target index {t} out of range 1..{dim}")
            vec[t - 1] = fld.parse(scalar if isinstance(scalar, str) else str(scalar))
        table[key] = tuple(vec)
    entries = tuple(sorted(
        (k, v) for k, v in table.items() if not vec_is_zero(fld, v)
    ))
    return NLieAlgebra(fld, arity, dim, entries, labels=labels)


def algebra_to_dict(L: NLieAlgebra) -> dict:
    f = L.field
    doc = {
        "format": FORMAT_NAME,
        "arity": L.arity,
        "dim": L.dim,
        "field": _field_tag(f),
    }
    if L.labels is not None:
        doc["labels"] = list(L.labels)
    doc["brackets"] = [
        {
            "on": [i + 1 for i in key],
            "val": {str(t + 1): f.format(c)
                    for t, c in enumerate(val) if c != f.zero},
        }
        for key, val in L.entries
    ]
    return doc


def serialize_algebra(L: NLieAlgebra) -> str:
    """Canonical nlie-v1 text: sorted tuples, sparse values, minimal scalars."""
    return json.dumps(algebra_to_dict(L), indent=2) + "\n"


def load_algebra(path) -> NLieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def save_algebra(L: NLieAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_algebra(L))


# ---------------------------------------------------------------------------
# subspace-v1 sidecar format (row lists, same scalar syntax)


def parse_subspace(text: str) -> Subspace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SUBSPACE_FORMAT_NAME:
        raise ParseError(f"unsupported format: {doc.get('format')!r}"
                         if isinstance(doc, dict) else "document must be a JSON object")
    ambient = doc.get("ambient")
    if not isinstance(ambient, int) or ambient < 0:
        raise ParseError(f"bad ambient dimension: {ambient!r}")
    fld = _parse_field_tag(doc.get("field"))
    rows = doc.get("rows", [])
    if not isinstance(rows, list):
        raise ParseError("rows must be a list of row lists")
    vectors = []
    for row in rows:
        if not isinstance(row, list) or len(row) != ambient:
            raise ParseError(f"malformed row: {row!r}")
        vectors.append(tuple(
            fld.parse(x if isinstance(x, str) else str(x)) for x in row))
    return span(fld, ambient, vectors)


def serialize_subspace(S: Subspace) -> str:
    f = S.field
    doc = {
        "format": SUBSPACE_FORMAT_NAME,
        "ambient": S.ambient_dim,
        "field": _field_tag(f),
        "rows": [[f.format(x) for x in row] for row in S.basis],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_subspace(path) -> Subspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_subspace(fh.read())
