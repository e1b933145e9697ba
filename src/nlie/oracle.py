"""Independent brute-force bracket oracle.

It deliberately avoids the library's evaluation paths: signs come from
counting inversions, the bracket is expanded over every index combination of
an explicitly antisymmetrized all-orderings table, and only the field's
scalar operations are shared.  Criterion 1 of the verification suite and the
test suite check the fast kernels against it.
"""

from functools import lru_cache
from itertools import permutations


def perm_sign(perm):
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=32)
def full_table(L):
    """All-orderings signed table {index tuple: coefficient vector}; cached,
    so callers must not mutate it."""
    full = {}
    for key, val in L.entries:
        for perm in permutations(range(len(key))):
            sign = perm_sign(perm)
            vec = val if sign == 1 else tuple(L.field.neg(x) for x in val)
            full[tuple(key[i] for i in perm)] = vec
    return full


def naive_bracket(L, vectors):
    """Sum over every entry of the all-orderings table of its vector times
    the product of the matching vector coordinates."""
    f = L.field
    m = L.dim
    out = [f.zero] * m
    for idx, vec in full_table(L).items():
        coeff = f.one
        for slot, t in enumerate(idx):
            coeff = f.mul(coeff, vectors[slot][t])
            if coeff == f.zero:
                break
        else:
            for t, x in enumerate(vec):
                if x != f.zero:
                    out[t] = f.add(out[t], f.mul(coeff, x))
    return tuple(out)


def naive_fi_residual(L, x_indices, y_indices):
    """Residual of one fundamental-identity instance on basis vectors."""
    f = L.field
    m = L.dim
    unit = [tuple(f.one if t == i else f.zero for t in range(m)) for i in range(m)]
    inner = naive_bracket(L, [unit[i] for i in x_indices])
    lhs = naive_bracket(L, [inner] + [unit[j] for j in y_indices])
    rhs = [f.zero] * m
    for i in range(len(x_indices)):
        w = naive_bracket(L, [unit[x_indices[i]]] + [unit[j] for j in y_indices])
        args = [unit[t] for t in x_indices]
        args[i] = w
        term = naive_bracket(L, args)
        for t, c in enumerate(term):
            rhs[t] = f.add(rhs[t], c)
    return tuple(f.sub(a, b) for a, b in zip(lhs, rhs))
