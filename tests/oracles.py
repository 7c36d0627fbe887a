"""Slow reference routes, one home for all of them.

Each function here computes by definition, one element (or one pair of
elements) at a time, what the library computes by linear algebra or in
closed form.  The tests compare the two; ``test_oracles.py`` holds the
one table of (fast route, oracle) pairs.
"""

from math import gcd

from semiswitch import (
    BinaryOp,
    ConsistencyError,
    coset_leader,
    n3_construct,
    theta_set,
)
from semiswitch.gf import _decode, _encode, _kernel, _poly_mul_mod


# ---- gf ----


def _step_by_step_tables(ctx):
    """exp, log, frob_q, tr, nm one element at a time: a polynomial product
    per power of gamma and n - 1 additions per trace."""
    p, q, N, d = ctx.p, ctx.q, ctx.mult_order, ctx.m * ctx.n
    mod = list(ctx.modulus)
    gamma = _decode(ctx.generator, p, d)
    exp, log = [], [None] * ctx.order
    cur = _decode(1, p, d)
    for k in range(N):
        code = _encode(cur, p)
        assert log[code] is None
        exp.append(code)
        log[code] = k
        cur = _poly_mul_mod(cur, gamma, mod, p)
    assert _encode(cur, p) == 1
    frob, nm = [0] * ctx.order, [0] * ctx.order
    M = N // (q - 1)
    for k in range(N):
        frob[exp[k]] = exp[k * q % N]
        nm[exp[k]] = exp[k * M % N]
    tr = []
    for x in ctx.elements():
        acc, y = x, x
        for _ in range(ctx.n - 1):
            y = frob[y]
            acc = ctx.add(acc, y)
        tr.append(acc)
    return exp, log, frob, tr, nm


def _linear_map_oracle(p, d, images, c):
    out = [0] * d
    for cj, img in zip(_decode(c, p, d), images):
        for i, v in enumerate(_decode(img, p, d)):
            out[i] = (out[i] + cj * v) % p
    return _encode(out, p)


def _kernel_by_digits(ctx, f):
    """``_kernel`` on digit lists: row j is the digits of f(p^j) followed by
    the unit vector of p^j, reduced mod p and encoded at the end."""
    p, dim = ctx.p, ctx.m * ctx.n
    pivots = []  # (column, row) with row[column] == 1
    kernel = []
    for j in range(dim):
        row = [d for y in f(p**j) for d in _decode(y, p, dim)]
        width = len(row)
        row += [int(i == j) for i in range(dim)]
        for col, piv in pivots:
            c = row[col]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, piv)]
        col = next((i for i in range(width) if row[i]), None)
        if col is None:
            kernel.append(_encode(row[width:], p))
        else:
            inv = pow(row[col], -1, p)
            pivots.append((col, [a * inv % p for a in row]))
    return kernel


def _negatives_by_digits(ctx):
    """-a for every element, digit by digit."""
    p, d = ctx.p, ctx.m * ctx.n
    return [_encode([-r % p for r in _decode(a, p, d)], p) for a in ctx.elements()]


# ---- linpoly ----


def trace_quotient(L, x):
    """Tr(L(x)/x) as an element of F_q, with the value Tr(a_0) at x = 0."""
    ctx = L.ctx
    if x == 0:
        return ctx.rel_trace(L.coeffs[0])
    k = ctx.log[x]
    N = ctx.mult_order
    acc = L.coeffs[0]
    for i in range(1, ctx.n):
        a = L.coeffs[i]
        if a:
            acc = ctx.add(acc, ctx.mul(a, ctx.exp[(k * ctx.qpow_minus1[i]) % N]))
    return ctx.rel_trace(acc)


def _is_permutation_scan(L):
    """No unit maps to zero."""
    return all(L(x) != 0 for x in L.ctx.units())


# ---- presemifield ----


def _switch_product(spec, x, y):
    """xy + B(x, y) xi with B read term by term from ``bilinear_form``."""
    ctx = spec.ctx
    return ctx.add(ctx.mul(x, y), ctx.mul(spec.bilinear_form(x, y), spec.xi))


def _verify_by_right_kernels(op):
    """No x -> x*a has a nonzero kernel, a over the gamma^k, k < M."""
    ctx = op.ctx
    return not any(
        _kernel(ctx, lambda x: (op(x, a),)) for a in ctx.exp[: ctx.trace_step]
    )


def right_unit_inverse(spec):
    """The map A with A(x) * 1 = x for the switched op, in closed form.

    With t = sum b_i the map is A(x) = x - xi Tr(t x) / (1 + Tr(t xi)).
    The denominator is the F_q scalar with 1*1 = 1 + Tr(t) xi; it
    vanishes exactly when the op already fails cancellation at 1.
    """
    ctx = spec.ctx
    t = 0
    for bi in spec.b:
        t = ctx.add(t, bi)
    denom = ctx.add(1, ctx.rel_trace(ctx.mul(t, spec.xi)))
    if denom == 0:
        raise ValueError("1 + Tr(t xi) = 0; the switched op is not cancellative at 1")
    scale = ctx.neg(ctx.div(spec.xi, denom))

    def A(x):
        return ctx.add(x, ctx.mul(scale, ctx.rel_trace(ctx.mul(t, x))))

    return A


def _zero_divisor_scan(op):
    for x in op.ctx.units():
        for y in op.ctx.units():
            if op(x, y) == 0:
                return (x, y)
    return None


def _unitalize_scan(op):
    """x . y = B^(-1)(B1(x) * y) with both side maps and the identity
    check evaluated on every element."""
    ctx = op.ctx
    order = ctx.order
    bmap = [op(1, x) for x in range(order)]
    rmap = [op(x, 1) for x in range(order)]
    binv = [0] * order
    rinv = [0] * order
    for x, v in enumerate(bmap):
        binv[v] = x
    for x, v in enumerate(rmap):
        rinv[v] = x
    if len(set(bmap)) != order or len(set(rmap)) != order:
        raise ConsistencyError("cancellative op with non-bijective side map")
    b1 = [rinv[bmap[x]] for x in range(order)]

    def star(x, y):
        return binv[op(b1[x], y)]

    for x in range(order):
        if star(x, 1) != x or star(1, x) != x:
            raise ConsistencyError("unitalization failed to produce an identity", x)
    return BinaryOp(ctx, star, unital=True)


def _nuclei_scan(op):
    ctx = op.ctx
    basis = ctx.exp[: ctx.n]
    pairs = [(e, f) for e in basis for f in basis]
    left, middle, right = set(), set(), set()
    for a in ctx.elements():
        if all(op(op(a, e), f) == op(a, op(e, f)) for e, f in pairs):
            left.add(a)
        if all(op(op(e, a), f) == op(e, op(a, f)) for e, f in pairs):
            middle.add(a)
        if all(op(op(e, f), a) == op(e, op(f, a)) for e, f in pairs):
            right.add(a)
    nucleus = left & middle & right
    center = {a for a in nucleus if all(op(a, e) == op(e, a) for e in basis)}
    return left, middle, right, center


def _isotopy_scan(op):
    """The first v in gamma order with A(v*e) * f = A(v*f) * e on basis
    pairs, A found by scanning x -> x*1 over the whole field."""
    ctx = op.ctx
    A = {op(x, 1): x for x in ctx.elements()}
    basis = ctx.exp[: ctx.n]
    for v in ctx.star_units():
        w = [A[op(v, e)] for e in basis]
        if all(
            op(w[i], basis[j]) == op(w[j], basis[i])
            for i in range(ctx.n)
            for j in range(i + 1, ctx.n)
        ):
            return True, v
    return False, None


# ---- families ----


def n2_lemma_roots(ctx, a1, a0):
    """Roots in F_{q^2} of a_1 y^2 + Tr(a_0) y + a_1^q = 0."""
    if ctx.n != 2:
        raise ValueError("lemma is for n = 2")
    t = ctx.rel_trace(a0)
    aq = ctx.frobenius(a1, 1)
    out = set()
    for y in ctx.elements():
        v = ctx.add(ctx.add(ctx.mul(a1, ctx.mul(y, y)), ctx.mul(t, y)), aq)
        if v == 0:
            out.add(y)
    return out


def _theta_set_scan(ctx, u, v):
    """Every x with Tr(u^(q^2) v^q x) = N(u) + N(v): zero first, then by log."""
    w = ctx.mul(ctx.frobenius(u, 2), ctx.frobenius(v, 1))
    rhs = ctx.add(ctx.rel_norm(u), ctx.rel_norm(v))
    out = [x for x in [0] if ctx.rel_trace(0) == rhs]
    return out + [x for x in ctx.star_units() if ctx.rel_trace(ctx.mul(w, x)) == rhs]


def _random_members(ctx, rng, count):
    """Coefficients of ``count`` random degree-3 family members, by construction."""
    out = []
    while len(out) < count:
        u, v, a = (ctx.from_index(rng.randrange(ctx.mult_order)) for _ in range(3))
        if ctx.rel_norm(ctx.neg(ctx.div(v, u))) == 1:
            continue
        theta = rng.choice(theta_set(ctx, u, v))
        out.append(n3_construct(ctx, u, v, theta, a=a).poly.coeffs)
    return out


def _matches_n3_scan(L):
    """The (u, v) double scan that matches_n3 replaced."""
    ctx = L.ctx
    if ctx.n != 3:
        return None
    c0, c1, c2 = L.coeffs
    if c1 == 0 or c2 == 0:
        return None
    q = ctx.q
    for u in ctx.star_units():
        for v in ctx.star_units():
            if ctx.rel_norm(ctx.neg(ctx.div(v, u))) == 1:
                continue
            w = ctx.mul(ctx.frobenius(u, 2), ctx.frobenius(v, 1))
            t = ctx.div(c1, ctx.mul(w, v))
            if ctx.rel_norm(t) != 1:
                continue
            if c2 != ctx.mul(w, ctx.mul(u, ctx.pow(t, q + 1))):
                continue
            theta = ctx.div(c0, w)
            rhs = ctx.add(ctx.rel_norm(u), ctx.rel_norm(v))
            if ctx.rel_trace(ctx.mul(w, theta)) == rhs:
                a = 1 if t == 1 else ctx.from_index(ctx.log[t] // (q - 1))
                return u, v, theta, a
    return None


# ---- hws ----


def _min_max_leader_full_scan(L):
    """ell and its argmin by the definition: every j coprime to q^n - 1."""
    ctx = L.ctx
    support = [i for i in range(1, ctx.n) if L.coeffs[i]]
    q, n, p, mn = ctx.q, ctx.n, ctx.p, ctx.m * ctx.n
    N = q**n - 1
    best = best_j = None
    for j in range(1, N):
        if gcd(j, N) != 1:
            continue
        lj = max(coset_leader(j * (q**i - 1) % N, p, mn) for i in support)
        if best is None or lj < best:
            best, best_j = lj, j
    return best, best_j
