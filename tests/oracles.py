"""Slow reference routes, one home for all of them.

Each function here computes by definition, one element (or one pair of
elements) at a time, what the library computes by linear algebra or in
closed form.  The tests compare the two; ``test_oracles.py`` holds the
one table of (fast route, oracle) pairs.

It also holds the ops and checks that only the tests use: the field
product as the switch of b = 0 (``field_op``), the basis-pair check that
``commutative_criterion`` is tested against (``is_commutative``), an
n = 4 op with no spec, which the library's switch routines refuse
(``dual_spread_op``), and ``classify``'s deep route on one switch, which
its closed form for monomials is tested against (``deep_classify``).
Random search's former route, the walk of the draws' distinct heads
against their distinct tails, stays as an oracle of both of its plans
(``_random_search_split``), and the former walk of the a_0 trace classes
alone as one of the monomials that search reads in closed form
(``_a0_only_walk``).
"""

import random
from itertools import product
from math import gcd

from semiswitch import (
    BinaryOp,
    ConsistencyError,
    SwitchSpec,
    build_switch,
    commutative_isotopy_test,
    find_zero_divisor,
    n3_construct,
    nuclei,
    switch_spec_for,
    theta_set,
    transcript,
    unitalize,
)
from semiswitch.families import _families
from semiswitch.gf import _decode, _encode, _kernel, _poly_mul_mod, _span
from semiswitch.linpoly import _a0_classes, _cheapest_cut, _coeffs, _walk


# ---- gf ----


def add_by_digits(p, a, b):
    """a + b digit by digit: the base-p digits add mod p, with no carry."""
    s, mult = 0, 1
    while a or b:
        s += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return s


def _sums_by_digits(ctx):
    """a + b for every pair of elements, a major."""
    return [add_by_digits(ctx.p, a, b) for a in range(ctx.order) for b in range(ctx.order)]


def _step_by_step_tables(ctx):
    """exp, log, Frobenius, trace and norm tables one element at a time: a
    polynomial product per power of gamma and n - 1 digit-loop additions
    per trace."""
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
    for x in range(ctx.order):
        acc, y = x, x
        for _ in range(ctx.n - 1):
            y = frob[y]
            acc = add_by_digits(p, acc, y)
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
    return [_encode([-r % p for r in _decode(a, p, d)], p) for a in range(ctx.order)]


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


def _passes(ctx, mask, assignment):
    """The coefficients of ``assignment`` on ``mask``, or None when the
    transcript vanishes somewhere."""
    coeffs = [0] * ctx.n
    for i, a in zip(mask, assignment):
        coeffs[i] = a
    return tuple(coeffs) if all(transcript(ctx, coeffs)) else None


def _search_by_predicate(ctx, mask):
    """Every assignment to ``mask`` in code order whose transcript never
    vanishes, one whole candidate at a time."""
    hits = (_passes(ctx, mask, a) for a in product(range(ctx.order), repeat=len(mask)))
    return [h for h in hits if h]


def _random_search_by_predicate(ctx, mask, seed, budget):
    """Random search one draw at a time: a draw not seen before is kept
    when its transcript never vanishes; the draws stop at the budget, or
    once every assignment has come up."""
    rng = random.Random(seed)
    space = ctx.order ** len(mask)
    seen, hits = set(), []
    for _ in range(budget):
        if len(seen) == space:
            break
        assignment = tuple(rng.randrange(ctx.order) for _ in mask)
        if assignment in seen:
            continue
        seen.add(assignment)
        if hit := _passes(ctx, mask, assignment):
            hits.append(hit)
    return hits


def _random_search_split(ctx, mask, seed, budget, cut):
    """Random search as a walk of the draws' distinct heads against their
    distinct tails, split after ``cut`` indices of the sorted ``mask`` (a
    cut at the end walks the distinct draws themselves); the draws stop at
    the budget, or once every assignment has come up.

    A draw's a_0 is taken to its trace class before the split, and the
    draws whose class tuple passes the walk are kept, in discovery order.
    """
    rng, space = random.Random(seed), ctx.order ** len(mask)
    draws = {}
    for _ in range(budget):
        if len(draws) == space:
            break
        draws[tuple(rng.randrange(ctx.order) for _ in mask)] = None
    classes, has_a0 = _a0_classes(ctx), mask[0] == 0

    def canonical(draw):
        return (classes[ctx.tr[draw[0]]],) + draw[1:] if has_a0 else draw

    heads, tails = {}, {}
    for draw in map(canonical, draws):
        heads[draw[:cut]] = tails[draw[cut:]] = None
    hits = set(_walk(ctx, mask[:cut], heads, mask[cut:], list(tails)))
    return [_coeffs(ctx.n, mask, draw) for draw in draws if canonical(draw) in hits]


def _search_exhaustive(ctx, support):
    """Every passing n-tuple on the sorted ``support``, in code order, by
    one walk of every tuple: no scaling orbits.

    Index 0 takes one a_0 per trace class, every other index every
    element, all in one product walk; each Tr(a_0) class is expanded back
    into its a_0 values at the end.
    """
    choices = [
        list(_a0_classes(ctx).values()) if i == 0 else range(ctx.order) for i in support
    ]
    cut = _cheapest_cut(ctx, choices)[1]
    tails = list(product(*choices[cut:]))
    hits = _walk(ctx, support[:cut], product(*choices[:cut]), support[cut:], tails)
    if support[0] == 0:
        by_class = {}
        for hit in hits:
            by_class.setdefault(ctx.tr[hit[0]], []).append(hit[1:])
        hits = [
            (a0,) + rest for a0 in range(ctx.order) for rest in by_class.get(ctx.tr[a0], ())
        ]
    return [_coeffs(ctx.n, support, hit) for hit in hits]


def _a0_only_walk(ctx, mask):
    """The monomial (rep, size) pairs on a ``mask`` holding 0, by the walk of
    the a_0 trace classes alone as a stratum of their own: one head each
    and no tail, each passing head its own rep of size 1."""
    heads = [(c,) for c in _a0_classes(ctx).values()]
    return [(_coeffs(ctx.n, (0,), h), 1) for h in _walk(ctx, (0,), heads, (), [()])]


def _census_by_expansion(ctx):
    """(constant, non-constant, first five non-constant) full-weight words,
    from every passing tuple of the walk over every tuple."""
    hits = _search_exhaustive(ctx, tuple(range(ctx.n)))
    nonconstant = [list(h) for h in hits if any(h[1:])]
    return len(hits) - len(nonconstant), len(nonconstant), nonconstant[:5]


def scale(ctx, coeffs, c):
    """a_i -> a_i c^(q^i - 1), one field power and product per coefficient."""
    return tuple(ctx.mul(a, ctx.pow(c, ctx.q**i - 1)) for i, a in enumerate(coeffs))


def _orbit_rep_scan(ctx, coeffs):
    """(rep, k) by trying every scaling gamma^k, k < M: the least key
    (log of the first nonzero a_i with i >= 1, tuple, k)."""

    def key(k):
        t = scale(ctx, coeffs, ctx.exp[k])
        return next((ctx.log[a] for a in t[1:] if a), 0), t, k

    _, rep, k = min(map(key, range(ctx.trace_step)))
    return rep, k


def _is_permutation_scan(L):
    """No unit maps to zero."""
    return all(L(x) != 0 for x in L.ctx.units())


# ---- presemifield ----


def field_op(ctx):
    """The plain field multiplication: the switch of b = 0, a presemifield."""
    op = BinaryOp(ctx, ctx.mul, SwitchSpec(ctx, (0,) * ctx.n))
    op.verified = True
    return op


def is_commutative(op):
    """Direct commutativity check on basis pairs: ``commutative_criterion``'s test reference."""
    basis = op.ctx.exp[: op.ctx.n]
    return all(
        op(e, f) == op(f, e) for i, e in enumerate(basis) for f in basis[i + 1 :]
    )


def dual_spread_op(ctx, a1, a0t):
    """The companion product x o y = xy + (a1 y^(q^2) + a0t y) Tr(x) (n = 4)."""
    if ctx.n != 4:
        raise ValueError("dual spread companion is defined for n = 4")

    def op(x, y):
        s = ctx.add(ctx.mul(a1, ctx.frobenius(y, 2)), ctx.mul(a0t, y))
        return ctx.add(ctx.mul(x, y), ctx.mul(s, ctx.rel_trace(x)))

    return BinaryOp(ctx, op)


def _switch_product(spec, x, y):
    """xy + B(x, y) xi with B read term by term from ``bilinear_form``."""
    ctx = spec.ctx
    return ctx.add(ctx.mul(x, y), ctx.mul(spec.bilinear_form(x, y), spec.xi))


def _zero_divisor_by_kernels(op):
    """``find_zero_divisor`` by one ``_kernel`` of mn rows per F_q^* orbit.

    The same x order and orbit skip, but y is the smallest nonzero code in
    the kernel of y -> x*y, read on any F_q-bilinear op: it uses neither
    xi nor the trace.  Sets ``op.verified`` as the library walk does.
    """
    ctx = op.ctx
    M, log = ctx.trace_step, ctx.log
    seen = bytearray(M)
    for x in ctx.units():
        k = log[x] % M
        if seen[k]:
            continue
        seen[k] = 1
        kernel = _kernel(ctx, lambda y: (op(x, y),))
        if kernel:
            op.verified = False
            return (x, kernel[0])
    op.verified = True
    return None


def predicate_equivalence_check(spec):
    """Compare the axiom route and the trace route on one spec.

    Route one walks the switched op by ``_zero_divisor_by_kernels``; route
    two asks whether Tr(M(a)/a) avoids -1 on nonzero a, for
    M(X) = xi sum b_i X^(q^i), through ``transcript``.  Returns True when
    the two agree (they always should).
    """
    ctx = spec.ctx
    direct = _zero_divisor_by_kernels(build_switch(spec)) is None
    m = tuple(ctx.mul(spec.xi, bi) for bi in spec.b)
    criterion = ctx.neg(1) not in transcript(ctx, m)
    return direct == criterion


def deep_classify(L):
    """``classify``'s report by the deep route on L's own switch, with no
    closed form and no orbit cache: the transcript walked in full, the
    zero-divisor walk, then for a passing L the isotopy test, the nuclei of
    the unitalization and commutativity checked on basis pairs."""
    predicate = all(transcript(L.ctx, L.coeffs))
    report = {"coeffs": list(L.coeffs), "predicate": predicate}
    if predicate:
        report["families"] = _families(L)
    spec = switch_spec_for(L)
    op = build_switch(spec)
    zero_divisor = find_zero_divisor(op)
    if (zero_divisor is None) != predicate:
        raise ConsistencyError("the walk disagrees with the transcript", L.coeffs)
    if not predicate:
        report.update(presemifield=False, zero_divisor=list(zero_divisor))
        return report
    ganley, witness = commutative_isotopy_test(op)
    report.update(
        spec={"b": list(spec.b), "xi": spec.xi},
        presemifield=True,
        commutative=is_commutative(op),
        ganley=ganley,
        ganley_witness=witness,
        nuclei=list(nuclei(unitalize(op)).sizes),
    )
    return report


def _verify_by_right_kernels(op):
    """No x -> x*a has a nonzero kernel, a over the gamma^k, k < M."""
    ctx = op.ctx
    return not any(
        _kernel(ctx, lambda x: (op(x, a),)) for a in ctx.exp[: ctx.trace_step]
    )


def _zero_divisor_scan(op):
    for x in op.ctx.units():
        for y in op.ctx.units():
            if op(x, y) == 0:
                return (x, y)
    return None


def _unital_maps_scan(op):
    """(B1, B^(-1), A) of ``presemifield._unital_maps`` listed on every
    element, from whole-field scans of y -> 1*y and x -> x*1."""
    ctx = op.ctx
    bmap = [op(1, x) for x in range(ctx.order)]
    binv = {v: x for x, v in enumerate(bmap)}
    rinv = {op(x, 1): x for x in range(ctx.order)}
    if len(binv) != ctx.order or len(rinv) != ctx.order:
        raise ConsistencyError("cancellative op with non-bijective side map")
    return (
        [rinv[v] for v in bmap],
        [binv[z] for z in range(ctx.order)],
        [rinv[z] for z in range(ctx.order)],
    )


def _unitalize_scan(op):
    """x . y = B^(-1)(B1(x) * y) on any op, with both side maps and the
    identity check evaluated on every element."""
    ctx = op.ctx
    b1, binv, _ = _unital_maps_scan(op)

    def star(x, y):
        return binv[op(b1[x], y)]

    for x in range(ctx.order):
        if star(x, 1) != x or star(1, x) != x:
            raise ConsistencyError("unitalization failed to produce an identity", x)
    return BinaryOp(ctx, star)


def nuclei_members(ctx, rep):
    """The left, middle, right and center bases of a NucleiReport, each
    listed in full, for comparison with the scans below."""
    bases = (rep.left, rep.middle, rep.right, rep.center)
    return tuple(frozenset(_span(ctx, b)) for b in bases)


def _nuclei_scan(op):
    ctx = op.ctx
    basis = ctx.exp[: ctx.n]
    pairs = [(e, f) for e in basis for f in basis]
    left, middle, right = set(), set(), set()
    for a in range(ctx.order):
        if all(op(op(a, e), f) == op(a, op(e, f)) for e, f in pairs):
            left.add(a)
        if all(op(op(e, a), f) == op(e, op(a, f)) for e, f in pairs):
            middle.add(a)
        if all(op(op(e, f), a) == op(e, op(f, a)) for e, f in pairs):
            right.add(a)
    nucleus = left & middle & right
    center = {a for a in nucleus if all(op(a, e) == op(e, a) for e in basis)}
    return left, middle, right, center


def _nuclei_all_pairs(op):
    """Each nucleus as one kernel on the whole F_p-basis: the associators
    of a candidate against every F_q-basis pair, 1 included, and for the
    center those of all three slots and the commutators with the basis."""
    ctx = op.ctx
    sub = ctx.sub
    basis = ctx.exp[: ctx.n]
    pairs = [(e, f, op(e, f)) for e in basis for f in basis]

    def left(a):
        return tuple(sub(op(op(a, e), f), op(a, ef)) for e, f, ef in pairs)

    def middle(a):
        return tuple(sub(op(op(e, a), f), op(e, op(a, f))) for e, f, _ in pairs)

    def right(a):
        return tuple(sub(op(ef, a), op(e, op(f, a))) for e, f, ef in pairs)

    def center(a):
        commutators = tuple(sub(op(a, e), op(e, a)) for e in basis)
        return left(a) + middle(a) + right(a) + commutators

    maps = (left, middle, right, center)
    return tuple(frozenset(_span(ctx, _kernel(ctx, g))) for g in maps)


def _isotopy_scan(op):
    """The first v in gamma order with A(v*e) * f = A(v*f) * e on basis
    pairs, A found by scanning x -> x*1 over the whole field."""
    ctx = op.ctx
    A = {op(x, 1): x for x in range(ctx.order)}
    basis = ctx.exp[: ctx.n]
    for v in ctx.exp:
        w = [A[op(v, e)] for e in basis]
        if all(
            op(w[i], basis[j]) == op(w[j], basis[i])
            for i in range(ctx.n)
            for j in range(i + 1, ctx.n)
        ):
            return True, v
    return False, None


# ---- hand-built unital algebras, inputs to the nuclei routes ----


def _matrix_algebra(ctx, first="I"):
    """2x2 matrices over F_3 on the four digits of an element of F_81.

    The digits are coordinates on (first, E12, E21, E22).  With first = I
    the code 1 is the identity matrix; with first = "E11" the code 1 is
    E11, which is no identity, so ``nuclei`` must refuse the op.
    """
    t = int(first == "I")  # the first coordinate also adds to entry (2, 2)

    def matrix(x):
        a, b, c, d = _decode(x, 3, 4)
        return a, b, c, d + t * a

    def matmul(x, y):
        a, b, c, d = matrix(x)
        e, f, g, h = matrix(y)
        r11, r12, r21, r22 = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        return _encode([v % 3 for v in (r11, r12, r21, r22 - t * r11)], 3)

    return BinaryOp(ctx, matmul)


def _center_separating_algebra(ctx):
    """Basis 1, a, b, c, d on the five digits of F_{p^5}: ab = ba = c and
    dc = d, every other product among a, b, c, d is 0."""
    p = ctx.p

    def product(x, y):
        x0, x1, x2, x3, x4 = _decode(x, p, 5)
        y0, y1, y2, y3, y4 = _decode(y, p, 5)
        entries = (
            x0 * y0,
            x0 * y1 + x1 * y0,
            x0 * y2 + x2 * y0,
            x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
            x0 * y4 + x4 * y0 + x4 * y3,
        )
        return _encode([v % p for v in entries], p)

    return BinaryOp(ctx, product)


def _twisted_field(ctx, a, b):
    """The unitalized generalised twisted field x y - gamma x^(q^a) y^(q^b)."""
    c = ctx.generator

    def twisted(x, y):
        return ctx.sub(
            ctx.mul(x, y), ctx.mul(c, ctx.mul(ctx.frobenius(x, a), ctx.frobenius(y, b)))
        )

    # no switch, so the whole-field scan unitalizes it
    return _unitalize_scan(BinaryOp(ctx, twisted))


# ---- families ----


def n2_lemma_roots(ctx, a1, a0):
    """Roots in F_{q^2} of a_1 y^2 + Tr(a_0) y + a_1^q = 0."""
    if ctx.n != 2:
        raise ValueError("lemma is for n = 2")
    t = ctx.rel_trace(a0)
    aq = ctx.frobenius(a1, 1)
    out = set()
    for y in range(ctx.order):
        v = ctx.add(ctx.add(ctx.mul(a1, ctx.mul(y, y)), ctx.mul(t, y)), aq)
        if v == 0:
            out.add(y)
    return out


def _theta_set_scan(ctx, u, v):
    """Every x with Tr(u^(q^2) v^q x) = N(u) + N(v): zero first, then by log."""
    w = ctx.mul(ctx.frobenius(u, 2), ctx.frobenius(v, 1))
    rhs = ctx.add(ctx.rel_norm(u), ctx.rel_norm(v))
    out = [x for x in [0] if ctx.rel_trace(0) == rhs]
    return out + [x for x in ctx.exp if ctx.rel_trace(ctx.mul(w, x)) == rhs]


def _random_members(ctx, rng, count):
    """Coefficients of ``count`` random degree-3 family members, by construction."""
    out = []
    while len(out) < count:
        u, v, a = (ctx.exp[rng.randrange(ctx.mult_order)] for _ in range(3))
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
    for u in ctx.exp:
        for v in ctx.exp:
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
                a = 1 if t == 1 else ctx.exp[ctx.log[t] // (q - 1)]
                return u, v, theta, a
    return None


# ---- hws ----


def coset_leader(j, p, mn):
    """Smallest member of the p-cyclotomic coset of j mod p^mn - 1, by walking it."""
    N = p**mn - 1
    j %= N
    best = j
    cur = (j * p) % N
    while cur != j:
        if cur < best:
            best = cur
        cur = (cur * p) % N
    return best


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
