"""Every fast route against its slow oracle from ``oracles.py``.

One parametrised test, one line per (fast route, oracle) pair.  Each
pair runs over the shared fields of conftest.py and over F_729 as F_9^3
(the F_p-linear pairs also over F_125, F_343 and F_625 as F_25^2),
on sampled inputs: random polynomials and switchings, predicate-passing
ones spread over a field's search hits (degree-3 family members at
order 729, where exhaustive search is out of budget), failing ones, and
at n = 4 dual-spread companions, which come from no switching spec.
"""

import random
from functools import cache

import pytest

from semiswitch import (
    LinearizedPoly,
    SwitchSpec,
    build_field,
    build_switch,
    commutative_isotopy_test,
    dual_spread_op,
    find_zero_divisor,
    is_permutation,
    min_max_leader,
    n2_criterion,
    nuclei,
    search,
    switch_spec_for,
    theta_set,
    transcript,
    unitalize,
    verify_presemifield,
)
from semiswitch.families import matches_n3
from semiswitch.gf import _kernel, _linear_table

from oracles import (
    _is_permutation_scan,
    _isotopy_scan,
    _kernel_by_digits,
    _linear_map_oracle,
    _matches_n3_scan,
    _min_max_leader_full_scan,
    _negatives_by_digits,
    _nuclei_scan,
    _random_members,
    _step_by_step_tables,
    _switch_product,
    _theta_set_scan,
    _unitalize_scan,
    _verify_by_right_kernels,
    _zero_divisor_scan,
    n2_lemma_roots,
    right_unit_inverse,
    trace_quotient,
)

FIELDS = ["f4", "f8", "f9", "f16_q4", "f27", "f64_q4", "f81_n4", "f81_q9", "f729"]
# the F_p-linear algebra also runs at p = 5 and 7, one of them with m > 1
LINEAR_FIELDS = FIELDS + ["f125", "f343", "f625_q25"]


@pytest.fixture(scope="module")
def f729():
    return build_field(3, 2, 3)


@pytest.fixture(scope="module")
def f125():
    return build_field(5, 1, 3)


@pytest.fixture(scope="module")
def f343():
    return build_field(7, 1, 3)


@pytest.fixture(scope="module")
def f625_q25():
    return build_field(5, 2, 2)


# ---- inputs per field: lists of argument tuples ----


@cache
def _polys(ctx):
    """Eight random L, and two with the kernel F_q c: X^q - c^(q-1) X."""
    rng = random.Random(ctx.order)
    out = [tuple(rng.randrange(ctx.order) for _ in range(ctx.n)) for _ in range(8)]
    for c in rng.sample(range(1, ctx.order), 2):
        out.append((ctx.neg(ctx.pow(c, ctx.q - 1)), 1) + (0,) * (ctx.n - 2))
    return [(LinearizedPoly(ctx, coeffs),) for coeffs in out]


@cache
def _passing_specs(ctx):
    """Switchings of up to six predicate-passing L spread over the hits,
    two at order 729."""
    if ctx.order**ctx.n <= 1 << 18:
        hits = [L.coeffs for L in search(ctx)]
    elif ctx.n == 4:
        hits = [L.coeffs for L in search(ctx, (0, 2))]
    else:
        hits = _random_members(ctx, random.Random(729), 2)
    hits = hits[:: -(-len(hits) // 6)]
    return [(switch_spec_for(LinearizedPoly(ctx, c)),) for c in hits]


@cache
def _passing_ops(ctx):
    return [(build_switch(spec),) for (spec,) in _passing_specs(ctx)]


def _failing_ops(ctx):
    rng = random.Random(17)
    out = []
    while len(out) < 4:
        op = build_switch(SwitchSpec(ctx, tuple(rng.randrange(ctx.order) for _ in range(ctx.n))))
        if not verify_presemifield(op):
            out.append((op,))
    return out


def _all_ops(ctx):
    return _passing_ops(ctx) + _failing_ops(ctx)


def _dual_spread_ops(ctx):
    """Companions x o y = xy + (a_1 y^(q^2) + a0t y) Tr(x) that verify (n = 4)."""
    if ctx.n != 4:
        return []
    rng = random.Random(4)
    out = []
    while len(out) < 4:
        op = dual_spread_op(ctx, rng.randrange(1, ctx.order), rng.randrange(ctx.order))
        if verify_presemifield(op):
            out.append((op,))
    return out


def _unital_ops(ctx):
    return [(unitalize(op),) for (op,) in _passing_ops(ctx)]


def _pairs(ctx):
    rng = random.Random(5)
    return [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(1000)]


def _op_and_pairs(ctx):
    return [(op, _pairs(ctx)) for (op,) in _passing_ops(ctx)]


def _spec_and_pairs(ctx):
    """Passing specs, and random ones with a random xi."""
    rng = random.Random(6)
    specs = [spec for (spec,) in _passing_specs(ctx)]
    for _ in range(3):
        b = tuple(rng.randrange(ctx.order) for _ in range(ctx.n))
        specs.append(SwitchSpec(ctx, b, xi=rng.randrange(1, ctx.order)))
    return [(spec, _pairs(ctx)) for spec in specs]


def _linear_maps(ctx):
    rng = random.Random(ctx.order)
    d = ctx.m * ctx.n
    return [(ctx.p, d, [rng.randrange(ctx.order) for _ in range(d)]) for _ in range(2)]


def _kernel_maps(ctx):
    """F_p-linear maps with 1 to 3 image entries, given by their basis images.

    Per entry count: the zero map, an injective x -> (a x, ...), maps
    whose images lie in the span of r random tuples (kernel dimension at
    least d - r, for r = 1, d - 2 and d - 1) and a random map.
    """
    rng = random.Random(ctx.order)
    p, d = ctx.p, ctx.m * ctx.n

    def draw(k):
        return tuple(rng.randrange(ctx.order) for _ in range(k))

    def combination(span):
        out = (0,) * len(span[0])
        for t in span:
            c = rng.randrange(p)
            out = tuple(ctx.add(o, ctx.mul(c, x)) for o, x in zip(out, t))
        return out

    cases = []
    for k in (1, 2, 3):
        a = rng.randrange(1, ctx.order)
        cases.append([(0,) * k] * d)
        cases.append([(ctx.mul(a, p**j),) + draw(k - 1) for j in range(d)])
        for r in sorted({1, d - 2, d - 1} - {0}):
            span = [draw(k) for _ in range(r)]
            cases.append([combination(span) for _ in range(d)])
        cases.append([draw(k) for _ in range(d)])
    out = []
    for rows in cases:
        cols = list(zip(*rows))
        f = lambda x, cols=cols: tuple(_linear_map_oracle(p, d, col, x) for col in cols)
        out.append((ctx, f))
    return out


def _higher_support(ctx):
    return [(L,) for (L,) in _polys(ctx) if any(L.coeffs[1:])]


def _n2_polys(ctx):
    return _polys(ctx) if ctx.n == 2 else []


def _unit_pairs(ctx):
    if ctx.n != 3:
        return []
    rng = random.Random(ctx.order)
    return [(ctx, rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)) for _ in range(10)]


def _n3_polys(ctx):
    """Family members, those with a_0 redrawn, and random triples.

    The family is empty at q = 2, where every unit has norm 1.  A
    non-member costs the scan a pass over all (u, v), about q^6 steps,
    so order 729 takes one of them.
    """
    if ctx.n != 3:
        return []
    rng = random.Random(1406)
    members = _random_members(ctx, rng, 6) if ctx.q > 2 else []
    others = [(rng.randrange(ctx.order),) + c[1:] for c in members]
    others += [tuple(rng.randrange(ctx.order) for _ in range(3)) for _ in range(60)]
    cases = members + others[: max(1, 100_000 // ctx.order**2)]
    return [(LinearizedPoly(ctx, c),) for c in cases]


# ---- the two sides of a pair, where they are not library calls ----


def _tables(ctx):
    return ctx.exp, ctx.log, ctx.frob_q, ctx.tr, ctx.nm


def _negatives(ctx):
    return [ctx.neg(a) for a in ctx.elements()]


def _linear_map_scan(p, d, images):
    return [_linear_map_oracle(p, d, images, c) for c in range(p**d)]


def _transcript(L):
    return list(transcript(L.ctx, L.coeffs))


def _trace_quotients(L):
    return [trace_quotient(L, x) for x in L.ctx.exp[: L.ctx.trace_step]]


def _n2_by_criterion(L):
    return n2_criterion(L.ctx, L.coeffs[1], L.coeffs[0])


def _n2_by_lemma(L):
    # L passes iff no root of the lemma's quadratic is a nonzero (q-1)-th power
    ctx = L.ctx
    roots = n2_lemma_roots(ctx, L.coeffs[1], L.coeffs[0])
    return not any(r and ctx.log[r] % (ctx.q - 1) == 0 for r in roots)


def _products(unitalizer):
    def route(op, pairs):
        star = unitalizer(op)
        return [star(x, y) for x, y in pairs]

    return route


def _switch_products(spec, pairs):
    op = build_switch(spec)
    return [op(x, y) for x, y in pairs]


def _switch_products_by_form(spec, pairs):
    return [_switch_product(spec, x, y) for x, y in pairs]


def _right_inverse_table(spec):
    return build_switch(spec).side_maps[3]


def _right_inverse_closed_form(spec):
    A = right_unit_inverse(spec)
    return [A(x) for x in spec.ctx.elements()]


def _nuclei_sets(op):
    rep = nuclei(op)
    return rep.left, rep.middle, rep.right, rep.center


def pair(fast, oracle, inputs, id, fields=FIELDS):
    return pytest.param(fast, oracle, inputs, fields, id=id)


PAIRS = [
    pair(_tables, _step_by_step_tables, lambda ctx: [(ctx,)], "build_field"),
    pair(_linear_table, _linear_map_scan, _linear_maps, "linear_table"),
    pair(_kernel, _kernel_by_digits, _kernel_maps, "kernel", LINEAR_FIELDS),
    pair(_negatives, _negatives_by_digits, lambda ctx: [(ctx,)], "neg", LINEAR_FIELDS),
    pair(_transcript, _trace_quotients, _polys, "transcript"),
    pair(is_permutation, _is_permutation_scan, _polys, "is_permutation"),
    pair(_n2_by_criterion, _n2_by_lemma, _n2_polys, "n2_lemma"),
    pair(theta_set, _theta_set_scan, _unit_pairs, "theta_set"),
    pair(matches_n3, _matches_n3_scan, _n3_polys, "matches_n3"),
    pair(min_max_leader, _min_max_leader_full_scan, _higher_support, "min_max_leader"),
    pair(find_zero_divisor, _zero_divisor_scan, _failing_ops, "find_zero_divisor"),
    pair(verify_presemifield, _verify_by_right_kernels, _all_ops, "verify"),
    pair(_switch_products, _switch_products_by_form, _spec_and_pairs, "build_switch"),
    pair(_right_inverse_table, _right_inverse_closed_form, _passing_specs, "right_inverse"),
    pair(commutative_isotopy_test, _isotopy_scan, _passing_ops, "isotopy"),
    pair(commutative_isotopy_test, _isotopy_scan, _dual_spread_ops, "isotopy_dual_spread"),
    pair(_products(unitalize), _products(_unitalize_scan), _op_and_pairs, "unitalize"),
    pair(_nuclei_sets, _nuclei_scan, _unital_ops, "nuclei"),
]


@pytest.mark.parametrize("fast, oracle, inputs, fields", PAIRS)
def test_fast_routes_match_oracles(request, fast, oracle, inputs, fields):
    checked = 0
    for name in fields:
        for args in inputs(request.getfixturevalue(name)):
            assert fast(*args) == oracle(*args), (name, args)
            checked += 1
    assert checked
