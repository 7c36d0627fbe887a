"""Every fast route against its slow oracle from ``oracles.py``.

One parametrised test, one line per (fast route, oracle) pair.  Each
pair runs over the shared fields of conftest.py and over F_729 as F_9^3,
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
from semiswitch.gf import _linear_table

from oracles import (
    _is_permutation_scan,
    _isotopy_scan,
    _linear_map_oracle,
    _matches_n3_scan,
    _min_max_leader_full_scan,
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


@pytest.fixture(scope="module")
def f729():
    return build_field(3, 2, 3)


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


PAIRS = [
    pytest.param(_tables, _step_by_step_tables, lambda ctx: [(ctx,)], id="build_field"),
    pytest.param(_linear_table, _linear_map_scan, _linear_maps, id="linear_table"),
    pytest.param(_transcript, _trace_quotients, _polys, id="transcript"),
    pytest.param(is_permutation, _is_permutation_scan, _polys, id="is_permutation"),
    pytest.param(_n2_by_criterion, _n2_by_lemma, _n2_polys, id="n2_lemma"),
    pytest.param(theta_set, _theta_set_scan, _unit_pairs, id="theta_set"),
    pytest.param(matches_n3, _matches_n3_scan, _n3_polys, id="matches_n3"),
    pytest.param(min_max_leader, _min_max_leader_full_scan, _higher_support, id="min_max_leader"),
    pytest.param(find_zero_divisor, _zero_divisor_scan, _failing_ops, id="find_zero_divisor"),
    pytest.param(verify_presemifield, _verify_by_right_kernels, _all_ops, id="verify"),
    pytest.param(_switch_products, _switch_products_by_form, _spec_and_pairs, id="build_switch"),
    pytest.param(_right_inverse_table, _right_inverse_closed_form, _passing_specs, id="right_inverse"),
    pytest.param(commutative_isotopy_test, _isotopy_scan, _passing_ops, id="isotopy"),
    pytest.param(commutative_isotopy_test, _isotopy_scan, _dual_spread_ops, id="isotopy_dual_spread"),
    pytest.param(_products(unitalize), _products(_unitalize_scan), _op_and_pairs, id="unitalize"),
    pytest.param(_nuclei_sets, _nuclei_scan, _unital_ops, id="nuclei"),
]


@pytest.mark.parametrize("fast, oracle, inputs", PAIRS)
def test_fast_routes_match_oracles(request, fast, oracle, inputs):
    checked = 0
    for name in FIELDS:
        for args in inputs(request.getfixturevalue(name)):
            assert fast(*args) == oracle(*args), (name, args)
            checked += 1
    assert checked
