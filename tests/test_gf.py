"""Field arithmetic: construction, tables, Frobenius, trace, norm, subfields."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from semiswitch import FieldCtx, build_field, field_from_spec
from semiswitch.gf import _is_irreducible


# w = code 2 is the root of X^2+X+1 in F_4; w^2 = w+1 = code 3
W = 2
W1 = 3


def test_f4_construction(f4):
    assert (f4.p, f4.m, f4.n) == (2, 1, 2)
    assert f4.order == 4
    assert f4.mul(W, W) == W1


def test_f4_generator_is_omega(f4):
    # scan order: 2 is the first unit of order 3
    assert f4.generator == W


def test_f64_as_f4_cubed(f64_q4):
    ctx = f64_q4
    assert ctx.q == 4
    assert ctx.order == 64
    # the root xi = code 2 of the chosen modulus is itself primitive
    assert ctx.generator == 2
    seen = set()
    x = 1
    for _ in range(63):
        seen.add(x)
        x = ctx.mul(x, 2)
    assert len(seen) == 63 and x == 1


def test_f9_deterministic_modulus(f9):
    # smallest-code scan over monic degree-2 polys lands on X^2+1
    assert f9.modulus == (1, 0, 1)
    # and the smallest primitive element is X+1 (code 4)
    assert f9.generator == 4
    i = 3  # the root X
    assert f9.mul(i, i) == 2


def test_direct_arith(f4, f9):
    assert f4.mul(W, W) == W1
    assert f9.mul(3, 3) == 2
    assert f9.add(1, 2) == 0
    assert f9.sub(0, 1) == 2
    assert f9.pow(4, 4) == 2
    for x in range(1, 9):
        assert f9.mul(x, 1) == x
        assert f9.mul(x, f9.inv(x)) == 1


def test_inv_of_zero_raises(f9):
    with pytest.raises(ZeroDivisionError):
        f9.inv(0)
    with pytest.raises(ZeroDivisionError):
        f9.div(1, 0)


def test_frobenius(f9, f4, f27):
    i = 3
    assert f9.frobenius(i, 1) == f9.mul(2, i)  # i^3 = 2i
    for ctx in (f9, f4, f27):
        for x in ctx.elements():
            assert ctx.frobenius(x, ctx.n) == x
        for c in ctx.subfield(1):
            assert ctx.frobenius(c, 1) == c


def test_rel_trace_anchors(f4, f9):
    assert f4.rel_trace(W) == 1  # w + w^2 = 1
    # subfield constants: Tr(c) = n*c, so over F_9/F_3: Tr(1) = 2, Tr(2) = 1
    for c in f9.subfield(1):
        assert f9.rel_trace(c) == f9.mul(c, 2)
    assert f9.rel_trace(1) == 2
    assert f9.rel_trace(2) == 1


def test_rel_norm_anchors(f9):
    assert f9.rel_norm(3) == 1  # i^4 = 1
    assert f9.rel_norm(0) == 0


def test_trace_norm_land_in_subfield(f8, f9, f64_q4):
    for ctx in (f8, f9, f64_q4):
        for x in ctx.elements():
            assert ctx.in_subfield(ctx.rel_trace(x), 1)
            assert ctx.in_subfield(ctx.rel_norm(x), 1)


def test_trace_is_additive_and_linear(f9, f64_q4):
    for ctx in (f9, f64_q4):
        els = list(ctx.elements())
        for x in els:
            for y in els[:: max(1, len(els) // 16)]:
                assert ctx.rel_trace(ctx.add(x, y)) == ctx.add(
                    ctx.rel_trace(x), ctx.rel_trace(y)
                )
        for c in ctx.subfield(1):
            for x in els[:: max(1, len(els) // 16)]:
                assert ctx.rel_trace(ctx.mul(c, x)) == ctx.mul(c, ctx.rel_trace(x))


def test_norm_is_multiplicative(f9, f27):
    for ctx in (f9, f27):
        for x in ctx.units():
            for y in ctx.units():
                assert ctx.rel_norm(ctx.mul(x, y)) == ctx.mul(
                    ctx.rel_norm(x), ctx.rel_norm(y)
                )


def test_frobenius_fixes_exactly_q(f9, f27, f64_q4):
    for ctx in (f9, f27, f64_q4):
        fixed = [x for x in ctx.elements() if ctx.frobenius(x, 1) == x]
        assert len(fixed) == ctx.q
        assert sorted(fixed) == sorted(ctx.subfield(1))


def test_in_subfield(f64_q4):
    ctx = f64_q4
    xi21 = ctx.pow(2, 21)
    assert ctx.in_subfield(xi21, 1)
    assert ctx.in_subfield(0, 1) and ctx.in_subfield(1, 1)
    assert not ctx.in_subfield(ctx.generator, 1)
    with pytest.raises(ValueError):
        ctx.in_subfield(1, 4)


def test_subfield_enumeration(f64_q4, f81_q9):
    for ctx in (f64_q4, f81_q9):
        sub = ctx.subfield(1)
        assert len(sub) == ctx.q
        assert sub[0] == 0 and sub[1] == 1
        assert len(set(sub)) == ctx.q
        for c in sub:
            assert ctx.in_subfield(c, 1)


def test_dual_representation_roundtrip(f9, f64_q4):
    for ctx in (f9, f64_q4):
        for x in ctx.elements():
            assert ctx.from_vector(ctx.vector_of(x)) == x
            assert ctx.from_index(ctx.index_of(x)) == x
        assert ctx.index_of(0) is None


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        build_field(2, 1, 2, modulus=(1, 0, 1))  # X^2+1 = (X+1)^2 over F_2
    with pytest.raises(ValueError):
        build_field(2, 1, 2, modulus=(0, 1, 1))  # X^2+X has the root 0


def test_cap_enforced():
    from semiswitch import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        build_field(2, 1, 30)


def test_spec_roundtrip(f9):
    spec = f9.to_spec()
    assert set(spec) == {"p", "m", "n", "modulus", "generator_index"}
    ctx2 = field_from_spec(json.loads(json.dumps(spec)))
    assert ctx2.modulus == f9.modulus and ctx2.generator == f9.generator


def test_irreducibility_helper():
    assert _is_irreducible((1, 1, 1), 2)
    assert not _is_irreducible((1, 0, 1), 2)
    assert _is_irreducible((1, 0, 1), 3)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 80), st.integers(0, 80))
def test_f81_add_commutes_mul_distributes(x, y):
    ctx = _F81()
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, y) == ctx.mul(y, x)
    for z in (0, 1, 5, 17):
        lhs = ctx.mul(x, ctx.add(y, z))
        rhs = ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        assert lhs == rhs


_cache = {}


def _F81():
    if "f81" not in _cache:
        _cache["f81"] = build_field(3, 1, 4)
    return _cache["f81"]
