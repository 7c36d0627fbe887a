"""Field arithmetic: construction, tables, Frobenius, trace, norm, subfields."""

import copy
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from semiswitch import (
    ConsistencyError,
    FieldCtx,
    build_field,
    classify,
    gf,
    search,
    theta_set,
)
from semiswitch.gf import (
    _decode,
    _encode,
    _is_irreducible,
    _linear_table,
    _poly_mul_mod,
)

from oracles import _linear_map_oracle, _step_by_step_tables


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
        for x in range(ctx.order):
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
        for x in range(ctx.order):
            assert ctx.in_subfield(ctx.rel_trace(x), 1)
            assert ctx.in_subfield(ctx.rel_norm(x), 1)


def test_trace_is_additive_and_linear(f9, f64_q4):
    for ctx in (f9, f64_q4):
        els = list(range(ctx.order))
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
        fixed = [x for x in range(ctx.order) if ctx.frobenius(x, 1) == x]
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
        # exp lists each unit once, and log inverts it
        assert sorted(ctx.exp) == list(ctx.units())
        for k, x in enumerate(ctx.exp):
            assert ctx.log[x] == k
        assert ctx.log[0] is None


def test_field_state_is_fixed_after_construction():
    ctx = build_field(3, 1, 4)
    before = copy.deepcopy(vars(ctx))
    x, y = ctx.generator, ctx.add(ctx.generator, 1)
    calls = {
        "add": (x, y), "neg": (x,), "sub": (x, y), "mul": (x, y), "inv": (x,),
        "div": (x, y), "pow": (x, -5), "frobenius": (x, 3), "rel_trace": (x,),
        "rel_norm": (x,), "in_subfield": (x, 2), "units": (),
        "to_spec": (),
    }
    public = {k for k in dir(ctx) if not k.startswith("_") and callable(getattr(ctx, k))}
    assert public == set(calls) | {"subfield"}
    for name, args in calls.items():
        getattr(ctx, name)(*args)
    for d in (1, 2, 4):
        ctx.subfield(d)
    repr(ctx)
    assert vars(ctx) == before


FIXTURE_FIELDS = ["f5", "f7", "f4", "f8", "f9", "f16_q4", "f27", "f64_q4", "f81_n4", "f81_q9"]


def test_trace_one_is_the_least_code_of_trace_1(request):
    for ctx in [request.getfixturevalue(name) for name in FIXTURE_FIELDS]:
        assert ctx.trace_one == ctx.tr.index(1), ctx
    assert build_field(2, 1, 16).trace_one == 2048


class _Unscannable(list):
    def index(self, *args):
        raise AssertionError("tr scanned after construction")


def test_trace_one_is_read_once_at_construction(f27, monkeypatch):
    # search, classify and theta_set read ctx.trace_one, never tr.index(1)
    monkeypatch.setattr(f27, "tr", _Unscannable(f27.tr))
    hits = search(f27)
    assert hits and all(classify(L)["presemifield"] for L in hits[:: len(hits) // 5])
    assert len(theta_set(f27, 1, f27.generator)) == 9
    assert search(f27, (0, 2), mode="random", seed=1, budget=1000)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        build_field(2, 1, 2, modulus=(1, 0, 1))  # X^2+1 = (X+1)^2 over F_2
    with pytest.raises(ValueError):
        build_field(2, 1, 2, modulus=(0, 1, 1))  # X^2+X has the root 0
    # entries are taken as given, not reduced mod p nor coerced to int
    for modulus in ((1, 0, 4), (-2, 0, 1), (1.5, 0, 1), (True, 0, 1)):
        with pytest.raises(ValueError, match=r"is not an int in 0\.\.2"):
            build_field(3, 1, 2, modulus=modulus)
    # a modulus is a tuple or list of deg + 1 codes, nothing else
    with pytest.raises(ValueError, match="^modulus must be a tuple or list"):
        build_field(3, 1, 2, modulus=5)
    for modulus in ((1, 1), (2, 0, 0, 1)):
        with pytest.raises(ValueError, match="^modulus needs 3 coefficients"):
            build_field(3, 1, 2, modulus=modulus)
    with pytest.raises(ValueError, match=r"monic \(leading coefficient 2\)"):
        build_field(3, 1, 2, modulus=(2, 0, 2))


def test_field_shape_and_cap_must_be_ints():
    # int() would read True as m = 1 and record "m": true in to_spec()
    for shape in ((2, True, 2), (2.0, 1, 2), (3, 1, 2.0), (3, 1.0, 2)):
        with pytest.raises(ValueError, match="must be an int"):
            build_field(*shape)
    for cap in (True, 100.0):
        with pytest.raises(ValueError, match="field cap must be an int"):
            build_field(3, 1, 2, cap=cap)
    with pytest.raises(ValueError, match="m and n must be positive"):
        build_field(3, 0, 2)


def test_cap_enforced():
    from semiswitch import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        build_field(2, 1, 30)
    with pytest.raises(ValueError, match="field cap"):
        build_field(2, 1, 2, cap=-1)


def test_spec_roundtrip(f9):
    # the spec a config record carries rebuilds the same field through JSON
    spec = json.loads(json.dumps(f9.to_spec()))
    assert set(spec) == {"p", "m", "n", "modulus", "generator_index"}
    ctx2 = build_field(spec["p"], spec["m"], spec["n"], modulus=spec["modulus"])
    assert ctx2.to_spec() == spec


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


# ---- construction against the step-by-step oracle ----


def _poly_rem(f, g, p):
    """f mod the monic g over F_p, little-endian lists."""
    f = list(f)
    dg = len(g) - 1
    for k in range(len(f) - 1, dg - 1, -1):
        c = f[k]
        if c:
            for t in range(dg + 1):
                f[k - dg + t] = (f[k - dg + t] - c * g[t]) % p
    return f[:dg]


def _smallest_irreducible(p, d):
    """Smallest-code monic of degree d with no monic factor of degree <= d/2."""
    for code in range(p**d, 2 * p**d):
        f = _decode(code, p, d + 1)
        if not any(
            not any(_poly_rem(f, _decode(g, p, e + 1), p))
            for e in range(1, d // 2 + 1)
            for g in range(p**e, 2 * p**e)
        ):
            return tuple(f)


def _smallest_primitive(ctx):
    """Smallest code whose powers, by polynomial products, reach q^n - 1."""
    p, d, mod = ctx.p, ctx.m * ctx.n, list(ctx.modulus)
    for cand in range(2, ctx.order):
        g = _decode(cand, p, d)
        cur, k = g, 1
        while _encode(cur, p) != 1:
            cur, k = _poly_mul_mod(cur, g, mod, p), k + 1
        if k == ctx.mult_order:
            return cand


@pytest.mark.parametrize(
    "shape, modulus",
    [
        # gamma is not the root X of the modulus (gamma = 4, 6, 9, 3)
        ((3, 1, 2), None),
        ((5, 1, 2), None),
        ((5, 1, 3), None),
        ((2, 1, 8), None),
        # extensions with m > 1
        ((2, 2, 3), None),
        ((3, 2, 2), None),
        ((2, 3, 2), None),
        # a user-supplied modulus (the default for F_27 is X^3+2X+1)
        ((3, 1, 3), (2, 2, 0, 1)),
        ((2, 1, 12), None),
        # n = 1: F_q is the whole field and the trace is the identity
        ((5, 1, 1), None),
        ((2, 3, 1), None),
        # the trace's step maps run over F_27
        ((3, 3, 2), None),
    ],
)
def test_tables_match_step_by_step_construction(shape, modulus):
    p, m, n = shape
    ctx = build_field(p, m, n, modulus=modulus)
    want = modulus or _smallest_irreducible(p, m * n)
    assert ctx.modulus == want
    assert ctx.generator == _smallest_primitive(ctx)
    exp, log, frob, tr, nm = _step_by_step_tables(ctx)
    assert ctx.exp == exp
    assert ctx.log == log
    assert [ctx.frobenius(x) for x in range(ctx.order)] == frob
    assert ctx.tr == tr
    assert [ctx.rel_norm(x) for x in range(ctx.order)] == nm


@pytest.mark.parametrize(
    "p, d", [(2, 1), (2, 2), (2, 7), (2, 10), (3, 1), (3, 4), (5, 3), (7, 2), (13, 1)]
)
def test_linear_table_matches_digit_oracle(p, d):
    rng = random.Random(p * 100 + d)
    for _ in range(3):
        images = [rng.randrange(p**d) for _ in range(d)]
        want = [_linear_map_oracle(p, d, images, c) for c in range(p**d)]
        assert _linear_table(p, d, images) == want
    assert _linear_table(p, d, [0] * d) == [0] * p**d


@pytest.mark.parametrize("shape", [(2, 1, 16), (5, 1, 7)])
def test_build_field_wall_clock_cap(shape):
    start = time.perf_counter()
    build_field(*shape)
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("shape", [(2, 1, 4), (3, 1, 3)])
def test_short_generator_order_is_caught(monkeypatch, shape):
    # a unit of order N/2 (N/3 for p = 2): its powers return to 1 early
    ctx = build_field(*shape)
    small = ctx.exp[2 if ctx.p == 3 else 3]
    monkeypatch.setattr(FieldCtx, "_find_generator", lambda self: small)
    with pytest.raises(ConsistencyError, match="generator order too small") as err:
        build_field(*shape)
    assert err.value.witness == 1


@pytest.mark.parametrize("shape", [(2, 1, 4), (3, 1, 3)])
def test_open_generator_cycle_is_caught(monkeypatch, shape):
    # gamma^(-1) is sent to 0 in place of 1: the walk meets every unit
    # once, and only the step back to 1 fails
    real = gf._linear_table

    def broken(p, d, images):
        table = real(p, d, images)
        table[table.index(1)] = 0
        return table

    monkeypatch.setattr(gf, "_linear_table", broken)
    with pytest.raises(ConsistencyError, match="does not close its cycle") as err:
        build_field(*shape)
    assert err.value.witness is None


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (2, 2, 3)])
def test_unfixed_trace_is_caught(monkeypatch, shape):
    # x -> x^p in place of x -> x^q: the "traces" leave F_q, and the
    # witness is the smallest code whose trace the check sees unfixed
    ctx = build_field(*shape)
    p, n = ctx.p, ctx.n

    def frob(x, k=1):
        return ctx.pow(x, p ** (k % n))

    def trace(x):
        acc = 0
        for i in range(n):
            acc = ctx.add(acc, frob(x, i))
        return acc

    want = next(x for x in range(ctx.order) if frob(trace(x)) != trace(x))
    assert want in [p**j for j in range(ctx.m * n)]
    monkeypatch.setattr(FieldCtx, "frobenius", lambda self, x, k=1: frob(x, k))
    with pytest.raises(ConsistencyError, match="trace image not fixed by Frobenius") as err:
        build_field(*shape)
    assert err.value.witness == want


@pytest.mark.parametrize("shape", [(2, 1, 6), (3, 2, 2), (5, 1, 3)])
def test_only_exp_log_and_tr_are_field_size(shape):
    ctx = build_field(*shape)
    big = {
        k for k, v in vars(ctx).items() if isinstance(v, (list, tuple)) and len(v) >= ctx.mult_order
    }
    assert big == {"exp", "log", "tr"}
