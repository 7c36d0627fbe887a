"""Switched multiplications: cancellation, unitalization, nuclei, commutativity."""

import itertools
import random
import tracemalloc

import pytest

from semiswitch import (
    BinaryOp,
    ConsistencyError,
    LinearizedPoly,
    SwitchSpec,
    build_field,
    build_switch,
    classify,
    commutative_criterion,
    commutative_isotopy_test,
    find_zero_divisor,
    n3_construct,
    n4_commutative_op,
    nuclei,
    search,
    switch_spec_for,
    switching_predicate,
    theta_set,
    unitalize,
    verify_presemifield,
)
from semiswitch import presemifield

from oracles import (
    _center_separating_algebra,
    _isotopy_scan,
    _matrix_algebra,
    _nuclei_scan,
    _twisted_field,
    _zero_divisor_by_kernels,
    _zero_divisor_scan,
    deep_classify,
    dual_spread_op,
    field_op,
    is_commutative,
    nuclei_members,
    predicate_equivalence_check,
)


def test_zero_b_is_field_multiplication(f9):
    op = build_switch(SwitchSpec(f9, (0, 0)))
    for x in range(f9.order):
        for y in range(f9.order):
            assert op(x, y) == f9.mul(x, y)


def test_xi_zero_rejected(f9):
    with pytest.raises(ValueError):
        SwitchSpec(f9, (1, 0), xi=0)


def test_spec_entries_must_be_int_codes(f9):
    # b is checked as LinearizedPoly coefficients are, and no entry is coerced
    for b, xi in (((True, 0), 1), ((1, 0), True)):
        with pytest.raises(ValueError):
            SwitchSpec(f9, b, xi=xi)


def test_field_op_is_presemifield(f9):
    # the field product is the switch of b = 0, with its verdict preset:
    # both walks agree with that verdict
    op = field_op(f9)
    assert op.verified and op.spec == SwitchSpec(f9, (0, 0))
    assert _zero_divisor_by_kernels(field_op(f9)) is None
    op.verified = None
    assert find_zero_divisor(op) is None and op.verified


def test_walk_refuses_an_op_without_xi(f9):
    # the line walk reads the xi of a switch's spec, and no other op has one
    for op in (BinaryOp(f9, f9.mul), BinaryOp(f9, build_switch(SwitchSpec(f9, (1, 0))))):
        assert op.spec is None
        with pytest.raises(ValueError, match="switch"):
            find_zero_divisor(op)
        with pytest.raises(ValueError, match="switch"):
            verify_presemifield(op)
    assert build_switch(SwitchSpec(f9, (1, 0), xi=5)).spec.xi == 5
    assert field_op(f9).spec.xi == 1


def test_switch_from_passing_poly_cancels(f9):
    # route a predicate-true L through the induced coefficients
    for L in search(f9, mode="exhaustive")[:8]:
        spec = switch_spec_for(L)
        op = build_switch(spec)
        assert verify_presemifield(op)
        # full-table cancellation double check, 81 x 81
        for a in f9.units():
            assert len({op(x, a) for x in range(f9.order)}) == f9.order
            assert len({op(a, y) for y in range(f9.order)}) == f9.order


def test_failing_spec_has_zero_divisor(f9):
    # b with Tr(M(a)/a) = -1 somewhere gives x*a = 0 a nonzero solution
    bad = None
    for b in itertools.product(range(9), repeat=2):
        spec = SwitchSpec(f9, b)
        m = LinearizedPoly(f9, tuple(f9.mul(spec.xi, bi) for bi in b))
        fails = any(
            f9.rel_trace(f9.div(m(a), a)) == f9.neg(1) for a in f9.units()
        )
        if fails:
            bad = spec
            break
    assert bad is not None
    op = build_switch(bad)
    assert not verify_presemifield(op)
    # the walk records its verdict on a fresh op, passing or failing
    for fresh in (build_switch(switch_spec_for(search(f9)[0])), build_switch(bad)):
        assert fresh.verified is None
        result = find_zero_divisor(fresh)
        assert fresh.verified is (result is None)
    wit = find_zero_divisor(op)
    assert wit is not None
    x, a = wit
    assert (x != 0 and a != 0) and op(x, a) == 0


def test_equivalence_exhaustive_small():
    # Tr(M(a)/a) != -1 for all units <=> cancellation, over every b
    for (p, m, n) in ((2, 1, 3), (3, 1, 2), (2, 2, 2)):
        ctx = build_field(p, m, n)
        for b in itertools.product(range(ctx.order), repeat=n):
            assert predicate_equivalence_check(SwitchSpec(ctx, b))


def test_equivalence_random_specs(f8, f9):
    rng = random.Random(2024)
    for ctx in (f8, f9):
        for _ in range(200):
            b = tuple(rng.randrange(ctx.order) for _ in range(ctx.n))
            assert predicate_equivalence_check(SwitchSpec(ctx, b))


def test_xi_normalization(f9, f8):
    # (b, xi) cancels iff (xi*b, 1) does
    rng = random.Random(5)
    for ctx in (f9, f8):
        for _ in range(120):
            b = tuple(rng.randrange(ctx.order) for _ in range(ctx.n))
            xi = 1 + rng.randrange(ctx.order - 1)
            with_xi = verify_presemifield(build_switch(SwitchSpec(ctx, b, xi=xi)))
            folded = tuple(ctx.mul(xi, bi) for bi in b)
            assert with_xi == verify_presemifield(
                build_switch(SwitchSpec(ctx, folded))
            )


def test_unitalize_field_is_identity_map(f9):
    star = unitalize(field_op(f9))
    for x in range(f9.order):
        for y in range(f9.order):
            assert star(x, y) == f9.mul(x, y)


def test_unitalize_gives_two_sided_identity(f9):
    for L in search(f9, mode="exhaustive")[:6]:
        op = build_switch(switch_spec_for(L))
        star = unitalize(op)
        for x in range(f9.order):
            assert star(x, 1) == x and star(1, x) == x
        # cancellation survives; the unital op is no switch, so the kernel walk checks it
        assert _zero_divisor_by_kernels(star) is None


def test_unitalize_commutative_skips_left_twist(f81_n4):
    # for commutative ops the left factor is untouched: x*y = B^{-1}(x # y)
    ctx = f81_n4
    op = n4_commutative_op(ctx, 1, 2)
    star = unitalize(op)
    binv = {}
    for x in range(ctx.order):
        binv[op(1, x)] = x
    for x in list(range(ctx.order))[::7]:
        for y in list(range(ctx.order))[::5]:
            assert star(x, y) == binv[op(x, y)]


def test_unitalize_reads_only_basis_images():
    # at F_{32^3}: the side maps are closed forms, so the switch's only
    # calls are the identity check on the F_p-basis, at most 2 m n = 30
    # (not 4 q^n = 131,072)
    ctx = build_field(2, 5, 3)
    u = ctx.exp[ctx.q - 2]
    op = build_switch(switch_spec_for(n3_construct(ctx, u, 1, theta_set(ctx, u, 1)[0]).poly))
    assert verify_presemifield(op)
    calls, fn = [], op._fn
    op._fn = lambda x, y: calls.append((x, y)) or fn(x, y)
    star = unitalize(op)
    assert len(calls) <= 2 * ctx.m * ctx.n
    for x in random.Random(32).sample(range(ctx.order), 200):
        assert star(x, 1) == x == star(1, x)


def test_unitalize_rejects_non_cancellative(f9):
    op = build_switch(SwitchSpec(f9, (1, 0)))  # Tr(M(a)/a) = Tr(1) = 2 = -1: fails
    assert not verify_presemifield(op)
    with pytest.raises(ValueError):
        unitalize(op)
    with pytest.raises(ValueError):
        commutative_isotopy_test(build_switch(SwitchSpec(f9, (1, 0))))
    # a passing verdict forced on it meets the zero denominator 1 + Tr(1) = 0
    forced = build_switch(SwitchSpec(f9, (1, 0)))
    forced.verified = True
    with pytest.raises(ConsistencyError, match="verified switch"):
        unitalize(forced)


def test_side_maps_refuse_an_op_that_is_no_switch(f81_n4):
    # the side maps are read off a switch's spec, so an op with none is
    # refused even with a passing verdict set
    op = dual_spread_op(f81_n4, 1, 2)
    assert _zero_divisor_by_kernels(op) is None and op.verified
    for check in (unitalize, commutative_isotopy_test):
        with pytest.raises(ValueError, match="switch"):
            check(op)


def test_deep_classify_builds_no_field_size_table():
    # the deep route on X's switch at F_{3^10} (walk, unitalization, isotopy
    # kernel, nuclei): the side maps are closed forms, so no table of 3^10
    # entries is listed (four of them took about 9 MB).  classify answers X
    # in closed form, and no non-monomial passes at this field
    ctx = build_field(3, 1, 10)
    L = LinearizedPoly(ctx, (1,) + (0,) * 9)
    tracemalloc.start()
    try:
        report = deep_classify(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert report["presemifield"] and report == classify(L)


def test_nuclei_of_field(f9):
    rep = nuclei(unitalize(field_op(f9)))
    assert rep.sizes == (9, 9, 9, 9)
    # any op whose 1 is two-sided will do, not only one unitalize returned
    assert nuclei(BinaryOp(f9, f9.mul)) == rep


def test_nuclei_of_commutative_family_instance(f81_n4):
    op = n4_commutative_op(f81_n4, 1, 2)
    rep = nuclei(unitalize(op))
    assert rep.sizes == (3, 9, 3, 3)
    # center always contains F_q
    assert set(f81_n4.subfield(1)) <= nuclei_members(f81_n4, rep)[3]


def test_nuclei_closed(f81_n4):
    op = n4_commutative_op(f81_n4, 1, 2)
    star = unitalize(op)
    rep = nuclei(star)
    ctx = f81_n4
    for group in nuclei_members(ctx, rep):
        for a in group:
            for b in group:
                assert ctx.add(a, b) in group
                assert star(a, b) in group


def test_commutativity_criterion_exhaustive():
    # classify reports commutative_criterion; is_commutative is its reference
    for (p, m, n) in ((2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)):
        ctx = build_field(p, m, n)
        for b in itertools.product(range(ctx.order), repeat=n):
            spec = SwitchSpec(ctx, b)
            assert is_commutative(build_switch(spec)) == commutative_criterion(spec)


def test_commutativity_criterion_sampled_n4(f81_n4):
    # random b is almost never symmetric, so each draw is also symmetrised
    # (b_1 = b_3^q, b_2 in F_{q^2}) and then knocked off by one coefficient
    ctx, rng = f81_n4, random.Random(4)
    half = ctx.subfield(2)
    seen = set()
    for _ in range(300):
        b = [rng.randrange(ctx.order) for _ in range(4)]
        sym = [b[0], ctx.frobenius(b[3], 1), rng.choice(half), b[3]]
        off = list(sym)
        off[rng.randrange(1, 4)] = rng.randrange(ctx.order)
        for coeffs in (b, sym, off):
            spec = SwitchSpec(ctx, tuple(coeffs))
            verdict = commutative_criterion(spec)
            assert is_commutative(build_switch(spec)) == verdict
            seen.add(verdict)
    assert seen == {True, False}


def test_commutativity_criterion_cases(f27, f81_n4):
    # only b_0 nonzero: Tr(b_0 x y) is symmetric outright
    spec = SwitchSpec(f27, (f27.generator, 0, 0))
    assert commutative_criterion(spec) and is_commutative(build_switch(spec))
    # n=3 with b_2 = 0: a nonzero b_1 breaks symmetry, even inside F_q
    spec = SwitchSpec(f27, (0, 1, 0))
    assert not commutative_criterion(spec)
    assert not is_commutative(build_switch(spec))
    # n=3: b_1 free, b_2 = b_1^(q^2) restores the pairing
    g = f27.generator
    spec = SwitchSpec(f27, (0, g, f27.frobenius(g, 2)))
    assert commutative_criterion(spec)
    assert is_commutative(build_switch(spec))
    # n=4: b_2 in F_{q^2} \ F_q is fine when b_1 = b_3 = 0
    ctx = f81_n4
    half = next(
        x for x in ctx.subfield(2) if not ctx.in_subfield(x, 1)
    )
    spec = SwitchSpec(ctx, (1, 0, half, 0))
    assert commutative_criterion(spec)
    assert is_commutative(build_switch(spec))
    # but b_2 outside F_{q^2} is not
    spec = SwitchSpec(ctx, (1, 0, ctx.generator, 0))
    assert not ctx.in_subfield(ctx.generator, 2)
    assert not commutative_criterion(spec)
    assert not is_commutative(build_switch(spec))


def test_right_unit_inverse(f9, f81_n4):
    # the closed-form side maps on their defining identities:
    # A(x)*1 = x, 1*B^(-1)(x) = x and B1(x)*1 = 1*x
    def check(op):
        b1, binv, A = presemifield._unital_maps(op)
        for x in range(op.ctx.order):
            assert op(A(x), 1) == x and op(1, binv(x)) == x and op(b1(x), 1) == op(1, x)

    # b = 0: all three are the identity
    maps = presemifield._unital_maps(field_op(f9))
    assert all(f(x) == x for f in maps for x in range(f9.order))
    # random valid specs with a random xi
    rng = random.Random(11)
    found = 0
    while found < 10:
        b = tuple(rng.randrange(9) for _ in range(2))
        op = build_switch(SwitchSpec(f9, b, xi=rng.randrange(1, 9)))
        if not verify_presemifield(op):
            continue
        found += 1
        check(op)
    # the n=4 commutative instance, exhaustively over F_81
    check(n4_commutative_op(f81_n4, 1, 2))


def test_isotopy_test_commutative_gives_one(f81_n4):
    op = n4_commutative_op(f81_n4, 1, 2)
    ok, witness = commutative_isotopy_test(op)
    assert ok and witness == 1


def test_isotopy_test_whole_field_kernel_lists_no_span(monkeypatch):
    # every v is a witness for the field product, and 1 = gamma^0 comes back
    # without listing the 3^10 members of the kernel's span
    op = field_op(build_field(3, 1, 10))

    def no_span(*args):
        raise AssertionError("the whole-field kernel was listed")

    monkeypatch.setattr(presemifield, "_span", no_span)
    assert commutative_isotopy_test(op) == (True, 1)


def test_isotopy_test_noncommutative_family(f81_n4):
    # a_1 = gamma^8 lands outside F_9, so the op is not commutative,
    # but it is isotopic to a commutative one; witnesses w satisfy a_1 w in F_9
    ctx = f81_n4
    a1 = ctx.pow(ctx.generator, 8)
    op = n4_commutative_op(ctx, a1, 2)
    assert not is_commutative(op)
    ok, w = commutative_isotopy_test(op)
    assert ok
    assert ctx.in_subfield(ctx.mul(a1, w), 2)


def test_isotopy_test_negative_q4_instance(f64_q4):
    ctx = f64_q4
    xi = ctx.generator
    inst = n3_construct(ctx, ctx.pow(xi, 5), xi, ctx.pow(xi, 62))
    assert switching_predicate(inst.poly)
    op = build_switch(switch_spec_for(inst.poly))
    assert verify_presemifield(op)
    ok, w = commutative_isotopy_test(op)
    assert not ok and w is None


def test_dual_spread_identity(f81_n4):
    ctx = f81_n4
    a1, a0t = 1, 2
    star = n4_commutative_op(ctx, a1, a0t)
    circ = dual_spread_op(ctx, a1, a0t)
    # adjoint relation Tr(x*(z o y)) = Tr(z*(x # y)) on a basis
    basis = [ctx.pow(ctx.generator, k) for k in range(4)]
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = ctx.rel_trace(ctx.mul(x, circ(z, y)))
                rhs = ctx.rel_trace(ctx.mul(z, star(x, y)))
                assert lhs == rhs
    assert _zero_divisor_by_kernels(circ) is None


def test_dual_spread_trivial_and_domain(f81_n4, f27):
    circ = dual_spread_op(f81_n4, 0, 0)
    for x in range(f81_n4.order)[::5]:
        for y in range(f81_n4.order)[::5]:
            assert circ(x, y) == f81_n4.mul(x, y)
    with pytest.raises(ValueError):
        dual_spread_op(f27, 1, 1)


@pytest.mark.parametrize(
    "field, mask, step",
    [
        ("f9", None, 1),
        ("f16_q4", None, 1),
        ("f81_n4", (0, 2), 13),  # witnesses 1, 7, 9, 13 and 63
        ("f81_q9", None, 288),
        ("f64_q4", None, 100),  # mostly not isotopic to commutative
    ],
)
def test_kernel_routes_match_scans(request, field, mask, step):
    ctx = request.getfixturevalue(field)
    hits = search(ctx, mask, mode="exhaustive")[::step]
    assert hits
    for L in hits:
        op = build_switch(switch_spec_for(L))
        assert verify_presemifield(op)
        assert find_zero_divisor(op) is None is _zero_divisor_scan(op)
        assert commutative_isotopy_test(op) == _isotopy_scan(op)
        star = unitalize(op)
        rep = nuclei(star)
        assert nuclei_members(star.ctx, rep) == _nuclei_scan(star)


def _q4_switching(ctx):
    """The unitalized F_64/F_4 switching that is not isotopic to a commutative one."""
    xi = ctx.generator
    inst = n3_construct(ctx, ctx.pow(xi, 5), xi, ctx.pow(xi, 62))
    return unitalize(build_switch(switch_spec_for(inst.poly)))


def test_nuclei_of_matrix_algebra(f81_n4):
    # associative, so every nucleus is everything, but only the scalar
    # matrices are central
    op = _matrix_algebra(f81_n4)
    rep = nuclei(op)
    assert rep.sizes == (81, 81, 81, 3)
    assert nuclei_members(op.ctx, rep) == _nuclei_scan(op)


def test_nuclei_reject_a_one_that_is_no_identity(f81_n4):
    # the matrices on (E11, E12, E21, E22): the code 1 is E11, and
    # E11 * E12 = E12 but E12 * E11 = 0
    with pytest.raises(ValueError, match="two-sided identity at 3"):
        nuclei(_matrix_algebra(f81_n4, first="E11"))


def test_nuclei_op_call_ceilings(f27):
    # op calls, identity check included: the all-pairs route takes 297
    # at F_27 whatever the nuclei are
    def sizes_and_calls(op):
        calls = []
        counted = BinaryOp(f27, lambda x, y: calls.append(x) or op(x, y))
        return nuclei(counted).sizes, len(calls)

    sizes, calls = sizes_and_calls(unitalize(field_op(f27)))
    assert sizes == (27, 27, 27, 27) and calls <= 160
    seen = 0
    for L in search(f27, mode="exhaustive"):
        if L.is_monomial():
            continue
        sizes, calls = sizes_and_calls(unitalize(build_switch(switch_spec_for(L))))
        assert sizes == (3, 3, 3, 3) and calls <= 50, (L.coeffs, calls)
        seen += 1
    assert seen == 234


@pytest.mark.parametrize("p, sizes, commuting", [(2, (16, 4, 4, 2), 8), (3, (81, 9, 9, 3), 27)])
def test_center_is_not_left_nucleus_meet_commutant(p, sizes, commuting):
    # a is in the left nucleus and commutes with everything, but not in
    # the middle nucleus: (d a) b = 0 while d (a b) = d c = d
    ctx = build_field(p, 1, 5)
    op = _center_separating_algebra(ctx)
    rep = nuclei(op)
    assert rep.sizes == sizes
    assert nuclei_members(op.ctx, rep) == _nuclei_scan(op)
    basis = ctx.exp[: ctx.n]
    left, middle = nuclei_members(ctx, rep)[:2]
    left_commuting = {x for x in left if all(op(x, e) == op(e, x) for e in basis)}
    assert len(left_commuting) == commuting
    a = p
    assert a in left_commuting and a not in middle


@pytest.mark.parametrize(
    "a, b, sizes", [(2, 1, (9, 3, 3)), (1, 2, (3, 3, 9)), (1, 3, (3, 9, 3))]
)
def test_nuclei_of_twisted_field(f81_n4, a, b, sizes):
    # the left, middle and right nuclei differ, so a mix-up of the slots shows
    star = _twisted_field(f81_n4, a, b)
    rep = nuclei(star)
    assert rep.sizes[:3] == sizes
    assert nuclei_members(star.ctx, rep) == _nuclei_scan(star)


@pytest.mark.parametrize(
    "field, build",
    [
        ("f81_n4", lambda ctx: _twisted_field(ctx, 2, 1)),
        ("f81_n4", lambda ctx: _twisted_field(ctx, 1, 2)),
        ("f81_n4", lambda ctx: _twisted_field(ctx, 1, 3)),
        ("f81_n4", _matrix_algebra),
        ("f64_q4", _q4_switching),
    ],
    ids=["twisted-2-1", "twisted-1-2", "twisted-1-3", "matrices", "f64_q4-switching"],
)
def test_opposite_op_swaps_left_and_right_nuclei(request, field, build):
    # x o y = y * x: the left and right nuclei trade places, the middle
    # nucleus and the center stay
    op = build(request.getfixturevalue(field))
    assert not is_commutative(op)
    opposite = BinaryOp(op.ctx, lambda x, y: op(y, x))
    left, middle, right, center = nuclei_members(op.ctx, nuclei(op))
    assert nuclei_members(op.ctx, nuclei(opposite)) == (right, middle, left, center)


@pytest.mark.parametrize("field", ["f9", "f16_q4", "f81_n4", "f81_q9", "f64_q4"])
def test_zero_divisor_matches_scan(request, field):
    ctx = request.getfixturevalue(field)
    rng = random.Random(17)
    failing = 0
    while failing < 12:
        op = build_switch(
            SwitchSpec(ctx, tuple(rng.randrange(ctx.order) for _ in range(ctx.n)))
        )
        if verify_presemifield(op):
            continue
        failing += 1
        x, y = find_zero_divisor(op)
        assert (x, y) == _zero_divisor_scan(op)
        assert op(x, y) == 0
