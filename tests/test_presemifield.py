"""Switched multiplications: cancellation, unitalization, nuclei, commutativity."""

import itertools
import random

import pytest

from semiswitch import (
    BinaryOp,
    LinearizedPoly,
    SwitchSpec,
    build_field,
    build_switch,
    commutative_criterion,
    commutative_isotopy_test,
    dual_spread_op,
    field_op,
    find_zero_divisor,
    is_commutative,
    n3_construct,
    n4_commutative_op,
    nuclei,
    predicate_equivalence_check,
    search,
    switch_spec_for,
    switching_predicate,
    theta_set,
    unitalize,
    verify_presemifield,
)

from semiswitch.gf import _decode, _encode

from oracles import _isotopy_scan, _nuclei_scan, _zero_divisor_scan, right_unit_inverse


def test_zero_b_is_field_multiplication(f9):
    op = build_switch(SwitchSpec(f9, (0, 0)))
    for x in f9.elements():
        for y in f9.elements():
            assert op(x, y) == f9.mul(x, y)


def test_xi_zero_rejected(f9):
    with pytest.raises(ValueError):
        SwitchSpec(f9, (1, 0), xi=0)


def test_field_op_is_presemifield(f9):
    assert verify_presemifield(field_op(f9))


def test_switch_from_passing_poly_cancels(f9):
    # route a predicate-true L through the induced coefficients
    for L in search(f9, mode="exhaustive")[:8]:
        spec = switch_spec_for(L)
        op = build_switch(spec)
        assert verify_presemifield(op)
        # full-table cancellation double check, 81 x 81
        for a in f9.units():
            assert len({op(x, a) for x in f9.elements()}) == f9.order
            assert len({op(a, y) for y in f9.elements()}) == f9.order


def test_failing_spec_has_zero_divisor(f9):
    # b with Tr(M(a)/a) = -1 somewhere gives x*a = 0 a nonzero solution
    bad = None
    for b in itertools.product(range(9), repeat=2):
        spec = SwitchSpec(f9, b)
        m = spec.m_poly()
        fails = any(
            f9.rel_trace(f9.div(m(a), a)) == f9.neg(1) for a in f9.units()
        )
        if fails:
            bad = spec
            break
    assert bad is not None
    op = build_switch(bad)
    assert not verify_presemifield(op)
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
    for x in f9.elements():
        for y in f9.elements():
            assert star(x, y) == f9.mul(x, y)


def test_unitalize_gives_two_sided_identity(f9):
    for L in search(f9, mode="exhaustive")[:6]:
        op = build_switch(switch_spec_for(L))
        star = unitalize(op)
        assert star.unital
        for x in f9.elements():
            assert star(x, 1) == x and star(1, x) == x
        # cancellation survives
        assert verify_presemifield(star)


def test_unitalize_commutative_skips_left_twist(f81_n4):
    # for commutative ops the left factor is untouched: x*y = B^{-1}(x # y)
    ctx = f81_n4
    op = n4_commutative_op(ctx, 1, 2)
    star = unitalize(op)
    binv = {}
    for x in ctx.elements():
        binv[op(1, x)] = x
    for x in list(ctx.elements())[::7]:
        for y in list(ctx.elements())[::5]:
            assert star(x, y) == binv[op(x, y)]


def test_unitalize_reads_only_basis_images():
    # at F_{32^3}: m n = 15 images per side map and the identity on the
    # F_p-basis, so at most 4 m n = 60 op calls (not 4 q^n = 131,072)
    ctx = build_field(2, 5, 3)
    u = ctx.from_index(ctx.q - 2)
    op = build_switch(switch_spec_for(n3_construct(ctx, u, 1, theta_set(ctx, u, 1)[0]).poly))
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return op(x, y)

    counted_op = BinaryOp(ctx, counted)
    counted_op.verified = True  # n3_construct checked the predicate
    star = unitalize(counted_op)
    assert len(calls) <= 4 * ctx.m * ctx.n
    for x in random.Random(32).sample(range(ctx.order), 200):
        assert star(x, 1) == x == star(1, x)


def test_unitalize_rejects_non_cancellative(f9):
    op = build_switch(SwitchSpec(f9, (1, 0)))  # Tr(M(a)/a) = Tr(1) = 2 = -1: fails
    assert not verify_presemifield(op)
    with pytest.raises(ValueError):
        unitalize(op)
    with pytest.raises(ValueError):
        commutative_isotopy_test(build_switch(SwitchSpec(f9, (1, 0))))


def test_side_maps_are_built_once(f81_n4, monkeypatch):
    # unitalize and the isotopy test read one pair of side-map tables
    from semiswitch import presemifield

    tables = []

    def counted(p, d, images):
        tables.append(images)
        return linear_table(p, d, images)

    linear_table = presemifield._linear_table
    monkeypatch.setattr(presemifield, "_linear_table", counted)
    op = BinaryOp(f81_n4, n4_commutative_op(f81_n4, 1, 2))  # no SwitchSpec behind it
    unitalize(op)
    commutative_isotopy_test(op)
    assert len(tables) == 2


def test_nuclei_of_field(f9):
    rep = nuclei(unitalize(field_op(f9)))
    assert rep.sizes == (9, 9, 9, 9)


def test_nuclei_of_commutative_family_instance(f81_n4):
    op = n4_commutative_op(f81_n4, 1, 2)
    rep = nuclei(unitalize(op))
    assert rep.sizes == (3, 9, 3, 3)
    # center always contains F_q
    assert set(f81_n4.subfield(1)) <= set(rep.center)


def test_nuclei_closed(f81_n4):
    op = n4_commutative_op(f81_n4, 1, 2)
    star = unitalize(op)
    rep = nuclei(star)
    ctx = f81_n4
    for group in (rep.left, rep.middle, rep.right, rep.center):
        for a in group:
            for b in group:
                assert ctx.add(a, b) in group
                assert star(a, b) in group


def test_commutativity_criterion_exhaustive():
    for (p, n) in ((2, 3), (3, 2)):
        ctx = build_field(p, 1, n)
        for b in itertools.product(range(ctx.order), repeat=n):
            spec = SwitchSpec(ctx, b)
            assert is_commutative(build_switch(spec)) == commutative_criterion(spec)


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
    # b = 0: A is the identity
    A = right_unit_inverse(SwitchSpec(f9, (0, 0)))
    assert all(A(x) == x for x in f9.elements())
    # random valid specs: A(x)*1 = x everywhere
    rng = random.Random(11)
    found = 0
    while found < 10:
        b = tuple(rng.randrange(9) for _ in range(2))
        spec = SwitchSpec(f9, b)
        op = build_switch(spec)
        if not verify_presemifield(op):
            continue
        found += 1
        A = right_unit_inverse(spec)
        for x in f9.elements():
            assert op(A(x), 1) == x
    # the n=4 commutative instance, exhaustively over F_81
    spec = SwitchSpec(f81_n4, (2, 0, 1, 0))
    op = build_switch(spec)
    assert verify_presemifield(op)
    A = right_unit_inverse(spec)
    for x in f81_n4.elements():
        assert op(A(x), 1) == x


def test_isotopy_test_commutative_gives_one(f81_n4):
    op = n4_commutative_op(f81_n4, 1, 2)
    ok, witness = commutative_isotopy_test(op)
    assert ok and witness == 1


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
    assert verify_presemifield(circ)


def test_dual_spread_trivial_and_domain(f81_n4, f27):
    circ = dual_spread_op(f81_n4, 0, 0)
    for x in list(f81_n4.elements())[::5]:
        for y in list(f81_n4.elements())[::5]:
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
        assert (rep.left, rep.middle, rep.right, rep.center) == _nuclei_scan(star)


def _matrix_algebra(ctx):
    """2x2 matrices over F_3 on the four digits of an element of F_81."""

    def matmul(x, y):
        a, b, c, d = _decode(x, 3, 4)
        e, f, g, h = _decode(y, 3, 4)
        entries = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        return _encode([v % 3 for v in entries], 3)

    return BinaryOp(ctx, matmul, unital=True)


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

    return BinaryOp(ctx, product, unital=True)


def _twisted_field(ctx, a, b):
    """The unitalized generalised twisted field x y - gamma x^(q^a) y^(q^b)."""
    c = ctx.generator

    def twisted(x, y):
        return ctx.sub(
            ctx.mul(x, y), ctx.mul(c, ctx.mul(ctx.frobenius(x, a), ctx.frobenius(y, b)))
        )

    return unitalize(BinaryOp(ctx, twisted))


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
    assert (rep.left, rep.middle, rep.right, rep.center) == _nuclei_scan(op)


@pytest.mark.parametrize("p, sizes, commuting", [(2, (16, 4, 4, 2), 8), (3, (81, 9, 9, 3), 27)])
def test_center_is_not_left_nucleus_meet_commutant(p, sizes, commuting):
    # a is in the left nucleus and commutes with everything, but not in
    # the middle nucleus: (d a) b = 0 while d (a b) = d c = d
    ctx = build_field(p, 1, 5)
    op = _center_separating_algebra(ctx)
    rep = nuclei(op)
    assert rep.sizes == sizes
    assert (rep.left, rep.middle, rep.right, rep.center) == _nuclei_scan(op)
    basis = ctx.exp[: ctx.n]
    left_commuting = {x for x in rep.left if all(op(x, e) == op(e, x) for e in basis)}
    assert len(left_commuting) == commuting
    a = p
    assert a in left_commuting and a not in rep.middle


@pytest.mark.parametrize(
    "a, b, sizes", [(2, 1, (9, 3, 3)), (1, 2, (3, 3, 9)), (1, 3, (3, 9, 3))]
)
def test_nuclei_of_twisted_field(f81_n4, a, b, sizes):
    # the left, middle and right nuclei differ, so a mix-up of the slots shows
    star = _twisted_field(f81_n4, a, b)
    rep = nuclei(star)
    assert rep.sizes[:3] == sizes
    assert (rep.left, rep.middle, rep.right, rep.center) == _nuclei_scan(star)


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
    opposite = BinaryOp(op.ctx, lambda x, y: op(y, x), unital=True)
    rep, opp = nuclei(op), nuclei(opposite)
    assert (opp.left, opp.middle, opp.right, opp.center) == (
        rep.right,
        rep.middle,
        rep.left,
        rep.center,
    )


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
