"""Explicit small-degree families: criteria, constructions, classification."""

import itertools
import random
import time

import pytest

from semiswitch import (
    ConsistencyError,
    LinearizedPoly,
    build_field,
    build_switch,
    classify,
    n2_criterion,
    n3_construct,
    n4_commutative_op,
    n4_criterion,
    search,
    switch_spec_for,
    switching_predicate,
    theta_set,
    verify_presemifield,
)
from semiswitch.families import is_square_in_base, matches_n3

from oracles import _matches_n3_scan, _random_members, n2_lemma_roots


# ---------------------------------------------------------------- n = 2


def test_n2_criterion_monomial_case(f9, f16_q4):
    for ctx in (f9, f16_q4):
        for a0 in range(ctx.order):
            want = ctx.rel_trace(a0) != 0
            assert n2_criterion(ctx, 0, a0) == want


def test_n2_criterion_binary_a1_always_false(f16_q4):
    # over F_4 = F_q with q = 4? no: q must be 2 here
    ctx = build_field(2, 1, 2)
    for a1 in (1, 2, 3):
        for a0 in range(ctx.order):
            assert not n2_criterion(ctx, a1, a0)


def test_n2_criterion_gamma_instance(f9):
    # a_1 = gamma, Tr(a_0) = 0: X^2 + 2 has roots 1 and 2
    for a0 in range(f9.order):
        if f9.rel_trace(a0) == 0:
            assert n2_criterion(f9, 4, a0)


def test_n2_iff_exhaustive():
    for p, m in ((3, 1), (2, 1)):
        ctx = build_field(p, m, 2)
        for a1 in range(ctx.order):
            for a0 in range(ctx.order):
                L = LinearizedPoly(ctx, (a0, a1))
                assert n2_criterion(ctx, a1, a0) == switching_predicate(L)


def test_n2_iff_exhaustive_q4(f16_q4):
    ctx = f16_q4
    for a1 in range(ctx.order):
        for a0 in range(ctx.order):
            L = LinearizedPoly(ctx, (a0, a1))
            assert n2_criterion(ctx, a1, a0) == switching_predicate(L)


def test_n2_criterion_wrong_degree(f27):
    with pytest.raises(ValueError):
        n2_criterion(f27, 1, 1)


def test_n2_criterion_takes_only_element_codes(f9):
    # read unchecked, a_1 = -1 passes and a_1 = 81 runs off the tables
    for a1, a0, name in ((-1, 0, "a1 -1"), (81, 0, "a1 81"), (0, 1.0, "a0 1.0")):
        with pytest.raises(ValueError, match=f"{name} is not an int in 0..8"):
            n2_criterion(f9, a1, a0)


def test_n2_lemma_roots_degenerate(f9):
    # a_1 = 0: the equation collapses to Tr(a_0) y = 0
    assert n2_lemma_roots(f9, 0, 1) == {0}
    assert n2_lemma_roots(f9, 0, 3) == set(range(f9.order))


def test_n2_lemma_characterization(f9):
    # predicate fails iff the quadratic has a root that is a (q-1)-th
    # power of a unit; the whole parameter space is small, check all of it
    for a1 in range(f9.order):
        for a0 in range(f9.order):
            L = LinearizedPoly(f9, (a0, a1))
            roots = n2_lemma_roots(f9, a1, a0)
            hit = any(r != 0 and f9.log[r] % (f9.q - 1) == 0 for r in roots)
            assert switching_predicate(L) == (not hit)


# ---------------------------------------------------------------- n = 3


def test_theta_set_size(f27, f64_q4):
    for ctx, u, v in ((f27, 1, f27.pow(f27.generator, 2)), (f64_q4, f64_q4.pow(2, 5), 2)):
        B = theta_set(ctx, u, v)
        assert len(B) == ctx.q ** 2
        assert len(set(B)) == len(B)


def test_theta_set_is_affine_subspace(f27):
    ctx = f27
    u, v = 1, ctx.pow(ctx.generator, 2)
    B = theta_set(ctx, u, v)
    # coset of the trace-kernel: theta - theta' always lands in the kernel
    w = ctx.mul(ctx.frobenius(u, 2), ctx.frobenius(v, 1))
    t0 = B[0]
    for t in B:
        assert ctx.rel_trace(ctx.mul(w, ctx.sub(t, t0))) == 0


def test_n3_construct_all_theta_q3(f27):
    ctx = f27
    u, v = 1, ctx.pow(ctx.generator, 2)
    # norm precondition: N(-g^2) = 2 != 1
    for theta in theta_set(ctx, u, v):
        inst = n3_construct(ctx, u, v, theta)
        assert switching_predicate(inst.poly)
        assert inst.kind == "n3"


def test_theta_set_takes_only_element_codes(f27):
    # read unchecked, u = -1 gives 9 thetas
    for u, v, name in ((-1, 2, "u -1"), (1, 27, "v 27")):
        with pytest.raises(ValueError, match=f"{name} is not an int in 0..26"):
            theta_set(f27, u, v)


def test_n3_construct_takes_only_element_codes(f27):
    # read unchecked, each of these builds a member
    for args, name in (((True, 9, 3), "u True"), ((1, 9, -24), "theta -24"), ((1, 9, 3, -1), "a -1")):
        with pytest.raises(ValueError, match=f"{name} is not an int in 0..26"):
            n3_construct(f27, *args)


def test_n3_construct_rejects_bad_norm(f27):
    ctx = f27
    # N(-v/u) = 1 whenever v = -u
    with pytest.raises(ValueError):
        n3_construct(ctx, 1, ctx.neg(1), 0)


def test_n3_construct_rejects_bad_theta(f27):
    ctx = f27
    u, v = 1, ctx.pow(ctx.generator, 2)
    B = set(theta_set(ctx, u, v))
    outside = next(x for x in range(ctx.order) if x not in B)
    with pytest.raises(ValueError):
        n3_construct(ctx, u, v, outside)


def test_n3_q4_flagship_instance(f64_q4):
    ctx = f64_q4
    xi = ctx.generator
    inst = n3_construct(ctx, ctx.pow(xi, 5), xi, ctx.pow(xi, 62))
    assert switching_predicate(inst.poly)
    op = build_switch(switch_spec_for(inst.poly))
    assert verify_presemifield(op)


def test_n3_isotopy_across_a(f27):
    # different a give isotopic ops: star_a(x, y) = star_1(a x, y) / a ... the
    # stated relation is checked pointwise through the defining identity
    ctx = f27
    u, v = 1, ctx.pow(ctx.generator, 2)
    theta = theta_set(ctx, u, v)[1]
    for a in (1, ctx.generator, ctx.pow(ctx.generator, 7)):
        inst = n3_construct(ctx, u, v, theta, a=a)
        assert switching_predicate(inst.poly)


def test_matches_n3_roundtrip(f27):
    ctx = f27
    u, v = 1, ctx.pow(ctx.generator, 2)
    theta = theta_set(ctx, u, v)[3]
    inst = n3_construct(ctx, u, v, theta)
    params = matches_n3(inst.poly)
    assert params is not None
    u2, v2, t2, a2 = params
    rebuilt = n3_construct(ctx, u2, v2, t2, a=a2)
    assert rebuilt.poly.coeffs == inst.poly.coeffs


def test_matches_n3_rejects_monomial(f27):
    L = LinearizedPoly(f27, (1, 0, 0))
    assert matches_n3(L) is None


@pytest.mark.parametrize(
    "shape, members, randoms",
    [((3, 1, 3), 0, 300), ((2, 2, 3), 40, 60), ((5, 1, 3), 12, 12)],
    ids=["f27", "f64_q4", "f125"],
)
def test_matches_n3_agrees_with_scan(shape, members, randoms):
    ctx = build_field(*shape)
    rng = random.Random(1406)
    if members:
        hits = _random_members(ctx, rng, members)
    else:
        # every trinomial hit of the exhaustive search
        hits = [L.coeffs for L in search(ctx) if L.coeffs[1] and L.coeffs[2]]
    # the hits, the same hits with a_0 redrawn, and random triples
    cases = hits + [(rng.randrange(ctx.order),) + c[1:] for c in hits]
    cases += [tuple(rng.randrange(ctx.order) for _ in range(3)) for _ in range(randoms)]
    found = 0
    for coeffs in cases:
        L = LinearizedPoly(ctx, coeffs)
        got = matches_n3(L)
        assert got == _matches_n3_scan(L), coeffs
        found += got is not None
    # both members and non-members occur
    assert 0 < found < len(cases)


def test_matches_n3_worst_case_is_fast():
    # u = gamma^(q-2) is the last norm class the (u, v) scan reaches
    ctx = build_field(2, 5, 3)
    u = ctx.exp[ctx.q - 2]
    theta = theta_set(ctx, u, 1)[0]
    L = n3_construct(ctx, u, 1, theta).poly
    start = time.perf_counter()
    got = matches_n3(L)
    assert time.perf_counter() - start < 0.05
    assert got == (u, 1, theta, 1)


# ---------------------------------------------------------------- n = 4


def test_square_in_base(f9, f81_n4):
    # F_3 squares: 1 is, 2 is not, 0 is not a unit square
    assert is_square_in_base(f81_n4, 1)
    assert not is_square_in_base(f81_n4, 2)
    assert not is_square_in_base(f81_n4, 0)
    # elements outside F_q are never "squares in the base field"
    assert not is_square_in_base(f81_n4, f81_n4.generator)


def test_square_in_base_takes_only_element_codes(f9):
    for x in (2.0, -1, 9):
        with pytest.raises(ValueError, match=f"x {x!r} is not an int in 0..8"):
            is_square_in_base(f9, x)


def test_n4_criterion_anchors(f81_n4):
    ctx = f81_n4
    assert n4_criterion(ctx, 1, 0)
    for a0 in range(ctx.order):
        if ctx.rel_trace(a0) != 0:
            assert not n4_criterion(ctx, 1, a0)
    # a_1 with norm-to-F9 landing on a non-square of F_3
    bad = next(
        a1
        for a1 in ctx.units()
        if ctx.pow(a1, ctx.q**2 + 1) == 2
    )
    assert not n4_criterion(ctx, bad, 0)


def test_n4_criterion_rejects_bad_domain(f27, f81_n4):
    with pytest.raises(ValueError):
        n4_criterion(f27, 1, 0)
    ctx = build_field(2, 1, 4)
    with pytest.raises(ValueError):
        n4_criterion(ctx, 1, 0)
    with pytest.raises(ValueError):
        n4_criterion(f81_n4, 0, 1)


def test_n4_criterion_takes_only_element_codes(f81_n4):
    # read unchecked, a_0 = -3 passes
    for a1, a0, name in ((1, -3, "a0 -3"), (81, 0, "a1 81")):
        with pytest.raises(ValueError, match=f"{name} is not an int in 0..80"):
            n4_criterion(f81_n4, a1, a0)


def test_n4_iff(f81_n4):
    ctx = f81_n4
    zero_trace = [a0 for a0 in range(ctx.order) if ctx.rel_trace(a0) == 0]
    assert len(zero_trace) == 27
    # exhaustive on the true side
    true_a1 = [a1 for a1 in ctx.units() if is_square_in_base(ctx, ctx.pow(a1, 10))]
    assert len(true_a1) == 10
    for a1 in true_a1:
        for a0 in zero_trace:
            assert switching_predicate(LinearizedPoly(ctx, (a0, 0, a1, 0)))
    # sampled on the false side
    rng = random.Random(17)
    checked = 0
    while checked < 2000:
        a1 = 1 + rng.randrange(80)
        a0 = rng.randrange(81)
        if n4_criterion(ctx, a1, a0):
            continue
        checked += 1
        assert not switching_predicate(LinearizedPoly(ctx, (a0, 0, a1, 0)))


def test_n4_commutative_construct(f81_n4):
    ctx = f81_n4
    op = n4_commutative_op(ctx, 1, 2)
    assert ctx.rel_trace(2) == ctx.neg(1)
    assert verify_presemifield(op)
    assert op(3, 5) == op(5, 3)


def test_n4_commutative_rejects_bad_trace(f81_n4):
    ctx = f81_n4
    bad = next(x for x in range(ctx.order) if ctx.rel_trace(x) != ctx.neg(1))
    with pytest.raises(ValueError):
        n4_commutative_op(ctx, 1, bad)


def test_n4_commutative_takes_only_element_codes(f81_n4):
    for a1, a0t, name in ((1, 2.0, "a0t 2.0"), (-80, 2, "a1 -80")):
        with pytest.raises(ValueError, match=f"{name} is not an int in 0..80"):
            n4_commutative_op(f81_n4, a1, a0t)


# ---------------------------------------------------------------- classify


def test_classify_monomial(f9):
    L = LinearizedPoly(f9, (1, 0))
    orbits = {}
    rep = classify(L, orbits=orbits)
    assert "monomial" in rep["families"]
    assert rep["predicate"] and rep["presemifield"]
    # an isotope of the field, answered in closed form outside the orbit cache
    assert (rep["ganley"], rep["ganley_witness"], rep["nuclei"]) == (True, 1, [9] * 4)
    assert orbits == {}


def test_classify_failing_row_is_both_verdicts_and_a_zero_divisor(f9, monkeypatch):
    from semiswitch import families

    failing = [
        LinearizedPoly(f9, c)
        for c in itertools.product(range(9), repeat=2)
        if not switching_predicate(LinearizedPoly(f9, c))
    ]
    assert len(failing) == 81 - 18
    for L in failing:
        rep = classify(L)
        x, y = rep.pop("zero_divisor")
        assert rep == {"coeffs": list(L.coeffs), "predicate": False, "presemifield": False}
        assert x and y and build_switch(switch_spec_for(L))(x, y) == 0
    # deep=False builds no op, passing or failing
    monkeypatch.setattr(families, "build_switch", None)
    assert classify(failing[0], deep=False) == {
        "coeffs": list(failing[0].coeffs),
        "predicate": False,
    }
    assert "n2" in classify(search(f9)[0], deep=False)["families"]


def test_classify_raises_when_the_two_routes_disagree(f9, monkeypatch):
    from semiswitch import presemifield

    # classify's one walk, told a zero divisor for the passing L and none for the failing L
    for L, walk in ((search(f9)[0], (1, 1)), (LinearizedPoly(f9, (0, 0)), None)):
        monkeypatch.setattr(presemifield, "find_zero_divisor", lambda op, walk=walk: walk)
        with pytest.raises(ConsistencyError) as info:
            classify(L)
        assert info.value.witness == L.coeffs


def test_known_orbit_member_builds_no_switch(f9, monkeypatch):
    from semiswitch import families, presemifield

    L = next(L for L in search(f9) if not L.is_monomial())
    c = f9.generator
    scaled = LinearizedPoly(
        f9, tuple(f9.mul(a, f9.pow(c, f9.q**i - 1)) for i, a in enumerate(L.coeffs))
    )
    assert scaled.coeffs != L.coeffs and switching_predicate(scaled)
    specs = []
    build = presemifield.build_switch
    # classify builds through families, the isotopy transport would through presemifield
    for module in (families, presemifield):
        monkeypatch.setattr(module, "build_switch", lambda spec: specs.append(spec) or build(spec))
    orbits = {}
    classify(L, orbits=orbits)
    assert len(specs) == 1
    rep = classify(scaled, orbits=orbits)
    assert len(specs) == 1
    # the cached member's witness is transported on the orbit's own switch
    # scaled is the first member met, L, scaled by c
    (orbit,) = orbits.values()
    kernel = presemifield.transport_isotopy_kernel(orbit.op, orbit.kernel, c)
    assert rep["ganley"] and presemifield.isotopy_witness(f9, kernel)[1] == rep["ganley_witness"]
    assert len(specs) == 1
    # without the dict the same member is a first one, walked on its own switch
    assert classify(scaled) == rep
    assert len(specs) == 2


def test_classify_search_output_n2(f9):
    for L in search(f9, mode="exhaustive"):
        rep = classify(L, deep=False)
        assert "n2" in rep["families"]


def test_classify_x9(f81_n4):
    L = LinearizedPoly(f81_n4, (0, 0, 1, 0))
    rep = classify(L, deep=False)
    assert "n4" in rep["families"]
    assert "monomial" not in rep["families"]


def test_classify_reports_nuclei_and_ganley(f81_n4):
    ctx = f81_n4
    L = LinearizedPoly(ctx, (0, 0, 1, 0))
    rep = classify(L)
    assert rep["presemifield"]
    assert rep["ganley"]
    assert tuple(rep["nuclei"]) == (3, 9, 3, 3)


def test_classify_refuses_a_bare_tuple():
    # a tuple has no ctx, so it was an AttributeError
    for deep in (False, True):
        with pytest.raises(ValueError, match=r"L must be a LinearizedPoly, got \(1, 0\)"):
            classify((1, 0), deep=deep)
