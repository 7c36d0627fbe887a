"""Base-q digit combinatorics and the power-expansion congruence."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from semiswitch import codes, hws
from semiswitch import (
    BudgetExceeded,
    LinearizedPoly,
    ascent_descent,
    build_field,
    congruence_holds,
    monomial_census,
    ones_run,
    power_coefficient,
    power_expansion,
    search,
    switching_predicate,
    vanishing_sums_check,
    wrap_add_many,
)
from semiswitch.digits import reduce_exponent
from semiswitch.gf import _decode, _encode


# ---------------------------------------------------------------- digits


def test_psi_value_roundtrip():
    # psi, the base-q digit vector of a value, is gf's digit codec at base q
    for q, n in ((2, 3), (3, 2), (3, 4), (4, 3)):
        for v in range(q**n):
            d = _decode(v, q, n)
            assert len(d) == n
            assert all(0 <= x < q for x in d)
            assert _encode(d, q) == v
    assert _encode((2, 0, 1, 1), 3) == 2 + 9 + 27


def test_wrap_add_zero_rule():
    assert wrap_add_many(3, 2, (0, 0)) == 0


def test_wrap_add_top_rule():
    M = (3**2 - 1) // 2  # 4
    assert wrap_add_many(3, 2, (1, 3)) == M
    assert wrap_add_many(3, 2, (4, 4)) == M
    assert wrap_add_many(3, 2, (3, 3)) == 2


def test_wrap_add_range_check():
    with pytest.raises(ValueError):
        wrap_add_many(3, 2, (5, 0))
    with pytest.raises(ValueError, match="operand -1 outside 0..4"):
        wrap_add_many(3, 2, (0, -1))


def test_wrap_add_many():
    M = (3**4 - 1) // 2  # 40
    assert wrap_add_many(3, 4, ()) == 0
    assert wrap_add_many(3, 4, (0, 0, 0)) == 0
    assert wrap_add_many(3, 4, (1, M - 1)) == M
    assert wrap_add_many(3, 4, (3, 5, 7)) == 15


def test_ones_run_worked_examples():
    # n = 4 digit pictures, any q: i ones starting at position j, wrapping
    assert _decode(ones_run(3, 4, 1, 3), 3, 4) == [0, 1, 1, 1]
    assert _decode(ones_run(3, 4, 3, 2), 3, 4) == [1, 0, 0, 1]
    assert _decode(ones_run(2, 4, 1, 3), 2, 4) == [0, 1, 1, 1]
    assert ones_run(3, 4, 0, 1) == 1
    assert ones_run(3, 4, 2, 0) == 0


def test_ones_run_congruence():
    for q, n in ((2, 3), (3, 2), (3, 4), (4, 3)):
        N = q**n - 1
        for j in range(n):
            for i in range(n):
                want = (q**j) * (q**i - 1) // (q - 1) % N
                got = ones_run(q, n, j, i) % N
                assert got == want


def test_ascent_descent_worked_example():
    asc, des, count = ascent_descent((2, 0, 1, 1, 3, 0))
    assert asc == (0, 0, 2, 4, 4)
    assert des == (1, 1, 5, 5, 5)
    assert count == 5


def test_ascent_descent_trivial():
    assert ascent_descent((1, 1, 1)) == ((), (), 0)
    asc, des, count = ascent_descent((1, 0, 0, 0))
    assert asc == (0,) and des == (1,) and count == 1


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
def test_ascent_descent_balanced(digits):
    asc, des, count = ascent_descent(tuple(digits))
    assert len(asc) == len(des) == count


def test_reduce_exponent():
    N = 3**2 - 1
    assert reduce_exponent(3, 2, 0) == 0
    assert reduce_exponent(3, 2, 1) == 1
    assert reduce_exponent(3, 2, N) == N
    assert reduce_exponent(3, 2, N + 1) == 1
    assert reduce_exponent(3, 2, 2 * N) == N


@pytest.mark.parametrize(
    "call",
    [
        # each was coerced: a float result, or an answer for a bad float
        pytest.param(lambda: ones_run(3, 2, 0.5, 1), id="ones_run-start"),
        pytest.param(lambda: ones_run(3, 2.0, 0, 1), id="ones_run-n"),
        pytest.param(lambda: wrap_add_many(3, 2, [1.5]), id="wrap_add_many-operand"),
        pytest.param(lambda: reduce_exponent(3, 2, 2.5), id="reduce_exponent-e"),
        pytest.param(
            lambda: power_coefficient(LinearizedPoly(build_field(3, 1, 2), (1, 1)), 1.5),
            id="power_coefficient-alpha",
        ),
        # each raised ZeroDivisionError or TypeError
        pytest.param(lambda: wrap_add_many(1, 2, [0]), id="wrap_add_many-q"),
        pytest.param(lambda: reduce_exponent(1, 2, 5), id="reduce_exponent-q"),
        pytest.param(lambda: hws.leader_thresholds(1, 2), id="leader_thresholds-q"),
        pytest.param(lambda: hws.serre_term(2.0, 2), id="serre_term-q"),
        # this one raised ConsistencyError, which claims an internal bug
        pytest.param(lambda: codes.code_dimension(2, 0), id="code_dimension-n"),
    ],
)
def test_bare_integer_helpers_take_only_int_shapes(call):
    with pytest.raises(ValueError, match="must be an int|need q >= 2 and n >= 1"):
        call()


# ------------------------------------------------- expansion and congruence


def test_expansion_constant_monomial(f9):
    for a0 in range(f9.order):
        L = LinearizedPoly(f9, (a0, 0))
        exp = power_expansion(L)
        t = f9.rel_trace(a0)
        if t != 0:
            assert exp == {0: 1}
        else:
            # failing monomial keeps the top term instead
            assert exp.get(0, 0) != 1 or f9.order - 1 in exp


def test_congruence_iff_predicate_exhaustive():
    ctx = build_field(2, 1, 3)
    for coeffs in itertools.product(range(8), repeat=3):
        L = LinearizedPoly(ctx, coeffs)
        assert congruence_holds(L) == switching_predicate(L)


def test_congruence_iff_predicate_random(f9):
    rng = random.Random(500)
    for _ in range(500):
        L = LinearizedPoly(f9, (rng.randrange(9), rng.randrange(9)))
        assert congruence_holds(L) == switching_predicate(L)


def test_power_coefficient_q2_cases(f8):
    # q = 2: C(alpha) collapses to single-factor sums; C(0) is Tr(a_0)
    for coeffs in ((1, 0, 0), (3, 5, 0), (2, 0, 7)):
        L = LinearizedPoly(f8, coeffs)
        assert power_coefficient(L, 0) == f8.rel_trace(coeffs[0])


def test_power_coefficient_matches_expansion():
    rng = random.Random(777)
    for (p, n, reps) in ((3, 3, 100), (2, 4, 100)):
        ctx = build_field(p, 1, n)
        M = (ctx.order - 1) // (ctx.q - 1)
        for _ in range(reps):
            L = LinearizedPoly(ctx, tuple(rng.randrange(ctx.order) for _ in range(n)))
            exp = power_expansion(L)
            for alpha in range(M + 1):
                want = exp.get(reduce_exponent(ctx.q, n, alpha * (ctx.q - 1)), 0)
                if alpha == 0:
                    want = exp.get(0, 0)
                assert power_coefficient(L, alpha) == want


def test_power_coefficient_budget(f9):
    L = LinearizedPoly(f9, (1, 1))
    with pytest.raises(BudgetExceeded):
        power_coefficient(L, 1, budget=2)
    # a negative budget is bad input, as for the search and field budgets
    with pytest.raises(ValueError, match="budget must be >= 0"):
        power_coefficient(L, 1, budget=-1)
    with pytest.raises(ValueError, match="budget must be an int"):
        power_coefficient(L, 1, budget=True)


# ------------------------------------------------------- coefficient lemma


def test_vanishing_p2_reading():
    for n in (3, 4):
        ctx = build_field(2, 1, n)
        for coeffs in itertools.product(range(ctx.order), repeat=n):
            L = LinearizedPoly(ctx, coeffs)
            ok, wit = vanishing_sums_check(L)
            assert ok == all(c == 0 for c in coeffs[1 : n - 1])
            if not ok:
                i = next(i for i in range(1, n - 1) if coeffs[i])
                assert wit == {"i": (i,), "t": ()}


def test_vanishing_necessary_for_predicate():
    for p, n in ((2, 3), (2, 4), (3, 2), (3, 3)):
        ctx = build_field(p, 1, n)
        for L in search(ctx, mode="exhaustive"):
            assert vanishing_sums_check(L)[0]


def test_vanishing_content_at_3_4(f81_n4):
    # only admissible pattern: chain (1,2) with no offsets -> a_2 a_1^3 = 0
    rng = random.Random(4)
    for _ in range(500):
        coeffs = tuple(rng.randrange(81) for _ in range(4))
        ok, wit = vanishing_sums_check(LinearizedPoly(f81_n4, coeffs))
        assert ok == (coeffs[1] == 0 or coeffs[2] == 0)
        if not ok:
            assert wit == {"i": (1, 2), "t": (0,)}


def test_vanishing_family_instance_trivial(f81_n4):
    L = LinearizedPoly(f81_n4, (0, 0, 1, 0))
    assert vanishing_sums_check(L) == (True, None)


def test_vanishing_rejects_prime_powers(f16_q4):
    L = LinearizedPoly(f16_q4, (1, 0))
    with pytest.raises(ValueError):
        vanishing_sums_check(L)


# ------------------------------------------------------------------ census


def test_monomial_census_p2():
    rep = monomial_census(2, 3)
    assert rep["solutions"] == 4
    assert rep["all_monomial"] and rep["witnesses"] == []
    assert rep["bound"] == 3 and not rep["bound_applies"]
    assert rep["exhaustive"]

    rep = monomial_census(2, 4)
    assert rep["solutions"] == 8
    assert rep["all_monomial"] and rep["bound_applies"]


def test_monomial_census_below_bound():
    rep = monomial_census(3, 2)
    assert rep["bound"] == 10
    assert not rep["bound_applies"]
    assert rep["solutions"] == 18
    assert not rep["all_monomial"]
    assert rep["witnesses"]
