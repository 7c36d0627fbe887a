"""Linearized polynomials, the trace-quotient predicate, and the search harness."""

import itertools
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from semiswitch import (
    BudgetExceeded,
    LinearizedPoly,
    build_field,
    classify,
    full_weight_search,
    is_permutation,
    n4_criterion,
    rational_point_count,
    search,
    switching_predicate,
)
from semiswitch import linpoly
from semiswitch.presemifield import SwitchSpec

from oracles import trace_quotient


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda ctx, a: LinearizedPoly(ctx, (a, 0)), "coeffs"),
        (lambda ctx, a: SwitchSpec(ctx, (a, 0), xi=1), "b"),
    ],
    ids=["LinearizedPoly", "SwitchSpec"],
)
def test_checked_value_types_are_immutable_values(f9, make, field):
    one, same, other = make(f9, 1), make(f9, 1), make(f9, 2)
    assert one == same and hash(one) == hash(same) and one != other
    assert one != (1, 0) and repr(one).startswith(f"{type(one).__name__}(")
    immutable = f"cannot set or delete {field!r}: {type(one).__name__} is immutable"
    with pytest.raises(AttributeError, match=immutable):
        setattr(one, field, getattr(other, field))
    with pytest.raises(AttributeError, match=immutable):
        delattr(one, field)
    assert one == same


def test_eval_identity_and_zero(f9):
    L = LinearizedPoly(f9, (1, 0))
    Z = LinearizedPoly(f9, (0, 0))
    for x in range(f9.order):
        assert L(x) == x
        assert Z(x) == 0


def test_eval_frobenius_anchor(f9):
    # L = X^3 sends i to 2i
    L = LinearizedPoly(f9, (0, 1))
    assert L(3) == f9.mul(2, 3)


def test_eval_is_additive_and_linear(f9, f64_q4):
    for ctx in (f9, f64_q4):
        L = LinearizedPoly(ctx, tuple(ctx.pow(ctx.generator, k) for k in range(ctx.n)))
        els = list(range(ctx.order))
        step = max(1, len(els) // 12)
        for x in els[::step]:
            for y in els[::step]:
                assert L(ctx.add(x, y)) == ctx.add(L(x), L(y))
            for c in ctx.subfield(1):
                assert L(ctx.mul(c, x)) == ctx.mul(c, L(x))


def test_coeff_length_enforced(f9):
    with pytest.raises(ValueError):
        LinearizedPoly(f9, (1, 0, 0))


def test_coeffs_must_be_int_codes(f9):
    # type() rather than isinstance(): a bool is rejected, not read as 1
    for coeffs in ((1.5, 0), (True, 0), (9, 0), (-1, 0)):
        with pytest.raises(ValueError, match=r"is not an int in 0\.\.8"):
            LinearizedPoly(f9, coeffs)


def test_trace_quotient_constant_family(f9):
    # L = bX gives the constant Tr(b) on units
    for b in range(f9.order):
        L = LinearizedPoly(f9, (b, 0))
        vals = {trace_quotient(L, x) for x in f9.units()}
        assert vals == {f9.rel_trace(b)}


def test_trace_quotient_f8_census(f8):
    # L = X^2 over F_8: value at x is the absolute trace of x,
    # zero for exactly 3 of the 7 units
    L = LinearizedPoly(f8, (0, 1, 0))
    zeros = sum(1 for x in f8.units() if trace_quotient(L, x) == 0)
    assert zeros == 3


def test_trace_quotient_gamma_monomial(f9):
    # L = gamma X^3: nonzero at all 8 units
    L = LinearizedPoly(f9, (0, 4))
    assert all(trace_quotient(L, x) != 0 for x in f9.units())


def test_trace_quotient_zero_convention(f9):
    L = LinearizedPoly(f9, (4, 7))
    assert trace_quotient(L, 0) == f9.rel_trace(4)


def test_predicate_monomial_cases(f9):
    for a0 in range(f9.order):
        L = LinearizedPoly(f9, (a0, 0))
        assert switching_predicate(L) == (f9.rel_trace(a0) != 0)


def test_predicate_x9_at_3_4(f81_n4):
    L = LinearizedPoly(f81_n4, (0, 0, 1, 0))
    assert switching_predicate(L)


def test_is_permutation(f9):
    assert is_permutation(LinearizedPoly(f9, (0, 1)))  # X^q
    assert not is_permutation(LinearizedPoly(f9, (f9.neg(1), 1)))  # X^q - X


def test_predicate_implies_permutation(f9, f27):
    for ctx in (f9, f27):
        for L in search(ctx, mode="exhaustive"):
            assert is_permutation(L)


def test_search_f8_full_support(f8):
    hits = search(f8, mode="exhaustive")
    assert len(hits) == 4
    for L in hits:
        a0 = L.coeffs[0]
        assert L.coeffs[1:] == (0, 0)
        assert f8.rel_trace(a0) == 1
    assert [L.coeffs for L in hits] == sorted(L.coeffs for L in hits)


def test_search_f9_census(f9):
    hits = search(f9, mode="exhaustive")
    assert len(hits) == 18
    monomial = [L for L in hits if L.is_monomial()]
    assert len(monomial) == 6


def test_search_empty_support(f9):
    assert search(f9, support=(), mode="exhaustive") == []
    # the arguments are checked even where there is nothing to search
    for kwargs, message in (
        ({"mode": "bogus"}, "unknown mode"),
        ({"budget": -1}, "budget must be >= 0"),
        ({"mode": "random", "seed": -5}, "seed must lie"),
    ):
        with pytest.raises(ValueError, match=message):
            search(f9, [], **kwargs)


def test_transcript_checks_its_tuple(f9):
    # read unchecked, -1 is the last table entry, (1,) a monomial (an
    # IndexError in orbit_rep) and (1, 2, 3) loses its third coefficient
    for fn in (linpoly.transcript, linpoly.orbit_rep):
        for coeffs, message in (
            ((-1, 0), "coefficient -1 is not"), ((1,), "got 1"), ((1, 2, 3), "got 3")
        ):
            with pytest.raises(ValueError, match=message):
                fn(f9, coeffs)


def test_search_restricted_support(f9):
    hits = search(f9, support=(1,), mode="exhaustive")
    # monomials a_1 X^q passing: Tr(a_1 x^(q-1)) != 0 for all units
    assert all(L.coeffs[0] == 0 for L in hits)
    full = [L for L in search(f9, mode="exhaustive") if L.coeffs[0] == 0]
    assert [L.coeffs for L in hits] == [L.coeffs for L in full]
    # a support lists distinct int indices in 0..n-1, never coerced
    for support, message in (([1.7], "lie in"), ([True], "lie in"), ([1, 1], "distinct")):
        with pytest.raises(ValueError, match=message):
            search(f9, support)


def test_search_budget(f9):
    with pytest.raises(BudgetExceeded):
        search(f9, mode="exhaustive", budget=10)


def test_search_matches_naive_oracle():
    # direct double loop recomputing the trace quotient from scratch
    for p, m, n in ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2)):
        ctx = build_field(p, m, n)
        naive = []
        for coeffs in itertools.product(range(ctx.order), repeat=n):
            good = True
            for x in ctx.units():
                num = 0
                for i, a in enumerate(coeffs):
                    num = ctx.add(num, ctx.mul(a, ctx.frobenius(x, i)))
                if ctx.rel_trace(ctx.div(num, x)) == 0:
                    good = False
                    break
            if good:
                naive.append(coeffs)
        fast = [L.coeffs for L in search(ctx, mode="exhaustive")]
        assert fast == naive


def test_search_beyond_order_4096_is_the_monomials():
    # orders 8192 and 6561, supports (0, 1) and (0, n - 1): only a_0 X
    # passes, so each head's walk stops at its first 0 of the transcript;
    # the supports (0,) and (1,) walk their heads with no tail
    f8192 = build_field(2, 1, 13)
    cases = [(f8192, (0, 1)), (build_field(3, 1, 8), (0, 7)), (f8192, (0,)), (f8192, (1,))]
    t0 = time.perf_counter()
    found = [
        [L.coeffs for L in search(ctx, mask, budget=ctx.order**2)] for ctx, mask in cases
    ]
    assert time.perf_counter() - t0 < 1
    rng = random.Random(13)
    for (ctx, mask), hits in zip(cases, found):
        zeros = (0,) * (ctx.n - 1)
        monomials = [(a0,) + zeros for a0 in range(ctx.order) if ctx.tr[a0]]
        assert hits == (monomials if 0 in mask else [])
        hit_set, misses = set(hits), 0
        while misses < 200:
            coeffs = [0] * ctx.n
            for i in mask:
                coeffs[i] = rng.randrange(ctx.order)
            if tuple(coeffs) not in hit_set:
                assert not switching_predicate(LinearizedPoly(ctx, coeffs)), coeffs
                misses += 1


def test_random_search_stops_once_every_passing_candidate_is_drawn(f8, f9, monkeypatch):
    calls, made = [], []

    class Counting(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(linpoly, "random", SimpleNamespace(Random=Counting))
    # chunks of one draw put the stop on the last new passing assignment itself
    for chunk, mask in itertools.product((1, linpoly._CHUNK), ((0, 1), (1,))):
        monkeypatch.setattr(linpoly, "_CHUNK", chunk)
        exhaustive = [L.coeffs for L in search(f9, mask)]
        made.clear()
        found = search(f9, mask, mode="random", seed=4, budget=100_000)
        [searched] = made
        # replay the randrange stream up to the last new passing assignment,
        # then to the end of its chunk of draws: the search has consumed
        # exactly those words
        rng, passing, needed = random.Random(4), set(exhaustive), 0
        while passing:
            draw = [0] * f9.n
            for i in mask:
                draw[i] = rng.randrange(f9.order)
            passing.discard(tuple(draw))
            needed += 1
        for _ in range(-needed % chunk * len(mask)):
            rng.randrange(f9.order)
        assert searched.getstate() == rng.getstate() and needed + chunk < 100_000, (chunk, mask)
        assert sorted(L.coeffs for L in found) == exhaustive
    # at q = 2 only a_0 X passes, so support (1, 2) has nothing to find and draws nothing
    calls.clear()
    assert search(f8, (1, 2), mode="random", seed=4, budget=100_000) == [] and calls == []


@pytest.mark.parametrize("order", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 125, 128, 243, 255, 256, 729])
def test_draws_replay_randrange(order):
    # orders below 256 take the top bytes of whole getrandbits words, 256
    # (bit length 9) and 729 draw per call; both end where randrange ends,
    # and a count of 0 draws no word
    for seed, count in itertools.product((0, 7, 2**64 - 1), (0, 1, 4095, 4096, 4097, 12288)):
        rng, replay = random.Random(seed), random.Random(seed)
        draws = linpoly._draws(rng, order, count)
        want = [replay.randrange(order) for _ in range(count)]
        assert list(draws) == want, (seed, count)
        assert rng.getstate() == replay.getstate(), (seed, count)


def test_tail_less_walk_holds_one_column():
    # at (27, 4), M = 20,440: the passing binomial a_2 X^(q^2) walks every
    # column, and with the one empty tail each column is the same {0: 1}
    # (a dict per column peaked at 4.7 MB)
    ctx = build_field(3, 3, 4)
    a2 = next(a for a in range(1, ctx.order) if n4_criterion(ctx, a, 0))
    tracemalloc.start()
    try:
        hits = linpoly._walk(ctx, (0, 2), [(0, a2)], (), [()])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == [(0, a2)] and switching_predicate(LinearizedPoly(ctx, (0, 0, a2, 0)))
    assert peak < 1 << 19, peak


def _walk_shapes(monkeypatch, ctx, budget, seed=0, support=None):
    """(cut, heads, tails) of each walk a random search makes, heads and
    tails counted; the walks themselves are skipped."""
    shapes = []

    def recording(ctx, head_support, heads, tail_support, tails):
        shapes.append((len(head_support), len(list(heads)), len(tails)))
        return []

    monkeypatch.setattr(linpoly, "_walk", recording)
    search(ctx, support, mode="random", seed=seed, budget=budget)
    return shapes


def test_random_search_walks_the_passing_strata_where_they_cost_less(monkeypatch):
    # the orbit plan walks the strata j >= 1 of _passing_orbits, each at
    # its cheapest cut: the first nonzero index j past 0 with a_j over
    # exp[0..g-1], the a_0 classes before it and the later indices free;
    # the monomials a_0 X are read in closed form, with no walk
    for shape, draws, seed, support, walks in (
        ((5, 1, 3), 50_000, 0, None, [(2, 20, 125), (2, 20, 1)]),
        ((3, 1, 4), 50_000, 1, None, [(3, 486, 81), (2, 24, 81), (2, 6, 1)]),
        ((7, 1, 3), 100_000, 2, None, [(2, 42, 343), (2, 42, 1)]),
        # 3 a_0 classes and a_9 over g = 2 values: 6 tuples for 59,049^2 draws
        ((3, 1, 10), 200_000, 3, (0, 9), [(2, 6, 1)]),
    ):
        ctx = build_field(*shape)
        assert _walk_shapes(monkeypatch, ctx, draws, seed, support) == walks, shape


def test_passing_orbits_walk_no_stratum_for_the_monomials(f27, monkeypatch):
    # a_0 X is read in closed form: support (0,) makes no walk, (0, 1)
    # walks stratum j = 1 alone, and (0, 1, 2) strata j = 1 and j = 2
    walk, walked = linpoly._walk, []

    def recording(ctx, head_support, heads, tail_support, tails):
        walked.append(head_support + tail_support)
        return walk(ctx, head_support, heads, tail_support, tails)

    monkeypatch.setattr(linpoly, "_walk", recording)
    monomials = [((a0, 0, 0), 1) for a0 in (f27.trace_one, f27.mul(2, f27.trace_one))]
    for support, strata in (((0,), []), ((0, 1), [(0, 1)]), ((0, 1, 2), [(0, 1, 2), (0, 2)])):
        walked.clear()
        assert linpoly._passing_orbits(f27, support)[:2] == monomials
        assert walked == strata, support
    # at F_{2^16}, one a_0 class passes, with no walk of its 65,535 columns
    ctx = build_field(2, 1, 16)
    walked.clear()
    assert linpoly._passing_orbits(ctx, (0,)) == [((ctx.trace_one,) + (0,) * 15, 1)]
    assert walked == []


def test_random_search_walks_the_draws_where_the_strata_cost_more(monkeypatch):
    # at (3,1,10) a column costs M = 29,524 steps per tail, and the strata
    # hold far more tuples than the 3,000 draws, so the draw plan walks the
    # draws themselves
    ctx = build_field(3, 1, 10)
    assert _walk_shapes(monkeypatch, ctx, 3000, seed=5) == [(10, 3000, 1)]
    # at (3,1,5) the strata hold 6 * 243^3 tuples and more, against 200,000 draws
    [(cut, heads, tails)] = _walk_shapes(monkeypatch, build_field(3, 1, 5), 200_000)
    assert (cut, tails) == (5, 1) and heads > 199_000


def test_random_search_takes_the_orbit_plan_once_the_budget_covers_the_space(request):
    # the strata hold fewer tuples than the space, and the passing class
    # tuples no more than it, so once the budget covers it the draw plan
    # never prices lower: every support of at most 20,000 tuples on the
    # small fields
    for name in ("f4", "f5", "f7", "f8", "f9", "f16_q4", "f27", "f64_q4", "f81_n4", "f81_q9"):
        ctx = request.getfixturevalue(name)
        for r in range(1, ctx.n + 1):
            for support in itertools.combinations(range(ctx.n), r):
                if (space := ctx.order**r) <= 20_000:
                    for budget in (space, 3 * space):
                        assert linpoly._orbit_plan(ctx, support, budget) is not None


def test_random_search_takes_the_draw_plan_where_the_passing_tuples_outnumber_the_draws():
    # at (256, 2) the strata walk prices below 1,000 draws, but about half
    # of the 2^24 class tuples pass, so the orbit plan would hold millions
    ctx = build_field(2, 8, 2)
    cost = sum(cost for *_, cost, _ in linpoly._strata(ctx, (0, 1)))
    assert cost <= linpoly._cost(ctx, 1000, 1)
    assert linpoly._orbit_plan(ctx, (0, 1), 1000) is None
    start = time.perf_counter()
    hits = search(ctx, mode="random", seed=3, budget=1000)
    assert time.perf_counter() - start < 10
    rng, draws = random.Random(3), {}
    for _ in range(1000):
        draws[(rng.randrange(ctx.order), rng.randrange(ctx.order))] = None
    passing = [d for d in draws if switching_predicate(LinearizedPoly(ctx, d))]
    assert [L.coeffs for L in hits] == passing and 0 < len(passing) < len(draws)


def test_exhaustive_and_random_search_share_the_cost(f27, monkeypatch):
    cost, calls = linpoly._cost, []

    def recording(ctx, heads, tails):
        calls.append(heads)
        return cost(ctx, heads, tails)

    monkeypatch.setattr(linpoly, "_cost", recording)
    for mode in ("exhaustive", "random"):
        calls.clear()
        search(f27, mode=mode, budget=20_000)
        assert calls, mode


def test_search_random_mode_reproducible(f9):
    a = search(f9, mode="random", seed=42, budget=300)
    b = search(f9, mode="random", seed=42, budget=300)
    assert [L.coeffs for L in a] == [L.coeffs for L in b]
    # no seed is the seed 0, never one drawn from the OS
    unseeded = [search(f9, mode="random", budget=300) for _ in range(2)]
    assert [[L.coeffs for L in c] for c in unseeded] == 2 * [
        [L.coeffs for L in search(f9, mode="random", seed=0, budget=300)]
    ]
    assert all(switching_predicate(L) for L in a)
    exhaustive = {L.coeffs for L in search(f9, mode="exhaustive")}
    assert {L.coeffs for L in a} <= exhaustive


def test_search_random_mode_rejects_seeds_outside_64_bits(f9):
    # Random folds -5 onto 5, so a negative seed would repeat another's stream
    for seed in (-1, -5, 2**64):
        with pytest.raises(ValueError, match="seed"):
            search(f9, mode="random", seed=seed, budget=10)
    assert all(map(switching_predicate, search(f9, mode="random", seed=2**64 - 1, budget=10)))


def test_search_takes_seed_and_budget_only_as_ints(f9):
    # bools are ints to isinstance(), and int() would truncate a float
    for seed in (1.5, True, "3"):
        with pytest.raises(ValueError, match="seed must be an int"):
            search(f9, mode="random", seed=seed, budget=10)
    for budget in (True, 2.5):
        with pytest.raises(ValueError, match="budget must be an int"):
            search(f9, mode="random", seed=1, budget=budget)
        with pytest.raises(ValueError, match="budget must be an int"):
            linpoly.search_budget(budget)


def test_prime_field_closed_forms(f5):
    # n = 1: Tr is the identity and M = 1, so L = a_0 X passes iff a_0 != 0
    assert f5.trace_step == 1
    assert [L.coeffs for L in search(f5)] == [(1,), (2,), (3,), (4,)]
    drawn = search(f5, mode="random", seed=1, budget=100)
    assert sorted(L.coeffs for L in drawn) == [(1,), (2,), (3,), (4,)]
    for a0 in range(5):
        L = LinearizedPoly(f5, (a0,))
        report = classify(L, deep=True)
        assert report["predicate"] is report["presemifield"] is (a0 != 0)
        if a0:
            assert report["families"] == ["monomial"] and report["nuclei"] == [5] * 4
        else:
            assert report["zero_divisor"] == [1, 1]
        # N = 1 + q #{x : a_0 = 0}
        assert rational_point_count(L) == (1 if a0 else 1 + 5 * 5)
    census = full_weight_search(f5)
    assert (census["length"], census["candidates"]) == (4, 5)
    assert (census["full_weight_constant"], census["full_weight_nonconstant"]) == (4, 0)


def test_predicate_scaling_invariance(f9):
    # c*L for c in F_q* and L(dX)/d for units d preserve the predicate
    ctx = f9
    units_q = [c for c in ctx.subfield(1) if c != 0]
    for coeffs in itertools.product(range(9), repeat=2):
        L = LinearizedPoly(ctx, coeffs)
        base = switching_predicate(L)
        for c in units_q:
            scaled = LinearizedPoly(ctx, tuple(ctx.mul(c, a) for a in coeffs))
            assert switching_predicate(scaled) == base
        for d in (4, 7, 8):
            # L(dX)/d has coefficients a_i d^(q^i - 1)
            conj = LinearizedPoly(
                ctx,
                tuple(
                    ctx.mul(a, ctx.div(ctx.frobenius(d, i), d))
                    for i, a in enumerate(coeffs)
                ),
            )
            assert switching_predicate(conj) == base


@pytest.mark.parametrize("name", ["f9", "f16_q4", "f81_n4"])
def test_orbit_rep_is_one_per_orbit(request, name):
    # every scaling of a tuple has the tuple's rep, and rep = tuple scaled by gamma^k
    ctx = request.getfixturevalue(name)
    rng = random.Random(7)
    if ctx.n == 2:
        tuples = list(itertools.product(range(ctx.order), repeat=2))
    else:  # first nonzero index j = 1, 2 and 3; a_0 and the a_i after j random
        tuples = []
        for j in (1, 2, 3):
            for _ in range(10):
                t = [rng.randrange(ctx.order) for _ in range(4)]
                t[1:j] = [0] * (j - 1)
                t[j] = rng.randrange(1, ctx.order)
                tuples.append(tuple(t))

    def scaled(coeffs, c):
        return tuple(ctx.mul(a, ctx.pow(c, ctx.q**i - 1)) for i, a in enumerate(coeffs))

    for coeffs in tuples:
        rep, k = linpoly.orbit_rep(ctx, coeffs)
        assert rep == scaled(coeffs, ctx.exp[k])
        for c in ctx.exp[: ctx.trace_step]:
            assert linpoly.orbit_rep(ctx, scaled(coeffs, c))[0] == rep


@settings(deadline=None, max_examples=80)
@given(st.tuples(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26)))
def test_predicate_matches_pointwise_definition(coeffs):
    ctx = _f27()
    L = LinearizedPoly(ctx, coeffs)
    expect = all(trace_quotient(L, x) != 0 for x in ctx.units())
    assert switching_predicate(L) == expect


_cache = {}


def _f27():
    if "c" not in _cache:
        _cache["c"] = build_field(3, 1, 3)
    return _cache["c"]
