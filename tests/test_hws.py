"""Digit statistic, genus bound, and point-count verdicts."""

import random
from math import gcd

import pytest

from semiswitch import (
    LinearizedPoly,
    build_field,
    curve_verdicts,
    leader_thresholds,
    min_max_leader,
    rational_point_count,
    search,
    serre_term,
    switching_predicate,
)

from oracles import _min_max_leader_full_scan, coset_leader, trace_quotient


def test_coset_leader_anchors():
    assert coset_leader(0, 2, 4) == 0
    assert coset_leader(12, 2, 4) == 3  # coset {12, 9, 3, 6} mod 15
    assert coset_leader(8, 3, 4) == 8  # coset {8, 24, 72, 56} mod 80


def test_coset_leader_coprime_to_p():
    for p, mn in ((2, 4), (3, 2), (3, 4), (5, 2)):
        N = p**mn - 1
        for j in range(1, N):
            assert coset_leader(j, p, mn) % p != 0
            assert 1 <= coset_leader(j, p, mn) <= j


def test_min_max_leader_support_2_at_3_4(f81_n4):
    L = LinearizedPoly(f81_n4, (0, 0, 1, 0))
    assert min_max_leader(L) == (8, 1)


def test_min_max_leader_support_1_at_2_3(f8):
    L = LinearizedPoly(f8, (0, 1, 0))
    ell, j = min_max_leader(L)
    assert ell == 1  # coset of 1 mod 7 is {1, 2, 4}
    assert j == 1


def test_min_max_leader_positive(f9, f27):
    rng = random.Random(3)
    for ctx in (f9, f27):
        for _ in range(30):
            coeffs = [rng.randrange(ctx.order) for _ in range(ctx.n)]
            if not any(coeffs[1:]):
                coeffs[rng.randrange(1, ctx.n)] = 1 + rng.randrange(ctx.order - 1)
            ell, j = min_max_leader(LinearizedPoly(ctx, tuple(coeffs)))
            assert ell >= 1
            assert gcd(j, ctx.mult_order) == 1


def test_min_max_leader_needs_higher_support(f9):
    with pytest.raises(ValueError):
        min_max_leader(LinearizedPoly(f9, (4, 0)))


def test_min_max_leader_matches_full_scan(f81_n4, f64_q4):
    # the statistic depends on the support only: every nonzero support
    # i >= 1, with random values, at F_81, F_64/F_4 and F_256
    rng = random.Random(11)
    for ctx in (f81_n4, f64_q4, build_field(2, 1, 8)):
        for mask in range(1, 2 ** (ctx.n - 1)):
            coeffs = [rng.randrange(ctx.order)] + [
                1 + rng.randrange(ctx.order - 1) if mask >> (i - 1) & 1 else 0
                for i in range(1, ctx.n)
            ]
            L = LinearizedPoly(ctx, tuple(coeffs))
            assert min_max_leader(L) == _min_max_leader_full_scan(L), coeffs


def test_serre_term():
    assert serre_term(3, 4) == 18
    assert serre_term(2, 3) == 5
    assert serre_term(3, 2) == 6
    assert serre_term(4, 3) == 16


def test_leader_thresholds():
    # 1 + ceil(162/36) and 1 + ceil(156/36)
    assert leader_thresholds(3, 4) == (6, 6)
    # 1 + ceil(16/5) and 1 + ceil(12/5)
    assert leader_thresholds(2, 3) == (5, 4)


def test_leader_thresholds_at_least_two():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in (2, 3, 4, 5):
            t1, t2 = leader_thresholds(q, n)
            assert t1 >= 2 and t2 >= 2


def test_point_count_passing_polys(f9, f81_n4):
    for L in search(f9, mode="exhaustive"):
        expected = 1 if f9.rel_trace(L.coeffs[0]) != 0 else f9.q + 1
        assert rational_point_count(L) == expected
    L = LinearizedPoly(f81_n4, (0, 0, 1, 0))
    assert switching_predicate(L)
    assert rational_point_count(L) == 4  # q + 1, zero-trace case


def test_point_count_example_2_3(f8):
    L = LinearizedPoly(f8, (1, 1, 0))  # x -> x^2 + x, quotient x + 1
    assert rational_point_count(L) == 9


def test_point_count_double_loop_oracle(f9, f16_q4, f81_q9):
    rng = random.Random(4)
    for ctx in (f9, f16_q4, f81_q9):

        def f(L, x):
            return L.coeffs[0] if x == 0 else ctx.mul(L(x), ctx.inv(x))

        artin_schreier = [ctx.sub(ctx.pow(y, ctx.q), y) for y in range(ctx.order)]
        # monomials a_0 X with Tr(a_0) = 0 (a_0 = 0 included) and Tr(a_0) = 1
        zero_trace = next(a for a in ctx.units() if ctx.rel_trace(a) == 0)
        monomials = [(a,) + (0,) * (ctx.n - 1) for a in (0, zero_trace, ctx.tr.index(1))]
        rows = [tuple(rng.randrange(ctx.order) for _ in range(ctx.n)) for _ in range(40)]
        for coeffs in monomials + rows:
            L = LinearizedPoly(ctx, coeffs)
            # pairs (x, y) with y^q - y = f(x)
            direct = 1 + sum(artin_schreier.count(f(L, x)) for x in range(ctx.order))
            assert rational_point_count(L) == direct


def test_curve_verdicts_3_4_support_2(f81_n4):
    rep = curve_verdicts(LinearizedPoly(f81_n4, (0, 0, 1, 0)))
    assert rep.ell == 8
    assert rep.argmin_j == 1
    assert rep.genus == 7
    assert rep.serre_term == 18
    assert rep.trace_zero
    # 82 - 7*18 = -44: neither case inequality can trigger
    assert not rep.impossible_zero_trace
    assert not rep.impossible_nonzero_trace
    assert rep.threshold_zero_trace == 6
    assert rep.meets_threshold  # 8 >= 6
    assert rep.point_count == 4


def test_curve_verdicts_ell_one_triggers(f8):
    rep = curve_verdicts(LinearizedPoly(f8, (1, 1, 0)))
    assert rep.ell == 1
    assert rep.genus == 0
    # zero window: q^n + 1 > 1 and > q + 1 both hold
    assert rep.impossible_nonzero_trace
    assert rep.impossible_zero_trace
    assert not rep.meets_threshold


def test_curve_verdicts_refuses_a_bare_tuple():
    # a tuple has no ctx, so it was an AttributeError
    with pytest.raises(ValueError, match=r"L must be a LinearizedPoly, got \(1, 0\)"):
        curve_verdicts((1, 0))


def test_verdicts_never_trigger_on_passing_polys(f9):
    for L in search(f9, mode="exhaustive"):
        if not any(L.coeffs[1:]):
            continue
        rep = curve_verdicts(L)
        if rep.trace_zero:
            assert not rep.impossible_zero_trace
        else:
            assert not rep.impossible_nonzero_trace
        assert rep.meets_threshold


def test_verdict_report_roundtrip(f9):
    rep = curve_verdicts(LinearizedPoly(f9, (1, 4)))
    d = rep._asdict()
    assert d["ell"] == rep.ell
    assert d["genus"] == rep.genus
    assert set(d) == {
        "ell",
        "argmin_j",
        "genus",
        "serre_term",
        "trace_zero",
        "point_count",
        "impossible_nonzero_trace",
        "impossible_zero_trace",
        "threshold_nonzero_trace",
        "threshold_zero_trace",
        "meets_threshold",
    }


def test_serre_band(f9, f16_q4):
    # |N - (q^n + 1)| <= genus * serre for every L, passing or not
    for ctx, seed in ((f9, 5), (f16_q4, 6)):
        rng = random.Random(seed)
        for _ in range(500):
            coeffs = [rng.randrange(ctx.order) for _ in range(ctx.n)]
            if not any(coeffs[1:]):
                continue
            L = LinearizedPoly(ctx, tuple(coeffs))
            rep = curve_verdicts(L)
            assert abs(rep.point_count - (ctx.q**ctx.n + 1)) <= rep.genus * rep.serre_term


def test_trace_quotient_zero_convention(f9):
    L = LinearizedPoly(f9, (5, 0))
    assert trace_quotient(L, 0) == f9.rel_trace(5)
