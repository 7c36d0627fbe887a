"""Top-level acceptance checks, one per shipped guarantee.

Correctness is asserted first, then the wall-clock cap.  Each check
posts a single PASS line to the scoreboard that conftest prints after
the run, so a green session ends with a summary of one line per check;
a failure shows up as the usual pytest FAILED line instead.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from semiswitch import (
    LinearizedPoly,
    build_field,
    build_switch,
    code_dimension,
    curve_verdicts,
    full_weight_search,
    search,
    switch_spec_for,
    switching_predicate,
    verify_presemifield,
)
from semiswitch.digits import (
    ascent_descent,
    ones_run,
    power_coefficient,
    power_expansion,
    reduce_exponent,
)
from semiswitch.families import (
    classify,
    commutative_isotopy_test,
    n2_criterion,
    n3_construct,
    n4_criterion,
)
from semiswitch.gf import _decode
from semiswitch.hws import rational_point_count
from semiswitch.presemifield import SwitchSpec


import _scoreboard
from oracles import _zero_divisor_by_kernels


def _report(tag, elapsed, cap, extra=""):
    line = f"[acceptance] {tag}: PASS in {elapsed:.2f}s (cap {cap:.0f}s){extra}"
    _scoreboard.post(line)


def _trace_route(spec):
    # the switched op is a presemifield iff Tr(M(a)/a) != -1 on a != 0,
    # M(X) = xi * sum b_i X^(q^i)
    ctx = spec.ctx
    minus_one = ctx.neg(1)
    M = LinearizedPoly(ctx, tuple(ctx.mul(spec.xi, bi) for bi in spec.b))
    for a in ctx.units():
        if ctx.rel_trace(ctx.mul(M(a), ctx.inv(a))) == minus_one:
            return False
    return True


def test_criterion_01_switch_equivalence():
    t0 = time.perf_counter()
    for p, m, n in ((2, 1, 3), (3, 1, 2)):
        ctx = build_field(p, m, n)
        for b in itertools.product(range(ctx.order), repeat=n):
            spec = SwitchSpec(ctx, b)
            axiom_route = _zero_divisor_by_kernels(build_switch(spec)) is None
            assert axiom_route == _trace_route(spec), (p, m, n, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report("criterion 1, switch equivalence exhaustive at (2,3) and (3,2)", elapsed, 60)


def test_criterion_02_n2_iff():
    t0 = time.perf_counter()
    ctx = build_field(3, 2, 2)  # F_81 over F_9: all 6561 pairs
    hits = 0
    for a1 in range(81):
        for a0 in range(81):
            want = switching_predicate(LinearizedPoly(ctx, (a0, a1)))
            assert n2_criterion(ctx, a1, a0) == want, (a1, a0)
            hits += want
    assert hits == 2592
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report("criterion 2, quadratic-root criterion iff over 6561 pairs", elapsed, 5)


def _n4_criterion_true_polys(ctx):
    out = []
    for a1 in range(1, 81):
        for a0 in range(81):
            if n4_criterion(ctx, a1, a0):
                out.append(LinearizedPoly(ctx, (a0, 0, a1, 0)))
    return out


def test_criterion_03_n4_one_direction_exhaustive():
    t0 = time.perf_counter()
    ctx = build_field(3, 1, 4)
    hits = _n4_criterion_true_polys(ctx)
    assert len(hits) == 270  # 10 admissible a_1 times the 27-element hyperplane
    for L in hits:
        assert switching_predicate(L), L.coeffs
    rng = random.Random(303)
    checked = 0
    while checked < 2000:
        a1 = rng.randrange(1, 81)
        a0 = rng.randrange(81)
        if n4_criterion(ctx, a1, a0):
            continue
        assert not switching_predicate(LinearizedPoly(ctx, (a0, 0, a1, 0))), (a1, a0)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report("criterion 3, norm-square criterion at (3,4), 270 + 2000 pairs", elapsed, 120)


def test_criterion_03_n4_iff_by_exhaustive_search():
    # the criterion's set is every passing non-monomial, not just a subset:
    # all 81^4 tuples at (3,4), and every (a_0, 0, a_2, 0) at (5,4)
    t0 = time.perf_counter()
    ctx = build_field(3, 1, 4)
    hits = {L.coeffs for L in search(ctx, mode="exhaustive", budget=81**4)}
    monomials = {c for c in hits if not any(c[1:])}
    assert (len(hits), len(monomials)) == (324, 54)
    assert hits - monomials == {L.coeffs for L in _n4_criterion_true_polys(ctx)}
    ctx = build_field(5, 1, 4)
    hits = {L.coeffs for L in search(ctx, (0, 2), mode="exhaustive")}
    want = {
        (a0, 0, a1, 0)
        for a1 in range(1, 625)
        for a0 in range(625)
        if n4_criterion(ctx, a1, a0)
    }
    assert len(want) == 6500
    assert {c for c in hits if c[2]} == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report("criterion 3, norm-square criterion iff at (3,4) and (5,4) by search", elapsed, 30)


def test_criterion_03_n4_binomials_by_full_support_census():
    # every passing non-monomial at (5,4) lies on support (0, 2): the full
    # census counts as many as the (0, 2) search of the iff check above
    t0 = time.perf_counter()
    ctx = build_field(5, 1, 4)
    rep = full_weight_search(ctx, budget=ctx.order**4)
    assert (rep["full_weight_constant"], rep["full_weight_nonconstant"]) == (500, 6500)
    assert all(w[1] == w[3] == 0 for w in rep["nonconstant_witnesses"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report("criterion 3, every non-monomial hit at (5,4) is a binomial", elapsed, 10)


def test_criterion_04_nuclei_signature():
    t0 = time.perf_counter()
    ctx = build_field(3, 1, 4)
    rep = classify(LinearizedPoly(ctx, (0, 0, 1, 0)), deep=True)
    assert rep["ganley"] is True
    assert rep["nuclei"][:3] == [3, 9, 3]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report("criterion 4, q=3 instance nuclei (3, 9, 3) with isotopy witness", elapsed, 60)


def test_criterion_05_q4_example():
    t0 = time.perf_counter()
    ctx = build_field(2, 2, 3, modulus=(1, 1, 0, 1, 1, 0, 1))
    xi = ctx.generator
    inst = n3_construct(ctx, ctx.pow(xi, 5), xi, ctx.pow(xi, 62))
    assert switching_predicate(inst.poly)
    op = build_switch(switch_spec_for(inst.poly))
    assert verify_presemifield(op)
    ok, witness = commutative_isotopy_test(op)
    assert ok is False and witness is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report("criterion 5, q=4 instance passes but is not commutative-isotopic", elapsed, 120)


def test_criterion_06_binary_monomial_censuses():
    caps = {3: 1.0, 4: 10.0, 5: 10.0, 6: 10.0}
    sizes = {}
    total = 0.0
    for n in caps:
        ctx = build_field(2, 1, n)
        t0 = time.perf_counter()
        found = search(ctx, mode="exhaustive", budget=ctx.order**n)
        elapsed = time.perf_counter() - t0
        expected = {
            (a0,) + (0,) * (n - 1) for a0 in range(ctx.order) if ctx.rel_trace(a0) == 1
        }
        assert {L.coeffs for L in found} == expected
        assert len(found) == 2 ** (n - 1)
        assert elapsed < caps[n]
        sizes[n] = len(found)
        total += elapsed
    counts = ", ".join(f"n={n}: {c}" for n, c in sizes.items())
    _report(
        f"criterion 6, binary searches find only unit multiples ({counts})",
        total,
        sum(caps.values()),
    )


def test_criterion_07_digit_machinery():
    t0 = time.perf_counter()
    asc, des, count = ascent_descent((2, 0, 1, 1, 3, 0))
    assert asc == (0, 0, 2, 4, 4)
    assert des == (1, 1, 5, 5, 5)
    assert count == 5
    assert _decode(ones_run(3, 4, 1, 3), 3, 4) == [0, 1, 1, 1]
    assert _decode(ones_run(3, 4, 3, 2), 3, 4) == [1, 0, 0, 1]
    rng = random.Random(707)
    for p, n in ((2, 4), (3, 3)):
        ctx = build_field(p, 1, n)
        M = (ctx.order - 1) // (ctx.q - 1)
        for _ in range(100):
            L = LinearizedPoly(ctx, tuple(rng.randrange(ctx.order) for _ in range(n)))
            exp = power_expansion(L)
            for alpha in range(M + 1):
                if alpha == 0:
                    want = exp.get(0, 0)
                else:
                    want = exp.get(reduce_exponent(ctx.q, n, alpha * (ctx.q - 1)), 0)
                assert power_coefficient(L, alpha) == want, (p, n, L.coeffs, alpha)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report("criterion 7, digit statistics and power coefficients agree", elapsed, 60)


def test_criterion_08_code_dimension_and_full_weight():
    t0 = time.perf_counter()
    for q, n in ((2, 3), (3, 2), (3, 3), (4, 2)):
        assert code_dimension(q, n) == n * n - n + 1
    for (p, m, n), expect_nonconstant in (
        ((3, 1, 2), True),
        ((2, 2, 3), True),
        ((2, 1, 3), False),
    ):
        ctx = build_field(p, m, n)
        rep = full_weight_search(ctx)
        assert (rep["full_weight_nonconstant"] > 0) == expect_nonconstant
        sols = search(ctx, mode="exhaustive")
        assert rep["full_weight_constant"] == sum(1 for L in sols if L.is_monomial())
        assert rep["full_weight_nonconstant"] == sum(
            1 for L in sols if not L.is_monomial()
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report("criterion 8, code dimensions and full-weight censuses", elapsed, 120)


def test_criterion_09_curve_bound_consistency():
    t0 = time.perf_counter()
    passing = []

    ctx92 = build_field(3, 2, 2)
    passing += search(ctx92, mode="exhaustive")

    ctx34 = build_field(3, 1, 4)
    passing += _n4_criterion_true_polys(ctx34)

    ctx43 = build_field(2, 2, 3, modulus=(1, 1, 0, 1, 1, 0, 1))
    xi = ctx43.generator
    passing.append(n3_construct(ctx43, ctx43.pow(xi, 5), xi, ctx43.pow(xi, 62)).poly)

    for L in passing:
        ctx = L.ctx
        trace_zero = ctx.rel_trace(L.coeffs[0]) == 0
        if any(L.coeffs[1:]):
            rep = curve_verdicts(L)
            if trace_zero:
                assert not rep.impossible_zero_trace, L.coeffs
            else:
                assert not rep.impossible_nonzero_trace, L.coeffs
            assert rep.meets_threshold, L.coeffs
            assert rep.point_count == (ctx.q + 1 if trace_zero else 1), L.coeffs
        else:
            assert rational_point_count(L) == (ctx.q + 1 if trace_zero else 1)

    # the headline instance: ell = 8 clears the zero-trace threshold 6
    rep = curve_verdicts(LinearizedPoly(ctx34, (0, 0, 1, 0)))
    assert rep.ell == 8 and rep.threshold_zero_trace == 6 and rep.meets_threshold

    ctx32 = build_field(3, 1, 2)
    rng = random.Random(909)
    checked = 0
    while checked < 500:
        coeffs = (rng.randrange(9), rng.randrange(9))
        if coeffs[1] == 0:
            continue
        band = curve_verdicts(LinearizedPoly(ctx32, coeffs))
        assert abs(band.point_count - 10) <= band.genus * band.serre_term, coeffs
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(
        f"criterion 9, verdicts consistent on {len(passing)} passing polynomials",
        elapsed,
        120,
    )


def _cli(args, out):
    res = subprocess.run(
        [sys.executable, "-m", "semiswitch", *args, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert res.returncode == 0, res.stderr
    return out.read_bytes()


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    infile = tmp_path / "polys.jsonl"
    infile.write_text('{"coeffs":[0,0,1,0]}\n{"coeffs":[1,0,1,0]}\n')
    jobs = [
        ("search", "--p", "3", "--n", "2", "--exhaustive"),
        ("search", "--p", "2", "--n", "4", "--exhaustive"),
        ("search", "--p", "3", "--n", "3", "--random", "--seed", "11", "--budget", "4000"),
        ("codes", "--p", "3", "--n", "2"),
        ("verify", "--p", "3", "--n", "4", str(infile)),
        ("hws", "--p", "3", "--n", "4", str(infile)),
    ]
    for k, job in enumerate(jobs):
        first = _cli(job, tmp_path / f"run{k}a.jsonl")
        second = _cli(job, tmp_path / f"run{k}b.jsonl")
        assert first == second, job
        assert first.endswith(b"\n")
        json.loads(first.splitlines()[0])

    # in-process seeded searches replay identically too
    ctx = build_field(3, 1, 3)
    a = [L.coeffs for L in search(ctx, mode="random", seed=5, budget=3000)]
    b = [L.coeffs for L in search(ctx, mode="random", seed=5, budget=3000)]
    assert a == b
    elapsed = time.perf_counter() - t0
    _report("criterion 10, byte-identical reruns across all subcommands", elapsed, 240)
