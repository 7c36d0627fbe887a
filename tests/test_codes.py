"""Cyclic-code correspondence: cosets, dimension, evaluation words."""

import random

import pytest

from semiswitch import (
    LinearizedPoly,
    build_field,
    code_dimension,
    cyclotomic_coset,
    full_weight_search,
    is_basic_zero_set,
    search,
    switching_predicate,
    trace_codeword,
)
from semiswitch import linpoly
from semiswitch.gf import _decode

from oracles import trace_quotient


def test_coset_of_zero():
    # modulus 1 is F_2 over F_2, where q^n - 1 = 1
    for modulus in (15, 1):
        c = cyclotomic_coset(2, modulus, 0)
        assert c.members == (0,)
        assert c.leader == 0
    assert code_dimension(2, 1) == 1
    with pytest.raises(ValueError, match="at least 1"):
        cyclotomic_coset(2, 0, 0)


def test_coset_takes_only_ints():
    # a float e would give float members
    for args in ((3, 8, 2.0), (3.0, 8, 2), (3, True, 0), (True, 8, 2)):
        with pytest.raises(ValueError, match="must be an int"):
            cyclotomic_coset(*args)


def test_coset_doubling_mod_15():
    c = cyclotomic_coset(2, 15, 3)
    assert set(c.members) == {3, 6, 12, 9}
    assert c.leader == 3


def test_coset_closed_under_base():
    for base, N in ((2, 15), (3, 26), (4, 63)):
        for e in range(N):
            c = cyclotomic_coset(base, N, e)
            for x in c.members:
                assert (x * base) % N in c.members
            assert c.leader == min(c.members)


def test_defining_cosets_are_shift_patterns():
    # digit vectors of the coset of q^i - 1: cyclic shifts of a run of (q-1)s
    for q, n in ((3, 2), (3, 3), (2, 4)):
        N = q**n - 1
        for i in range(1, n):
            base_digits = tuple([q - 1] * i + [0] * (n - i))
            shifts = {
                tuple(base_digits[(k - j) % n] for k in range(n)) for j in range(n)
            }
            got = {tuple(_decode(e, q, n)) for e in cyclotomic_coset(q, N, q**i - 1).members}
            assert got <= shifts


def test_basic_zero_set():
    q, n = 3, 3
    N = q**n - 1
    exps = [q**i - 1 for i in range(n)]
    assert is_basic_zero_set(q, N, exps)
    assert not is_basic_zero_set(2, 15, [1, 2])
    assert not is_basic_zero_set(2, 15, [0, 0])


def test_basic_zero_set_checks_its_arguments_as_a_coset_does():
    # modulus 0 must not reach the reduction, nor a repeat hide a q that is no unit
    for args, message in (
        ((2, 0, [1]), "at least 1"),
        ((2, 0, []), "at least 1"),
        ((3, 15, [1, 1]), "base must be invertible"),
    ):
        with pytest.raises(ValueError, match=message):
            is_basic_zero_set(*args)


def test_code_dimension_formula():
    assert code_dimension(3, 2) == 3
    assert code_dimension(2, 3) == 7
    assert code_dimension(3, 3) == 7
    assert code_dimension(4, 2) == 3


def test_code_dimension_small_sweep():
    for q, n in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)):
        if q**n <= 2**12:
            assert code_dimension(q, n) == n * n - n + 1


def test_union_of_cosets_2_3():
    N = 7
    union = set()
    for e in (0, 1, 3):
        union |= set(cyclotomic_coset(2, N, e).members)
    assert len(union) == 7


def test_codeword_monomial_constant(f9):
    w = trace_codeword(f9, (4, 0))
    assert set(w.values) == {f9.rel_trace(4)}
    weight = sum(1 for v in w.values if v)
    assert weight == (8 if f9.rel_trace(4) != 0 else 0)


def test_codeword_matches_trace_quotient(f9, f27, f16_q4, f81_q9):
    rng = random.Random(8)
    for ctx in (f9, f27, f16_q4, f81_q9):
        for _ in range(20):
            coeffs = tuple(rng.randrange(ctx.order) for _ in range(ctx.n))
            w = trace_codeword(ctx, coeffs)
            L = LinearizedPoly(ctx, coeffs)
            xs = ctx.exp
            assert len(w.values) == ctx.mult_order
            for k, x in enumerate(xs):
                assert w.values[k] == trace_quotient(L, x)


def test_codeword_cyclic_shift_closure(f9):
    # rotating the word equals multiplying a_i by gamma^(q^i - 1)
    ctx = f9
    rng = random.Random(9)
    for _ in range(20):
        coeffs = tuple(rng.randrange(9) for _ in range(2))
        w = trace_codeword(ctx, coeffs)
        rotated = tuple(w.values[(k + 1) % len(w.values)] for k in range(len(w.values)))
        shifted_coeffs = tuple(
            ctx.mul(a, ctx.pow(ctx.generator, ctx.q**i - 1))
            for i, a in enumerate(coeffs)
        )
        assert trace_codeword(ctx, shifted_coeffs).values == rotated


def test_full_weight_iff_predicate(f9):
    ctx = f9
    rng = random.Random(10)
    for _ in range(60):
        coeffs = tuple(rng.randrange(9) for _ in range(2))
        w = trace_codeword(ctx, coeffs)
        L = LinearizedPoly(ctx, coeffs)
        weight = sum(1 for v in w.values if v)
        assert (weight == ctx.mult_order) == switching_predicate(L)


def test_full_weight_search_censuses(f9, f8):
    rep = full_weight_search(f8)
    assert rep["full_weight_constant"] == 4
    assert rep["full_weight_nonconstant"] == 0
    rep = full_weight_search(f9)
    assert rep["full_weight_constant"] == 6
    assert rep["full_weight_nonconstant"] == 12
    assert len(rep["nonconstant_witnesses"]) == 5


def test_full_weight_search_q4_n3(f64_q4):
    rep = full_weight_search(f64_q4)
    assert rep["full_weight_constant"] == 48
    assert rep["full_weight_nonconstant"] == 2016


def test_census_expands_only_the_trace_classes_its_witnesses_reach(monkeypatch):
    # at q = 64, n = 2 the five witnesses share a_0 = 2, so one trace class
    # is scaled: 2,015 members rather than all 126,945 non-constant ones
    scaled, calls = linpoly._scaled, []
    monkeypatch.setattr(linpoly, "_scaled", lambda *args: calls.append(1) or scaled(*args))
    rep = full_weight_search(build_field(2, 6, 2), budget=1 << 24)
    assert len(calls) <= 2100
    assert (rep["full_weight_constant"], rep["full_weight_nonconstant"]) == (4032, 8124480)
    assert rep["nonconstant_witnesses"] == [[2, 1], [2, 4], [2, 5], [2, 8], [2, 9]]


def test_nonconstant_full_weight_matches_search(f9):
    rep = full_weight_search(f9)
    by_search = [
        list(L.coeffs) for L in search(f9, mode="exhaustive") if not L.is_monomial()
    ]
    assert rep["full_weight_nonconstant"] == len(by_search)
    assert rep["nonconstant_witnesses"] == by_search[:5]

