"""The cyclic code whose full-weight words mirror the switching predicate.

Over F_q with N = q^n - 1, the code in question is the cyclic code of
length N whose dual has basic zero set {gamma^0, gamma^(q-1), ...,
gamma^(q^(n-1)-1)}.  Its words are the trace transcripts

    c(a_0, ..., a_{n-1})_k = Tr(a_0 + a_1 g^(k(q-1)) + ... ), k = 0..N-1,

with g = gamma, i.e. the trace quotient of L sampled along the powers
of gamma.  A word misses the value 0 exactly when L passes the
switching predicate, and it is constant exactly when L is a monomial;
so "full weight and not constant" is the code-side face of the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import linpoly
from .linpoly import LinearizedPoly, transcript


@dataclass(frozen=True)
class CyclotomicCoset:
    base: int
    modulus: int
    leader: int
    members: tuple


def cyclotomic_coset(base, modulus, e):
    """Orbit of e under multiplication by ``base`` mod ``modulus``.

    Modulus 1 is allowed: F_2 over F_2 has q^n - 1 = 1, and the coset of
    0 mod 1 is {0}.
    """
    if modulus < 1:
        raise ValueError("modulus must be at least 1")
    if gcd(base, modulus) != 1:
        raise ValueError("base must be invertible mod modulus")
    e %= modulus
    members = []
    cur = e
    while True:
        members.append(cur)
        cur = (cur * base) % modulus
        if cur == e:
            break
    return CyclotomicCoset(base, modulus, min(members), tuple(sorted(members)))


def is_basic_zero_set(q, modulus, exponents):
    """Exponents pairwise in distinct q-cyclotomic cosets, no repeats."""
    exps = [e % modulus for e in exponents]
    if len(set(exps)) != len(exps):
        return False
    leaders = {cyclotomic_coset(q, modulus, e).leader for e in exps}
    return len(leaders) == len(exps)


def code_dimension(q, n):
    """Dimension of the code: size of the union of the defining cosets.

    The defining exponents are q^i - 1 for i = 0..n-1; the union of
    their q-cyclotomic cosets mod q^n - 1 has exactly n^2 - n + 1
    elements, which is the dimension.
    """
    N = q**n - 1
    union = set()
    for i in range(n):
        union.update(cyclotomic_coset(q, N, q**i - 1).members)
    dim = len(union)
    expected = n * n - n + 1
    if dim != expected:
        from .errors import ConsistencyError

        raise ConsistencyError(
            f"defining coset union has {dim} elements, expected {expected}"
        )
    return dim


@dataclass(frozen=True)
class Codeword:
    coeffs: tuple
    values: tuple

    @property
    def weight(self):
        return sum(1 for v in self.values if v)

    @property
    def is_constant(self):
        return len(set(self.values)) == 1


def trace_codeword(ctx, coeffs):
    """The word of (a_0, ..., a_{n-1}): trace quotient along gamma powers.

    The word is the period-M transcript repeated q - 1 times.
    """
    L = LinearizedPoly(ctx, tuple(coeffs))
    values = tuple(transcript(ctx, L.coeffs)) * (ctx.q - 1)
    return Codeword(tuple(coeffs), values)


def full_weight_search(ctx, mode="exhaustive", seed=None, budget=None):
    """Census of full-weight words, split into constant and not.

    Full weight is the predicate, constant is monomial-ness, so this
    rides on the polynomial search and just relabels its output.
    """
    sols = linpoly.search(ctx, range(ctx.n), mode=mode, seed=seed, budget=budget)
    constant = [L for L in sols if L.is_monomial()]
    nonconstant = [L for L in sols if not L.is_monomial()]
    return {
        "q": ctx.q,
        "n": ctx.n,
        "length": ctx.mult_order,
        "mode": mode,
        "candidates": ctx.order**ctx.n,
        "full_weight_constant": len(constant),
        "full_weight_nonconstant": len(nonconstant),
        "nonconstant_witnesses": [list(L.coeffs) for L in nonconstant[:5]],
    }


__all__ = [
    "CyclotomicCoset",
    "cyclotomic_coset",
    "is_basic_zero_set",
    "code_dimension",
    "Codeword",
    "trace_codeword",
    "full_weight_search",
]
