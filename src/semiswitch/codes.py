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

from collections import namedtuple
from itertools import islice
from math import gcd

from . import linpoly
from .errors import ConsistencyError, require_int, require_qn
from .linpoly import _period


CyclotomicCoset = namedtuple("CyclotomicCoset", "base modulus leader members")


def cyclotomic_coset(base, modulus, e):
    """Orbit of e under multiplication by ``base`` mod ``modulus``.

    Modulus 1 is allowed: F_2 over F_2 has q^n - 1 = 1, and the coset of
    0 mod 1 is {0}.
    """
    for name, v in (("base", base), ("modulus", modulus), ("e", e)):
        require_int(v, name)
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
    """Exponents pairwise in distinct q-cyclotomic cosets, no repeats.

    Each exponent, with q and modulus, gets the checks of
    :func:`cyclotomic_coset` before it is reduced.
    """
    cyclotomic_coset(q, modulus, 0)  # checks q and modulus when there is no exponent
    leaders = [cyclotomic_coset(q, modulus, e).leader for e in exponents]
    return len(set(leaders)) == len(leaders)


def code_dimension(q, n):
    """Dimension of the code: size of the union of the defining cosets.

    The defining exponents are q^i - 1 for i = 0..n-1; the union of
    their q-cyclotomic cosets mod q^n - 1 has exactly n^2 - n + 1
    elements, which is the dimension.
    """
    require_qn(q, n)
    N = q**n - 1
    union = set()
    for i in range(n):
        union.update(cyclotomic_coset(q, N, q**i - 1).members)
    dim = len(union)
    expected = n * n - n + 1
    if dim != expected:
        raise ConsistencyError(
            f"defining coset union has {dim} elements, expected {expected}"
        )
    return dim


Codeword = namedtuple("Codeword", "coeffs values")


def trace_codeword(ctx, coeffs):
    """The word of (a_0, ..., a_{n-1}): trace quotient along gamma powers.

    The word is the period-M transcript, read as one block, repeated
    q - 1 times.
    """
    values = tuple(_period(ctx, coeffs))  # checks coeffs first
    return Codeword(tuple(coeffs), values * (ctx.q - 1))


def full_weight_search(ctx, mode="exhaustive", seed=0, budget=None):
    """Census of full-weight words, split into constant and not.

    Full weight is the predicate, constant is monomial-ness, so this
    rides on the polynomial search.  Exhaustive mode counts the scaling
    orbits of the search's strata without expanding them: a passing rep
    of orbit size N/g stands for (N/g) q^(n-1) words, one per scaling and
    per a_0 of its trace class.  The witnesses are the first five
    non-constant words of the search's own code order, which expands only
    the trace classes they reach.  Random mode relabels the search's
    hits.  ``candidates`` is the words searched: all order**n of them, or
    in random mode the draws requested (the budget, repeats included).
    """
    if mode == "exhaustive":
        limit = linpoly.search_budget(budget)
        support = tuple(range(ctx.n))
        orbits = linpoly._exhaustive_orbits(ctx, support, limit)
        moving = [(rep, size) for rep, size in orbits if any(rep[1:])]
        spread = ctx.q ** (ctx.n - 1)  # the a_0 of one trace class
        constant = spread * (len(orbits) - len(moving))  # monomials: orbits of size 1
        nonconstant = spread * sum(size for _, size in moving)
        witnesses = [list(w) for w in islice(linpoly._code_order(ctx, support, moving), 5)]
        candidates = ctx.order**ctx.n
    else:
        sols = linpoly.search(ctx, range(ctx.n), mode=mode, seed=seed, budget=budget)
        nonmonomial = [list(L.coeffs) for L in sols if not L.is_monomial()]
        constant, nonconstant = len(sols) - len(nonmonomial), len(nonmonomial)
        witnesses = nonmonomial[:5]
        candidates = linpoly.search_budget(budget)
    return {
        "q": ctx.q,
        "n": ctx.n,
        "length": ctx.mult_order,
        "mode": mode,
        "candidates": candidates,
        "full_weight_constant": constant,
        "full_weight_nonconstant": nonconstant,
        "nonconstant_witnesses": witnesses,
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
