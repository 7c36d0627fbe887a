"""Point-count bounds that rule switchings out wholesale.

The trace quotient of L cuts out the affine curve y^q - y = L(x)/x.
Its rational point count is N = 1 + q * #{x : Tr(L(x)/x) = 0} (one
point at infinity), and the genus of a smooth model is governed by a
digit statistic of the exponents of L: for every j invertible mod
q^n - 1 put

    ell(j) = max over supported i >= 1 of Lead(Res(j (q^i - 1))),

with Res the residue mod q^n - 1 and Lead the smallest member of the
p-cyclotomic coset mod p^(mn) - 1; then ell = min_j ell(j) (ties to the
smallest j) and genus = (q-1)(ell-1)/2.  The Weil-Serre window
|N - (q^n + 1)| <= genus * floor(2 q^(n/2)) then turns into a pair of
impossibility verdicts: a predicate-passing L forces N = 1 when
Tr(a_0) != 0 and N = q + 1 when Tr(a_0) = 0, so if the window cannot
reach that low the predicate has no passing L of that shape.

Everything is exact integer arithmetic; floor(2 q^(n/2)) is isqrt(4 q^n).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .errors import require_qn
from .linpoly import transcript


def min_max_leader(L):
    """(ell, argmin j) over j in 1..q^n-2 coprime to q^n - 1.

    ell(j) and gcd(j, q^n - 1) are constant on the p-cyclotomic coset
    of j (jp(q^i - 1) lies in the coset of j(q^i - 1), and p is prime to
    q^n - 1), so only coset leaders are scanned.  In ascending order each coset is
    first met at its leader, so one walk over all cosets records every
    element's leader in a table, from which each ell(j) is read.
    Needs at least one supported coefficient index i >= 1.
    """
    ctx = L.ctx
    support = [i for i in range(1, ctx.n) if L.coeffs[i]]
    if not support:
        raise ValueError("all higher coefficients vanish; the statistic is undefined")
    q, n, p = ctx.q, ctx.n, ctx.p
    N = q**n - 1
    exponents = [q**i - 1 for i in support]
    lead = [0] * N  # lead[x]: the leader of x's coset; 0 until x is walked
    leaders = []
    for j in range(1, N):
        if lead[j]:
            continue
        cur = j
        while not lead[cur]:
            lead[cur] = j
            cur = cur * p % N
        if gcd(j, N) == 1:
            leaders.append(j)
    # ties go to the smallest j
    return min((max(lead[j * e % N] for e in exponents), j) for j in leaders)


def serre_term(q, n):
    """floor(2 q^(n/2)) computed exactly as isqrt(4 q^n)."""
    require_qn(q, n)
    return isqrt(4 * q**n)


def leader_thresholds(q, n):
    """Minimum ell a passing L must reach, per trace case.

    (threshold when Tr(a_0) != 0, threshold when Tr(a_0) = 0).
    """
    s = serre_term(q, n)
    t_nonzero = 1 + -(-2 * q**n // ((q - 1) * s))
    t_zero = 1 + -(-2 * (q**n - q) // ((q - 1) * s))
    return t_nonzero, t_zero


def rational_point_count(L):
    """N = 1 + q * #{x in F_{q^n} : Tr(L(x)/x) = 0} (x = 0 counts via a_0).

    Each zero in the period-M transcript stands for q - 1 units.  A
    monomial's transcript is the constant Tr(a_0), so it is not walked.
    """
    ctx = L.ctx
    trace_zero = ctx.rel_trace(L.coeffs[0]) == 0
    if L.is_monomial():
        zeros = ctx.trace_step if trace_zero else 0
    else:
        zeros = sum(1 for v in transcript(ctx, L.coeffs) if v == 0)
    return 1 + ctx.q * ((ctx.q - 1) * zeros + trace_zero)


CurveBoundReport = namedtuple(
    "CurveBoundReport",
    "ell argmin_j genus serre_term trace_zero point_count impossible_nonzero_trace "
    "impossible_zero_trace threshold_nonzero_trace threshold_zero_trace meets_threshold",
)


def curve_verdicts(L):
    """Bundle ell, genus, Serre window verdicts and thresholds for L.

    ``impossible_nonzero_trace`` says: no L with this exponent support
    passes the predicate with Tr(a_0) != 0.  Same for the zero-trace
    case with its weaker requirement N = q + 1.
    """
    ctx = L.ctx
    q, n = ctx.q, ctx.n
    ell, argmin_j = min_max_leader(L)
    genus = (q - 1) * (ell - 1) // 2
    s = serre_term(q, n)
    window = genus * s
    t_nonzero, t_zero = leader_thresholds(q, n)
    trace_zero = ctx.rel_trace(L.coeffs[0]) == 0
    threshold = t_zero if trace_zero else t_nonzero
    return CurveBoundReport(
        ell=ell,
        argmin_j=argmin_j,
        genus=genus,
        serre_term=s,
        trace_zero=trace_zero,
        point_count=rational_point_count(L),
        impossible_nonzero_trace=q**n + 1 - window > 1,
        impossible_zero_trace=q**n + 1 - window > q + 1,
        threshold_nonzero_trace=t_nonzero,
        threshold_zero_trace=t_zero,
        meets_threshold=ell >= threshold,
    )


__all__ = [
    "min_max_leader",
    "serre_term",
    "leader_thresholds",
    "rational_point_count",
    "CurveBoundReport",
    "curve_verdicts",
]
