"""Base-q digit combinatorics behind the (q-1)-th power expansion.

Write M = (q^n - 1)/(q - 1).  The reduced exponents of the expansion
of ``Tr(L(x)/x)^(q-1)`` are the multiples of q-1 in 0..q^n-1, and those
correspond to the interval 0..M once q^n-1 (the top multiple) is kept
distinct from 0.  ``wrap_add_many`` is addition on that interval with
the same 0-versus-top bookkeeping; ``ones_run`` gives the value of a
digit vector with a cyclic run of ones, and the wrapped sums of those
values index the terms of the expansion.  ``power_coefficient``
computes one coefficient through that combinatorial indexing,
``power_expansion`` through plain convolution; the two must agree,
which makes them useful foils for each other.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product

from .errors import BudgetExceeded, read_limit, require_int, require_qn
from .gf import build_field

DEFAULT_TUPLE_BUDGET = 1 << 22


def wrap_add_many(q, n, terms):
    """Addition on 0..M, M = (q^n-1)/(q-1), keeping 0 and M apart.

    0 comes out only when every term is 0; a nonzero total congruent to
    0 mod M comes out as M.
    """
    require_qn(q, n)
    M = (q**n - 1) // (q - 1)
    total = 0
    for v in terms:
        if not 0 <= require_int(v, "operand") <= M:
            raise ValueError(f"operand {v} outside 0..{M}")
        total += v
    if total == 0:
        return 0
    r = total % M
    return M if r == 0 else r


def ones_run(q, n, start, length):
    """The value of the run of ``length`` ones cyclically from digit ``start``.

    That is the int whose n base-q digits are 1 at positions start, ...,
    start + length - 1 (mod n) and 0 elsewhere.  It is congruent to
    q^start (q^length - 1)/(q - 1) mod q^n - 1 and always lies in 0..M.
    """
    require_qn(q, n)
    if not 0 <= require_int(start, "start") < n:
        raise ValueError(f"start {start} out of range")
    if not 0 <= require_int(length, "length") < n:
        raise ValueError(f"length {length} must lie in 0..n-1")
    return sum(q ** ((start + k) % n) for k in range(length))


def ascent_descent(digits):
    """Cyclic ascent and descent positions of a digit vector.

    Position i is counted with multiplicity |d_i - d_{i-1}| (indices mod
    n) on the ascent side when d_i > d_{i-1} and on the descent side
    when d_i < d_{i-1}.  Returns (ascents, descents, total) with the
    multisets as sorted tuples; the two always have equal size.
    """
    n = len(digits)
    asc, des = [], []
    for i in range(n):
        diff = digits[i] - digits[i - 1]
        if diff > 0:
            asc.extend([i] * diff)
        elif diff < 0:
            des.extend([i] * (-diff))
    return tuple(sorted(asc)), tuple(sorted(des)), len(asc)


def reduce_exponent(q, n, e):
    """Exponent reduction mod X^(q^n) - X: 0 stays 0, else 1 + (e-1) mod (q^n-1)."""
    require_qn(q, n)
    if require_int(e, "exponent") < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return 0
    return 1 + (e - 1) % (q**n - 1)


def power_expansion(L):
    """(q-1)-th power of sum_{i,j} a_i^(q^j) X^(q^j (q^i - 1)), reduced.

    Plain dictionary convolution with exponents put through
    reduce_exponent; returns {exponent: coefficient} without zeros.
    """
    ctx = L.ctx
    q, n = ctx.q, ctx.n
    base = {}
    for i, a in enumerate(L.coeffs):
        if not a:
            continue
        for j in range(n):
            e = reduce_exponent(q, n, (q**j) * (q**i - 1))
            c = ctx.frobenius(a, j)
            base[e] = ctx.add(base.get(e, 0), c)
    base = {e: c for e, c in base.items() if c}
    result = dict(base)
    for _ in range(q - 2):
        nxt = {}
        for e1, c1 in result.items():
            for e2, c2 in base.items():
                e = reduce_exponent(q, n, e1 + e2)
                nxt[e] = ctx.add(nxt.get(e, 0), ctx.mul(c1, c2))
        result = {e: c for e, c in nxt.items() if c}
    return result


def congruence_right_side(L):
    """{exponent: coefficient} of Tr(a_0)^(q-1) + (1 - Tr(a_0)^(q-1)) X^(q^n - 1)."""
    ctx = L.ctx
    t = ctx.rel_trace(L.coeffs[0])
    c = ctx.pow(t, ctx.q - 1) if t else 0
    out = {}
    if c:
        out[0] = c
    rest = ctx.sub(1, c)
    if rest:
        out[ctx.q**ctx.n - 1] = rest
    return out


def congruence_holds(L):
    """Whether the reduced power collapses to the two-term right side.

    This happens exactly when L passes the switching predicate.
    """
    return power_expansion(L) == congruence_right_side(L)


def power_coefficient(L, alpha, budget=None):
    """Coefficient of X^(alpha (q-1)) of the reduced power, combinatorially.

    Sums a_{i_1}^(q^{j_1}) ... a_{i_{q-1}}^(q^{j_{q-1}}) over all
    (q-1)-tuples of pairs (j, i) in 0..n-1 whose ones_run values
    wrap_add_many to alpha (a pair with i = 0 contributes run value 0 and a
    factor a_0^(q^j)).
    """
    ctx = L.ctx
    q, n = ctx.q, ctx.n
    M = (q**n - 1) // (q - 1)
    if not 0 <= require_int(alpha, "alpha") <= M:
        raise ValueError(f"alpha must lie in 0..{M}")
    limit = read_limit(budget, DEFAULT_TUPLE_BUDGET, "budget")
    if (n * n) ** (q - 1) > limit:
        raise BudgetExceeded(f"(n^2)^(q-1) tuples exceed budget {limit}")
    run_value = [[ones_run(q, n, j, i) for i in range(n)] for j in range(n)]
    pairs = [(j, i) for j in range(n) for i in range(n)]
    total = 0
    for combo in product(pairs, repeat=q - 1):
        if wrap_add_many(q, n, (run_value[j][i] for j, i in combo)) != alpha:
            continue
        term = 1
        for j, i in combo:
            term = ctx.mul(term, ctx.frobenius(L.coeffs[i], j))
            if term == 0:
                break
        total = ctx.add(total, term)
    return total


def vanishing_sums_check(L):
    """Coefficient identities every predicate-passing L over a prime field obeys.

    For q = p prime, every admissible pattern of indices
    1 <= i_1 < ... < i_{p-1} and offsets t_1 >= ... >= t_{p-2} >= 0 with
    i_{p-1} + t_1 <= n - 2 must satisfy

        sum over distinct arrangements tau of (t_1, ..., t_{p-2}, 0):
            prod_k a_{i_k + tau(k)}^(p^(i_{p-1} - i_k))  =  0.

    For p = 2 this degenerates to a_i = 0 for 1 <= i <= n - 2.
    Returns (True, None) or (False, witness).
    """
    ctx = L.ctx
    if ctx.m != 1:
        raise ValueError("check applies to prime fields only (m = 1)")
    p, n = ctx.p, ctx.n
    a = L.coeffs
    for chain in combinations(range(1, n - 1), p - 1):
        top = chain[-1]
        for t_desc in combinations_with_replacement(range(n - 1 - top), p - 2):
            ts = tuple(sorted(t_desc, reverse=True))
            slots = ts + (0,)
            total = 0
            for tau in set(permutations(slots)):
                term = 1
                for k, ik in enumerate(chain):
                    coeff = a[ik + tau[k]]
                    if coeff == 0:
                        term = 0
                        break
                    term = ctx.mul(term, ctx.frobenius(coeff, top - ik))
                total = ctx.add(total, term)
            if total != 0:
                return False, {"i": chain, "t": ts}
    return True, None


def monomial_census(p, n, budget=None, mode="exhaustive", seed=0):
    """Count predicate-passing L over F_{p^n}/F_p and test monomial-ness.

    The full-weight census of :mod:`.codes` under the names of the
    theorem: reports whether every hit is a monomial, together with the
    bound (p-1)(p^2-p+4)/2 above which that must happen.
    """
    from . import codes  # only the census needs it; verify loads digits without it

    census = codes.full_weight_search(build_field(p, 1, n), mode=mode, seed=seed, budget=budget)
    non_monomial = census["full_weight_nonconstant"]
    bound = (p - 1) * (p * p - p + 4) // 2
    return {
        "p": p,
        "n": n,
        "exhaustive": mode == "exhaustive",
        "bound": bound,
        "bound_applies": n > bound,
        "solutions": census["full_weight_constant"] + non_monomial,
        "all_monomial": not non_monomial,
        "witnesses": census["nonconstant_witnesses"],
    }


__all__ = [
    "wrap_add_many",
    "ones_run",
    "ascent_descent",
    "reduce_exponent",
    "power_expansion",
    "congruence_right_side",
    "congruence_holds",
    "power_coefficient",
    "vanishing_sums_check",
    "monomial_census",
    "DEFAULT_TUPLE_BUDGET",
]
