"""Every fast route against its slow oracle from ``oracles.py``.

One parametrised test, one line per (fast route, oracle) pair.  Each
pair runs over the shared fields of conftest.py and over F_729 as F_9^3
(the F_p-linear pairs also over F_125, F_343 and F_625 as F_25^2, and
addition on every pair of the odd ones and of the prime fields F_5, F_7),
on sampled inputs: random polynomials and switchings, predicate-passing
ones spread over a field's search hits (degree-3 family members at
order 729, where exhaustive search is out of budget), each beside its
twin with xi = gamma and the same M = xi B, and failing ones.  The
closed-form side maps run against whole-field scans of 1*y and x*1.
The transcript also runs, read lazily and as one whole-period block,
on F_{2^10}, F_{3^6} and F_{9^4}, whose periods pass the values read one
at a time: there every term is read by strided slices, its terms
combined by XOR, by a sum mod p and by field addition.  The block read
runs against the transcript's former loop on windows that start at 0,
straddle the first block and every wrap of a stride, and end at M.
Exhaustive search runs on every support of at most 20,000 candidates,
and random search on both of its plans, with and without an early stop,
against the predicate applied to each candidate; each plan, forced by
its price, also runs against the walk of the draws' distinct heads and
tails at every cut on the fields of order at most 27.  Exhaustive
search also runs against the walk over every tuple, which knows no
scaling orbits, its closed-form monomials against the walk of the a_0
trace classes alone on each of those supports that holds 0, and the
exhaustive code census (counted by orbit size) against the first walk's
expanded hits on full support, witnesses included.
The all-pairs nuclei oracle also runs on hand-built unital algebras
(``oracles.py``), at F_81 and at F_32 and F_243.
``orbit_rep`` runs against the scan over every scaling on every tuple
of F_9^2 and F_16^2 and on seeded F_81^4 samples.  The per-orbit
``classify`` and the isotopy kernel's transport run on every hit of
(q, n) = (3, 3), (4, 2), (7, 2) and of (3, 4) on support (0, 2).  The
zero-divisor walk on the lines F_q^* xi/x runs against the kernel walk
on every b, at xi = 1, gamma and the last code, for (q, n) = (2, 2),
(3, 2), (4, 2), (2, 3), (5, 2) and (7, 2), and on every hit of (3, 3),
(4, 2) and (7, 2).  ``classify``, with and without an orbits dict, runs
against the deep route on each switch (``deep_classify``) on every
monomial of (q, n) = (3, 2), (4, 2), (3, 3), (5, 3), (8, 2) and (3, 4),
where the passing ones are answered in closed form.
"""

import random
from functools import cache
from itertools import combinations, product

import pytest

from semiswitch import (
    LinearizedPoly,
    SwitchSpec,
    build_field,
    build_switch,
    classify,
    commutative_isotopy_test,
    find_zero_divisor,
    full_weight_search,
    is_permutation,
    min_max_leader,
    n2_criterion,
    nuclei,
    search,
    switch_spec_for,
    theta_set,
    transcript,
    unitalize,
    verify_presemifield,
)
from semiswitch import linpoly
from semiswitch.families import matches_n3
from semiswitch.gf import _kernel, _linear_table, _span
from semiswitch.linpoly import orbit_rep
from semiswitch.presemifield import _unital_maps, transport_isotopy_kernel

from oracles import (
    _a0_only_walk,
    _census_by_expansion,
    _center_separating_algebra,
    _is_permutation_scan,
    _isotopy_scan,
    _kernel_by_digits,
    _linear_map_oracle,
    _matches_n3_scan,
    _matrix_algebra,
    _min_max_leader_full_scan,
    _negatives_by_digits,
    _nuclei_all_pairs,
    _nuclei_scan,
    _orbit_rep_scan,
    _random_members,
    _random_search_by_predicate,
    _random_search_split,
    _search_by_predicate,
    _search_exhaustive,
    _step_by_step_tables,
    _sums_by_digits,
    _switch_product,
    _theta_set_scan,
    _twisted_field,
    _unital_maps_scan,
    _unitalize_scan,
    _verify_by_right_kernels,
    _zero_divisor_by_kernels,
    _zero_divisor_scan,
    deep_classify,
    n2_lemma_roots,
    nuclei_members,
    scale,
    trace_quotient,
    transcript_one_at_a_time,
)

FIELDS = ["f4", "f8", "f9", "f16_q4", "f27", "f64_q4", "f81_n4", "f81_q9", "f729"]
# the F_p-linear algebra also runs at p = 5 and 7, one of them with m > 1
LINEAR_FIELDS = FIELDS + ["f125", "f343", "f625_q25"]
# addition reads exp and log for odd p: every pair, F_5 and F_7 (m = n = 1) first
ADD_FIELDS = ["f5", "f7", "f9", "f27", "f81_n4", "f81_q9", "f729", "f125", "f343", "f625_q25"]
# the center-separating algebra lives on the five digits of F_{p^5}
NUCLEI_FIELDS = FIELDS + ["f32", "f243"]
# F_9^2 and F_16^2 in full; F_81^4 with first nonzero index 1, 2 or 3
ORBIT_FIELDS = ["f9", "f16_q4", "f81_n4"]
# the hits of the search workload's two shapes, and of (7, 2) and (3, 4) on (0, 2)
HIT_FIELDS = ["f27", "f16_q4", "f49", "f81_n4"]
# the line walk against the kernel walk on every b, at three xi each
LINE_FIELDS = ["f4", "f9", "f16_q4", "f8", "f25", "f49"]
# every monomial, classified in closed form against the deep route
MONOMIAL_FIELDS = ["f9", "f16_q4", "f27", "f125", "f64_q8", "f81_n4"]
# periods past linpoly._FIRST, one per way of adding terms: XOR (p = 2), a
# sum mod p (m = 1) and field addition (odd p, m > 1)
TRANSCRIPT_FIELDS = FIELDS + ["f1024", "f729_n6", "f6561_q9"]


@pytest.fixture(scope="module")
def f729():
    return build_field(3, 2, 3)


@pytest.fixture(scope="module")
def f1024():
    return build_field(2, 1, 10)


@pytest.fixture(scope="module")
def f729_n6():
    return build_field(3, 1, 6)


@pytest.fixture(scope="module")
def f6561_q9():
    return build_field(3, 2, 4)


@pytest.fixture(scope="module")
def f125():
    return build_field(5, 1, 3)


@pytest.fixture(scope="module")
def f343():
    return build_field(7, 1, 3)


@pytest.fixture(scope="module")
def f625_q25():
    return build_field(5, 2, 2)


@pytest.fixture(scope="module")
def f25():
    return build_field(5, 1, 2)


@pytest.fixture(scope="module")
def f49():
    return build_field(7, 1, 2)


@pytest.fixture(scope="module")
def f64_q8():
    return build_field(2, 3, 2)


@pytest.fixture(scope="module")
def f32():
    return build_field(2, 1, 5)


@pytest.fixture(scope="module")
def f243():
    return build_field(3, 1, 5)


# ---- inputs per field: lists of argument tuples ----


@cache
def _polys(ctx):
    """Eight random L, and two with the kernel F_q c: X^q - c^(q-1) X."""
    rng = random.Random(ctx.order)
    out = [tuple(rng.randrange(ctx.order) for _ in range(ctx.n)) for _ in range(8)]
    for c in rng.sample(range(1, ctx.order), 2):
        out.append((ctx.neg(ctx.pow(c, ctx.q - 1)), 1) + (0,) * (ctx.n - 2))
    return [(LinearizedPoly(ctx, coeffs),) for coeffs in out]


@cache
def _passing_specs(ctx):
    """Switchings of up to six predicate-passing L spread over the hits,
    two at order 729, each followed by its twin (b / gamma, xi = gamma),
    which has the same M = xi B and so passes too."""
    if ctx.order**ctx.n <= 1 << 18:
        hits = [L.coeffs for L in search(ctx)]
    elif ctx.n == 4:
        hits = [L.coeffs for L in search(ctx, (0, 2))]
    else:
        hits = _random_members(ctx, random.Random(729), 2)
    hits = hits[:: -(-len(hits) // 6)]
    out = []
    for c in hits:
        spec = switch_spec_for(LinearizedPoly(ctx, c))
        g = ctx.generator
        twin = SwitchSpec(ctx, tuple(ctx.div(b, g) for b in spec.b), g)
        out += [(spec,), (twin,)]
    return out


@cache
def _passing_ops(ctx):
    return [(build_switch(spec),) for (spec,) in _passing_specs(ctx)]


def _failing_ops(ctx):
    rng = random.Random(17)
    out = []
    while len(out) < 4:
        op = build_switch(SwitchSpec(ctx, tuple(rng.randrange(ctx.order) for _ in range(ctx.n))))
        if not verify_presemifield(op):
            out.append((op,))
    return out


def _all_ops(ctx):
    return _passing_ops(ctx) + _failing_ops(ctx)


def _every_spec(ctx):
    """Every b, with xi = 1, gamma and the last code."""
    return [
        (SwitchSpec(ctx, b, xi),)
        for xi in (1, ctx.generator, ctx.order - 1)
        for b in product(range(ctx.order), repeat=ctx.n)
    ]


def _hit_specs(ctx):
    return [(switch_spec_for(L),) for L in _hits(ctx)]


def _unital_ops(ctx):
    return [(unitalize(op),) for (op,) in _passing_ops(ctx)]


def _nuclei_ops(ctx):
    """The unital ops above, plus the hand-built algebras: at F_81 = F_3^4
    the three twisted fields and the 2x2 matrices, at F_{p^5} the
    algebra whose center is not left nucleus meet commutant."""
    if ctx.m * ctx.n == 5:
        return [(_center_separating_algebra(ctx),)]
    out = _unital_ops(ctx)
    if (ctx.p, ctx.m, ctx.n) == (3, 1, 4):
        twisted = [_twisted_field(ctx, a, b) for a, b in ((2, 1), (1, 2), (1, 3))]
        out = out + [(op,) for op in twisted + [_matrix_algebra(ctx)]]
    return out


def _pairs(ctx):
    rng = random.Random(5)
    return [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(1000)]


def _op_and_pairs(ctx):
    return [(op, _pairs(ctx)) for (op,) in _passing_ops(ctx)]


def _spec_and_pairs(ctx):
    """Passing specs, and random ones with a random xi."""
    rng = random.Random(6)
    specs = [spec for (spec,) in _passing_specs(ctx)]
    for _ in range(3):
        b = tuple(rng.randrange(ctx.order) for _ in range(ctx.n))
        specs.append(SwitchSpec(ctx, b, xi=rng.randrange(1, ctx.order)))
    return [(spec, _pairs(ctx)) for spec in specs]


def _linear_maps(ctx):
    rng = random.Random(ctx.order)
    d = ctx.m * ctx.n
    return [(ctx.p, d, [rng.randrange(ctx.order) for _ in range(d)]) for _ in range(2)]


def _kernel_maps(ctx):
    """F_p-linear maps with 1 to 3 image entries, given by their basis images.

    Per entry count: the zero map, an injective x -> (a x, ...), maps
    whose images lie in the span of r random tuples (kernel dimension at
    least d - r, for r = 1, d - 2 and d - 1) and a random map.
    """
    rng = random.Random(ctx.order)
    p, d = ctx.p, ctx.m * ctx.n

    def draw(k):
        return tuple(rng.randrange(ctx.order) for _ in range(k))

    def combination(span):
        out = (0,) * len(span[0])
        for t in span:
            c = rng.randrange(p)
            out = tuple(ctx.add(o, ctx.mul(c, x)) for o, x in zip(out, t))
        return out

    cases = []
    for k in (1, 2, 3):
        a = rng.randrange(1, ctx.order)
        cases.append([(0,) * k] * d)
        cases.append([(ctx.mul(a, p**j),) + draw(k - 1) for j in range(d)])
        for r in sorted({1, d - 2, d - 1} - {0}):
            span = [draw(k) for _ in range(r)]
            cases.append([combination(span) for _ in range(d)])
        cases.append([draw(k) for _ in range(d)])
    out = []
    for rows in cases:
        cols = list(zip(*rows))
        f = lambda x, cols=cols: tuple(_linear_map_oracle(p, d, col, x) for col in cols)
        out.append((ctx, f))
    return out


def _masks(ctx):
    """Every support with at most 20,000 candidates: with and without
    index 0, so with and without a_0's trace classes, and with and
    without a block of tail tuples beside the head walk."""
    return [
        (ctx, mask)
        for r in range(1, ctx.n + 1)
        if ctx.order**r <= 20_000
        for mask in combinations(range(ctx.n), r)
    ]


def _a0_masks(ctx):
    """The supports of :func:`_masks` that hold 0."""
    return [(ctx, mask) for ctx, mask in _masks(ctx) if mask[0] == 0]


def _random_searches(ctx):
    """Supports with and without index 0 at seeds 0, 1 and 2^64 - 1, on 10
    draws, on a budget below the space and, where the space is small, on
    one that draws every passing assignment and stops early.  Both plans
    of random search come up: the draw plan on few draws, and at (9, 3) on
    full support, the orbit plan on the rest.  At n = 3, support (1, 2)
    and full support also walk strata of three indices, without and with
    a_0's trace classes (at n = 2, (0, 1) is full support)."""
    out = []
    masks = [(0,), (ctx.n - 1,), (0, ctx.n - 1)] + ([(1, 2), (0, 1, 2)] if ctx.n == 3 else [])
    for mask in masks:
        space = ctx.order ** len(mask)
        budgets = {10, min(space // 2, 5000)} | ({20 * space} if space <= 1000 else set())
        out += [(ctx, mask, s, b) for s in (0, 1, 2**64 - 1) for b in sorted(budgets)]
    return out


def _higher_support(ctx):
    return [(L,) for (L,) in _polys(ctx) if any(L.coeffs[1:])]


def _n2_polys(ctx):
    return _polys(ctx) if ctx.n == 2 else []


def _unit_pairs(ctx):
    if ctx.n != 3:
        return []
    rng = random.Random(ctx.order)
    return [(ctx, rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)) for _ in range(10)]


def _n3_polys(ctx):
    """Family members, those with a_0 redrawn, and random triples.

    The family is empty at q = 2, where every unit has norm 1.  A
    non-member costs the scan a pass over all (u, v), about q^6 steps,
    so order 729 takes one of them.
    """
    if ctx.n != 3:
        return []
    rng = random.Random(1406)
    members = _random_members(ctx, rng, 6) if ctx.q > 2 else []
    others = [(rng.randrange(ctx.order),) + c[1:] for c in members]
    others += [tuple(rng.randrange(ctx.order) for _ in range(3)) for _ in range(60)]
    cases = members + others[: max(1, 100_000 // ctx.order**2)]
    return [(LinearizedPoly(ctx, c),) for c in cases]


def _orbit_tuples(ctx):
    """Every tuple at n = 2; at n = 4, 150 seeded tuples each with first
    nonzero index 1, 2 (gcd(2, 4) = 2: four scalings fix log a_2 mod 8)
    and 3, and with a_0 = 0 or not."""
    if ctx.n == 2:
        return [(ctx, (a0, a1)) for a0 in range(ctx.order) for a1 in range(ctx.order)]
    rng = random.Random(2024)
    out = []
    for j in range(1, ctx.n):
        for _ in range(150):
            tail = [rng.randrange(ctx.order) for _ in range(j + 1, ctx.n)]
            a0 = rng.choice((0, rng.randrange(ctx.order)))
            out.append((ctx, (a0,) + (0,) * (j - 1) + (rng.randrange(1, ctx.order), *tail)))
    return out


@cache
def _hits(ctx):
    """Every hit, in search order: on support (0, 2) at n = 4, else full support."""
    return search(ctx, (0, 2) if ctx.n == 4 else None)


def _hit_lists(ctx):
    return [(_hits(ctx),)]


@cache
def _isotopy_kernels(ctx):
    """coeffs -> (op, isotopy kernel basis) of every hit, each from its own op."""
    out = {}
    for L in _hits(ctx):
        op = build_switch(switch_spec_for(L))
        commutative_isotopy_test(op)
        out[L.coeffs] = op, op.isotopy_kernel
    return out


def _scalings(ctx):
    """Each non-monomial hit with c = gamma, gamma^2 and gamma^(M-1)."""
    cs = [ctx.exp[k] for k in (1, 2, ctx.trace_step - 1)]
    return [(L, c) for L in _hits(ctx) if not L.is_monomial() for c in cs]


# ---- the two sides of a pair, where they are not library calls ----


def _tables(ctx):
    frob = [ctx.frobenius(x) for x in range(ctx.order)]
    nm = [ctx.rel_norm(x) for x in range(ctx.order)]
    return ctx.exp, ctx.log, frob, ctx.tr, nm


def _sums(ctx):
    return [ctx.add(a, b) for a in range(ctx.order) for b in range(ctx.order)]


def _negatives(ctx):
    return [ctx.neg(a) for a in range(ctx.order)]


def _linear_map_scan(p, d, images):
    return [_linear_map_oracle(p, d, images, c) for c in range(p**d)]


def _transcript(L):
    return list(transcript(L.ctx, L.coeffs))


def _period(L):
    return linpoly._period(L.ctx, L.coeffs)


def _search_hits(ctx, mask):
    return [L.coeffs for L in search(ctx, mask)]


def _monomial_orbits(ctx, mask):
    return [(rep, size) for rep, size in linpoly._passing_orbits(ctx, mask) if not any(rep[1:])]


def _census_counts(ctx):
    rep = full_weight_search(ctx, budget=ctx.order**ctx.n)
    return (
        rep["full_weight_constant"],
        rep["full_weight_nonconstant"],
        rep["nonconstant_witnesses"],
    )


def _random_search_hits(ctx, mask, seed, budget):
    return [L.coeffs for L in search(ctx, mask, mode="random", seed=seed, budget=budget)]


def _trace_quotients(L):
    return [trace_quotient(L, x) for x in L.ctx.exp[: L.ctx.trace_step]]


def _n2_by_criterion(L):
    return n2_criterion(L.ctx, L.coeffs[1], L.coeffs[0])


def _n2_by_lemma(L):
    # L passes iff no root of the lemma's quadratic is a nonzero (q-1)-th power
    ctx = L.ctx
    roots = n2_lemma_roots(ctx, L.coeffs[1], L.coeffs[0])
    return not any(r and ctx.log[r] % (ctx.q - 1) == 0 for r in roots)


def _products(unitalizer):
    def route(op, pairs):
        star = unitalizer(op)
        return [star(x, y) for x, y in pairs]

    return route


def _switch_products(spec, pairs):
    op = build_switch(spec)
    return [op(x, y) for x, y in pairs]


def _switch_products_by_form(spec, pairs):
    return [_switch_product(spec, x, y) for x, y in pairs]


def _unital_map_lists(op):
    return tuple([f(z) for z in range(op.ctx.order)] for f in _unital_maps(op))


def _nuclei_sets(op):
    return nuclei_members(op.ctx, nuclei(op))


def _line_walk(spec):
    return find_zero_divisor(build_switch(spec))


def _kernel_walk(spec):
    return _zero_divisor_by_kernels(build_switch(spec))


def _classify_sharing_orbits(hits):
    orbits = {}
    return [classify(L, orbits=orbits) for L in hits]


def _classify_each(hits):
    return [classify(L) for L in hits]


def _deep_classify_each(hits):
    return [deep_classify(L) for L in hits]


def _monomials(ctx):
    return [([LinearizedPoly(ctx, (a0,) + (0,) * (ctx.n - 1)) for a0 in range(ctx.order)],)]


def _transported_span(L, c):
    """The span of L's isotopy kernel basis transported to L scaled by c."""
    op, kernel = _isotopy_kernels(L.ctx)[L.coeffs]
    return _span(L.ctx, transport_isotopy_kernel(op, kernel, c))


def _scaled_kernel_span(L, c):
    """The span of the kernel that the isotopy test finds on L scaled by c."""
    return _span(L.ctx, _isotopy_kernels(L.ctx)[scale(L.ctx, L.coeffs, c)][1])


def pair(fast, oracle, inputs, id, fields=FIELDS):
    return pytest.param(fast, oracle, inputs, fields, id=id)


PAIRS = [
    pair(_tables, _step_by_step_tables, lambda ctx: [(ctx,)], "build_field"),
    pair(_linear_table, _linear_map_scan, _linear_maps, "linear_table"),
    pair(_kernel, _kernel_by_digits, _kernel_maps, "kernel", LINEAR_FIELDS),
    pair(_sums, _sums_by_digits, lambda ctx: [(ctx,)], "add", ADD_FIELDS),
    pair(_negatives, _negatives_by_digits, lambda ctx: [(ctx,)], "neg", LINEAR_FIELDS),
    pair(_transcript, _trace_quotients, _polys, "transcript", TRANSCRIPT_FIELDS),
    pair(_period, _trace_quotients, _polys, "transcript-period", TRANSCRIPT_FIELDS),
    pair(orbit_rep, _orbit_rep_scan, _orbit_tuples, "orbit_rep", ORBIT_FIELDS),
    pair(_search_hits, _search_by_predicate, _masks, "search"),
    pair(_search_hits, _search_exhaustive, _masks, "search-orbit"),
    pair(_monomial_orbits, _a0_only_walk, _a0_masks, "search-monomials"),
    pair(_census_counts, _census_by_expansion, lambda ctx: [(ctx,)], "census-orbit"),
    pair(_random_search_hits, _random_search_by_predicate, _random_searches, "search-random"),
    pair(is_permutation, _is_permutation_scan, _polys, "is_permutation"),
    pair(_n2_by_criterion, _n2_by_lemma, _n2_polys, "n2_lemma"),
    pair(theta_set, _theta_set_scan, _unit_pairs, "theta_set"),
    pair(matches_n3, _matches_n3_scan, _n3_polys, "matches_n3"),
    pair(min_max_leader, _min_max_leader_full_scan, _higher_support, "min_max_leader"),
    pair(find_zero_divisor, _zero_divisor_scan, _failing_ops, "find_zero_divisor"),
    pair(_line_walk, _kernel_walk, _every_spec, "zero_divisor-line", LINE_FIELDS),
    pair(_line_walk, _kernel_walk, _hit_specs, "zero_divisor-line-hits", ["f27", "f16_q4", "f49"]),
    pair(verify_presemifield, _verify_by_right_kernels, _all_ops, "verify"),
    pair(_switch_products, _switch_products_by_form, _spec_and_pairs, "build_switch"),
    pair(_unital_map_lists, _unital_maps_scan, _passing_ops, "unital_maps"),
    pair(commutative_isotopy_test, _isotopy_scan, _passing_ops, "isotopy"),
    pair(_transported_span, _scaled_kernel_span, _scalings, "isotopy-transport", HIT_FIELDS),
    pair(_classify_sharing_orbits, _classify_each, _hit_lists, "classify-orbits", HIT_FIELDS),
    pair(_classify_each, _deep_classify_each, _monomials, "classify-monomial", MONOMIAL_FIELDS),
    pair(
        _classify_sharing_orbits,
        _deep_classify_each,
        _monomials,
        "classify-monomial-orbits",
        MONOMIAL_FIELDS,
    ),
    pair(_products(unitalize), _products(_unitalize_scan), _op_and_pairs, "unitalize"),
    pair(_nuclei_sets, _nuclei_scan, _unital_ops, "nuclei"),
    pair(_nuclei_sets, _nuclei_all_pairs, _nuclei_ops, "nuclei_all_pairs", NUCLEI_FIELDS),
]


def test_random_searches_reach_both_plans(request, monkeypatch):
    # the search-random line checks each plan of random search on draws with hits
    orbit_plan, plans, reached = linpoly._orbit_plan, [], set()

    def recording(ctx, support, limit):
        plans.append("draw" if (orbits := orbit_plan(ctx, support, limit)) is None else "orbit")
        return orbits

    monkeypatch.setattr(linpoly, "_orbit_plan", recording)
    for name in FIELDS:
        for args in _random_searches(request.getfixturevalue(name)):
            plans.clear()
            if _random_search_hits(*args):
                reached.add(plans[0])
    assert reached == {"orbit", "draw"}


def test_random_search_plans_match_the_split_walk(request, monkeypatch):
    # each plan forced, and the walk of the draws' distinct heads against
    # their distinct tails at every cut, on budgets from 1 to 20 times the
    # space
    passing_orbits = linpoly._passing_orbits
    plans = (lambda ctx, support, limit: passing_orbits(ctx, support), lambda *args: None)
    for name in ["f4", "f8", "f9", "f16_q4", "f25", "f27"]:
        ctx = request.getfixturevalue(name)
        for mask in sorted({mask for _, mask, _, _ in _random_searches(ctx)}):
            space = ctx.order ** len(mask)
            for budget in sorted({1, 2, 10, space // 2, space, 20 * space} - {0}):
                lists = []
                for plan in plans:  # the orbit plan, then the draw plan
                    monkeypatch.setattr(linpoly, "_orbit_plan", plan)
                    lists.append(_random_search_hits(ctx, mask, 1, budget))
                for cut in range(1, len(mask) + 1):
                    lists.append(_random_search_split(ctx, mask, 1, budget, cut))
                assert lists == [lists[0]] * len(lists), (name, mask, budget)


def _check(request, fast, oracle, inputs, fields):
    checked = 0
    for name in fields:
        for args in inputs(request.getfixturevalue(name)):
            assert fast(*args) == oracle(*args), (name, args)
            checked += 1
    assert checked


@pytest.mark.parametrize("fast, oracle, inputs, fields", PAIRS)
def test_fast_routes_match_oracles(request, fast, oracle, inputs, fields):
    _check(request, fast, oracle, inputs, fields)


WALK_LINES = {"search", "search-orbit", "census-orbit", "search-random"}


@pytest.mark.parametrize("fast, oracle, inputs, fields", [p for p in PAIRS if p.id in WALK_LINES])
def test_walks_read_by_blocks_match_oracles(request, monkeypatch, fast, oracle, inputs, fields):
    # with one value read at a time, every head value past the first comes
    # from block reads; with blocks of 1 column doubling up to 4 values,
    # the tail columns cross many doubling and capped block boundaries
    monkeypatch.setattr(linpoly, "_FIRST", 1)
    monkeypatch.setattr(linpoly, "_COLUMNS", 1)
    monkeypatch.setattr(linpoly, "_BLOCK", 4)
    _check(request, fast, oracle, inputs, fields)


def _windows(M, first):
    """Windows k0 < k1 <= M of the transcript: the whole period, its ends,
    either side of the first block, long windows spread over the period,
    and every (k, k + 2), so each wrap of each stride is straddled."""
    windows = {(0, M), (0, 1), (M - 1, M), (0, first + 3), (first - 3, first + 3), (first, M)}
    windows |= {(k, k + 45) for k in range(0, M, 37)} | {(k, k + 2) for k in range(M)}
    return sorted({(max(k0, 0), min(k1, M)) for k0, k1 in windows if max(k0, 0) < min(k1, M)})


@pytest.mark.parametrize("name", ["f5"] + TRANSCRIPT_FIELDS)
def test_block_reads_match_the_values_read_one_at_a_time(request, name):
    # each window of _values against the whole period read one value at a
    # time; at n = 1 (F_5) and on the monomials the terms are empty
    ctx = request.getfixturevalue(name)
    rng = random.Random(ctx.order)
    monomials = [(a0,) + (0,) * (ctx.n - 1) for a0 in rng.sample(range(ctx.order), 3)]
    polys = monomials + ([L.coeffs for (L,) in _polys(ctx)] if ctx.n > 1 else [])
    windows = _windows(ctx.trace_step, linpoly._FIRST)
    for coeffs in polys:
        t0, terms = linpoly._split(ctx, coeffs)
        period = list(transcript_one_at_a_time(ctx, coeffs))
        for k0, k1 in windows:
            assert linpoly._values(ctx, t0, terms, k0, k1) == period[k0:k1], (coeffs, k0, k1)
