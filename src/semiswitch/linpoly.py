"""q-linearized polynomials and the switching predicate.

``L(X) = sum_i a_i X^(q^i)`` is stored as the coefficient tuple
``(a_0, ..., a_{n-1})`` over F_{q^n}.  The central object is the trace
quotient ``x -> Tr(L(x)/x)``; by convention its value at ``x = 0`` is
``Tr(a_0)`` (the quotient ``L(x)/x = a_0 + sum_{i>=1} a_i x^(q^i - 1)``
extends there).  ``L`` passes the switching predicate when the trace
quotient vanishes nowhere on the nonzero elements; those are exactly
the polynomials whose induced switching of the field multiplication
stays a presemifield.

One kernel, :func:`transcript`, computes the trace quotient along the
powers of gamma, and every predicate, search, code and point-count
caller reads it.  Four facts keep it small.  L is F_q-linear, so
L(cx)/(cx) = L(x)/x for c in F_q^*: the transcript is constant on F_q^*
cosets and has period M = (q^n - 1)/(q - 1), not q^n - 1.  a_0 enters
only through Tr(a_0), so every search treats a_0 as one of q trace
classes: exhaustive search expands each class back into its a_0 values
at the end, random search keeps the draws whose class passes.  Scaling
x -> cx maps L to (a_i c^(q^i - 1)) and keeps the predicate, so search
walks one stratum per first nonzero index j >= 1 (the lower indices 0,
a_j one of exp[0..g-1] with g = q^gcd(j,n) - 1, the later coefficients
free) and each passing representative stands for the N/g tuples it
gives scaled by gamma^k, k < N/g, disjoint from every other's; a
monomial a_0 X has the constant transcript Tr(a_0), so search reads
those in closed form, as the predicate does.  And the transcript is
additive in L, so a stratum's walk reads head transcripts against
bitsets of tail tuples, the product of its choices split at the cut of
least cost.

The kernel reads a transcript's first values one at a time, since a
walk's head mostly stops early, and every later block, every walk's
tail columns from column 0, and a whole period by :func:`_values`: term
i is a strided read of the exp table, one C slice per wrap, at the
shorter of the strides q^i - 1 and (as Tr(z^q) = Tr(z)) 1 - q^(n-i).

Random search prices two plans with that cost before it draws.  The
orbit plan walks the strata, expands the passing reps into their class
tuples, and keeps each draw whose class tuple is among them, filtering
a chunk of draws at a time in C, its columns C slices of the chunk's
codes, and stopping once every passing assignment has come up.  The
draw plan walks the distinct draws themselves.  It runs when the draws
are few against the strata, or against the passing class tuples that
the orbit plan would hold.

Search runs in a fixed order so results are reproducible: coefficient
tuples are enumerated lexicographically by element code, lowest
coefficient index most significant.  Random mode draws each coefficient
as ``random.Random(seed).randrange(order)``, replayed a chunk at a time
(from whole 32-bit words for orders below 256), and reports the seed back.
"""

from __future__ import annotations

import operator
import random
from functools import cached_property
from itertools import compress, islice, product, repeat
from math import gcd, prod

from .errors import BudgetExceeded, read_limit, require_codes, require_instance, require_int
from .gf import _kernel

DEFAULT_SEARCH_BUDGET = 1 << 20
_CHUNK = 1 << 12  # draws the orbit plan filters between two checks of its stop
_FIRST = 128  # transcript values read one at a time before the block reads
_BLOCK = 1 << 12  # the largest block of transcript values read at once
_COLUMNS = 16  # the fewest columns a walk builds at once


def search_budget(budget=None):
    """The candidate budget: ``budget``, else DEFAULT_SEARCH_BUDGET."""
    return read_limit(budget, DEFAULT_SEARCH_BUDGET, "budget")


class _Value:
    """A checked immutable value: equality, hash and repr over the class's ``_fields``."""

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class LinearizedPoly(_Value):
    """sum_i a_i X^(q^i), its coefficients a tuple or list of n element codes."""

    _fields = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        vars(self).update(ctx=ctx, coeffs=require_codes(coeffs, ctx.n, ctx.order, "coeffs"))

    @cached_property
    def _terms(self):
        """(log a_i, q^i) for each nonzero a_i."""
        log, q = self.ctx.log, self.ctx.q
        return tuple((log[a], q**i) for i, a in enumerate(self.coeffs) if a)

    def __call__(self, x):
        """L(x) = sum_i exp[(log a_i + q^i log x) mod N], strided reads as in transcript."""
        if x == 0:
            return 0
        ctx = self.ctx
        N, exp, add, k = ctx.mult_order, ctx.exp, ctx.add, ctx.log[x]
        acc = 0
        for s, e in self._terms:
            acc = add(acc, exp[(s + e * k) % N])
        return acc

    def is_monomial(self):
        """Only the X term present (a_i = 0 for all i >= 1)."""
        return all(a == 0 for a in self.coeffs[1:])


def transcript(ctx, coeffs):
    """Tr(L(gamma^k)/gamma^k) for k = 0..M-1, M = (q^n - 1)/(q - 1).

    Yields F_q element codes lazily, so a caller can stop at the first
    value it needs.  Term i is the strided read
    tr[exp[(log a_i + k (q^i - 1)) mod N]]; no field multiplications.
    ``coeffs`` gets the check of :class:`LinearizedPoly`.
    """
    return _transcript(ctx, *_split(ctx, coeffs))


def _period(ctx, coeffs):
    """The whole period of :func:`transcript` as one list, read by :func:`_values`."""
    return _values(ctx, *_split(ctx, coeffs), 0, ctx.trace_step)


def _split(ctx, coeffs):
    """(Tr(a_0), terms) of the checked ``coeffs``: a term (log a_i, q^i - 1)
    for each nonzero a_i, i >= 1."""
    coeffs, log = LinearizedPoly(ctx, coeffs).coeffs, ctx.log
    terms = [(log[a], e) for a, e in zip(coeffs[1:], ctx.qpow_minus1[1:]) if a]
    return ctx.tr[coeffs[0]], terms


def _transcript(ctx, t0, terms):
    """The transcript of Tr(a_0) = t0 plus the terms (log a_i, q^i - 1) of
    the nonzero a_i, i >= 1.

    The first ``_FIRST`` values are read one at a time, since a walk's
    head stops after about q ln T of them; the rest come from
    :func:`_values` in blocks that double up to ``_BLOCK`` values.
    """
    N, M, tr, exp, add = ctx.mult_order, ctx.trace_step, ctx.tr, ctx.exp, ctx.add
    for k in range(_FIRST if _FIRST < M else M):  # no min() call per head
        v = t0
        for s, e in terms:
            v = add(v, tr[exp[(s + k * e) % N]])
        yield v
    k0, width = _FIRST, _FIRST
    while k0 < M:
        k1 = min(k0 + width, M)
        yield from _values(ctx, t0, terms, k0, k1)
        k0, width = k1, min(2 * width, _BLOCK)


def _values(ctx, t0, terms, k0, k1):
    """The transcript values at k0 <= k < k1 as a list, each term read as
    strided C slices of ``exp`` and the terms combined in C.

    Term i reads exp at s + k e, e = q^i - 1, modulo N.  As Tr(z^(q^j)) =
    Tr(z), it may read z^(q^(n-i)) instead: exp at s q^(n-i) - k f, f =
    q^(n-i) - 1, as q^n = 1 modulo N.  The shorter stride wraps fewer
    times, so a whole period takes about q^min(i, n-i)/(q - 1) slices.
    The terms add by XOR for p = 2, as integers reduced mod p once for
    m = 1, and by ``ctx.add`` otherwise.
    """
    N, exp, get, p, count = ctx.mult_order, ctx.exp, ctx.tr.__getitem__, ctx.p, k1 - k0
    if not terms:
        return [t0] * count
    add = operator.xor if p == 2 else operator.add if ctx.m == 1 else ctx.add
    acc = repeat(t0) if t0 else None
    for s, e in terms:
        f = (N + 1) // (e + 1) - 1  # q^(n-i) - 1
        start, step = ((s + k0 * e) % N, e) if e <= f else ((s * (f + 1) - k0 * f) % N, -f)
        read = map(get, _strided(exp, start, step, count))
        acc = read if acc is None else map(add, acc, read)
    return list(map(p.__rmod__, acc) if add is operator.add else acc)  # a sum, mod p


def _strided(exp, start, step, count):
    """exp at start + j step modulo len(exp), j < count, as C slices, one
    per wrap."""
    N, read = len(exp), []
    while count:
        # start + j step stays in 0..N-1 for j < take
        take = min(count, (N - 1 - start) // step + 1 if step > 0 else start // -step + 1)
        stop = start + take * step
        read += exp[start : stop if stop >= 0 else None : step]
        start, count = stop % N, count - take
    return read


def switching_predicate(L):
    """True when Tr(L(x)/x) != 0 for every nonzero x.

    A monomial's transcript is the constant Tr(a_0), so it is not walked.
    """
    if require_instance(L, LinearizedPoly, "L").is_monomial():
        return L.ctx.tr[L.coeffs[0]] != 0
    return all(transcript(L.ctx, L.coeffs))


def _scaled(ctx, coeffs, k):
    """coeffs scaled by c = gamma^k: a_i -> a_i c^(q^i - 1), a_0 fixed."""
    N, exp, log = ctx.mult_order, ctx.exp, ctx.log
    return tuple(exp[(log[a] + k * e) % N] if a else 0 for a, e in zip(coeffs, ctx.qpow_minus1))


def orbit_rep(ctx, coeffs):
    """(rep, k): the canonical form of L's scaling orbit, rep = coeffs scaled by gamma^k.

    Scaling by c != 0 keeps the predicate, as Tr(L'(x)/x) = Tr(L(cx)/(cx)),
    and c in F_q^* moves nothing, so the orbit is the scalings by gamma^k,
    k < M.  Let j >= 1 be the first nonzero index.  Scaling adds k (q^j - 1)
    to log a_j, which so moves freely modulo g = gcd(q^j - 1, N) =
    q^gcd(j,n) - 1: the rep takes it down to its residue mod g.  The g/(q-1)
    scalings k < M that do so are k0 + t N/g; the rep is the least tuple
    among them, and k the least k giving it.  A tuple with no nonzero a_i,
    i >= 1, is its own rep, with k = 0.  ``coeffs`` gets the check of
    :class:`LinearizedPoly`.
    """
    coeffs = LinearizedPoly(ctx, coeffs).coeffs
    j = next((i for i in range(1, ctx.n) if coeffs[i]), None)
    if j is None:
        return coeffs, 0
    N, e, s = ctx.mult_order, ctx.qpow_minus1[j], ctx.log[coeffs[j]]
    step = N // gcd(e, N)
    g = N // step
    # k e = (s mod g) - s (mod N): divide by g, where e/g is a unit mod N/g
    k0 = -(s // g) * pow(e // g, -1, step) % step
    return min((_scaled(ctx, coeffs, k), k) for k in range(k0, ctx.trace_step, step))


def is_permutation(L):
    """Whether L permutes F_{q^n} (additive map, so: trivial kernel)."""
    return not _kernel(require_instance(L, LinearizedPoly, "L").ctx, lambda x: (L(x),))


# ---- search ----


def _coeffs(n, support, assignment):
    coeffs = [0] * n
    for i, a in zip(support, assignment):
        coeffs[i] = a
    return tuple(coeffs)


def _walk(ctx, head_support, heads, tail_support, tails):
    """Every passing head + tail, heads in the order given, then tails in order.

    The transcript is additive in L, so a candidate fails at k exactly
    when its tail's value there is minus its head's.  Column k,
    ``need[k][v]``, is the bitset of tails with value -v at k, built when
    a head first reaches k with the next columns, from a block of each
    tail's :func:`_values`: blocks start at column 0 and double in width
    from ``_COLUMNS`` up to ``_BLOCK`` values over all tails, so no tail
    holds an iterator.  Each head ORs in
    the tails it fails and stops once all have; with the one empty tail
    ``[()]`` this is the predicate on each head, and every column is the
    one dict ``{0: 1}``, held once.  ``heads`` is any iterable, walked
    once: a product of choices, or distinct tuples.  A head's a_0 enters
    as its trace, and each a_i != 0, i >= 1, of a head or a tail as the
    term (log a_i, q^i - 1); the cut lies past index 0, so a tail holds
    no a_0.
    """
    tr, log, qpow_minus1 = ctx.tr, ctx.log, ctx.qpow_minus1
    has_a0 = head_support[:1] == (0,)
    head_es = [qpow_minus1[i] for i in head_support[has_a0:]]
    tail_es = [qpow_minus1[i] for i in tail_support]

    def terms(es, coeffs):
        return [(log[a], e) for e, a in zip(es, coeffs) if a]

    tail_terms = [terms(tail_es, t) for t in tails]
    neg = {v: ctx.neg(v) for v in ctx.subfield(1)}
    need, full, hits = [], (1 << len(tails)) - 1, []
    cap = max(_COLUMNS, _BLOCK // len(tails))

    def build(k):  # columns k..k1 - 1, widths doubling from _COLUMNS up to cap
        k1 = min(k + min(max(_COLUMNS, k), cap), ctx.trace_step)
        for values in zip(*(_values(ctx, 0, t, k, k1) for t in tail_terms)):
            need.append(built := {})
            for j, w in enumerate(values):
                built[neg[w]] = built.get(neg[w], 0) | 1 << j

    # called at every step of every head, so it closes over two names only:
    # a call copies each name a closure holds
    def column(k):
        if k == len(need):  # the first head to reach column k builds it
            build(k)
        return need[k]

    if not tail_support:  # the one empty tail fails at each 0 of the head

        def column(k, zero={0: 1}):
            return zero

    for head in heads:
        failed, t0 = 0, tr[head[0]] if has_a0 else 0
        for k, v in enumerate(_transcript(ctx, t0, terms(head_es, head[has_a0:]))):
            failed |= column(k).get(v, 0)
            if failed == full:
                break
        else:
            # some tails never failed: bit j of full ^ failed marks tail j,
            # and bin() lists the bits most significant first
            bits = reversed(bin(full ^ failed))
            hits.extend(head + t for t, b in zip(tails, bits) if b == "1")
    return hits


def _a0_classes(ctx):
    """One a_0 per trace class: t -> t alpha for t in F_q, with alpha the least code of trace 1."""
    return {t: ctx.mul(t, ctx.trace_one) for t in ctx.subfield(1)}


def _cost(ctx, heads, tails):
    """The walk of ``heads`` head tuples against ``tails`` tail tuples: a
    column costs a step per tail, and a head meets 0 after about min(M, q)
    columns."""
    M = ctx.trace_step
    return tails * M + heads * min(M, ctx.q)


def _cheapest_cut(ctx, choices):
    """(cost, cut): the split of ``product(*choices)`` into head tuples and a
    block of T tail tuples (one empty tail after a cut at the end) of least
    :func:`_cost`."""
    total = prod(map(len, choices))

    def cost(cut):
        T = prod(map(len, choices[cut:]))
        return _cost(ctx, total // T, T)

    # a cut at 0 (every candidate a tail) never costs less than no tail
    cut = min(range(len(choices), 0, -1), key=cost)
    return cost(cut), cut


def _strata(ctx, support):
    """The strata j >= 1 of :func:`_passing_orbits` on the sorted ``support``:
    (sub-support, choices, orbit size, cost, cut), at the :func:`_cheapest_cut`
    of the choices."""
    classes = [list(_a0_classes(ctx).values())] if support[0] == 0 else []
    a0, rest = support[: len(classes)], support[len(classes) :]
    for at, j in enumerate(rest):
        g = ctx.q ** gcd(j, ctx.n) - 1
        choices = classes + [ctx.exp[:g]] + [range(ctx.order)] * (len(rest) - at - 1)
        yield (a0 + rest[at:], choices, ctx.mult_order // g, *_cheapest_cut(ctx, choices))


def _passing_orbits(ctx, support):
    """Every passing tuple on the sorted ``support`` as (rep, size) pairs:
    the n-tuples ``_scaled(ctx, rep, k)``, k < size, each with a_0 anywhere
    in the trace class of rep's a_0, one of :func:`_a0_classes`.

    The monomials a_0 X are their own reps, of size 1: the nonzero trace
    classes, read with no walk.  Stratum j >= 1 holds the tuples whose
    first nonzero index past 0 is j.  Scaling by gamma^k adds k (q^j - 1)
    to log a_j, so log a_j runs over its residue class mod g =
    gcd(q^j - 1, N) = q^gcd(j,n) - 1, and k, k' give the same a_j exactly
    when N/g divides k - k'.  So the stratum walks a_j over exp[0..g-1],
    the lower indices 0 and the later ones free, split at its cut, and its
    tuples are those reps scaled by k < N/g, each tuple once.  Its callers
    price the walk first: exhaustive search through
    :func:`_exhaustive_orbits`, random search through :func:`_orbit_plan`.
    """
    zeros, a0s = (0,) * (ctx.n - 1), _a0_classes(ctx) if support[0] == 0 else {}
    return [((a0,) + zeros, 1) for t, a0 in a0s.items() if t] + [
        (_coeffs(ctx.n, sub, rep), size)
        for sub, choices, size, _, cut in _strata(ctx, support)
        for rep in _walk(
            ctx, sub[:cut], product(*choices[:cut]), sub[cut:], list(product(*choices[cut:]))
        )
    ]


def _exhaustive_orbits(ctx, support, limit):
    """:func:`_passing_orbits` of ``support`` for an exhaustive search, which
    raises BudgetExceeded unless its ``order**len(support)`` tuples fit
    ``limit``."""
    if (space := ctx.order ** len(support)) > limit:
        raise BudgetExceeded(f"exhaustive search needs {space} candidates, budget is {limit}")
    return _passing_orbits(ctx, support)


def _code_order(ctx, support, orbits):
    """The n-tuples of the (rep, size) ``orbits`` of :func:`_passing_orbits` on
    ``support``, in code order: each rep scaled by gamma^k, k < size, and
    with a_0 in the support each Tr(a_0) class expanded back into its a_0
    values.  A class is scaled and sorted when its first a_0 is reached, so
    a caller that stops early expands only the classes it reached; without
    a_0 in the support every rep has a_0 = 0 and there is one class.
    """
    tr, classes, expanded = ctx.tr, {}, {}
    for rep, size in orbits:
        classes.setdefault(tr[rep[0]], []).append((rep, size))
    for a0 in range(ctx.order if support[0] == 0 else 1):
        if (t := tr[a0]) not in expanded:
            reps = classes.get(t, ())
            expanded[t] = sorted(_scaled(ctx, r, k)[1:] for r, size in reps for k in range(size))
        yield from map((a0,).__add__, expanded[t])


def _orbit_plan(ctx, support, limit):
    """The passing (rep, size) orbits of :func:`_passing_orbits` when random
    search on ``support`` with ``limit`` draws takes the orbit plan, else
    None for the draw plan.

    The draw plan walks at most heads = min(limit, space) distinct draws,
    priced by :func:`_cost`.  The orbit plan first walks the strata of
    :func:`_strata` (its monomials need no walk), and runs only if their
    costs sum to no more.  It then expands the passing reps into their
    sum-of-sizes class tuples, so it also needs that sum to be at most
    heads: it never holds more tuples than the draw plan would walk.  At
    n = 2 about half of all class tuples pass, and the sum outgrows small
    budgets on large fields.
    """
    heads = min(limit, ctx.order ** len(support))
    if sum(cost for *_, cost, _ in _strata(ctx, support)) > _cost(ctx, heads, 1):
        return None
    orbits = _passing_orbits(ctx, support)
    return orbits if sum(size for _, size in orbits) <= heads else None


def _draws(rng, order, count):
    """The next ``count`` codes of ``rng.randrange(order)``: getrandbits of
    order's bit length b, redrawn while at least order.

    For b <= 8 the codes come from whole words.  getrandbits(b), b <= 32, is
    the top b bits of one 32-bit Mersenne Twister word, and getrandbits(32 k)
    holds the next k words, the first in the lowest 32 bits on every
    platform.  So one call gives the top bytes of k words, and one
    ``bytes.translate`` in C shifts each to its code and deletes the
    redraws.  Each word gives at most one code, so drawing k = the codes
    still missing never takes a word that randrange would not, and the
    generator ends where randrange's replay ends.  Wider orders draw per
    call.
    """
    bits = order.bit_length()
    if bits > 8:
        return list(islice(filter(order.__gt__, map(rng.getrandbits, repeat(bits))), count))
    shift = 8 - bits
    table, redraw = bytes(x >> shift for x in range(256)), bytes(range(order << shift, 256))
    codes = bytearray()
    while k := count - len(codes):
        words = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
        codes += words[3::4].translate(table, redraw)
    return codes


def _search_random(ctx, support, seed, limit):
    """The distinct passing draws among ``limit`` from ``Random(seed)``, in
    discovery order.

    A draw is ``len(support)`` codes of ``randrange(order)``, read by
    :func:`_draws` one chunk of ``_CHUNK`` draws at a time, each column of
    the chunk a C slice.  :func:`_orbit_plan` picks the plan before any
    draw.  The draw plan walks the distinct draws themselves.  The orbit
    plan expands the passing reps into their class tuples, one per (rep,
    k < size) with a_0 its class's :func:`_a0_classes` value, and keeps a
    chunk's draws whose class tuple (column 0 taken to its class) is among
    them, by ``compress`` in C.  It stops at the budget, or after the chunk
    in which every passing assignment has come up (the sum of the sizes,
    times the order/q a_0 of a class when 0 is in the support), so it
    draws nothing when nothing passes.
    """
    rng, order, width = random.Random(seed), ctx.order, len(support)
    codes = (_draws(rng, order, min(_CHUNK, limit - at) * width) for at in range(0, limit, _CHUNK))
    chunks = ([c[i::width] for i in range(width)] for c in codes)  # drawn only when read
    if (orbits := _orbit_plan(ctx, support, limit)) is None:
        draws = (d for columns in chunks for d in zip(*columns))
        return _walk(ctx, support, dict.fromkeys(draws), (), [()])
    has_a0 = support[0] == 0
    scaled = (_scaled(ctx, rep, k) for rep, size in orbits for k in range(size))
    hits = {tuple(map(t.__getitem__, support)) for t in scaled}
    passing = len(hits) * (order // ctx.q if has_a0 else 1)  # a class holds order/q a_0
    a0_class = list(map(_a0_classes(ctx).__getitem__, ctx.tr))
    found = {}
    while len(found) < passing and (columns := next(chunks, None)) is not None:
        a0 = map(a0_class.__getitem__, columns[0]) if has_a0 else columns[0]
        kept = compress(zip(*columns), map(hits.__contains__, zip(a0, *columns[1:])))
        found.update(dict.fromkeys(kept))
    return list(found)


def search(ctx, support=None, mode="exhaustive", seed=0, budget=None):
    """Find predicate-passing L with the given coefficient support.

    mode="exhaustive" returns every passing assignment (lexicographic by
    element code, lowest support index most significant), walking one
    representative per scaling orbit (:func:`_passing_orbits`) and
    expanding the passing ones in :func:`_code_order`, and needs
    ``order**len(support)`` to fit the budget.  mode="random" draws up to
    ``budget`` assignments from ``random.Random(seed)`` and returns the
    distinct passing ones in discovery order.  It takes the cheaper of two
    plans (:func:`_orbit_plan`): the orbit plan walks the strata of
    :func:`_passing_orbits`, keeps the draws whose a_0-class tuple passes,
    and stops once every passing assignment has been drawn, as every
    later draw would add nothing; the draw plan walks the distinct draws.
    The seed lies in 0..2^64-1: Random folds -s onto s.  ``support`` is an
    iterable of distinct int indices in 0..n-1, in any order; an empty one
    finds nothing, once mode, budget and seed pass their checks.
    """
    try:
        support = tuple(range(ctx.n) if support is None else support)
    except TypeError:
        raise ValueError(f"support must be an iterable of ints, got {support!r}") from None
    if not all(type(i) is int and 0 <= i < ctx.n for i in support):
        raise ValueError(f"support indices must lie in 0..{ctx.n - 1}")
    if len(set(support)) < len(support):
        raise ValueError(f"support indices must be distinct, got {list(support)}")
    support, limit = tuple(sorted(support)), search_budget(budget)
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "random" and not 0 <= require_int(seed, "seed") < 2**64:
        raise ValueError(f"seed must lie in 0..2^64-1, got {seed}")
    if not support:
        return []
    if mode == "exhaustive":
        hits = list(_code_order(ctx, support, _exhaustive_orbits(ctx, support, limit)))
    else:
        hits = [_coeffs(ctx.n, support, a) for a in _search_random(ctx, support, seed, limit)]
    return [LinearizedPoly(ctx, c) for c in hits]


__all__ = [
    "LinearizedPoly",
    "transcript",
    "switching_predicate",
    "orbit_rep",
    "is_permutation",
    "search",
    "search_budget",
    "DEFAULT_SEARCH_BUDGET",
]
