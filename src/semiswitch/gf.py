"""Exact arithmetic in the tower F_p < F_q < F_{q^n}, table driven.

An element of F_{q^n} (q = p^m) is a plain int in ``range(p**(m*n))``:
the base-p digits of the int are the element's coefficient vector over
F_p, least significant digit first.  0 is the zero element and 1 the
multiplicative identity.  A :class:`FieldCtx` holds exactly three
tables of field-order size: ``exp`` and ``log`` for a deterministic
primitive element ``gamma``, and the relative trace ``tr``.  Frobenius,
the relative norm and every other power map are one index read on
``exp``, so hot loops reduce to list lookups.  So is addition for odd p,
as a + b = b (1 + a/b): the digits are coefficients in the polynomial
basis, so adding 1 moves only the constant digit, p - 1 wrapping to 0
with no carry.  For p = 2 addition is XOR.

Subfields need no separate machinery: F_{q^d} (d | n) is the set of
codes fixed by ``x -> x**(q**d)`` and its arithmetic is the ambient one.

Construction is deterministic.  When no modulus is supplied the
lexicographically smallest monic irreducible of degree m*n over F_p is
used (smallest integer code, constant digit first), and ``gamma`` is
always the smallest element code of full multiplicative order.

This module also owns the F_p-linear algebra, and the element code is
its only vector format.  The F_p scalars are the codes 0..p-1, so c*x
is ``mul(c, x)``; negation is the product by the code p - 1.  An
F_p-linear map is fixed by its images of the m*n basis elements p^j:
:func:`_linear_table` lists it on every element, :func:`_kernel` gives
an F_p-basis of its kernel by reducing rows of element codes, and
:func:`_span` lists the span of a basis in full.
Multiplication by gamma and the relative trace are such maps, so
construction does no field arithmetic per element.  ``exp`` is the orbit
of 1 under the gamma table (built by XOR doubling for p = 2).  The trace
takes its values in F_q, and adding c Tr(p^j) permutes F_q, so ``tr`` is
built digit by digit from the mn basis traces: its entry on the code
x + p^j is the one on x mapped through a dict on F_q.  For n = 1 the
trace is the identity.
"""

from __future__ import annotations

from itertools import islice

from .errors import BudgetExceeded, ConsistencyError, read_limit, require_int

DEFAULT_FIELD_CAP = 1 << 22


def _is_prime(v):
    return v > 1 and _prime_factors(v) == [v]


def _prime_factors(v):
    """Distinct prime factors by trial division (desk-scale inputs)."""
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        out.append(v)
    return out


def _decode(code, p, width):
    digits = []
    for _ in range(width):
        code, r = divmod(code, p)
        digits.append(r)
    return digits


def _encode(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _linear_table(p, d, images):
    """[f(c) for c in range(p**d)] for the F_p-linear f with f(p^j) = images[j].

    Vectors go in spread form: digit i sits at bit w*i, w = p.bit_length() + 1,
    so adding two vectors never carries from one digit into the next.  With
    H = 2^(w-1) and K holding H - p in every digit, digit i of x + y + K
    reaches H exactly where x_i + y_i wraps mod p, and the code of the
    digitwise sum mod p is code(x) + code(y) minus p^(i+1) per wrapped digit.

    Two half tables, f on the low digits and f on the high digits, are built
    by digit doubling in spread form.  A full-table entry is then one add,
    one mask and two lookups of wrap patterns in tables of 2^(d/2) entries.
    For p = 2 the sum of codes is XOR, so the full table is built by
    doubling directly: f on the codes below 2^(j+1) is f below 2^j followed
    by the same list XORed with images[j], appended by one ``extend`` that
    reads the table's first half.
    """
    if p == 2:
        table = [0]
        for img in images:
            table.extend(map(img.__xor__, islice(table, len(table))))
        return table
    w = p.bit_length() + 1
    H = 1 << (w - 1)
    lane = (1 << w) - 1
    K = sum((H - p) << w * i for i in range(d))
    HM = sum(H << w * i for i in range(d))

    def half(imgs):
        # (spread, code) of f on every code of len(imgs) digits
        table = [0]
        for img in imgs:
            v = sum(c << w * i for i, c in enumerate(_decode(img, p, d)))
            rows = [table]
            for _ in range(p - 1):
                rows.append([(s := t + v) - (((s + K) & HM) >> (w - 1)) * p for t in rows[-1]])
            table = [s for row in rows for s in row]
        return [(s, _encode([s >> w * i & lane for i in range(d)], p)) for s in table]

    def wraps(first, k):
        # H-bit pattern of digits first..first+k-1 -> sum of p^(i+1) over set bits
        table = {0: 0}
        for i in range(k):
            bit, drop = H << w * i, p ** (first + i + 1)
            table.update([(key + bit, val + drop) for key, val in table.items()])
        return table

    lo = (d + 1) // 2
    low, high, shift = wraps(0, lo), wraps(lo, d - lo), w * lo
    mask = (1 << shift) - 1
    A = [(s + K, c) for s, c in half(images[:lo])]
    width = len(A)
    out = [0] * p**d
    for row, (v, cv) in enumerate(half(images[lo:])):
        out[row * width : (row + 1) * width] = [
            ca + cv - low[(h := (sa + v) & HM) & mask] - high[h >> shift] for sa, ca in A
        ]
    return out


def _kernel(ctx, f, span=None):
    """An F_p-basis of the kernel of an additive map f: element -> tuple.

    f is taken on the span of ``span``, a list of F_p-independent
    elements, by default the F_p-basis p^j of the whole field.  Row j is
    the tuple (*f(s_j), s_j) of element codes.  It absorbs the earlier
    pivot rows, a row minus c times a pivot row being
    ``add(a, mul(p - c, b))`` entrywise (a plain ``add`` when p - c is
    the code 1); a row whose image entries all vanish is a kernel vector
    in its last entry, and any other becomes a pivot on one nonzero
    digit of its first nonzero entry.  Kernel vector k is the only
    kernel element in s_j + span(earlier pivot rows' s_i), so the basis
    does not depend on the pivot digit; on the default basis its top
    digit grows with k, and the first vector is the smallest nonzero
    code in the kernel.
    """
    p, add, mul = ctx.p, ctx.add, ctx.mul
    if span is None:
        span = [p**j for j in range(ctx.m * ctx.n)]
    pivots = []  # (entry, place, row): digit `place` of row[entry] is 1
    kernel = []
    for s in span:
        row = (*f(s), s)
        for i, place, piv in pivots:
            c = row[i] // place % p
            if c == p - 1:
                row = tuple(add(a, b) for a, b in zip(row, piv))
            elif c:
                row = tuple(add(a, mul(p - c, b)) for a, b in zip(row, piv))
        i = next((i for i, a in enumerate(row[:-1]) if a), None)
        if i is None:
            kernel.append(row[-1])
            continue
        place = 1
        while row[i] // place % p == 0:
            place *= p
        inv = pow(row[i] // place % p, -1, p)
        if inv != 1:
            row = tuple(mul(inv, a) for a in row)
        pivots.append((i, place, row))
    return kernel


def _span(ctx, basis):
    """Every F_p-combination of ``basis``, in code order."""
    span = [0]
    for b in basis:
        span = [ctx.add(s, ctx.mul(c, b)) for s in span for c in range(ctx.p)]
    return sorted(span)


# ---- dense polynomial arithmetic over F_p (construction time only) ----


def _poly_mul_mod(a, b, mod, p):
    """a*b mod the monic polynomial ``mod``; all little-endian lists."""
    d = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    for k in range(len(res) - 1, d - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            for t in range(d):
                res[k - d + t] = (res[k - d + t] - c * mod[t]) % p
    res = res[:d]
    res += [0] * (d - len(res))
    return res


def _poly_pow_mod(base, e, mod, p):
    d = len(mod) - 1
    result = [0] * d
    result[0] = 1
    acc = list(base[:d]) + [0] * (d - len(base[:d]))
    while e:
        if e & 1:
            result = _poly_mul_mod(result, acc, mod, p)
        acc = _poly_mul_mod(acc, acc, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)

    def deg(f):
        for i in range(len(f) - 1, -1, -1):
            if f[i]:
                return i
        return -1

    while (db := deg(b)) >= 0:
        inv = pow(b[db], p - 2, p)
        while deg(a) >= db:
            da = deg(a)
            c = (a[da] * inv) % p
            for t in range(db + 1):
                a[da - db + t] = (a[da - db + t] - c * b[t]) % p
        a, b = b, a
    return a


def _is_irreducible(mod, p):
    """Rabin test for a monic polynomial of degree >= 1 over F_p."""
    d = len(mod) - 1
    if d == 1:
        return True
    x = [0, 1]
    # x^(p^d) == x mod f
    top = _poly_pow_mod(x, p**d, mod, p)
    if top[1] != 1 or any(c for i, c in enumerate(top) if i != 1):
        return False
    for r in _prime_factors(d):
        g = _poly_pow_mod(x, p ** (d // r), mod, p)
        g[1] = (g[1] - 1) % p
        rem = _poly_gcd(mod, g, p)
        nz = [i for i, c in enumerate(rem) if c]
        if nz != [0] and nz != []:
            return False
    return True


def _find_modulus(p, d):
    """Smallest-code monic irreducible of degree d over F_p.

    For d > 1 a candidate with constant digit 0 or digit sum 0 mod p has
    the root 0 or 1, so it is skipped before the Rabin test.
    """
    for code in range(p**d, 2 * p**d):
        digits = _decode(code, p, d + 1)
        if d > 1 and (digits[0] == 0 or sum(digits) % p == 0):
            continue
        if _is_irreducible(digits, p):
            return tuple(digits)
    raise ConsistencyError("no irreducible polynomial found, impossible")


class FieldCtx:
    """Immutable arithmetic context for F_{q^n} over F_q = F_{p^m}.

    All tables are built once at construction; instances are safe to
    share (nothing mutates after ``__init__``).  Elements are ints; the
    context never wraps them.  The arithmetic methods take valid element
    codes only and check none: they are the search walk's hot path, and
    the public names that call them check their input once (see
    ``errors``).  ``trace_one`` is the least element code of trace 1.
    """

    def __init__(self, p, m, n, modulus=None, cap=None):
        cap = read_limit(cap, DEFAULT_FIELD_CAP, "field cap", "SEMISWITCH_FIELD_CAP")
        for name, v in (("p", p), ("m", m), ("n", n)):
            require_int(v, name)
        # trial division only for p <= cap: a larger p puts the order over the cap
        if p < 2 or p <= cap and not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        # p >= 2, so a degree above cap.bit_length() is over the cap: p^deg stays unformed
        deg = m * n
        order = p**deg if deg <= cap.bit_length() else None
        if order is None or order > cap:
            raise BudgetExceeded(f"p^(m*n) = {order or f'{p}^{deg}'} exceeds cap {cap}")
        self.p = p
        self.m = m
        self.n = n
        self.q = p**m
        self.order = order
        self.mult_order = order - 1
        if modulus is None:
            modulus = _find_modulus(p, deg)
        else:
            modulus = tuple(modulus)
            for c in modulus:
                if type(c) is not int or not 0 <= c < p:
                    raise ValueError(f"modulus coefficient {c!r} is outside 0..{p - 1}")
            if len(modulus) != deg + 1:
                raise ValueError(
                    f"modulus must be monic of degree {deg} (got {len(modulus) - 1})"
                )
            if modulus[deg] != 1:
                raise ValueError(f"modulus must be monic (leading coefficient {modulus[deg]})")
            if not _is_irreducible(list(modulus), p):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        self.generator = self._find_generator()
        self._build_tables()
        self.trace_one = self.tr.index(1)  # 1 when n = 1, where the trace is the identity
        self.qpow_minus1 = tuple(self.q**i - 1 for i in range(n))  # the exponents of L(x)/x

    # ---- construction helpers ----

    def _find_generator(self):
        N = self.mult_order
        if N == 1:
            return 1
        factors = _prime_factors(N)
        mod = list(self.modulus)
        for cand in range(2, self.order):
            digits = _decode(cand, self.p, self.m * self.n)
            ok = True
            for r in factors:
                powed = _poly_pow_mod(digits, N // r, mod, self.p)
                if _encode(powed, self.p) == 1:
                    ok = False
                    break
            if ok:
                return cand
        raise ConsistencyError("no primitive element found, impossible for a field")

    def _build_tables(self):
        p, q, N, d = self.p, self.q, self.mult_order, self.m * self.n
        mod = list(self.modulus)
        gdigits = _decode(self.generator, p, d)
        basis = [p**j for j in range(d)]
        # multiplication by gamma as a table: exp is the orbit of 1 under it
        G = _linear_table(
            p, d, [_encode(_poly_mul_mod(_decode(e, p, d), gdigits, mod, p), p) for e in basis]
        )
        # islice reads exp one step behind the appends of extend, so the
        # walk 1, G[1], G[G[1]], ... runs with no Python-level loop
        exp = [1]
        exp.extend(map(G.__getitem__, islice(exp, N - 1)))
        # exp's ints in value order, so that log (and for n = 1 tr, the
        # identity) holds no ints of its own
        ints = [0] * self.order
        for x in exp:
            ints[x] = x
        log = [None] * self.order
        for k, x in zip(ints, exp):
            if log[x] is not None:
                raise ConsistencyError("generator order too small", witness=x)
            log[x] = k
        if G[exp[-1]] != 1:
            raise ConsistencyError("generator does not close its cycle")
        del G
        self.exp = exp
        self.log = log
        self.trace_step = N // (q - 1)
        traces = []
        for e in basis:
            acc = 0
            for i in range(self.n):
                acc = self.add(acc, self.frobenius(e, i))
            if self.frobenius(acc) != acc:
                # every trace is an F_p-combination of these, so p^j is the
                # smallest code whose trace leaves F_q
                raise ConsistencyError("trace image not fixed by Frobenius", witness=e)
            traces.append(acc)
        if self.n == 1:
            self.tr = ints
            return
        del ints
        # adding Tr(p^j) permutes F_q, and Tr(x + p^j) is Tr(x) moved by it,
        # so one extend reading tr behind its own appends (as the exp walk
        # does) fills the codes c p^j + x, 1 <= c < p, x < p^j
        subfield = self.subfield()
        tr = [0]
        for t in traces:
            step = {u: self.add(u, t) for u in subfield}.__getitem__
            tr.extend(map(step, islice(tr, (p - 1) * len(tr))))
        self.tr = tr

    # ---- basic arithmetic ----

    def add(self, a, b):
        """a ^ b for p = 2, else b (1 + a/b) on exp and log (module docstring)."""
        p = self.p
        if p == 2:
            return a ^ b
        if a < p and b < p:  # F_p values
            return (a + b) % p
        if not a or not b:
            return a or b
        exp, log, N = self.exp, self.log, self.mult_order
        # exp[i - N] is exp[i] for 0 <= i < 2N, so neither read needs a mod
        c = exp[log[a] - log[b]]  # a/b
        c = c + 1 if (c + 1) % p else c + 1 - p  # only the constant digit moves
        return exp[log[c] + log[b] - N] if c else 0

    def neg(self, a):
        return self.mul(self.p - 1, a)  # the code p - 1 is -1

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.mult_order]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[a]) % self.mult_order]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        """a**e with integer e; negative e needs a != 0."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self.exp[(self.log[a] * e) % self.mult_order]

    def frobenius(self, x, k=1):
        """k-fold q-power Frobenius x -> x^(q^k)."""
        return self.pow(x, self.q ** (k % self.n))

    def rel_trace(self, x):
        """Trace of F_{q^n} onto F_q."""
        return self.tr[x]

    def rel_norm(self, x):
        """Norm of F_{q^n} onto F_q: x^M, M = (q^n - 1)/(q - 1)."""
        return self.pow(x, self.trace_step)

    def in_subfield(self, x, d=1):
        """Whether x lies in F_{q^d}; d must divide n."""
        if d < 1 or self.n % d:
            raise ValueError(f"d = {d} does not divide n = {self.n}")
        if x == 0:
            return True
        return (self.log[x] * (self.q**d - 1)) % self.mult_order == 0

    # ---- enumeration ----

    def units(self):
        """Nonzero codes in code order."""
        return range(1, self.order)

    def subfield(self, d=1):
        """Elements of F_{q^d}, zero first then powers of a generator."""
        if d < 1 or self.n % d:
            raise ValueError(f"d = {d} does not divide n = {self.n}")
        return (0, *self.exp[:: self.mult_order // (self.q**d - 1)])

    # ---- serialization ----

    def to_spec(self):
        return {
            "p": self.p,
            "m": self.m,
            "n": self.n,
            "modulus": list(self.modulus),
            "generator_index": self.generator,
        }

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m}, n={self.n}, order={self.order})"


def build_field(p, m, n, modulus=None, cap=None):
    """Build a FieldCtx; the one public constructor."""
    return FieldCtx(p, m, n, modulus=modulus, cap=cap)


__all__ = [
    "FieldCtx",
    "build_field",
    "DEFAULT_FIELD_CAP",
]
