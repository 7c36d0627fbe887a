"""Exact arithmetic in the tower F_p < F_q < F_{q^n}, table driven.

An element of F_{q^n} (q = p^m) is a plain int in ``range(p**(m*n))``:
the base-p digits of the int are the element's coefficient vector over
F_p, least significant digit first.  0 is the zero element and 1 the
multiplicative identity.  A :class:`FieldCtx` holds discrete-log tables
built from a deterministic primitive element ``gamma``, plus q-power
Frobenius, relative trace and relative norm tables, so that hot loops
reduce to list lookups.

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
:func:`_span` lists a kernel in full.
Multiplication by gamma and the relative trace are such maps, so
construction does no field arithmetic per element: ``exp`` is the orbit
of 1 under the gamma table, and Frobenius and norm are read off ``exp``
by index.  This stays pure Python: importing numpy here would cost
every run more start-up time than small fields spend on tables.
"""

from __future__ import annotations

import json
import os

from .errors import BudgetExceeded, ConsistencyError

DEFAULT_FIELD_CAP = 1 << 22


def field_cap(cap=None):
    """The largest field order to build: ``cap``, else SEMISWITCH_FIELD_CAP."""
    if cap is None:
        raw = os.environ.get("SEMISWITCH_FIELD_CAP")
        cap = DEFAULT_FIELD_CAP if raw is None else int(raw)
    if cap < 0:
        raise ValueError(f"field cap must be >= 0, got {cap}")
    return cap


def _is_prime(v):
    if v < 2:
        return False
    d = 2
    while d * d <= v:
        if v % d == 0:
            return False
        d += 1
    return True


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
    """
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


def _kernel(ctx, f):
    """An F_p-basis of the kernel of an additive map f: element -> tuple.

    Row j is the tuple (*f(p^j), p^j) of element codes.  It absorbs the
    earlier pivot rows, a row minus c times a pivot row being
    ``add(a, mul(p - c, b))`` entrywise; a row whose image entries all
    vanish is a kernel vector in its last entry, and any other becomes a
    pivot on one nonzero digit of its first nonzero entry.  Kernel vector
    k is the only kernel element in p^j + span(earlier pivot rows' p^i),
    so the basis does not depend on the pivot digit, and its top digit
    grows with k: the first vector is the smallest nonzero code in the
    kernel.
    """
    p, add, mul = ctx.p, ctx.add, ctx.mul
    pivots = []  # (entry, place, row): digit `place` of row[entry] is 1
    kernel = []
    for j in range(ctx.m * ctx.n):
        row = (*f(p**j), p**j)
        for i, place, piv in pivots:
            c = row[i] // place % p
            if c:
                row = tuple(add(a, mul(p - c, b)) for a, b in zip(row, piv))
        i = next((i for i, a in enumerate(row[:-1]) if a), None)
        if i is None:
            kernel.append(row[-1])
            continue
        place = 1
        while row[i] // place % p == 0:
            place *= p
        inv = pow(row[i] // place % p, -1, p)
        pivots.append((i, place, tuple(mul(inv, a) for a in row)))
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

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], p - 2, p)
        while deg(a) >= db:
            da = deg(a)
            c = (a[da] * inv) % p
            for t in range(db + 1):
                a[da - db + t] = (a[da - db + t] - c * b[t]) % p
        a, b = b, a
    return a


def _is_irreducible(mod, p):
    """Rabin test for a monic polynomial over F_p."""
    d = len(mod) - 1
    if d < 1 or mod[d] != 1:
        return False
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
    """Smallest-code monic irreducible of degree d over F_p."""
    for code in range(p**d, 2 * p**d):
        digits = _decode(code, p, d + 1)
        if _is_irreducible(digits, p):
            return tuple(digits)
    raise ConsistencyError("no irreducible polynomial found, impossible")


class FieldCtx:
    """Immutable arithmetic context for F_{q^n} over F_q = F_{p^m}.

    All tables are built once at construction; instances are safe to
    share (nothing mutates after ``__init__``).  Elements are ints; the
    context never wraps them.
    """

    def __init__(self, p, m, n, modulus=None, cap=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        cap = field_cap(cap)
        order = p ** (m * n)
        if order > cap:
            raise BudgetExceeded(f"p^(m*n) = {order} exceeds cap {cap}")
        self.p = p
        self.m = m
        self.n = n
        self.q = p**m
        self.order = order
        self.mult_order = order - 1
        deg = m * n
        if modulus is None:
            modulus = _find_modulus(p, deg)
        else:
            modulus = tuple(int(c) for c in modulus)
            for c in modulus:
                if not 0 <= c < p:
                    raise ValueError(f"modulus coefficient {c} is outside 0..{p - 1}")
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
        # q^i - 1 for i in 0..n-1, used all over for x -> x^(q^i - 1)
        self.qpow_minus1 = tuple(self.q**i - 1 for i in range(n))
        self._subfields = {}

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
        exp = [1] * N
        x = 1
        for k in range(1, N):
            x = G[x]
            exp[k] = x
        # exp's ints in value order, so that log holds no ints of its own
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
        del G, ints
        self.exp = exp
        self.log = log
        # Frobenius and norm as exp-index maps, so they share exp's ints
        M = N // (q - 1)
        frob, nm = [0] * self.order, [0] * self.order
        for k, x in enumerate(exp):
            frob[x] = exp[k * q % N]
            nm[x] = exp[k * M % N]
        self.frob_q = frob
        self.nm = nm
        self.trace_step = M
        traces = []
        for e in basis:
            acc = 0
            for i in range(self.n):
                acc = self.add(acc, exp[log[e] * q**i % N])
            traces.append(acc)
        tr = _linear_table(p, d, traces)
        self.tr = tr
        unfixed = {t for t in set(tr) if frob[t] != t}
        if unfixed:
            witness = next(x for x, t in enumerate(tr) if t in unfixed)
            raise ConsistencyError("trace image not fixed by Frobenius", witness=witness)

    # ---- basic arithmetic ----

    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        s, mult = 0, 1
        while a or b:
            s += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return s

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
        for _ in range(k % self.n):
            x = self.frob_q[x]
        return x

    def rel_trace(self, x):
        """Trace of F_{q^n} onto F_q."""
        return self.tr[x]

    def rel_norm(self, x):
        """Norm of F_{q^n} onto F_q."""
        return self.nm[x]

    def in_subfield(self, x, d=1):
        """Whether x lies in F_{q^d}; d must divide n."""
        if d < 1 or self.n % d:
            raise ValueError(f"d = {d} does not divide n = {self.n}")
        if x == 0:
            return True
        return (self.log[x] * (self.q**d - 1)) % self.mult_order == 0

    # ---- enumeration ----

    def elements(self):
        return range(self.order)

    def units(self):
        """Nonzero codes in code order."""
        return range(1, self.order)

    def star_units(self):
        """Nonzero elements in gamma-power order: gamma^0, gamma^1, ..."""
        return self.exp

    def subfield(self, d=1):
        """Elements of F_{q^d}, zero first then powers of a generator."""
        if d < 1 or self.n % d:
            raise ValueError(f"d = {d} does not divide n = {self.n}")
        if d not in self._subfields:
            sub_order = self.q**d
            step = self.mult_order // (sub_order - 1)
            elems = [0] + [self.exp[k * step] for k in range(sub_order - 1)]
            self._subfields[d] = tuple(elems)
        return self._subfields[d]

    # ---- dual element views ----

    def from_index(self, k):
        if k is None:
            return 0
        return self.exp[k % self.mult_order]

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


def field_from_spec(spec, cap=None):
    """Rebuild a context from :meth:`FieldCtx.to_spec` output (dict or JSON)."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    ctx = build_field(spec["p"], spec["m"], spec["n"], modulus=spec["modulus"], cap=cap)
    want = spec.get("generator_index")
    if want is not None and want != ctx.generator:
        raise ValueError(
            f"generator mismatch: spec says {want}, deterministic choice is {ctx.generator}"
        )
    return ctx


__all__ = [
    "FieldCtx",
    "build_field",
    "field_from_spec",
    "field_cap",
    "DEFAULT_FIELD_CAP",
]
