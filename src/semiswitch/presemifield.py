"""Switched multiplications and presemifield verification.

A switching replaces the field product by

    x * y  =  x y  +  B(x, y) xi,      B(x, y) = Tr(sum_i b_i x y^(q^i)),

for a coefficient vector ``b`` over F_{q^n} and a nonzero ``xi``.  The
result is F_q-bilinear, so every quantified axiom check over x and y
can be restricted to an F_q-basis.

Cancellation is decided by a lemma: a zero divisor of x lies on the line
F_q^* xi/x, so one op call per F_q^* orbit of units decides it
(``find_zero_divisor``, which sets ``op.verified``;
``verify_presemifield`` asks only whether it found one).  The walk reads
the switch's ``xi``, so it runs on switches alone; at z = xi/x it is the
trace criterion Tr(M(z)/z) != -1 read through op calls, and the tests
keep a kernel walk that reads neither xi nor the trace as the second
route.  Bilinearity is assumed, not checked.

Every other check reads an F_p-linear map off the images of the mn
F_p-basis elements, through the primitives of :mod:`.gf`.  A member of a
nucleus and a commutative-isotopy witness are kernels (``_kernel``), and
the side maps y -> 1*y and x -> x*1 are tables (``_linear_table``),
built once per op and shared by the unitalization and the isotopy test.
Nuclei are subfields, hence F_p-subspaces through 1, so each is refined
inside the complement span(p, ..., p^(mn-1)) of 1, one associator
against an F_q-basis pair at a time, with the pairs that hold 1 skipped:
those associators vanish in a unital op, whose two-sided 1 ``nuclei``
checks first.  Each nucleus is reported as its F_p-basis, so its size is
p to the basis length.  No check tests candidates one by one over the
whole field: the only kernel listed in full, by ``_span``, is the
isotopy test's, whose witness is its member of smallest discrete log.

The isotopy test records its kernel basis as ``op.isotopy_kernel``, and
``transport_isotopy_kernel`` carries it to the switch of a scaled b,
whose product is an isotope.  So a caller that keeps one kernel per
scaling orbit (``families.classify``) runs the walk, the nuclei and the
isotopy kernel once per orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConsistencyError
from .gf import FieldCtx, _kernel, _linear_table, _span
from .linpoly import LinearizedPoly


@dataclass(frozen=True)
class SwitchSpec:
    """Switching parameters: b checked as LinearizedPoly coefficients, xi a nonzero int."""

    ctx: FieldCtx
    b: tuple
    xi: int = 1

    def __post_init__(self):
        object.__setattr__(self, "b", LinearizedPoly(self.ctx, self.b).coeffs)
        if type(self.xi) is not int or not 0 < self.xi < self.ctx.order:
            raise ValueError("xi must be a nonzero element code")

    def bilinear_form(self, x, y):
        """B(x, y) = Tr(sum_i b_i x y^(q^i)), an element of F_q."""
        ctx = self.ctx
        acc = 0
        for i, bi in enumerate(self.b):
            if bi:
                acc = ctx.add(acc, ctx.mul(bi, ctx.mul(x, ctx.frobenius(y, i))))
        return ctx.rel_trace(acc)

    def m_poly(self):
        """M(X) = xi * sum_i b_i X^(q^i) as a LinearizedPoly."""
        ctx = self.ctx
        return LinearizedPoly(ctx, tuple(ctx.mul(self.xi, bi) for bi in self.b))


class BinaryOp:
    """An F_q-bilinear operation on a field context.

    Evaluation goes through a closure.  Every check in this module
    relies on F_q-bilinearity, so a caller must not wrap anything else.
    ``xi`` is set on a switch (``build_switch``) and None on any other op.
    """

    def __init__(self, ctx, fn, xi=None):
        self.ctx = ctx
        self._fn = fn
        self.xi = xi
        self.verified = None
        self.isotopy_kernel = None

    def __call__(self, x, y):
        return self._fn(x, y)

    @cached_property
    def side_maps(self):
        """Tables (B, B^(-1), R, R^(-1)) of B(y) = 1*y and R(x) = x*1.

        Each map is F_p-linear, so its table is read off mn basis
        images.  Raises ValueError on an op that does not verify;
        cancellation makes both maps bijective.  An op other than a
        switch must carry its verdict in ``verified`` already, since the
        zero-divisor walk runs on switches alone.
        """
        if self.verified is None:
            verify_presemifield(self)
        if not self.verified:
            raise ValueError("op is not a presemifield")
        ctx = self.ctx
        p, d, order = ctx.p, ctx.m * ctx.n, ctx.order
        basis = [p**j for j in range(d)]
        out = ()
        for images in ([self(1, e) for e in basis], [self(e, 1) for e in basis]):
            fmap = _linear_table(p, d, images)
            inv = [None] * order
            for x, v in enumerate(fmap):
                if inv[v] is not None:
                    raise ConsistencyError("cancellative op with non-bijective side map")
                inv[v] = x
            out += (fmap, inv)
        return out


def field_op(ctx):
    """The plain field multiplication as a BinaryOp."""
    op = BinaryOp(ctx, ctx.mul)
    op.verified = True
    return op


def build_switch(spec):
    """The switched multiplication x*y = xy + Tr(x B(y)) xi, B(Y) = sum_i b_i Y^(q^i)."""
    ctx = spec.ctx
    mul, add, tr = ctx.mul, ctx.add, ctx.tr
    B, xi = LinearizedPoly(ctx, spec.b), spec.xi
    return BinaryOp(ctx, lambda x, y: add(mul(x, y), mul(tr[mul(x, B(y))], xi)), xi)


# ---- verification ----


def verify_presemifield(op):
    """Whether every one-sided product by a nonzero element is a bijection.

    Both sides fail together, at a zero divisor x*y = 0, so this is the
    question ``find_zero_divisor`` answers (and records on the op); like
    the walk, it takes a switch.
    """
    return find_zero_divisor(op) is None


def find_zero_divisor(op):
    """The first pair (x, y) of nonzero elements with x*y = 0 in code order, or None.

    ``op`` is a switch, x*y = xy + Tr(x B(y)) xi, read through its
    ``op.xi``; any other op raises ValueError.

    Lemma.  A unit x has a zero divisor iff x*(xi/x) = 0, and then its
    zero divisors are exactly t xi/x for t in F_q^*.

    Proof.  Let x*y = 0 with y != 0.  Then xy = -Tr(x B(y)) xi lies in
    F_q xi, and xy != 0, so y = t xi/x for some t in F_q^*.  B is
    q-linearized and Tr maps into F_q, so y -> x*y is F_q-linear and
    x*(t xi/x) = t (x*(xi/x)), which vanishes iff x*(xi/x) does.

    F_q^* is {gamma^(jM) : j < q - 1}, M = (q^n-1)/(q-1), so the first
    zero divisor of x in code order is the least code among
    exp[(log(xi/x) + jM) mod N].  x walks the units in code order, so the
    pair is the one a scan over x, then y, would meet first.  Since
    (c x)*y = c (x*y) for c in F_q, the verdict is the same on the whole
    orbit gamma^k F_q^* = exp[k::M] of x: only the first member met of
    each orbit is tried, at one op call, and its first zero divisor is
    the first of the orbit's.  The verdict, whether the op is a
    presemifield, is set as ``op.verified``.
    """
    xi = op.xi
    if xi is None:
        raise ValueError("the zero-divisor walk needs a switch, an op with xi")
    ctx = op.ctx
    M, N, exp, log = ctx.trace_step, ctx.mult_order, ctx.exp, ctx.log
    log_xi = log[xi]
    seen = bytearray(M)
    for x in ctx.units():
        k = log[x] % M
        if seen[k]:
            continue
        seen[k] = 1
        z = (log_xi - log[x]) % N
        if op(x, exp[z]) == 0:
            op.verified = False
            return (x, min(exp[(z + j * M) % N] for j in range(ctx.q - 1)))
    op.verified = True
    return None


# ---- unitalization and nuclei ----


def unitalize(op):
    """Isotopic unital semifield op: x . y = B^(-1)(B1(x) * y).

    B(x) = 1*x and B1 is fixed by B1(x)*1 = 1*x, both read from
    ``op.side_maps`` (so a ValueError on an op that does not verify).
    B^(-1) and B1 are linear and the op is bilinear, so the new
    product is F_p-bilinear as well: x . 1 = x and 1 . x = x hold on the
    whole field once they hold on the F_p-basis.
    """
    ctx = op.ctx
    bmap, binv, _, rinv = op.side_maps
    b1 = [rinv[v] for v in bmap]

    def star(x, y):
        return binv[op(b1[x], y)]

    for e in (ctx.p**j for j in range(ctx.m * ctx.n)):
        if star(e, 1) != e or star(1, e) != e:
            raise ConsistencyError("unitalization failed to produce an identity", e)
    out = BinaryOp(ctx, star)
    out.verified = op.verified
    return out


@dataclass(frozen=True)
class NucleiReport:
    """F_p-bases of the left, middle and right nuclei and the center, 1 first."""

    left: tuple
    middle: tuple
    right: tuple
    center: tuple
    sizes: tuple


def nuclei(op):
    """F_p-bases of the left/middle/right nuclei and center of a unital op.

    A nucleus N is a subfield, so an F_p-subspace that holds 1, and
    N = span(1) + (N meet W) for W = span(p, p^2, ..., p^(mn-1)).  Each
    meet is refined from the basis of W one equation at a time, one
    ``_kernel`` each, until the equations run out or nothing is left:
    the associator with the candidate in its slot and an F_q-basis pair
    (e, f) in the free slots.  Pairs with 1 in them are skipped, since
    an associator or commutator with 1 in a slot vanishes in a unital
    op.  The center refines the left nucleus's meet by the middle and
    right associators and the commutators with the basis.

    Any op whose 1 is two-sided will do.  That is checked on the F_p-basis
    (F_p-bilinearity carries it to the whole field); a ValueError otherwise.
    """
    ctx = op.ctx
    p, sub = ctx.p, ctx.sub
    W = [p**j for j in range(1, ctx.m * ctx.n)]
    for e in [1] + W:
        if op(1, e) != e or op(e, 1) != e:
            raise ValueError(f"1 is not a two-sided identity at {e}")
    basis = ctx.exp[1 : ctx.n]
    pairs = [(e, f, op(e, f)) for e in basis for f in basis]
    left = [lambda a, e=e, f=f, ef=ef: (sub(op(op(a, e), f), op(a, ef)),) for e, f, ef in pairs]
    middle = [lambda a, e=e, f=f: (sub(op(op(e, a), f), op(e, op(a, f))),) for e, f, _ in pairs]
    right = [lambda a, e=e, f=f, ef=ef: (sub(op(ef, a), op(e, op(f, a))),) for e, f, ef in pairs]
    commutators = [lambda a, e=e: (sub(op(a, e), op(e, a)),) for e in basis]

    def refine(meet, equations):
        for g in equations:
            if not meet:
                break
            meet = _kernel(ctx, g, meet)
        return meet

    meets = [refine(W, equations) for equations in (left, middle, right)]
    meets.append(refine(meets[0], middle + right + commutators))
    bases = [(1, *meet) for meet in meets]
    return NucleiReport(*bases, tuple(p ** len(b) for b in bases))


def is_commutative(op):
    """Direct commutativity check on basis pairs: ``commutative_criterion``'s test reference."""
    basis = op.ctx.exp[: op.ctx.n]
    return all(
        op(e, f) == op(f, e) for i, e in enumerate(basis) for f in basis[i + 1 :]
    )


def commutative_criterion(spec):
    """Coefficient test for symmetry of the bilinear form.

    Rewriting Tr(b_i y x^(q^i)) as Tr(b_i^(q^(n-i)) x y^(q^(n-i))) and
    matching coefficients, B(x,y) = B(y,x) holds exactly when
    b_j = b_(n-j mod n)^(q^j) for every j.  (Index 0 pairs with itself
    and is unconstrained.)
    """
    ctx = spec.ctx
    n = ctx.n
    return all(
        bj == ctx.frobenius(spec.b[(n - j) % n], j) for j, bj in enumerate(spec.b)
    )


def commutative_isotopy_test(op):
    """Search for v != 0 with A(v*x) * y = A(v*y) * x on all basis pairs.

    Existence of such a v is equivalent to the op being isotopic to a
    commutative semifield.  The witnesses are the nonzero kernel of an
    F_p-linear map in v; the one returned has the smallest discrete
    log, i.e. it is the first in gamma-power order, so reruns agree.
    The kernel's F_p-basis is recorded as ``op.isotopy_kernel``.
    A is the inverse of x -> x*1 from ``op.side_maps``, so, like
    ``unitalize``, the test raises ValueError on an op that does not
    verify.
    """
    ctx = op.ctx
    A = op.side_maps[3]
    basis = ctx.exp[: ctx.n]
    pairs = [(i, j) for i in range(ctx.n) for j in range(i + 1, ctx.n)]

    def defect(v):
        w = [A[op(v, e)] for e in basis]
        return tuple(ctx.sub(op(w[i], basis[j]), op(w[j], basis[i])) for i, j in pairs)

    op.isotopy_kernel = _kernel(ctx, defect)
    return isotopy_witness(ctx, op.isotopy_kernel)


def isotopy_witness(ctx, kernel):
    """(ganley, witness) from an F_p-basis of the isotopy kernel.

    The witness is the member of smallest discrete log: 1 when the kernel
    is the whole field, otherwise read off its span listed in full.
    """
    if not kernel:
        return False, None
    if len(kernel) == ctx.m * ctx.n:
        return True, 1  # the whole field: gamma^0 has the smallest log
    return True, min(_span(ctx, kernel)[1:], key=ctx.log.__getitem__)


def transport_isotopy_kernel(spec, op, kernel, c):
    """The isotopy kernel of ``spec`` scaled by c != 0, from an F_p-basis of spec's.

    ``op`` is the switch ``build_switch(spec)`` the caller already holds.

    Scaling b_i -> b_i c^(q^i - 1) (b_0 fixed) gives B'(y) = B(cy)/c, so the
    scaled product is the isotope x *' y = (x/c) * (cy).  Let A = R^(-1),
    R(u) = u*1.  The kernel ``commutative_isotopy_test`` finds is
    K = {v : A(v*x)*y is symmetric in x, y}, and the scaled one is

        K' = {c A(v*c) : v in K}.

    Proof.  R'(u) = u *' 1 = R_c(u/c) with R_c(u) = u*c, so
    A'(z) = c R_c^(-1)(z), and with X = cx, Y = cy, w = v'/c the condition
    on v' reads: R_c^(-1)(w*X)*Y is symmetric in X, Y.  For v in K put
    w = A(v*c).  Symmetry of A(v*X)*Y at Y = c gives A(v*X)*c = w*X, that
    is R_c^(-1)(w*X) = A(v*X), and A(v*X)*Y is symmetric: c w lies in K'.
    The map v -> c A(v*c) is F_p-linear and injective (A is bijective,
    and in a presemifield v*c = 0 only for v = 0), so dim K' >= dim K;
    scaling back by 1/c gives the reverse, and the inclusion is an
    equality.

    A needs no table: z = u + Tr(u B(1)) xi inverts to
    A(z) = z - xi Tr(z B(1)) / (1 + Tr(xi B(1))), whose denominator is
    nonzero because xi*1 = xi (1 + Tr(xi B(1))) != 0.  So the image of a
    basis of K is a basis of K', at mn products.
    """
    ctx = spec.ctx
    beta, xi, tr = LinearizedPoly(ctx, spec.b)(1), spec.xi, ctx.tr
    den = ctx.add(1, tr[ctx.mul(xi, beta)])

    def A(z):
        return ctx.sub(z, ctx.mul(xi, ctx.div(tr[ctx.mul(z, beta)], den)))

    return [ctx.mul(c, A(op(v, c))) for v in kernel]


def dual_spread_op(ctx, a1, a0t):
    """The companion product x o y = xy + (a1 y^(q^2) + a0t y) Tr(x) (n = 4)."""
    if ctx.n != 4:
        raise ValueError("dual spread companion is defined for n = 4")

    def op(x, y):
        s = ctx.add(ctx.mul(a1, ctx.frobenius(y, 2)), ctx.mul(a0t, y))
        return ctx.add(ctx.mul(x, y), ctx.mul(s, ctx.rel_trace(x)))

    return BinaryOp(ctx, op)


__all__ = [
    "SwitchSpec",
    "BinaryOp",
    "field_op",
    "build_switch",
    "verify_presemifield",
    "find_zero_divisor",
    "unitalize",
    "NucleiReport",
    "nuclei",
    "is_commutative",
    "commutative_criterion",
    "commutative_isotopy_test",
    "isotopy_witness",
    "transport_isotopy_kernel",
    "dual_spread_op",
]
