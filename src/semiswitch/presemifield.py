"""Switched multiplications and presemifield verification.

A switching replaces the field product by

    x * y  =  x y  +  B(x, y) xi,      B(x, y) = Tr(sum_i b_i x y^(q^i)),

for a coefficient vector ``b`` over F_{q^n} and a nonzero ``xi``.  The
result is F_q-bilinear, so every quantified axiom check over x and y
can be restricted to an F_q-basis.

Every check then reads an F_p-linear map off the images of the mn
F_p-basis elements, through the primitives of :mod:`.gf`.  A zero
divisor of x -> x*a, a member of a nucleus (associators against basis
pairs; nuclei are subfields, hence F_p-subspaces) and a
commutative-isotopy witness are kernels (``_kernel``), and the
unitalization's side maps y -> 1*y and x -> x*1 are tables
(``_linear_table``).  No check tests candidates one by one over the
whole field: cancellation needs one kernel per projective point, and
only the kernels themselves are listed, by ``_span``.

``verify_presemifield`` checks cancellation (both one-sided products
are bijections) directly, with no reference to the trace criterion, so
that ``predicate_equivalence_check`` can compare the two routes as
independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .errors import ConsistencyError
from .gf import FieldCtx, _kernel, _linear_table, _span
from .linpoly import LinearizedPoly, transcript


@dataclass(frozen=True)
class SwitchSpec:
    """Parameters (b, xi) of a switching over a fixed field context."""

    ctx: FieldCtx
    b: tuple
    xi: int = 1

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(int(c) for c in self.b))
        if len(self.b) != self.ctx.n:
            raise ValueError(f"b must have {self.ctx.n} entries")
        for c in self.b:
            if not 0 <= c < self.ctx.order:
                raise ValueError(f"b entry {c} out of range")
        if not 0 < self.xi < self.ctx.order:
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

    def to_dict(self):
        return {"field": self.ctx.to_spec(), "b": list(self.b), "xi": self.xi}


class BinaryOp:
    """An F_q-bilinear operation on a field context.

    Evaluation goes through a closure.  Every check in this module
    relies on F_q-bilinearity, so a caller must not wrap anything else;
    ``unital`` marks a verified two-sided 1.
    """

    def __init__(self, ctx, fn, *, unital=False, spec=None):
        self.ctx = ctx
        self._fn = fn
        self.unital = unital
        self.spec = spec
        self.verified = None

    def __call__(self, x, y):
        return self._fn(x, y)


def field_op(ctx):
    """The plain field multiplication as a BinaryOp."""
    op = BinaryOp(ctx, ctx.mul, unital=True)
    op.verified = True
    return op


def build_switch(spec):
    """The switched multiplication x*y = xy + B(x, y) xi."""
    ctx = spec.ctx
    mul, add, tr = ctx.mul, ctx.add, ctx.rel_trace
    frob = ctx.frob_q
    terms = [(i, bi) for i, bi in enumerate(spec.b) if bi]
    xi = spec.xi

    def op(x, y):
        acc = 0
        yq = y
        j = 0
        for i, bi in terms:
            while j < i:
                yq = frob[yq]
                j += 1
            acc = add(acc, mul(bi, mul(x, yq)))
        return add(mul(x, y), mul(tr(acc), xi))

    return BinaryOp(ctx, op, spec=spec)


# ---- verification ----


def verify_presemifield(op):
    """Check that every one-sided product by a nonzero element is a bijection.

    Both sides fail together, at a zero divisor x*a = 0, so the check
    asks whether some x -> x*a (F_p-linear) has a nonzero kernel.  Since
    x*(c a) = c (x*a) for c in F_q, a runs over the projective
    representatives gamma^k, k < (q^n-1)/(q-1), only.
    """
    ctx = op.ctx
    op.verified = not any(
        _kernel(ctx, lambda x: (op(x, a),)) for a in ctx.exp[: ctx.trace_step]
    )
    return op.verified


def find_zero_divisor(op):
    """The first pair (x, y) of nonzero elements with x*y = 0 in code order, or None.

    x walks the units in code order; y is the smallest nonzero code in
    the kernel of y -> x*y, so the pair is the one a scan over x, then
    y, would meet first.
    """
    ctx = op.ctx
    for x in ctx.units():
        kernel = _kernel(ctx, lambda y: (op(x, y),))
        if kernel:
            return (x, kernel[0])
    return None


def predicate_equivalence_check(spec):
    """Compare the axiom route and the trace route on one spec.

    Route one verifies the switched op directly; route two asks whether
    Tr(M(a)/a) avoids -1 on nonzero a, for M(X) = xi sum b_i X^(q^i).
    Returns True when the two agree (they always should).
    """
    ctx = spec.ctx
    direct = verify_presemifield(build_switch(spec))
    criterion = ctx.neg(1) not in transcript(ctx, spec.m_poly().coeffs)
    return direct == criterion


# ---- unitalization and nuclei ----


def unitalize(op):
    """Isotopic unital semifield op: x . y = B^(-1)(B1(x) * y).

    B(x) = 1*x and B1 is fixed by B1(x)*1 = 1*x.  Requires a verified
    presemifield (cancellation makes both side maps bijective).  The
    side maps are F_p-linear, so each is a table from its mn basis
    images.  B^(-1) and B1 are linear and the op is bilinear, so the new
    product is F_p-bilinear as well: x . 1 = x and 1 . x = x hold on the
    whole field once they hold on the F_p-basis.
    """
    ctx = op.ctx
    if op.verified is None:
        verify_presemifield(op)
    if not op.verified:
        raise ValueError("op is not a presemifield, cannot unitalize")
    p, d, order = ctx.p, ctx.m * ctx.n, ctx.order
    basis = [p**j for j in range(d)]
    bmap = _linear_table(p, d, [op(1, e) for e in basis])
    rmap = _linear_table(p, d, [op(e, 1) for e in basis])
    if len(set(bmap)) != order or len(set(rmap)) != order:
        raise ConsistencyError("cancellative op with non-bijective side map")
    binv = [0] * order
    rinv = [0] * order
    for x, v in enumerate(bmap):
        binv[v] = x
    for x, v in enumerate(rmap):
        rinv[v] = x
    b1 = [rinv[v] for v in bmap]

    def star(x, y):
        return binv[op(b1[x], y)]

    for e in basis:
        if star(e, 1) != e or star(1, e) != e:
            raise ConsistencyError("unitalization failed to produce an identity", e)
    out = BinaryOp(ctx, star, unital=True, spec=op.spec)
    out.verified = op.verified
    return out


@dataclass(frozen=True)
class NucleiReport:
    left: frozenset
    middle: frozenset
    right: frozenset
    center: frozenset
    sizes: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "sizes",
            (len(self.left), len(self.middle), len(self.right), len(self.center)),
        )


def nuclei(op):
    """Left/middle/right nuclei and center of a unital op.

    Each nucleus is the kernel of the associators with the candidate in
    its slot and the two free slots running over an F_q-basis; the
    center adds the commutators with the basis to all three.
    """
    ctx = op.ctx
    if not op.unital:
        raise ValueError("nuclei need a unital op; call unitalize first")
    sub = ctx.sub
    basis = ctx.exp[: ctx.n]
    pairs = [(e, f, op(e, f)) for e in basis for f in basis]

    def left(a):
        return tuple(sub(op(op(a, e), f), op(a, ef)) for e, f, ef in pairs)

    def middle(a):
        return tuple(sub(op(op(e, a), f), op(e, op(a, f))) for e, f, _ in pairs)

    def right(a):
        return tuple(sub(op(ef, a), op(e, op(f, a))) for e, f, ef in pairs)

    @cache
    def slots(a):
        # left, middle and right associators of a, once per F_p-basis element
        return left(a), middle(a), right(a)

    def center(a):
        commutators = tuple(sub(op(a, e), op(e, a)) for e in basis)
        return sum(slots(a), ()) + commutators

    maps = [lambda a, i=i: slots(a)[i] for i in range(3)] + [center]
    report = NucleiReport(*(frozenset(_span(ctx, _kernel(ctx, g))) for g in maps))
    for size in report.sizes:
        if size < 1 or ctx.order % size:
            raise ConsistencyError("nucleus size does not divide field order", size)
        while size % ctx.p == 0:
            size //= ctx.p
        if size != 1:
            raise ConsistencyError("nucleus size is not a p-power", report.sizes)
    return report


def is_commutative(op):
    """Direct commutativity check on basis pairs."""
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


def right_unit_inverse(spec):
    """The map A with A(x) * 1 = x for the switched op, in closed form.

    With t = sum b_i the map is A(x) = x - xi Tr(t x) / (1 + Tr(t xi)).
    The denominator is the F_q scalar with 1*1 = 1 + Tr(t) xi; it
    vanishes exactly when the op already fails cancellation at 1.
    """
    ctx = spec.ctx
    t = 0
    for bi in spec.b:
        t = ctx.add(t, bi)
    denom = ctx.add(1, ctx.rel_trace(ctx.mul(t, spec.xi)))
    if denom == 0:
        raise ValueError("1 + Tr(t xi) = 0; the switched op is not cancellative at 1")
    scale = ctx.neg(ctx.div(spec.xi, denom))

    def A(x):
        return ctx.add(x, ctx.mul(scale, ctx.rel_trace(ctx.mul(t, x))))

    return A


def commutative_isotopy_test(op):
    """Search for v != 0 with A(v*x) * y = A(v*y) * x on all basis pairs.

    Existence of such a v is equivalent to the op being isotopic to a
    commutative semifield.  The witnesses are the nonzero kernel of an
    F_p-linear map in v; the one returned has the smallest discrete
    log, i.e. it is the first in gamma-power order, so reruns agree.
    Needs the op to come from a SwitchSpec (A has a closed form there).
    """
    if op.spec is None:
        raise ValueError("test needs an op built from a SwitchSpec")
    ctx = op.ctx
    A = right_unit_inverse(op.spec)
    basis = ctx.exp[: ctx.n]
    pairs = [(i, j) for i in range(ctx.n) for j in range(i + 1, ctx.n)]

    def defect(v):
        w = [A(op(v, e)) for e in basis]
        return tuple(ctx.sub(op(w[i], basis[j]), op(w[j], basis[i])) for i, j in pairs)

    kernel = _kernel(ctx, defect)
    if not kernel:
        return False, None
    return True, min(_span(ctx, kernel)[1:], key=ctx.log.__getitem__)


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
    "predicate_equivalence_check",
    "unitalize",
    "NucleiReport",
    "nuclei",
    "is_commutative",
    "commutative_criterion",
    "right_unit_inverse",
    "commutative_isotopy_test",
    "dual_spread_op",
]
