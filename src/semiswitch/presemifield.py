"""Switched multiplications and presemifield verification.

A switching replaces the field product by

    x * y  =  x y  +  B(x, y) xi,      B(x, y) = Tr(sum_i b_i x y^(q^i)),

for a coefficient vector ``b`` over F_{q^n} and a nonzero ``xi``.  The
result is F_q-bilinear, so every quantified axiom check over x and y
can be restricted to an F_q-basis; only scans over nucleus or divisor
candidates stay exhaustive.  That is what keeps verification at
O(q^n * n^2) instead of O(q^(3n)).

``verify_presemifield`` checks cancellation (both one-sided products
are bijections) directly, with no reference to the trace criterion, so
that ``predicate_equivalence_check`` can compare the two routes as
independent computations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import BudgetExceeded, ConsistencyError
from .gf import FieldCtx
from .linpoly import LinearizedPoly, transcript

DEFAULT_TABLE_BUDGET = 1 << 24


def table_budget(budget=None):
    if budget is not None:
        return budget
    raw = os.environ.get("SEMISWITCH_TABLE_BUDGET")
    return DEFAULT_TABLE_BUDGET if raw is None else int(raw)


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
    """A binary operation on a field context.

    Evaluation goes through a closure.  ``fq_bilinear`` marks ops whose
    axiom checks may be restricted to a basis; ``unital`` marks a
    verified two-sided 1.
    """

    def __init__(self, ctx, fn, *, fq_bilinear=False, unital=False, spec=None):
        self.ctx = ctx
        self._fn = fn
        self.fq_bilinear = fq_bilinear
        self.unital = unital
        self.spec = spec
        self.verified = None

    def __call__(self, x, y):
        return self._fn(x, y)


def field_op(ctx):
    """The plain field multiplication as a BinaryOp."""
    op = BinaryOp(ctx, ctx.mul, fq_bilinear=True, unital=True)
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

    return BinaryOp(ctx, op, fq_bilinear=True, spec=spec)


# ---- verification ----


def _rank_over_base(ctx, rows):
    """Rank of coordinate rows over F_q (Gaussian elimination)."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ctx.inv(rows[r][c])
        rows[r] = [ctx.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [ctx.sub(rows[i][j], ctx.mul(f, rows[r][j])) for j in range(width)]
        r += 1
        if r == len(rows):
            break
    return r


def verify_presemifield(op):
    """Check that every one-sided product by a nonzero element is a bijection.

    For F_q-bilinear ops each one-sided product is F_q-linear, so the
    bijection test is a rank computation on basis images; otherwise the
    check scans the full multiplication square.
    """
    ctx = op.ctx
    n = ctx.n
    if op.fq_bilinear:
        basis = [ctx.exp[i] for i in range(n)]
        coords = ctx.coords
        for a in ctx.units():
            if _rank_over_base(ctx, [coords(op(e, a)) for e in basis]) < n:
                op.verified = False
                return False
            if _rank_over_base(ctx, [coords(op(a, e)) for e in basis]) < n:
                op.verified = False
                return False
        op.verified = True
        return True
    entries = ctx.order**2
    if entries > table_budget():
        raise BudgetExceeded(f"full bijection scan of {entries} pairs over budget")
    full = set(ctx.elements())
    for a in ctx.units():
        if {op(x, a) for x in ctx.elements()} != full:
            op.verified = False
            return False
        if {op(a, x) for x in ctx.elements()} != full:
            op.verified = False
            return False
    op.verified = True
    return True


def find_zero_divisor(op):
    """A pair (x, y) of nonzero elements with x*y = 0, or None.

    Quadratic scan; meant for witness reporting after a failed
    verification, not for hot paths.
    """
    ctx = op.ctx
    for x in ctx.units():
        for y in ctx.units():
            if op(x, y) == 0:
                return (x, y)
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
    presemifield (cancellation makes both side maps bijective).
    """
    ctx = op.ctx
    if op.verified is None:
        verify_presemifield(op)
    if not op.verified:
        raise ValueError("op is not a presemifield, cannot unitalize")
    order = ctx.order
    bmap = [op(1, x) for x in range(order)]
    rmap = [op(x, 1) for x in range(order)]
    binv = [0] * order
    rinv = [0] * order
    for x, v in enumerate(bmap):
        binv[v] = x
    for x, v in enumerate(rmap):
        rinv[v] = x
    if len(set(bmap)) != order or len(set(rmap)) != order:
        raise ConsistencyError("cancellative op with non-bijective side map")
    b1 = [rinv[bmap[x]] for x in range(order)]

    def star(x, y):
        return binv[op(b1[x], y)]

    out = BinaryOp(ctx, star, fq_bilinear=op.fq_bilinear, unital=True, spec=op.spec)
    for x in range(order):
        if star(x, 1) != x or star(1, x) != x:
            raise ConsistencyError("unitalization failed to produce an identity", x)
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

    Associativity triples are tested with the nucleus candidate in its
    slot and the two free slots running over an F_q-basis (valid for
    F_q-bilinear ops); candidates run over the whole field.
    """
    ctx = op.ctx
    if not op.unital:
        raise ValueError("nuclei need a unital op; call unitalize first")
    if not op.fq_bilinear:
        raise ValueError("nuclei reduction needs an F_q-bilinear op")
    n = ctx.n
    basis = [ctx.exp[i] for i in range(n)]
    pairs = [(e, f) for e in basis for f in basis]
    left, middle, right = set(), set(), set()
    for a in ctx.elements():
        if all(op(op(a, e), f) == op(a, op(e, f)) for e, f in pairs):
            left.add(a)
        if all(op(op(e, a), f) == op(e, op(a, f)) for e, f in pairs):
            middle.add(a)
        if all(op(op(e, f), a) == op(e, op(f, a)) for e, f in pairs):
            right.add(a)
    nucleus = left & middle & right
    center = {a for a in nucleus if all(op(a, e) == op(e, a) for e in basis)}
    report = NucleiReport(
        frozenset(left), frozenset(middle), frozenset(right), frozenset(center)
    )
    for size in report.sizes:
        if size < 1 or ctx.order % size:
            raise ConsistencyError("nucleus size does not divide field order", size)
        while size % ctx.p == 0:
            size //= ctx.p
        if size != 1:
            raise ConsistencyError("nucleus size is not a p-power", report.sizes)
    return report


def is_commutative(op):
    """Direct commutativity check (basis pairs when bilinear)."""
    ctx = op.ctx
    if op.fq_bilinear:
        basis = [ctx.exp[i] for i in range(ctx.n)]
        return all(
            op(basis[i], basis[j]) == op(basis[j], basis[i])
            for i in range(ctx.n)
            for j in range(i + 1, ctx.n)
        )
    return all(
        op(x, y) == op(y, x) for x in ctx.elements() for y in ctx.elements()
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
    commutative semifield.  v is scanned in gamma-power order and the
    first witness is returned, so reruns agree.  Needs the op to come
    from a SwitchSpec (A has a closed form there).
    """
    if op.spec is None:
        raise ValueError("test needs an op built from a SwitchSpec")
    ctx = op.ctx
    A = right_unit_inverse(op.spec)
    n = ctx.n
    basis = [ctx.exp[i] for i in range(n)]
    for v in ctx.star_units():
        w = [A(op(v, e)) for e in basis]
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if op(w[i], basis[j]) != op(w[j], basis[i]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True, v
    return False, None


def dual_spread_op(ctx, a1, a0t):
    """The companion product x o y = xy + (a1 y^(q^2) + a0t y) Tr(x) (n = 4)."""
    if ctx.n != 4:
        raise ValueError("dual spread companion is defined for n = 4")

    def op(x, y):
        s = ctx.add(ctx.mul(a1, ctx.frobenius(y, 2)), ctx.mul(a0t, y))
        return ctx.add(ctx.mul(x, y), ctx.mul(s, ctx.rel_trace(x)))

    return BinaryOp(ctx, op, fq_bilinear=True)


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
    "table_budget",
    "DEFAULT_TABLE_BUDGET",
]
