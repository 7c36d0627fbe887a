"""Switched multiplications and presemifield verification.

A switching replaces the field product by

    x * y  =  x y  +  B(x, y) xi,      B(x, y) = Tr(sum_i b_i x y^(q^i)),

for a coefficient vector ``b`` over F_{q^n} and a nonzero ``xi``.  The
result is F_q-bilinear, so every quantified axiom check over x and y
can be restricted to an F_q-basis.

Cancellation is decided by a lemma: a zero divisor of x lies on the line
F_q^* xi/x, so one op call per F_q^* orbit of units decides it
(``find_zero_divisor``, which sets ``op.verified``; ``verify_presemifield``
asks only whether it found one).  The walk reads the xi of the switch's
``op.spec``, so it runs on switches alone; at z = xi/x it is the trace
criterion Tr(M(z)/z) != -1 read through op calls, and the tests keep a
kernel walk that reads neither xi nor the trace as the second route.
Bilinearity is assumed, not checked.

A switch's side maps y -> 1*y and x -> x*1 are the identity plus a rank-one
F_q-map, so they invert in closed form off ``op.spec`` (``_unital_maps``),
with no table: the unitalization, the isotopy test and the kernel transport
read them, and take switches alone too.  Every other check reads an
F_p-linear map off the images of the mn F_p-basis elements, through
:mod:`.gf`.  A member of a nucleus and a commutative-isotopy witness are
kernels (``_kernel``).  Nuclei are subfields, hence F_p-subspaces through 1,
so each is refined inside the complement span(p, ..., p^(mn-1)) of 1, one
associator against an F_q-basis pair at a time, with the pairs that hold 1
skipped: those associators vanish in a unital op, whose two-sided 1
``nuclei`` checks first.  Each nucleus is reported as its F_p-basis, so its
size is p to the basis length.  No check tests candidates one by one over
the whole field: the only kernel listed in full, by ``_span``, is the
isotopy test's, whose witness is its member of smallest discrete log.

The isotopy test records its kernel basis as ``op.isotopy_kernel``, and
``transport_isotopy_kernel`` carries it to the switch of a scaled b,
whose product is an isotope.  So a caller that keeps one kernel per
scaling orbit (``families.classify``) runs the walk, the nuclei and the
isotopy kernel once per orbit.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ConsistencyError
from .gf import _kernel, _span
from .linpoly import LinearizedPoly, _Value


class SwitchSpec(_Value):
    """Switching parameters: b checked as LinearizedPoly coefficients, xi a nonzero int."""

    _fields = ("ctx", "b", "xi")

    def __init__(self, ctx, b, xi=1):
        b = LinearizedPoly(ctx, b).coeffs
        if type(xi) is not int or not 0 < xi < ctx.order:
            raise ValueError("xi must be a nonzero element code")
        vars(self).update(ctx=ctx, b=b, xi=xi)

    def bilinear_form(self, x, y):
        """B(x, y) = Tr(sum_i b_i x y^(q^i)), an element of F_q."""
        ctx = self.ctx
        acc = 0
        for i, bi in enumerate(self.b):
            if bi:
                acc = ctx.add(acc, ctx.mul(bi, ctx.mul(x, ctx.frobenius(y, i))))
        return ctx.rel_trace(acc)


class BinaryOp:
    """An F_q-bilinear operation on a field context.

    Evaluation goes through a closure.  Every check in this module
    relies on F_q-bilinearity, so a caller must not wrap anything else.
    ``spec`` is a switch's ``SwitchSpec`` and None on any other op.
    """

    def __init__(self, ctx, fn, spec=None):
        self.ctx = ctx
        self._fn = fn
        self.spec = spec
        self.verified = None
        self.isotopy_kernel = None

    def __call__(self, x, y):
        return self._fn(x, y)


def build_switch(spec):
    """The switched multiplication x*y = xy + Tr(x B(y)) xi, B(Y) = sum_i b_i Y^(q^i)."""
    ctx = spec.ctx
    mul, add, tr = ctx.mul, ctx.add, ctx.tr
    B, xi = LinearizedPoly(ctx, spec.b), spec.xi
    return BinaryOp(ctx, lambda x, y: add(mul(x, y), mul(tr[mul(x, B(y))], xi)), spec)


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

    ``op`` is a switch, x*y = xy + Tr(x B(y)) xi, read through the xi of
    its ``op.spec``; any other op raises ValueError.

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
    if op.spec is None:
        raise ValueError("the zero-divisor walk needs a switch, an op with a SwitchSpec")
    ctx = op.ctx
    M, N, exp, log = ctx.trace_step, ctx.mult_order, ctx.exp, ctx.log
    log_xi = log[op.spec.xi]
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


def _unital_maps(op):
    """(B1, B^(-1), A) of a switch in closed form, each z -> z + Tr(w z) s.

    B(y) = 1*y, R(x) = x*1, A = R^(-1) and B1 = A o B, so B1(x)*1 = 1*x.
    Tr(b_i y^(q^i)) = Tr(b_i^(q^(n-i)) y), so with beta = sum_i b_i and
    beta* = sum_i b_i^(q^(n-i)), B(y) = y + Tr(beta* y) xi and
    R(x) = x + Tr(beta x) xi.  Lemma: if 1 + Tr(w s) != 0, z -> z + Tr(w z) s
    inverts to u -> u - Tr(w u) s/(1 + Tr(w s)), since Tr(w z) lies in F_q
    and so Tr(w u) = Tr(w z)(1 + Tr(w s)).  Hence B^(-1) has w = beta*,
    s = -xi/(1 + Tr(beta* xi)), A has w = beta, s = -xi/(1 + Tr(beta xi)),
    and B1 = A o B, by Tr(beta B(x)) = Tr(beta x) + Tr(beta* x) Tr(beta xi),
    has w = beta* - beta, s = xi/(1 + Tr(beta xi)).  Both denominators are
    nonzero in a presemifield: 1*xi = xi (1 + Tr(beta* xi)) and
    xi*1 = xi (1 + Tr(beta xi)).

    Walks the op when ``op.verified`` is None.  A ValueError on an op that is
    not a verified switch, a ConsistencyError on a zero denominator.
    """
    spec = op.spec
    if spec is None:
        raise ValueError("the side maps are read off a switch, an op with a SwitchSpec")
    if not (verify_presemifield(op) if op.verified is None else op.verified):
        raise ValueError("op is not a presemifield")
    ctx, xi = op.ctx, spec.xi
    add, mul, tr = ctx.add, ctx.mul, ctx.tr
    beta = beta_star = 0
    for i, bi in enumerate(spec.b):
        beta, beta_star = add(beta, bi), add(beta_star, ctx.frobenius(bi, -i))
    left, right = (add(1, tr[mul(w, xi)]) for w in (beta_star, beta))
    if left == 0 or right == 0:
        raise ConsistencyError("verified switch with 1*xi or xi*1 zero", spec.b)

    def rank_one(w, s):
        return lambda z: add(z, mul(tr[mul(w, z)], s))

    return (
        rank_one(ctx.sub(beta_star, beta), ctx.div(xi, right)),
        rank_one(beta_star, ctx.neg(ctx.div(xi, left))),
        rank_one(beta, ctx.neg(ctx.div(xi, right))),
    )


def unitalize(op):
    """Isotopic unital semifield op of a switch: x . y = B^(-1)(B1(x) * y).

    B(x) = 1*x and B1(x)*1 = 1*x, both closed forms from ``_unital_maps``
    (a ValueError on an op that is not a switch or does not verify).  The
    maps are linear and the op bilinear, so the new product is F_p-bilinear
    too: x . 1 = x and 1 . x = x hold everywhere once they do on the F_p-basis.
    """
    ctx = op.ctx
    b1, binv, _ = _unital_maps(op)

    def star(x, y):
        return binv(op(b1(x), y))

    for e in (ctx.p**j for j in range(ctx.m * ctx.n)):
        if star(e, 1) != e or star(1, e) != e:
            raise ConsistencyError("unitalization failed to produce an identity", e)
    return BinaryOp(ctx, star)


# F_p-bases of the left, middle and right nuclei and the center, 1 first, and their sizes
NucleiReport = namedtuple("NucleiReport", "left middle right center sizes")


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
    A is the inverse of x -> x*1 in closed form from ``_unital_maps``, so,
    like ``unitalize``, the test takes a switch and raises ValueError on
    an op that is not one or does not verify.
    """
    ctx = op.ctx
    A = _unital_maps(op)[2]
    basis = ctx.exp[: ctx.n]
    pairs = [(i, j) for i in range(ctx.n) for j in range(i + 1, ctx.n)]

    def defect(v):
        w = [A(op(v, e)) for e in basis]
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


def transport_isotopy_kernel(op, kernel, c):
    """The isotopy kernel of the switch ``op`` with b scaled by c != 0, from
    an F_p-basis of op's, on the switch the caller already holds.

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

    A is read off ``_unital_maps``: a basis of K maps to one of K', at mn products.
    """
    A = _unital_maps(op)[2]
    return [op.ctx.mul(c, A(op(v, c))) for v in kernel]


__all__ = [
    "SwitchSpec",
    "BinaryOp",
    "build_switch",
    "verify_presemifield",
    "find_zero_divisor",
    "unitalize",
    "NucleiReport",
    "nuclei",
    "commutative_criterion",
    "commutative_isotopy_test",
    "isotopy_witness",
    "transport_isotopy_kernel",
]
