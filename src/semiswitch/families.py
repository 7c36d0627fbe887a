"""Explicit predicate-passing families for extension degrees 2, 3, 4.

Each family comes with its published coefficient criterion:

* degree 2: ``a_1 X^q + a_0 X`` passes iff the companion quadratic
  ``X^2 + Tr(a_0) X + a_1^(q+1)`` has two distinct roots in F_q.
* degree 3: from parameters u, v (nonzero, N(-v/u) != 1), an admissible
  theta, and a scaling a != 0 one builds
  ``L = u^(q^2) v^q (u a^(q^2-1) X^(q^2) + v a^(q-1) X^q + theta X)``.
  ``a_2 X^(q^2) + a_1 X^q + a_0 X`` is a member iff a_1, a_2 != 0,
  ``nu = a_1^(q+1)/a_2`` lies in F_q and ``Tr(a_0) = N(a_1)/nu^2 + nu != 0``;
  so every member has Tr(a_0) != 0.
* degree 4 (q odd): the binomial ``a_1 X^(q^2) + a_0 X`` passes iff
  ``a_1^(q^2+1)`` is a nonzero square of F_q and Tr(a_0) = 0; the
  matching switched product ``xy + Tr(a_1 x y^(q^2) + a0t x y)`` with
  ``Tr(a0t) = -1`` is isotopic to a commutative semifield.

``classify`` owns both verdicts on a polynomial, the trace predicate and
one zero-divisor walk of its canonical switch, and raises
``ConsistencyError`` when they disagree.  The switch is built and walked,
with the nuclei and isotopy kernel, once per scaling orbit of passing
non-monomials, since a scaled switch is an isotope of the first one; the
orbit keeps that switch for its later members' witnesses.  A passing
monomial's switch is an isotope of the field, so its report is closed form
and its walk is one op call.
"""

from __future__ import annotations

from collections import namedtuple

from . import presemifield
from .errors import ConsistencyError, require_code, require_instance
from .gf import _kernel, _span
from .linpoly import LinearizedPoly, orbit_rep, switching_predicate
from .presemifield import (
    SwitchSpec,
    build_switch,
    commutative_criterion,
    commutative_isotopy_test,
    isotopy_witness,
    nuclei,
    transport_isotopy_kernel,
    unitalize,
    verify_presemifield,
)


FamilyInstance = namedtuple("FamilyInstance", "kind params poly")


def _require_codes(ctx, **codes):
    """Each value an element code of ctx, named by its keyword."""
    for name, value in codes.items():
        require_code(value, ctx.order, name)


# ---- degree 2 ----


def n2_criterion(ctx, a1, a0):
    """Two distinct roots of X^2 + Tr(a_0) X + a_1^(q+1) in F_q."""
    if ctx.n != 2:
        raise ValueError("criterion is for n = 2")
    _require_codes(ctx, a1=a1, a0=a0)
    t = ctx.rel_trace(a0)
    c = ctx.pow(a1, ctx.q + 1) if a1 else 0
    roots = 0
    for y in ctx.subfield(1):
        v = ctx.add(ctx.add(ctx.mul(y, y), ctx.mul(t, y)), c)
        if v == 0:
            roots += 1
    return roots == 2


# ---- degree 3 ----


def theta_set(ctx, u, v):
    """Admissible theta values: Tr(u^(q^2) v^q x) = N(u) + N(v).

    With w = u^(q^2) v^q and rhs = N(u) + N(v) in F_q, they are the
    affine hyperplane x0 + ker(x -> Tr(w x)) with x0 = rhs alpha / w for
    alpha the least code of trace 1.  Returned in a fixed order (zero
    first if admissible, then nonzero elements by ascending gamma power);
    always q^2 of them.
    """
    if ctx.n != 3:
        raise ValueError("theta set is for n = 3")
    _require_codes(ctx, u=u, v=v)
    if u == 0 or v == 0:
        raise ValueError("u and v must be nonzero")
    w = ctx.mul(ctx.frobenius(u, 2), ctx.frobenius(v, 1))
    rhs = ctx.add(ctx.rel_norm(u), ctx.rel_norm(v))
    x0 = ctx.div(ctx.mul(rhs, ctx.trace_one), w)
    kernel = _kernel(ctx, lambda x: (ctx.rel_trace(ctx.mul(w, x)),))
    out = sorted(
        (ctx.add(x0, k) for k in _span(ctx, kernel)),
        key=lambda x: -1 if x == 0 else ctx.log[x],
    )
    if len(out) != ctx.q**2:
        raise ConsistencyError("theta set size is not q^2", witness=len(out))
    return out


def n3_construct(ctx, u, v, theta, a=1):
    """Build the degree-3 family member for (u, v, theta, a)."""
    if ctx.n != 3:
        raise ValueError("construction is for n = 3")
    _require_codes(ctx, u=u, v=v, theta=theta, a=a)
    if u == 0 or v == 0 or a == 0:
        raise ValueError("u, v, a must be nonzero")
    ratio = ctx.neg(ctx.div(v, u))
    if ctx.rel_norm(ratio) == 1:
        raise ValueError("N(-v/u) = 1 is excluded")
    w = ctx.mul(ctx.frobenius(u, 2), ctx.frobenius(v, 1))
    rhs = ctx.add(ctx.rel_norm(u), ctx.rel_norm(v))
    if ctx.rel_trace(ctx.mul(w, theta)) != rhs:
        raise ValueError("theta is not admissible for (u, v)")
    q = ctx.q
    c2 = ctx.mul(w, ctx.mul(u, ctx.pow(a, q * q - 1)))
    c1 = ctx.mul(w, ctx.mul(v, ctx.pow(a, q - 1)))
    c0 = ctx.mul(w, theta)
    L = LinearizedPoly(ctx, (c0, c1, c2))
    if not switching_predicate(L):
        raise ConsistencyError(
            "degree-3 construction produced a failing polynomial",
            witness={"u": u, "v": v, "theta": theta, "a": a},
        )
    return FamilyInstance("n3", {"u": u, "v": v, "theta": theta, "a": a}, L)


def matches_n3(L):
    """Recover (u, v, theta, a) giving L the degree-3 family shape, or None.

    With w = u^(q^2) v^q the shape equations a_1 = w v t, a_2 = w u t^(q+1),
    N(t) = 1 (then t = a^(q-1)) reduce, as w^q = u v^(q^2), to N(v) = nu :=
    a_1^(q+1)/a_2 and N(u) = mu := N(a_1)/nu^2.  theta = a_0/w is admissible
    iff Tr(a_0) = mu + nu, and N(-1) = -1 turns the exclusion N(-v/u) != 1
    into mu + nu != 0, so every member has Tr(a_0) != 0.  u and v are the
    smallest gamma powers of norm mu and nu: the first pair in gamma order.
    """
    ctx = require_instance(L, LinearizedPoly, "L").ctx
    if ctx.n != 3:
        return None
    c0, c1, c2 = L.coeffs
    if c1 == 0 or c2 == 0:
        return None
    q, M = ctx.q, ctx.trace_step
    nu = ctx.div(ctx.pow(c1, q + 1), c2)
    if not ctx.in_subfield(nu, 1):
        return None
    mu = ctx.div(ctx.rel_norm(c1), ctx.mul(nu, nu))
    if ctx.rel_trace(c0) != ctx.add(mu, nu) or ctx.rel_trace(c0) == 0:
        return None
    u, v = ctx.exp[ctx.log[mu] // M], ctx.exp[ctx.log[nu] // M]
    w = ctx.mul(ctx.frobenius(u, 2), ctx.frobenius(v, 1))
    t = ctx.div(c1, ctx.mul(w, v))
    # norm-1 elements are exactly the (q-1)-th powers, so a^(q-1) = t has a root
    a = ctx.exp[ctx.log[t] // (q - 1)]
    return u, v, ctx.div(c0, w), a


# ---- degree 4 ----


def is_square_in_base(ctx, x):
    """Whether x is a nonzero square of the base field F_q.

    For q odd these are the even powers of F_q's generator; at p = 2
    squaring permutes F_q, so every nonzero x of F_q is one (True).
    """
    _require_codes(ctx, x=x)
    if x == 0 or not ctx.in_subfield(x, 1):
        return False
    if ctx.p == 2:
        return True
    k = ctx.log[x]
    return (k // ctx.trace_step) % 2 == 0


def n4_criterion(ctx, a1, a0):
    """a_1^(q^2+1) a nonzero square of F_q and Tr(a_0) = 0 (q odd)."""
    if ctx.n != 4:
        raise ValueError("criterion is for n = 4")
    if ctx.p == 2:
        raise ValueError("criterion needs odd characteristic")
    _require_codes(ctx, a1=a1, a0=a0)
    if a1 == 0:
        raise ValueError("a_1 = 0 is the monomial case, not covered here")
    s = ctx.pow(a1, ctx.q**2 + 1)
    return is_square_in_base(ctx, s) and ctx.rel_trace(a0) == 0


def n4_commutative_op(ctx, a1, a0t):
    """Verified switched product xy + Tr(a_1 x y^(q^2) + a0t x y).

    Preconditions: q odd, a_1^(q^2+1) a nonzero square of F_q, and
    Tr(a0t) = -1.
    """
    if ctx.n != 4:
        raise ValueError("construction is for n = 4")
    if ctx.p == 2:
        raise ValueError("construction needs odd characteristic")
    _require_codes(ctx, a1=a1, a0t=a0t)
    if a1 == 0 or not is_square_in_base(ctx, ctx.pow(a1, ctx.q**2 + 1)):
        raise ValueError("a_1^(q^2+1) must be a nonzero square of F_q")
    if ctx.rel_trace(a0t) != ctx.neg(1):
        raise ValueError("Tr(a0t) must be -1")
    spec = SwitchSpec(ctx, (a0t, 0, a1, 0), 1)
    op = build_switch(spec)
    if not verify_presemifield(op):
        raise ConsistencyError(
            "degree-4 commutative construction failed verification",
            witness={"a1": a1, "a0t": a0t},
        )
    return op


# ---- classification ----


def switch_spec_for(L):
    """Canonical switching spec of a predicate-passing L.

    b agrees with the coefficients of L except b_0 = a_0 - alpha, where
    alpha is the smallest element code with Tr(alpha) = 1.
    """
    ctx = require_instance(L, LinearizedPoly, "L").ctx
    b = (ctx.sub(L.coeffs[0], ctx.trace_one),) + L.coeffs[1:]
    return SwitchSpec(ctx, b, 1)


# what ``classify`` keeps of the first member met of a scaling orbit: its
# scaling k to the rep, its switch (which carries its spec), its isotopy
# kernel basis and the verdicts that hold on the whole orbit
_Orbit = namedtuple("_Orbit", "k op kernel ganley nuclei")


def _families(L):
    """The families whose criterion a predicate-passing L meets."""
    ctx, c = L.ctx, L.coeffs
    families = ["monomial"] if L.is_monomial() else []
    if ctx.n == 2 and n2_criterion(ctx, c[1], c[0]):
        families.append("n2")
    if ctx.n == 3 and matches_n3(L):
        families.append("n3")
    if ctx.n == 4 and ctx.p != 2 and c[2] and not (c[1] or c[3]) and n4_criterion(ctx, c[2], c[0]):
        families.append("n4")
    return families


def classify(L, deep=True, orbits=None):
    """Both verdicts on L, and the family and behaviour report of a passing L.

    deep=False stops at the trace predicate and a passing L's families,
    building no op.  deep=True adds the presemifield verdict: a failing L
    is reported with the zero divisor of a walk of its canonical switch,
    a passing one with its spec, its commutativity (the coefficient test
    ``commutative_criterion``), the commutative-isotopy verdict and
    witness and the nuclei sizes of its switched product.  The two
    verdicts come from independent computations: the walk evaluates the
    op closure on the line F_q^* xi/x of each orbit of x
    (``presemifield.find_zero_divisor``), the predicate reads the
    ``linpoly.transcript`` kernel of L.  A walk that disagrees with the
    predicate raises ConsistencyError.

    A passing monomial's switch x*y = T(xy), T(z) = z + Tr(b_0 z) xi
    bijective, is an isotope of the field: nuclei [q^n]*4, ``ganley`` true
    and witness 1 (the isotopy kernel is the whole field).  Its walk is one
    op call, as x*(xi/x) = xi (1 + Tr(b_0 xi)) for every unit x.

    ``orbits`` is a dict the caller keeps for one field, fresh per call
    when None.  Scaling L by c != 0 keeps the predicate and makes the
    switched product the isotope (x/c) * (cy), so the presemifield verdict,
    the nuclei sizes and ``ganley`` hold on the scaling orbit
    (``linpoly.orbit_rep``).  Only its first passing non-monomial member
    met builds and walks a switch, with the check, and runs the
    unitalization, nuclei and isotopy kernel.  Later members copy those
    verdicts and read their witness off the kernel transported by
    ``presemifield.transport_isotopy_kernel`` on the first member's
    switch, so they build none.
    """
    predicate = switching_predicate(L)
    report = {"coeffs": list(L.coeffs), "predicate": predicate}
    if predicate:
        report["families"] = _families(L)
    if not deep:
        return report
    spec = switch_spec_for(L)
    if predicate and L.is_monomial():
        if build_switch(spec)(1, spec.xi) == 0:
            raise ConsistencyError("predicate True, zero-divisor walk False", L.coeffs)
        ganley, witness, sizes = True, 1, (L.ctx.order,) * 4
    else:
        rep, k = orbit_rep(L.ctx, L.coeffs) if predicate else (None, 0)
        orbits = {} if orbits is None else orbits
        orbit = orbits.get(rep)  # a failing L's key, None, is never stored
        if orbit is None:
            op = build_switch(spec)
            zero_divisor = presemifield.find_zero_divisor(op)
            if (walk := zero_divisor is None) != predicate:
                msg = f"predicate {predicate}, zero-divisor walk {walk}"
                raise ConsistencyError(msg, L.coeffs)
            if not predicate:
                report.update(presemifield=False, zero_divisor=list(zero_divisor))
                return report
            unital = unitalize(op)
            iso, witness = commutative_isotopy_test(op)
            sizes = nuclei(unital).sizes
            orbit = orbits[rep] = _Orbit(k, op, tuple(op.isotopy_kernel), iso, sizes)
        else:
            # L is the first member scaled by c = gamma^(orbit.k - k)
            c = L.ctx.exp[(orbit.k - k) % L.ctx.mult_order]
            kernel = transport_isotopy_kernel(orbit.op, orbit.kernel, c)
            witness = isotopy_witness(L.ctx, kernel)[1]
        ganley, sizes = orbit.ganley, orbit.nuclei
    report.update(
        spec={"b": list(spec.b), "xi": spec.xi},
        presemifield=True,
        commutative=commutative_criterion(spec),
        ganley=ganley,
        ganley_witness=witness,
        nuclei=list(sizes),
    )
    return report


__all__ = [
    "FamilyInstance",
    "n2_criterion",
    "theta_set",
    "n3_construct",
    "matches_n3",
    "is_square_in_base",
    "n4_criterion",
    "n4_commutative_op",
    "switch_spec_for",
    "classify",
]
