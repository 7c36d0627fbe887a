"""Build the flagship instances and print their full reports.

Covers one member of each constructed family: the quadratic-root family
at (q, n) = (3, 2), the norm-condition family at (3, 3), the
commutative instance at (3, 4), and the q = 4 instance that passes
every axiom but is not isotopic to a commutative semifield.  Exit codes
are the ``semiswitch`` command's, and a reader that closes the pipe
early ends the run quietly with 0.
"""

import argparse
import json
import sys

from semiswitch import LinearizedPoly, build_field, curve_verdicts, search
from semiswitch.cli import exit_status
from semiswitch.families import classify, n3_construct, theta_set


def show(title, L, deep=True):
    rep = classify(L, deep=deep)
    if not L.is_monomial():
        rep["hws"] = curve_verdicts(L)._asdict()
    print(f"== {title}")
    print(json.dumps(rep, indent=2, sort_keys=True))
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shallow",
        action="store_true",
        help="skip the switched-product report (zero-divisor walk, nuclei, isotopy test)",
    )
    return exit_status(showcase, not parser.parse_args().shallow)


def showcase(deep):
    ctx32 = build_field(3, 1, 2)
    first = next(L for L in search(ctx32, mode="exhaustive") if not L.is_monomial())
    show("quadratic-root family, (q, n) = (3, 2)", first, deep)

    ctx33 = build_field(3, 1, 3)
    u, v = 1, ctx33.pow(ctx33.generator, 2)
    inst = n3_construct(ctx33, u, v, theta_set(ctx33, u, v)[0])
    show("norm-condition family, (q, n) = (3, 3)", inst.poly, deep)

    ctx34 = build_field(3, 1, 4)
    show("commutative instance, (q, n) = (3, 4)", LinearizedPoly(ctx34, (0, 0, 1, 0)), deep)

    ctx43 = build_field(2, 2, 3, modulus=(1, 1, 0, 1, 1, 0, 1))
    xi = ctx43.generator
    inst = n3_construct(ctx43, ctx43.pow(xi, 5), xi, ctx43.pow(xi, 62))
    show("non-commutative-isotopic instance, (q, n) = (4, 3)", inst.poly, deep)


if __name__ == "__main__":
    sys.exit(main())
