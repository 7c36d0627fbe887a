"""Seeded random probe of a larger field: sample, classify, tally.

Draws coefficient tuples, keeps the predicate-passing ones, and prints
a family tally plus the curve-bound summary for a few hits.  Useful for
fields where the exhaustive sweep is out of reach.

    python scripts/random_probe.py --p 3 --n 3 --budget 100000 --seed 1

Bad input exits 2 and a blown budget 3, each with a one-line message on
stderr, as the ``semiswitch`` command does.
"""

import argparse
import collections
import json
import sys

from semiswitch import BudgetExceeded, build_field, curve_verdicts, search
from semiswitch.families import classify


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=100000)
    parser.add_argument("--show", type=int, default=3, help="reports to print")
    args = parser.parse_args()
    try:
        probe(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    return 0


def probe(args):
    ctx = build_field(args.p, args.m, args.n)
    hits = search(ctx, mode="random", seed=args.seed, budget=args.budget)
    print(f"{len(hits)} passing of {args.budget} draws at order {ctx.order}")

    tally = collections.Counter()
    for L in hits:
        tally[tuple(classify(L, deep=False)["families"])] += 1
    for fams, count in sorted(tally.items()):
        print(f"  {'+'.join(fams) or 'unclassified'}: {count}")

    for L in hits[: args.show]:
        rep = classify(L, deep=False)
        if not L.is_monomial():
            rep["hws"] = curve_verdicts(L).to_dict()
        print(json.dumps(rep, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
