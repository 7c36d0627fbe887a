"""Seeded random probe of a larger field: sample, classify, tally.

Draws coefficient tuples, keeps the predicate-passing ones, and prints
a family tally plus the curve-bound summary for a few hits.  Useful for
fields where the exhaustive sweep is out of reach.

    python scripts/random_probe.py --p 3 --n 3 --budget 100000 --seed 1

Failures exit with the ``semiswitch`` command's codes and one-line
messages on stderr (bad input 2, a blown budget 3), and a reader that
closes the pipe early ends the run quietly with 0.
"""

import argparse
import collections
import json
import sys

from semiswitch import build_field, curve_verdicts, search
from semiswitch.cli import exit_status
from semiswitch.families import classify


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=100000)
    parser.add_argument("--show", type=int, default=3, help="reports to print")
    return exit_status(probe, parser.parse_args())


def probe(args):
    ctx = build_field(args.p, args.m, args.n)
    hits = search(ctx, mode="random", seed=args.seed, budget=args.budget)
    print(f"{len(hits)} passing of {args.budget} draws at order {ctx.order}")

    reports = [classify(L, deep=False) for L in hits]
    tally = collections.Counter(tuple(rep["families"]) for rep in reports)
    for fams, count in sorted(tally.items()):
        print(f"  {'+'.join(fams) or 'unclassified'}: {count}")

    for L, rep in zip(hits[: args.show], reports):
        if not L.is_monomial():
            rep["hws"] = curve_verdicts(L)._asdict()
        print(json.dumps(rep, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
