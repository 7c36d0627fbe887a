"""Census of passing polynomials over prime fields: monomials or not.

Over F_2 every exhaustive search to date returns only the unit
multiples a_0 X with Tr(a_0) = 1, and above the digit bound
(p-1)(p^2-p+4)/2 on n that is forced.  This script reruns the census
for a range of degrees and prints one line per field.

    python scripts/monomial_census.py --p 2 --max-n 4
    python scripts/monomial_census.py --p 3 --max-n 3 --budget 33554432

Failures exit with the ``semiswitch`` command's codes and one-line
messages on stderr (bad input 2, a blown budget 3), and a reader that
closes the pipe early ends the run quietly with 0.
"""

import argparse
import sys
import time

from semiswitch.cli import exit_status
from semiswitch.digits import monomial_census


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--budget", type=int, default=None, help="candidate cap")
    parser.add_argument("--random", action="store_true", help="sample instead")
    parser.add_argument("--seed", type=int, default=0, help="used when sampling")
    return exit_status(census, parser.parse_args())


def census(args):
    mode = "random" if args.random else "exhaustive"
    for n in range(args.min_n, args.max_n + 1):
        t0 = time.perf_counter()
        rep = monomial_census(args.p, n, budget=args.budget, mode=mode, seed=args.seed)
        dt = time.perf_counter() - t0
        tag = "exhaustive" if rep["exhaustive"] else "sampled"
        status = "all monomial" if rep["all_monomial"] else f"witnesses {rep['witnesses']}"
        bound = f"bound {rep['bound']}" + (" applies" if rep["bound_applies"] else " idle")
        print(
            f"p={args.p} n={n}: {rep['solutions']} solutions ({tag}), "
            f"{status}, {bound}, {dt:.2f}s"
        )


if __name__ == "__main__":
    sys.exit(main())
