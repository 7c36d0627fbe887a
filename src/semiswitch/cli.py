"""Command line front end.

Four subcommands:

* ``search`` - enumerate or sample coefficient tuples, emit the
  predicate-passing ones with their classification.
* ``verify`` - read polynomials from a JSON-lines file and emit
  ``families.classify``'s report per line (both verdicts, and a zero
  divisor or the family and behaviour report), with curve bounds and
  prime-field coefficient identities for a passing one.
* ``codes``  - code dimension and the full-weight word census.
* ``hws``    - curve-bound verdict table for polynomials from a file.

Every output starts with a config record that pins the field (modulus
and generator are always resolved and recorded), so a rerun with the
same arguments reproduces the bytes exactly (``verify`` and ``hws`` refuse
a file whose config pins another field).  An ``--out`` file is replaced
only when the command succeeds.  Every record passes through one writer,
the only code that knows the format: with ``--format csv`` a result
record is the row of its coeffs and then the command's ``_CSV_COLUMNS``,
and every other record stays JSON (``codes`` has no csv).

Start-up: this module loads only ``errors``, ``gf`` and ``linpoly``, and
each command imports what it runs: ``codes`` the census module,
``hws`` the curve bounds, ``search`` ``families`` (with
``presemifield``), and ``verify`` ``families``, ``hws`` and ``digits``
once it reads a row.  Calls go through module attributes, so a patched
``families.classify`` or ``cli.build_field`` is the one that runs.

Exit codes: 0 fine (also when nothing was found, and when the reader
of stdout closes the pipe early), 2 bad input, 3 budget exceeded,
4 internal consistency failure (a witness against something the
library holds to be impossible; the witness is dumped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import partial

from . import linpoly
from .errors import BudgetExceeded, ConsistencyError
from .gf import build_field


def _dump(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# the csv row of a result record: its coeffs, then these keys
_CSV_COLUMNS = {
    "search": ("commutative", "ganley", "families"),
    "verify": ("predicate", "presemifield"),
    "hws": ("ell", "genus", "impossible_nonzero_trace", "impossible_zero_trace"),
}


def _cell(value):
    return "|".join(value) if isinstance(value, list) else str(value)


class _Writer:
    """Writes each record as a JSON line, or a result record as a csv row."""

    def __init__(self, fh, columns):
        self._fh = fh
        self._columns = columns

    def emit(self, record):
        if self._columns is None or record["record"] != "result":
            line = _dump(record)
        else:
            cells = record["coeffs"] + [record.get(key, "") for key in self._columns]
            line = ",".join(map(_cell, cells))
        self._fh.write(line + "\n")


@contextmanager
def _output(args):
    """A _Writer in ``args.format`` on stdout, or on a temp file that replaces ``args.out``.

    A command enters this before any work, so an ``--out`` that cannot be
    written fails at once.  A failed command leaves an existing
    ``args.out`` untouched and removes the temp file, so no half-written
    output survives.
    """
    columns = _CSV_COLUMNS[args.command] if args.format == "csv" else None
    if not args.out:
        yield _Writer(sys.stdout, columns)
        return
    target = os.path.realpath(args.out)
    if os.path.isdir(target):
        raise ValueError(f"--out {args.out!r} is a directory")
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, "x")
    except OSError as e:
        raise ValueError(f"cannot write --out {args.out!r}: {e.strerror}") from None
    try:
        with fh:
            yield _Writer(fh, columns)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _add_field_args(sub):
    sub.add_argument("--p", type=int, required=True, help="characteristic")
    sub.add_argument("--m", type=int, default=1, help="base field degree over F_p")
    sub.add_argument("--n", type=int, required=True, help="extension degree over F_q")
    sub.add_argument(
        "--modulus",
        type=str,
        default=None,
        help="comma separated coefficients c_0,..,c_mn (default: deterministic)",
    )
    sub.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _add_mode_args(sub):
    sub.add_argument("--exhaustive", action="store_true", help="enumerate (default)")
    sub.add_argument("--random", action="store_true", help="sample with --seed")
    sub.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    sub.add_argument("--budget", type=int, default=None, help="candidate budget")


def _ints(option, text):
    """The comma separated integers of ``--option``; the library checks their values."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ValueError(f"--{option} {text!r} is not a list of integers") from None


def _build_ctx(args):
    modulus = None if args.modulus is None else _ints("modulus", args.modulus)
    return build_field(args.p, args.m, args.n, modulus=modulus)


def _mode(args):
    if args.random and args.exhaustive:
        raise ValueError("choose one of --exhaustive / --random")
    return "random" if args.random else "exhaustive"


def _mask(args, n):
    """The coefficient support to search, parsed and sorted; ``linpoly.search`` checks it."""
    return tuple(range(n) if args.mask is None else sorted(_ints("mask", args.mask)))


def _config_record(args, ctx, extra=None):
    rec = {
        "record": "config",
        "command": args.command,
        "field": ctx.to_spec(),
        "format": args.format,
    }
    if extra:
        rec.update(extra)
    return rec


def _read_polys(ctx, path):
    """Polynomials from a JSON-lines file; a malformed record raises ValueError naming its line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except (ValueError, RecursionError) as e:
                # RecursionError: nesting deeper than the decoder's stack
                raise ValueError(f"line {lineno}: not valid JSON ({e})") from None
            if not isinstance(data, dict):
                raise ValueError(f"line {lineno}: expected a JSON object")
            if data.get("record") == "config" and data.get("field") != ctx.to_spec():
                pinned, asked = _dump(data.get("field")), _dump(ctx.to_spec())
                raise ValueError(f"line {lineno}: config pins field {pinned}, not {asked}")
            if data.get("record") in ("config", "summary"):
                continue
            coeffs = data.get("coeffs")
            if not isinstance(coeffs, list):
                raise ValueError(f"line {lineno}: coeffs must be a list, got {json.dumps(coeffs)}")
            try:
                out.append(linpoly.LinearizedPoly(ctx, tuple(coeffs)))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
    return out


def cmd_search(args):
    from . import families

    with _output(args) as writer:
        ctx = _build_ctx(args)
        mode = _mode(args)
        mask = _mask(args, ctx.n)
        # search before the first record, so a budget failure writes nothing
        found = linpoly.search(ctx, mask, mode=mode, seed=args.seed, budget=args.budget)
        writer.emit(
            _config_record(
                args,
                ctx,
                {
                    "mask": list(mask),
                    "mode": mode,
                    "seed": args.seed if mode == "random" else None,
                    "budget": linpoly.search_budget(args.budget),
                },
            )
        )
        orbits = {}  # one field per run
        for L in found:
            writer.emit({"record": "result", **families.classify(L, orbits=orbits)})
        writer.emit({"record": "summary", "found": len(found)})


def _verify_one(L, orbits=None):
    from . import digits, families, hws

    report = {"record": "result", **families.classify(L, orbits=orbits)}
    if not report["predicate"]:
        return report
    report["hws"] = None if L.is_monomial() else hws.curve_verdicts(L)._asdict()
    report["vanishing_sums"] = None
    if L.ctx.m == 1:
        report["vanishing_sums"], witness = digits.vanishing_sums_check(L)
        if witness is not None:
            report["vanishing_sums_witness"] = witness
    return report


def _hws_one(L):
    from . import hws

    report = {"record": "result", "coeffs": list(L.coeffs)}
    if L.is_monomial():
        # a unit multiple has no curve statistic; report what exists
        report["skipped"] = "no higher coefficients"
        report["point_count"] = hws.rational_point_count(L)
    else:
        report.update(hws.curve_verdicts(L)._asdict())
    return report


def _report_rows(args, report):
    """verify and hws: the config record, then ``report(L)`` per polynomial of the infile."""
    with _output(args) as writer:
        ctx = _build_ctx(args)
        polys = _read_polys(ctx, args.infile)
        writer.emit(_config_record(args, ctx, {"infile": args.infile}))
        for L in polys:
            writer.emit(report(L))


def cmd_verify(args):
    orbits = {}  # one field per run
    _report_rows(args, lambda L: _verify_one(L, orbits))


def cmd_codes(args):
    if args.format == "csv":
        raise ValueError(
            "codes writes JSON lines only; --format csv applies to search, verify and hws"
        )
    from . import codes

    with _output(args) as writer:
        ctx = _build_ctx(args)
        mode = _mode(args)
        # the census before the first record, so a budget failure writes nothing
        dim = codes.code_dimension(ctx.q, ctx.n)
        census = codes.full_weight_search(ctx, mode=mode, seed=args.seed, budget=args.budget)
        pinned = {"mode": mode}
        if mode == "random":
            pinned.update(seed=args.seed, budget=linpoly.search_budget(args.budget))
        writer.emit(_config_record(args, ctx, pinned))
        writer.emit({"record": "result", "dimension": dim, **census})


def make_parser():
    parser = argparse.ArgumentParser(
        prog="semiswitch",
        description="search, verify and bound switchings of finite-field multiplication",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="enumerate predicate-passing polynomials")
    _add_field_args(p_search)
    _add_mode_args(p_search)
    p_search.add_argument(
        "--mask", type=str, default=None, help="comma separated coefficient indices"
    )
    p_search.set_defaults(fn=cmd_search)

    p_verify = sub.add_parser("verify", help="full report for polynomials from a file")
    _add_field_args(p_verify)
    p_verify.add_argument("infile", help="JSON lines with a coeffs entry per line")
    p_verify.set_defaults(fn=cmd_verify)

    p_codes = sub.add_parser("codes", help="code dimension and full-weight census")
    _add_field_args(p_codes)
    _add_mode_args(p_codes)
    p_codes.set_defaults(fn=cmd_codes)

    p_hws = sub.add_parser("hws", help="curve-bound verdicts for polynomials")
    _add_field_args(p_hws)
    p_hws.add_argument("infile", help="JSON lines with a coeffs entry per line")
    p_hws.set_defaults(fn=partial(_report_rows, report=_hws_one))
    return parser


def exit_status(fn, *args):
    """Run a command or script body; its exit code as above, a closed pipe included (0)."""
    try:
        fn(*args)
        sys.stdout.flush()  # a reader that closed the pipe is met here, inside the handlers
        return 0
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader went away (say, `| head`): stop quietly, and point
        # stdout at devnull so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConsistencyError as e:
        payload = {"error": "consistency", "message": str(e), "witness": getattr(e, "witness", None)}
        print(json.dumps(payload, default=str), file=sys.stderr)
        return 4
    except (ValueError, OSError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2


def main(argv=None):
    args = make_parser().parse_args(argv)
    return exit_status(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
