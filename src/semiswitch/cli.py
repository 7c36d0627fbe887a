"""Command line front end.

Four subcommands:

* ``search`` - enumerate or sample coefficient tuples, emit the
  predicate-passing ones with their classification.
* ``verify`` - read polynomials from a JSON-lines file and emit a full
  report per line (predicate, presemifield axioms, commutativity,
  commutative-isotopy witness, nuclei, curve bounds, prime-field
  coefficient identities).
* ``codes``  - code dimension and the full-weight word census.
* ``hws``    - curve-bound verdict table for polynomials from a file.

Every output starts with a config record that pins the field (modulus
and generator are always resolved and recorded), so a rerun with the
same arguments reproduces the bytes exactly.  Budgets can also be set
through SEMISWITCH_SEARCH_BUDGET / SEMISWITCH_FIELD_CAP.  An ``--out``
file is replaced only when the command succeeds.

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

from . import codes as codes_mod
from . import digits, families, hws, linpoly, presemifield
from .errors import BudgetExceeded, ConsistencyError
from .gf import build_field


def _dump(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class _Writer:
    def __init__(self, fh):
        self._fh = fh

    def emit(self, record):
        self._fh.write(_dump(record) + "\n")

    def emit_csv_line(self, line):
        self._fh.write(line + "\n")


@contextmanager
def _output(path):
    """A _Writer on stdout, or on a temp file that replaces ``path`` on success.

    A failed command leaves an existing ``path`` untouched and removes
    the temp file, so no half-written output survives.
    """
    if not path:
        yield _Writer(sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, inside main's handlers
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            yield _Writer(fh)
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


def _build_ctx(args):
    modulus = None
    if args.modulus:
        modulus = [int(c) for c in args.modulus.split(",")]
    return build_field(args.p, args.m, args.n, modulus=modulus)


def _mode(args):
    if args.random and args.exhaustive:
        raise ValueError("choose one of --exhaustive / --random")
    return "random" if args.random else "exhaustive"


def _mask(args, n):
    """The coefficient support to search, sorted and without repeats."""
    if args.mask is None:
        return tuple(range(n))
    return tuple(sorted({int(i) for i in args.mask.split(",")}))


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
    """Polynomials from a JSON-lines file; a malformed record raises ValueError."""
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
            if data.get("record") in ("config", "summary"):
                continue
            coeffs = data.get("coeffs")
            # type() rather than isinstance(): bools are ints too
            if not (
                isinstance(coeffs, list)
                and len(coeffs) == ctx.n
                and all(type(c) is int and 0 <= c < ctx.order for c in coeffs)
            ):
                raise ValueError(
                    f"line {lineno}: coeffs must be a list of {ctx.n} ints "
                    f"in 0..{ctx.order - 1}, got {json.dumps(coeffs)}"
                )
            out.append(linpoly.LinearizedPoly(ctx, tuple(coeffs)))
    return out


def cmd_search(args):
    ctx = _build_ctx(args)
    mode = _mode(args)
    mask = _mask(args, ctx.n)
    # search first, so a budget failure writes nothing
    found = linpoly.search(ctx, mask, mode=mode, seed=args.seed, budget=args.budget)
    with _output(args.out) as writer:
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
        for L in found:
            report = families.classify(L)
            report["record"] = "result"
            if args.format == "csv":
                writer.emit_csv_line(
                    ",".join(str(c) for c in L.coeffs)
                    + f',{report["commutative"]},{report["ganley"]},'
                    + "|".join(report["families"])
                )
            else:
                writer.emit(report)
        writer.emit({"record": "summary", "found": len(found)})
    return 0


def _verify_one(L):
    ctx = L.ctx
    report = {"record": "result", "coeffs": list(L.coeffs)}
    if not linpoly.switching_predicate(L):
        op = presemifield.build_switch(families.switch_spec_for(L))
        witness = presemifield.find_zero_divisor(op)
        if witness is None:
            raise ConsistencyError(
                "predicate-failing L produced a presemifield", witness=L.coeffs
            )
        report.update(predicate=False, presemifield=False, zero_divisor=list(witness))
        return report
    deep = families.classify(L)
    deep.pop("record", None)
    report.update(deep)
    report["predicate"] = True
    if any(L.coeffs[i] for i in range(1, ctx.n)):
        report["hws"] = hws.curve_verdicts(L).to_dict()
    else:
        report["hws"] = None
    if ctx.m == 1:
        ok, witness = digits.vanishing_sums_check(L)
        report["vanishing_sums"] = ok
        if not ok:
            report["vanishing_sums_witness"] = {
                "i": list(witness["i"]),
                "t": list(witness["t"]),
            }
    else:
        report["vanishing_sums"] = None
    return report


def cmd_verify(args):
    ctx = _build_ctx(args)
    polys = _read_polys(ctx, args.infile)
    with _output(args.out) as writer:
        writer.emit(_config_record(args, ctx, {"infile": args.infile}))
        for L in polys:
            report = _verify_one(L)
            if args.format == "csv":
                writer.emit_csv_line(
                    ",".join(str(c) for c in L.coeffs)
                    + f',{report.get("predicate")},{report.get("presemifield")}'
                )
            else:
                writer.emit(report)
    return 0


def cmd_codes(args):
    if args.format == "csv":
        raise ValueError(
            "codes writes JSON lines only; --format csv applies to search, verify and hws"
        )
    ctx = _build_ctx(args)
    mode = _mode(args)
    # the census first, so a budget failure writes nothing
    dim = codes_mod.code_dimension(ctx.q, ctx.n)
    census = codes_mod.full_weight_search(ctx, mode=mode, seed=args.seed, budget=args.budget)
    with _output(args.out) as writer:
        pinned = {"mode": mode}
        if mode == "random":
            pinned.update(seed=args.seed, budget=linpoly.search_budget(args.budget))
        writer.emit(_config_record(args, ctx, pinned))
        record = {"record": "result", "dimension": dim}
        record.update(census)
        writer.emit(record)
    return 0


def cmd_hws(args):
    ctx = _build_ctx(args)
    polys = _read_polys(ctx, args.infile)
    with _output(args.out) as writer:
        writer.emit(_config_record(args, ctx, {"infile": args.infile}))
        for L in polys:
            rec = {"record": "result", "coeffs": list(L.coeffs)}
            if not any(L.coeffs[1:]):
                # a unit multiple has no curve statistic; report what exists
                rec["skipped"] = "no higher coefficients"
                rec["point_count"] = hws.rational_point_count(L)
            else:
                rec.update(hws.curve_verdicts(L).to_dict())
            if args.format == "csv":
                writer.emit_csv_line(
                    ",".join(str(c) for c in L.coeffs)
                    + f',{rec.get("ell", "")},{rec.get("genus", "")},'
                    + f'{rec.get("impossible_nonzero_trace", "")},{rec.get("impossible_zero_trace", "")}'
                )
            else:
                writer.emit(rec)
    return 0


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
    p_hws.set_defaults(fn=cmd_hws)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
