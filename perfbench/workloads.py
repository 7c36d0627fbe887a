"""Seeded workloads of the semiswitch benchmark and the checks on their outputs.

A workload is a list of CLI invocations run back to back (one "pass").
Every input the program receives is derived from the workload seed
before any timing starts: random-mode seeds for ``search``/``codes``
and the JSON-lines files for ``verify``/``hws``.  The same seed gives
the same argument lists and the same file bytes.

Each invocation carries a check that judges its stdout through a route
independent of the one under test (for instance, the axiom check of a
switched product against the trace predicate that found it).  Checks
build field contexts in the benchmark's own process, outside the timed
region.

Item counts come from the benchmark's own arguments, never from the
program's output: draws requested in random mode (repeated draws are
skipped by the program but still counted here), order**|support| in
exhaustive mode, and input rows for ``verify``/``hws``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WHY = {
    "search": "the paper's main loop: random-mode search with every hit deep-classified, "
    "so presemifield scans dominate while linpoly.search and gf do little",
    "census": "the code census: the search kernel does nearly all the work on both the "
    "numpy bitmask path (q = 2) and the pure-Python path (q = 4, 5); presemifield is bypassed",
    "curve": "hws point counts on large fields: field construction and whole-field scans "
    "dominate, with XOR and digit-loop addition; search and presemifield are bypassed",
    "verify": "full reports on mostly failing rows: early-exit axiom checks and the "
    "quadratic zero-divisor scan, beside classify/hws/digits on passing n = 4 binomials",
}

WORKLOADS = tuple(WHY)


@dataclass
class Invocation:
    """One CLI run: its arguments, its zero-work twin and its output check."""

    argv: list
    setup_argv: list
    items: int
    shape: tuple  # (p, m, n)
    check: Callable[[bytes], list] = field(repr=False)


@dataclass
class Plan:
    name: str
    invocations: list
    files: dict  # relative path -> bytes written before timing

    @property
    def items(self):
        return sum(inv.items for inv in self.invocations)

    def record(self):
        """What was run and why, for the run record."""
        return {
            "why": WHY[self.name],
            "items": self.items,
            "invocations": [
                {"argv": inv.argv, "setup_argv": inv.setup_argv, "items": inv.items,
                 "shape": list(inv.shape)}
                for inv in self.invocations
            ],
        }


class Fields:
    """Field contexts built in the benchmark process, once per shape."""

    def __init__(self):
        self._ctx = {}

    def get(self, p, m, n):
        from semiswitch.gf import build_field

        key = (p, m, n)
        if key not in self._ctx:
            self._ctx[key] = build_field(p, m, n)
        return self._ctx[key]


def _field_args(p, m, n):
    args = ["--p", str(p), "--n", str(n)]
    return args if m == 1 else args[:2] + ["--m", str(m)] + args[2:]


def parse_records(stdout):
    """JSON-lines records of one output, in order."""
    return [json.loads(line) for line in stdout.decode().splitlines() if line.strip()]


def config_problems(records, ctx, command):
    """The config record must come first and pin the requested field."""
    if not records or records[0].get("record") != "config":
        return ["output does not start with a config record"]
    cfg = records[0]
    problems = []
    if cfg.get("command") != command:
        problems.append(f"config command {cfg.get('command')!r} != {command!r}")
    if cfg.get("field") != ctx.to_spec():
        problems.append(f"config field {cfg.get('field')} != {ctx.to_spec()}")
    return problems


def _guarded(fn):
    """Turn any exception raised while judging an output into a problem."""

    def check(stdout):
        try:
            return fn(stdout)
        except Exception as e:  # a malformed output must count, not crash the run
            return [f"unreadable output: {type(e).__name__}: {e}"]

    return check


def setup_check(fields, shape, command):
    return _guarded(lambda out: config_problems(parse_records(out), fields.get(*shape), command))


# ---- search ----


def _search_check(fields, shape, mask):
    ctx = fields.get(*shape)

    def check(out):
        recs = parse_records(out)
        problems = config_problems(recs, ctx, "search")
        rows = [r for r in recs if r.get("record") == "result"]
        summary = recs[-1] if recs else {}
        if summary.get("record") != "summary":
            problems.append("no summary record at the end")
        elif summary.get("found") != len(rows):
            problems.append(f"summary found={summary.get('found')} but {len(rows)} result rows")
        for r in rows:
            if r.get("presemifield") is not True:
                problems.append(f"row {r.get('coeffs')} does not report presemifield: true")
            if any(c and i not in mask for i, c in enumerate(r["coeffs"])):
                problems.append(f"row {r['coeffs']} has support outside mask {mask}")
        return problems

    return _guarded(check)


def plan_search(seed, smoke, fields, workdir):
    rng = random.Random(f"search:{seed}")
    # Budgets are three times the candidate space, so about 95% of the
    # solution set is drawn whatever the seed: the hit count, and with it
    # the classify work, barely moves between seeds.
    shapes = [((3, 1, 2), (0, 1)), ((2, 2, 2), (0, 1))] if smoke else [
        ((3, 1, 3), (0, 1, 2)),  # n = 3, full support: the degree-3 family
        ((2, 2, 2), (0, 1)),  # q = 4 over F_2: the degree-2 family
    ]
    invocations = []
    for shape, mask in shapes:
        p, m, n = shape
        budget = 3 * (p ** (m * n)) ** len(mask)
        base = ["search", *_field_args(*shape)]
        if len(mask) < n:
            base += ["--mask", ",".join(map(str, mask))]
        base += ["--random", "--seed", str(rng.getrandbits(32))]
        invocations.append(Invocation(
            argv=base + ["--budget", str(budget)],
            setup_argv=base + ["--budget", "0"],
            items=budget,
            shape=shape,
            check=_search_check(fields, shape, mask),
        ))
    return Plan("search", invocations, {})


# ---- census ----


def _census_check(fields, shape, exhaustive):
    from semiswitch.families import switch_spec_for
    from semiswitch.linpoly import LinearizedPoly
    from semiswitch.presemifield import build_switch, verify_presemifield

    ctx = fields.get(*shape)
    # constant full-weight words are the a_0 X with Tr(a_0) != 0
    monomials = (ctx.q - 1) * ctx.q ** (ctx.n - 1)

    def check(out):
        recs = parse_records(out)
        problems = config_problems(recs, ctx, "codes")
        results = [r for r in recs if r.get("record") == "result"]
        if len(results) != 1:
            return problems + [f"{len(results)} result records, expected 1"]
        res = results[0]
        const, nonconst = res["full_weight_constant"], res["full_weight_nonconstant"]
        if exhaustive and const != monomials:
            problems.append(f"full_weight_constant={const}, expected {monomials}")
        if not exhaustive and not 0 <= const <= monomials:
            problems.append(f"full_weight_constant={const} outside 0..{monomials}")
        witnesses = res["nonconstant_witnesses"]
        if len(witnesses) != min(5, nonconst):
            problems.append(f"{len(witnesses)} witnesses for {nonconst} nonconstant words")
        for coeffs in witnesses:
            L = LinearizedPoly(ctx, tuple(coeffs))
            if L.is_monomial():
                problems.append(f"witness {coeffs} is constant")
            elif not verify_presemifield(build_switch(switch_spec_for(L))):
                problems.append(f"witness {coeffs} does not give a presemifield")
        return problems

    return _guarded(check)


def plan_census(seed, smoke, fields, workdir):
    rng = random.Random(f"census:{seed}")
    # (shape, draws): None means exhaustive over order**n candidates
    cases = [((2, 1, 3), None), ((2, 2, 2), None), ((3, 1, 3), 3000)] if smoke else [
        ((2, 1, 5), None),  # q = 2: numpy bitmask path, 2^25 candidates
        ((2, 2, 3), None),  # q = 4: pure-Python path, 2^18 candidates
        ((5, 1, 3), 50_000),  # odd q: pure-Python path, seeded draws
    ]
    invocations = []
    for shape, draws in cases:
        p, m, n = shape
        sub_seed = str(rng.getrandbits(32))
        base = ["codes", *_field_args(*shape)]
        setup = base + ["--random", "--seed", sub_seed, "--budget", "0"]
        if draws is None:
            items = (p ** (m * n)) ** n
            argv = base + ["--exhaustive", "--budget", str(items)]
        else:
            items = draws
            argv = base + ["--random", "--seed", sub_seed, "--budget", str(draws)]
        invocations.append(Invocation(
            argv=argv,
            setup_argv=setup,
            items=items,
            shape=shape,
            check=_census_check(fields, shape, draws is None),
        ))
    return Plan("census", invocations, {})


# ---- curve ----


def _rows_file(rows):
    return "".join(json.dumps({"coeffs": list(r)}) + "\n" for r in rows).encode()


def _row_echo_problems(recs, rows):
    results = [r for r in recs if r.get("record") == "result"]
    if [r.get("coeffs") for r in results] != [list(r) for r in rows]:
        return results, [f"{len(results)} result rows do not echo the {len(rows)} input rows"]
    return results, []


def _curve_check(fields, shape, rows, passes):
    ctx = fields.get(*shape)
    q, n = ctx.q, ctx.n

    def check(out):
        recs = parse_records(out)
        problems = config_problems(recs, ctx, "hws")
        results, echo = _row_echo_problems(recs, rows)
        if echo:
            return problems + echo
        if not any(passes):
            problems.append("no predicate-passing row, so the point-count check is vacuous")
        for rec, row, ok in zip(results, rows, passes):
            count = rec["point_count"]
            k, r = divmod(count - 1, q)
            if r or not 0 <= k <= q**n:
                problems.append(f"row {row}: point_count {count} is not 1 + q*k, 0 <= k <= q^n")
            if not ok:
                continue
            trace_zero = ctx.rel_trace(row[0]) == 0
            if count != (q + 1 if trace_zero else 1):
                problems.append(f"passing row {row}: point_count {count}")
            verdict = "impossible_zero_trace" if trace_zero else "impossible_nonzero_trace"
            if rec.get(verdict):
                problems.append(f"passing row {row} declared {verdict}")
        return problems

    return _guarded(check)


def plan_curve(seed, smoke, fields, workdir):
    from semiswitch.linpoly import LinearizedPoly, switching_predicate

    rng = random.Random(f"curve:{seed}")
    # (shape, supports of the random rows).  The seed draws the values on a
    # fixed support, so the scans cost the same for every seed.
    cases = [((2, 1, 5), [(0, 1, 3)]), ((3, 1, 3), [(0, 1, 2)])] if smoke else [
        ((2, 1, 16), [(0, 3, 11)]),
        ((5, 1, 7), [(0, 2, 5)]),
    ]
    invocations, files = [], {}
    empty = f"{workdir}/empty.jsonl"
    files[empty] = b""
    for shape, supports in cases:
        ctx = fields.get(*shape)
        n, order = ctx.n, ctx.order
        unit = 0
        while ctx.rel_trace(unit) == 0:
            unit = rng.randrange(1, order)
        rows = [(unit,) + (0,) * (n - 1)]
        for support in supports:
            row = [0] * n
            for i in support:
                row[i] = rng.randrange(1, order)
            rows.append(tuple(row))
        rng.shuffle(rows)
        passes = [switching_predicate(LinearizedPoly(ctx, r)) for r in rows]
        path = f"{workdir}/hws_{ctx.p}_{ctx.m}_{n}.jsonl"
        files[path] = _rows_file(rows)
        base = ["hws", *_field_args(*shape)]
        invocations.append(Invocation(
            argv=base + [path],
            setup_argv=base + [empty],
            items=len(rows),
            shape=shape,
            check=_curve_check(fields, shape, rows, passes),
        ))
    return Plan("curve", invocations, files)


# ---- verify ----


def _verify_check(fields, shape, rows, passes):
    from semiswitch.families import switch_spec_for
    from semiswitch.linpoly import LinearizedPoly

    ctx = fields.get(*shape)

    def check(out):
        recs = parse_records(out)
        problems = config_problems(recs, ctx, "verify")
        results, echo = _row_echo_problems(recs, rows)
        if echo:
            return problems + echo
        for rec, row, ok in zip(results, rows, passes):
            if ok:
                if rec.get("predicate") is not True or rec.get("presemifield") is not True:
                    problems.append(f"passing row {row} not reported as a presemifield")
                continue
            if rec.get("predicate") is not False or rec.get("presemifield") is not False:
                problems.append(f"failing row {row} reported as passing")
                continue
            x, y = rec["zero_divisor"]
            # x*y = xy + B(x, y) xi, evaluated from the spec, not the op closure
            spec = switch_spec_for(LinearizedPoly(ctx, row))
            prod = ctx.add(ctx.mul(x, y), ctx.mul(spec.bilinear_form(x, y), spec.xi))
            if x == 0 or y == 0 or prod != 0:
                problems.append(f"row {row}: ({x}, {y}) is not a zero divisor")
        return problems

    return _guarded(check)


def plan_verify(seed, smoke, fields, workdir):
    from semiswitch.linpoly import LinearizedPoly, switching_predicate

    rng = random.Random(f"verify:{seed}")
    # F_81 rather than a larger field: the zero-divisor scan's cost is
    # geometric in the witness position, so only many cheap rows keep the
    # pass's cost steady from seed to seed.
    n_pass, n_fail = (2, 3) if smoke else (40, 100)
    shape = (3, 1, 4)
    ctx = fields.get(*shape)
    order = ctx.order

    def draw(make, want):
        for _ in range(10_000):
            row = make()
            if switching_predicate(LinearizedPoly(ctx, row)) == want:
                return row
        raise RuntimeError(f"no row with predicate {want} in 10000 draws")

    binomial = lambda: (rng.randrange(order), 0, rng.randrange(1, order), 0)  # noqa: E731
    anything = lambda: tuple(rng.randrange(order) for _ in range(ctx.n))  # noqa: E731
    rows = [draw(binomial, True) for _ in range(n_pass)]
    rows += [draw(anything, False) for _ in range(n_fail)]
    rng.shuffle(rows)
    passes = [switching_predicate(LinearizedPoly(ctx, r)) for r in rows]
    path = f"{workdir}/verify.jsonl"
    empty = f"{workdir}/empty.jsonl"
    base = ["verify", *_field_args(*shape)]
    inv = Invocation(
        argv=base + [path],
        setup_argv=base + [empty],
        items=len(rows),
        shape=shape,
        check=_verify_check(fields, shape, rows, passes),
    )
    return Plan("verify", [inv], {path: _rows_file(rows), empty: b""})


PLANNERS = {
    "search": plan_search,
    "census": plan_census,
    "curve": plan_curve,
    "verify": plan_verify,
}


def make_plan(name, seed, smoke, fields, workdir):
    """Generate the inputs of one workload; ``workdir`` is relative to the repo root."""
    return PLANNERS[name](seed, smoke, fields, workdir)


def write_files(plan, root):
    for rel, data in plan.files.items():
        path = Path(root) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
