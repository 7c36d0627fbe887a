"""Benchmark of the semiswitch command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``search``, ``census``, ``curve``,
``verify``.  Each is a fixed list of ``semiswitch`` invocations, a
"pass", whose inputs are generated from ``--seed`` before timing.
Passes run as sequential subprocesses (closed loop, one client) until
``--seconds`` have gone by; every output is checked, and repeats must
be byte-identical to the first.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``      median wall time of one pass (sample count in the table),
* ``items_per_s`` items of one pass / ``wall_s``,
* ``setup_s``     median over at least three (and at least 3 s of)
  passes of the same invocations with zero work (``--budget 0``, empty
  input files): interpreter start, import, field construction, config
  record,
* ``peak_rss_mb`` largest child max-RSS in a pass (from ``os.wait4``),
  median over passes.

Times are calibrated to the host's speed.  On shared virtual machines
the CPU runs up to a third faster or slower for seconds to minutes at a
time, whatever runs on it.  So a fixed pure-Python loop (the probe) is
timed before and after every sample, in this process, which is pinned
with its children to one CPU, and each sample is scaled by
``CAL_REF_S`` / (mean of its two probes): the seconds it would take on
a host where the probe takes ``CAL_REF_S``.  The table also prints the
raw wall-clock medians (``wall_raw_s``, ``setup_raw_s``); the run
record keeps every raw sample and probe.

Failures (nonzero exit, output failing its check, or output that differs
between repeats) are counted in ``failed`` out of ``attempted``; the
table shows their ratio as ``failed_frac``.

``--trace 1`` runs ``semiswitch.cli.main`` in this process, alternating
untraced and traced passes, and reports per-layer self times and work
counts (``tracing.py``) as raw, uncalibrated times.  Outputs of both
kinds of pass must be byte-identical to a reference subprocess pass.

``--smoke`` swaps in tiny fields so a run takes seconds.  Generated
inputs, per-run records and spans go to ``.perfbench_work/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from tracing import Tracer, metric_units

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ".perfbench_work"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
INVOCATION_TIMEOUT_S = 150
CAL_LOOPS = 1_000_000
CAL_REF_S = 0.1
PASS_PROBE_ROUNDS = 3


class Tally:
    """Attempted and failed invocations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def judge(inv, rc, out, reference, stderr=b"", check=None):
    """Problems with one invocation's result; ``reference`` is the first output seen."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.decode(errors='replace').strip()[:300]}"]
    if reference is not None and out != reference:
        return ["output differs from the first pass"]
    return (check or inv.check)(out)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEMISWITCH_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv, env):
    """Run one semiswitch process: (exit code, stdout, stderr, seconds, max RSS in MB)."""
    with tempfile.TemporaryFile(dir=ROOT / WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "semiswitch", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), seconds, usage.ru_maxrss / 1024


def calibrate(rounds=1):
    """Seconds per CAL_LOOPS turns of a fixed pure-Python loop: a probe of the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(rounds * CAL_LOOPS):
        acc += i * i % 7
    return (time.perf_counter() - start) / rounds


def calibrated(raw, probes):
    """Scale sample k by CAL_REF_S over the mean of probes k and k + 1 around it."""
    return [t * 2 * CAL_REF_S / (a + b) for t, a, b in zip(raw, probes, probes[1:])]


def measure_setup(plan, env, tally, fields):
    """Raw times of zero-work passes and the speed probes around them.

    An untimed ``--help`` run compiles bytecode first.  Repeats until both
    SETUP_MIN_REPEATS passes and SETUP_MIN_SECONDS are done.
    """
    run_cli(["--help"], env)
    checks = [workloads.setup_check(fields, inv.shape, inv.argv[0]) for inv in plan.invocations]
    times, probes = [], [calibrate()]
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        total = 0.0
        for inv, check in zip(plan.invocations, checks):
            rc, out, err, seconds, _ = run_cli(inv.setup_argv, env)
            total += seconds
            tally.add("setup " + " ".join(inv.setup_argv), judge(inv, rc, out, None, err, check))
        times.append(total)
        probes.append(calibrate())
    return times, probes


def measure_passes(plan, env, seconds, tally):
    """Subprocess passes until ``seconds`` have gone by.

    Returns raw pass times, speed probes around them, max RSS per pass and
    the first output of each invocation.
    """
    walls, rss = [], []
    reference = [None] * len(plan.invocations)
    verdicts = [None] * len(plan.invocations)  # problems found in the reference output
    probes = [calibrate(PASS_PROBE_ROUNDS)]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        results = []
        t0 = time.perf_counter()
        for inv in plan.invocations:
            results.append(run_cli(inv.argv, env))
        walls.append(time.perf_counter() - t0)
        probes.append(calibrate(PASS_PROBE_ROUNDS))
        rss.append(max(r[4] for r in results))
        for i, (inv, (rc, out, err, _, _)) in enumerate(zip(plan.invocations, results)):
            if rc == 0 and out == reference[i]:
                problems = verdicts[i]
            else:
                problems = judge(inv, rc, out, reference[i], err)
                if reference[i] is None and rc == 0:
                    reference[i], verdicts[i] = out, problems
            tally.add(" ".join(inv.argv), problems)
    return walls, probes, rss, reference


def end_to_end(plan, env, seconds, tally, fields, record):
    setup_raw, setup_probes = measure_setup(plan, env, tally, fields)
    walls_raw, probes, rss, outputs = measure_passes(plan, env, seconds, tally)
    setup = calibrated(setup_raw, setup_probes)
    walls = calibrated(walls_raw, probes)
    wall = statistics.median(walls)
    record["resolved_fields"] = resolved_fields(outputs)
    record["samples"] = {
        "wall_s": walls, "wall_raw_s": walls_raw, "probe_s": probes,
        "setup_s": setup, "setup_raw_s": setup_raw, "setup_probe_s": setup_probes,
        "peak_rss_mb": rss,
    }
    record["raw_medians"] = {
        "wall_raw_s": statistics.median(walls_raw), "setup_raw_s": statistics.median(setup_raw)
    }
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (plan.items / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }, {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(rss)}


def inprocess_pass(plan, tracer=None):
    """One pass through ``semiswitch.cli.main``; returns wall and (exit code, stdout) pairs."""
    from semiswitch import cli

    results = []
    start = time.perf_counter()
    for inv in plan.invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(inv.argv)
            else:
                rc = tracer.call("cli.main", cli.main, inv.argv)
        results.append((rc, buf.getvalue().encode()))
    return time.perf_counter() - start, results


def traced(plan, env, seconds, tally, record):
    """Per-layer metrics: medians over traced passes, overhead against untraced ones."""
    reference = []
    for inv in plan.invocations:
        rc, out, err, _, _ = run_cli(inv.argv, env)
        tally.add("reference " + " ".join(inv.argv), judge(inv, rc, out, None, err))
        reference.append(out if rc == 0 else None)
    record["resolved_fields"] = resolved_fields(reference)
    tracer = Tracer()
    untraced_walls, per_pass = [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        wall, results = inprocess_pass(plan)
        untraced_walls.append(wall)
        tracer.install()
        try:
            wall, traced_results = inprocess_pass(plan, tracer)
        finally:
            tracer.uninstall()
        for kind, rs in (("in-process", results), ("traced", traced_results)):
            for inv, ref, (rc, out) in zip(plan.invocations, reference, rs):
                problems = [f"exit code {rc}"] if rc else []
                if not problems and out != ref:
                    problems = ["output differs from the subprocess run"]
                tally.add(f"{kind} " + " ".join(inv.argv), problems)
        per_pass.append(tracer.layer_metrics(tracer.run_id, wall))
        tracer.run_id += 1
    count_keys = [k for k, unit in metric_units().items() if unit == "count"]
    drift = [k for k in count_keys if any(m[k] != per_pass[0][k] for m in per_pass)]
    tally.add("traced passes", [f"work counts differ between passes: {drift}"] if drift else [])
    metrics = {}
    for name, unit in metric_units().items():
        if name == "trace.overhead_s":
            value = statistics.median(m["trace.wall_s"] for m in per_pass) - statistics.median(
                untraced_walls
            )
        elif unit == "count":
            value = per_pass[0][name]
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = (value, unit)
    record["unwrapped"] = tracer.missing
    record["samples"] = {"traced_wall_s": [m["trace.wall_s"] for m in per_pass],
                         "untraced_wall_s": untraced_walls}
    spans_path = ROOT / WORK / "results" / f"{record['run_name']}-spans.jsonl"
    spans_path.write_text("".join(json.dumps(s) + "\n" for s in tracer.span_records()))
    return metrics, {}


def resolved_fields(outputs):
    """Field spec (modulus, generator) from each output's config record."""
    fields = []
    for out in outputs:
        try:
            fields.append(workloads.parse_records(out)[0]["field"])
        except (TypeError, ValueError, IndexError, KeyError, AttributeError):
            fields.append(None)
    return fields


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "semiswitch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def run_record(args, plan, nproc):
    import numpy

    inputs = hashlib.sha256()
    for inv in plan.invocations:
        inputs.update(json.dumps(inv.argv).encode())
    for rel in sorted(plan.files):
        inputs.update(rel.encode() + b"\0" + plan.files[rel])
    return {
        "run_name": f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "inputs_sha256": inputs.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "plan": plan.record(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fields, seconds-long run")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "semiswitch" / "cli.py").is_file():
        print(f"perfbench: no semiswitch sources under {SRC}", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    # one CPU for this process and its children, so the speed probes
    # measure the CPU the program runs on
    os.sched_setaffinity(0, cpus[:1])
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    workdir = f"{WORK}/{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}"
    (ROOT / WORK / "results").mkdir(parents=True, exist_ok=True)

    fields = workloads.Fields()
    plan = workloads.make_plan(args.workload, args.seed, args.smoke, fields, workdir)
    workloads.write_files(plan, ROOT)
    record = run_record(args, plan, len(cpus))
    env = child_env()
    tally = Tally()
    if args.trace:
        metrics, samples = traced(plan, env, args.seconds, tally, record)
    else:
        metrics, samples = end_to_end(plan, env, args.seconds, tally, fields, record)

    failed_frac = tally.failed / tally.attempted
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(
        attempted=tally.attempted, failed=tally.failed, failed_frac=failed_frac,
        problems=tally.problems[:50], metrics=reported,
    )
    results = ROOT / WORK / "results" / f"{record['run_name']}.json"
    results.write_text(json.dumps(record, indent=1) + "\n")

    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}  seed {args.seed}  items/pass {plan.items}  record {results.relative_to(ROOT)}")
    raw = {k: (v, "s") for k, v in record.get("raw_medians", {}).items()}
    for name, (value, unit) in {**metrics, **raw}.items():
        note = f"  (median of {samples[name]})" if name in samples else ""
        print(f"  {name:40s} {value:>16.6g} {unit}{note}")
    print(f"  {'failed_frac':40s} {failed_frac:>16.6g} ratio  ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
