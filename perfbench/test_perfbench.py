"""Self-test of the benchmark on tiny fields.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    res = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert "failed_frac" in res.stdout
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # self times cover the traced pass, up to the harness's own gaps
        assert abs(m["trace.unattributed_s"]) <= 0.05 * m["trace.wall_s"] + 0.01


CORRUPT = {
    "search": (r'"presemifield":true', '"presemifield":false'),
    "census": (r'"full_weight_constant":(\d+)', lambda mt: f'"full_weight_constant":{int(mt[1]) + 1}'),
    "curve": (r'"point_count":(\d+)', lambda mt: f'"point_count":{int(mt[1]) + 1}'),
    "verify": (r'"presemifield":true', '"presemifield":false'),
}


@pytest.mark.parametrize("workload", sorted(CORRUPT))
def test_corrupted_output_counts_as_failed(workload):
    fields = workloads.Fields()
    workdir = f"{run.WORK}/{workload}-selftest"
    (ROOT / run.WORK).mkdir(exist_ok=True)
    plan = workloads.make_plan(workload, 5, True, fields, workdir)
    workloads.write_files(plan, ROOT)
    env = run.child_env()
    tally = run.Tally()
    pattern, repl = CORRUPT[workload]
    for inv in plan.invocations:
        rc, out, err, _, _ = run.run_cli(inv.argv, env)
        tally.add("clean", run.judge(inv, rc, out, None, err))
        bad = re.sub(pattern, repl, out.decode(), count=1).encode()
        if bad != out:
            tally.add("corrupt", run.judge(inv, 0, bad, None))
            tally.add("differs", run.judge(inv, 0, bad, out))
        tally.add("exit", run.judge(inv, 3, out, None))
    assert tally.failed >= 3, tally.problems
    assert all(not p.startswith("clean") for p in tally.problems)
    assert tally.failed / tally.attempted > 0


def test_inputs_depend_only_on_seed():
    def plan(seed):
        p = workloads.make_plan("verify", seed, True, workloads.Fields(), "w")
        return [inv.argv for inv in p.invocations], p.files

    assert plan(7) == plan(7)
    assert plan(7) != plan(8)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
