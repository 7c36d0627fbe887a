"""Smoke runs of the scripts in scripts/."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_scripts_run():
    cases = [
        (["showcase_instances.py"], "== norm-condition family, (q, n) = (3, 3)"),
        (
            ["monomial_census.py", "--p", "2", "--max-n", "4"],
            "p=2 n=3: 4 solutions (exhaustive), all monomial, bound 3 idle",
        ),
        (
            ["random_probe.py", "--p", "3", "--n", "3", "--budget", "2000", "--seed", "1", "--show", "1"],
            "24 passing of 2000 draws at order 27",
        ),
    ]
    for argv, line in cases:
        res = subprocess.run(
            [sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert any(out.startswith(line) for out in res.stdout.splitlines()), argv


def test_scripts_exit_2_on_bad_input_and_3_on_a_budget():
    cases = [
        (["random_probe.py", "--p", "4", "--n", "2"], 2, "invalid input: p = 4 is not prime"),
        (["random_probe.py", "--p", "3", "--n", "2", "--seed", "-1"], 2, "invalid input: seed"),
        (["random_probe.py", "--p", "3", "--n", "2", "--budget", "-5"], 2, "invalid input: budget"),
        (["random_probe.py", "--p", "3", "--n", "30"], 3, "budget exceeded: "),
        (["monomial_census.py", "--p", "4"], 2, "invalid input: p = 4 is not prime"),
        (["monomial_census.py", "--p", "3", "--max-n", "3", "--budget", "10"], 3, "budget exceeded: "),
    ]
    for argv, code, message in cases:
        res = subprocess.run(
            [sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == code, (argv, res.stderr)
        assert res.stderr.startswith(message), (argv, res.stderr)
        assert "Traceback" not in res.stderr, argv


def test_scripts_exit_0_when_the_reader_closes_the_pipe():
    for argv in (
        ["showcase_instances.py", "--shallow"],
        ["monomial_census.py", "--p", "2", "--max-n", "3"],
        ["random_probe.py", "--p", "3", "--n", "3", "--budget", "2000", "--seed", "1"],
    ):
        proc = subprocess.Popen(
            [sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # the reader is gone before the first line
        assert proc.wait(timeout=120) == 0, argv
        assert proc.stderr.read() == b"", argv
        proc.stderr.close()
