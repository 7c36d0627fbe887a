"""Pinned bytes of the command line.

Criterion 10 only compares two reruns with each other, so a change that
alters every run's bytes in the same way still passes it.  This test
pins the sha256 of stdout and stderr, and the exit code, of a fixed
list of invocations.  Every run starts in the same scratch directory
and names its input file by a relative path, since config records carry
``infile`` exactly as given.

A deliberate output change updates the table: rerun the commands and
paste the new values, and say why in the change log.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

INPUTS = {
    "polys81.jsonl": (
        '{"coeffs":[0,0,1,0]}\n'
        '{"coeffs":[1,0,1,0]}\n'
        '{"coeffs":[1,0,0,0]}\n'
        '{"coeffs":[0,0,10,0]}\n'
        '{"coeffs":[5,7,0,3]}\n'
    ),
    "polys16.jsonl": '{"coeffs":[2,1]}\n{"coeffs":[3,0]}\n{"coeffs":[1,1]}\n',
    # the showcase q = 4 instance (scripts/showcase_instances.py) and a monomial
    "polys64.jsonl": '{"coeffs":[7,28,26]}\n{"coeffs":[1,0,0]}\n',
    # F_81 as F_9^2: odd p with m > 1, so sums of multi-digit F_q values;
    # passing rows, failing rows and a monomial
    "polys81q9.jsonl": (
        '{"coeffs":[10,11]}\n'
        '{"coeffs":[37,52]}\n'
        '{"coeffs":[0,13]}\n'
        '{"coeffs":[42,40]}\n'
        '{"coeffs":[45,23]}\n'
        '{"coeffs":[12,0]}\n'
        '{"coeffs":[80,33]}\n'
        '{"coeffs":[80,79]}\n'
    ),
}

EMPTY = hashlib.sha256(b"").hexdigest()

# name -> (argv, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "search": (
        "search --p 3 --n 2",
        0,
        "8d00b78b249ea65fadd7987f1bd5d253fd639007548d6bd6125d28320299d6fe",
        EMPTY,
    ),
    "search-csv": (
        "search --p 2 --m 2 --n 2 --format csv",
        0,
        "f41ac5d02e59d9c6f0f91d6aa8ab5d933c1a52ec15d4dbeb53dc1c4b99e43c30",
        EMPTY,
    ),
    "search-random": (
        "search --p 3 --n 3 --random --seed 11 --budget 4000",
        0,
        "31b59a3ebe7e6f2c0b7d5caed19b0099cd5240673a6ba66e0acf2ac9a2a72754",
        EMPTY,
    ),
    # the orbit plan on a support with a gap, its a_1 stratum split into
    # heads and a block of a_3 tail tuples; the draws' a_0 is taken to its
    # trace class
    "search-random-split": (
        "search --p 3 --n 4 --mask 0,1,3 --random --seed 2 --budget 30000",
        0,
        "37486ce86855b39363cc2412bca11d36e2c90a4af9a627e16e718b378f5142e8",
        EMPTY,
    ),
    # the draw plan with hits: 2,000 draws cost less to walk than the strata
    "search-random-draws": (
        "search --p 7 --n 3 --random --seed 1 --budget 2000",
        0,
        "0e529825545b4a00de87c2de514f76add37f75fabe20b600cbc114d78ddc64ff",
        EMPTY,
    ),
    "search-random-small-space": (
        "search --p 3 --n 2 --random --seed 4 --budget 100000",
        0,
        "36048326eec6cbdd60a4f21d9775f001cec5adf64923749c8f8877cede28f512",
        EMPTY,
    ),
    "search-mask": (
        "search --p 3 --n 4 --mask 2,0",
        0,
        "e88db2d0969168a3ed98eacbfde7beb9443153ca561a21d7a9a397e19f6db1e3",
        EMPTY,
    ),
    "verify": (
        "verify --p 3 --n 4 polys81.jsonl",
        0,
        "ada1d0ffa8ae1c6555dc50de9bb797c774c369d430596cbff723bc12fc345c59",
        EMPTY,
    ),
    "verify-csv": (
        "verify --p 3 --n 4 --format csv polys81.jsonl",
        0,
        "c66870b33ed0e40121a8a2e09d0c8bf801ebffd66d0010ade91692951f1bc962",
        EMPTY,
    ),
    "verify-q4": (
        "verify --p 2 --m 2 --n 2 polys16.jsonl",
        0,
        "3a3a03f3e68f9beb8d187ed90bed87b26b127eeff6a88627e92c2d5cb69ed816",
        EMPTY,
    ),
    "verify-q4-showcase": (
        "verify --p 2 --m 2 --n 3 --modulus 1,1,0,1,1,0,1 polys64.jsonl",
        0,
        "ed1e0d6b9d4f95de2d105570f1599a1e360197ae84f98ee7cb9836a917e5e9ef",
        EMPTY,
    ),
    "verify-q9": (
        "verify --p 3 --m 2 --n 2 polys81q9.jsonl",
        0,
        "0114558eb4a9e5f45aa8f7fbbd51eae4844cdb47c30a0f93884b367b141f5caa",
        EMPTY,
    ),
    "hws": (
        "hws --p 3 --n 4 polys81.jsonl",
        0,
        "09740b094b79a6934932b1861356bb9994b36e1000d90b4594b6c56b5bf0d6d0",
        EMPTY,
    ),
    "hws-csv": (
        "hws --p 3 --n 4 --format csv polys81.jsonl",
        0,
        "76400fbaf24630b343eafb39c55452c2f0fe8d9d3a0d073765c573cd731b9b54",
        EMPTY,
    ),
    "hws-q9": (
        "hws --p 3 --m 2 --n 2 polys81q9.jsonl",
        0,
        "cf9c70968fead177373089366d60b24f92b7eb1967cd2b614589c693804f7a8a",
        EMPTY,
    ),
    "codes": (
        "codes --p 3 --n 2",
        0,
        "e2f6382fcdc816fe47f75b483a2dc82997735db54ade2894838bc685d41abcfb",
        EMPTY,
    ),
    "codes-random": (
        "codes --p 2 --n 3 --random --seed 1 --budget 5000",
        0,
        "dd5af69404732acc2e091e318b70eeb68dbadc0711cee607806f13aedc1c9c32",
        EMPTY,
    ),
    "codes-random-split": (
        "codes --p 5 --n 3 --random --seed 1 --budget 20000",
        0,
        "1655d0f7b678e3570731fa966b797b2efc52c9e779142ad30f9bf45dffba4cb7",
        EMPTY,
    ),
    "codes-csv": (
        "codes --p 3 --n 2 --format csv",
        2,
        EMPTY,
        "44392eab17d837a7a8777dd845398b26d973947236b6ff9293f17b9eb6c23127",
    ),
    "missing-infile": (
        "verify --p 3 --n 2 missing.jsonl",
        2,
        EMPTY,
        "c913b97e252da001ebd2ec969a19d48046fac15897d5f92c1f751d4638cb4ab2",
    ),
    "budget-overrun": (
        "search --p 3 --n 4",
        3,
        EMPTY,
        "afc717bc21fa24e3d14af52ecce063dc2c996dbedbcd41675888f8bc8ad6b72f",
    ),
    "mask-error-before-budget": (
        "search --p 3 --n 2 --mask 5 --budget -1",
        2,
        EMPTY,
        "f5dec096f9cb9040ffe57b6aac6a49697b778cb2e13b62ae72a7b8bb985ffa93",
    ),
}


def run_golden(name, cwd):
    """(exit code, stdout sha256, stderr sha256) of one GOLDEN command run in cwd."""
    for fname, text in INPUTS.items():
        (cwd / fname).write_text(text)
    env = {k: v for k, v in os.environ.items() if k != "SEMISWITCH_FIELD_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "semiswitch", *GOLDEN[name][0].split()],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=300,
    )
    return (
        res.returncode,
        hashlib.sha256(res.stdout).hexdigest(),
        hashlib.sha256(res.stderr).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path):
    assert run_golden(name, tmp_path) == GOLDEN[name][1:]
