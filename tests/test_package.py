"""The package's public names, and the modules each command loads.

``import semiswitch`` binds its public names lazily, so these tests pin
what an eager ``__init__`` gave for free: every name is there, is the
object its module defines, and shows in ``dir`` and ``import *``.  Each
command loads only the modules it runs; a fresh interpreter per case
reads the ``semiswitch`` modules in ``sys.modules`` after one run.
"""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import semiswitch

# module -> the names the package bound from it before it was lazy
API = {
    "errors": ["BudgetExceeded", "ConsistencyError"],
    "gf": ["FieldCtx", "build_field", "field_from_spec"],
    "linpoly": [
        "LinearizedPoly", "is_permutation", "search", "switching_predicate", "transcript",
    ],
    "presemifield": [
        "BinaryOp", "SwitchSpec", "build_switch", "commutative_criterion",
        "commutative_isotopy_test", "dual_spread_op", "field_op", "find_zero_divisor",
        "is_commutative", "nuclei", "unitalize", "verify_presemifield",
    ],
    "families": [
        "FamilyInstance", "classify", "n2_criterion", "n3_construct",
        "n4_commutative_op", "n4_criterion", "switch_spec_for", "theta_set",
    ],
    "digits": [
        "ascent_descent", "congruence_holds", "monomial_census", "ones_run",
        "power_coefficient", "power_expansion", "vanishing_sums_check", "wrap_add_many",
    ],
    "codes": [
        "code_dimension", "cyclotomic_coset", "full_weight_search",
        "is_basic_zero_set", "trace_codeword",
    ],
    "hws": [
        "curve_verdicts", "leader_thresholds", "min_max_leader",
        "rational_point_count", "serre_term",
    ],
}
NAMES = [name for names in API.values() for name in names]


def test_all_lists_every_public_name():
    assert sorted(semiswitch.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in API.items() for n in names])
def test_name_is_its_modules_object(module, name):
    assert getattr(semiswitch, name) is getattr(import_module(f"semiswitch.{module}"), name)


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(semiswitch))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        semiswitch.no_such_name
    assert not hasattr(semiswitch, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from semiswitch import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(semiswitch, name) for name in NAMES)


BASE = ["cli", "errors", "gf", "linpoly"]  # what every command loads


@pytest.mark.parametrize(
    "argv, rows, loaded",
    [
        (None, None, []),
        (["codes", "--p", "3", "--n", "2", "--random", "--budget", "0"], None, BASE + ["codes"]),
        (["codes", "--p", "2", "--n", "3"], None, BASE + ["codes"]),
        (["hws", "--p", "3", "--n", "4"], [[0, 0, 1, 0]], BASE + ["hws"]),
        (["hws", "--p", "3", "--n", "2"], [], BASE),
        (["search", "--p", "3", "--n", "2"], None, BASE + ["families", "presemifield"]),
        (
            ["verify", "--p", "3", "--n", "2"],
            [[1, 0]],
            BASE + ["digits", "families", "hws", "presemifield"],
        ),
        (
            ["verify", "--p", "3", "--n", "2"],
            [[0, 0]],
            BASE + ["digits", "families", "hws", "presemifield"],
        ),
        (["verify", "--p", "3", "--n", "2"], [], BASE),
    ],
    ids=[
        "import", "codes-zero-work", "codes", "hws", "hws-empty", "search",
        "verify-passing", "verify-failing", "verify-empty",
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, rows, loaded):
    if rows is not None:
        infile = tmp_path / "rows.jsonl"
        infile.write_text("".join(json.dumps({"coeffs": c}) + "\n" for c in rows))
        argv = argv + [str(infile)]
    script = (
        "import contextlib, io, sys\n"
        "import semiswitch\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    from semiswitch import cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'semiswitch'))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == repr(sorted(["semiswitch"] + [f"semiswitch.{m}" for m in loaded]))
