"""The package's public names, and the modules each command loads.

``import semiswitch`` binds its public names lazily, so these tests pin
what an eager ``__init__`` gave for free: every name is there, is the
object its module defines, and shows in ``dir`` and ``import *``.  A
public name is used by the program, or states a result of the paper.  Each
command loads only the modules it runs; a fresh interpreter per case
reads the ``semiswitch`` modules in ``sys.modules`` after one run, and
whether ``dataclasses`` (which loads ``inspect`` and ``ast``) is among
them when a bare interpreter does not have it.
"""

import ast
import inspect
import json
import subprocess
import sys
from functools import cache
from importlib import import_module
from pathlib import Path

import pytest

import semiswitch

# module -> the names the package bound from it before it was lazy
API = {
    "errors": ["BudgetExceeded", "ConsistencyError"],
    "gf": ["FieldCtx", "build_field"],
    "linpoly": [
        "LinearizedPoly", "is_permutation", "search", "switching_predicate", "transcript",
    ],
    "presemifield": [
        "BinaryOp", "SwitchSpec", "build_switch", "commutative_criterion",
        "commutative_isotopy_test", "find_zero_divisor", "nuclei", "unitalize",
        "verify_presemifield",
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


# public names that no program path calls: each states a result of the paper
PAPER_STATEMENTS = {
    "is_permutation": "a passing L permutes F_{q^n}: Tr(L(x)/x) != 0 forces L(x) != 0",
    "n4_commutative_op": "the n = 4 family: xy + Tr(a_1 x y^(q^2) + a0t x y) is a "
    "commutative presemifield",
    "ascent_descent": "the cyclic ascents and descents of the base-q digit vectors that "
    "index the (q-1)-th power of Tr(L(x)/x)",
    "congruence_holds": "that power reduces to its two-term right side exactly when L passes",
    "power_coefficient": "one coefficient of that power, by the digit combinatorics behind "
    "the bound for q = p",
    "is_basic_zero_set": "the switching code is the cyclic code whose dual has the basic "
    "zero set {gamma^(q^i - 1)}",
    "trace_codeword": "a word of that code is the trace transcript of L; it has full "
    "weight exactly when L passes",
}
ROOT = Path(__file__).resolve().parent.parent


def _program_names():
    """Every Name, Attribute and ImportFrom name in the package, the
    scripts and the benchmark (its tests left out)."""
    files = [
        *(ROOT / "src" / "semiswitch").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(f for f in (ROOT / "perfbench").glob("*.py") if not f.name.startswith("test_")),
    ]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _module_public_names():
    """The names in the package's ``__all__`` and in every module's."""
    names = set(semiswitch.__all__)
    for path in (ROOT / "src" / "semiswitch").glob("*.py"):
        if path.stem not in {"__init__", "__main__"}:
            names.update(getattr(import_module(f"semiswitch.{path.stem}"), "__all__", ()))
    return names


def test_every_public_name_is_used_or_states_the_paper():
    # a name only the tests reach belongs in tests/oracles.py, not in the package
    unreached = _module_public_names() - _program_names()
    assert unreached == set(PAPER_STATEMENTS)


def _names_taking_L():
    """(module, name) of every callable in a module's ``__all__`` whose first
    parameter is L."""
    out = []
    for path in sorted((ROOT / "src" / "semiswitch").glob("*.py")):
        if path.stem in {"__init__", "__main__"}:
            continue
        module = import_module(f"semiswitch.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and list(inspect.signature(obj).parameters)[:1] == ["L"]:
                out.append((path.stem, name))
    return out


# the arguments besides L that a name needs to reach its check of L
OTHER_ARGS = {"power_coefficient": {"alpha": 0}}


@pytest.mark.parametrize("module, name", _names_taking_L())
def test_every_name_taking_L_refuses_a_bare_tuple(module, name):
    # a tuple has no ctx: a name that reads L.ctx unchecked raises AttributeError
    fn = getattr(import_module(f"semiswitch.{module}"), name)
    with pytest.raises(ValueError, match="LinearizedPoly"):
        fn((1, 0), **OTHER_ARGS.get(name, {}))


# bad shapes of the coefficients and of the support, each refused with a
# ValueError naming the argument: nothing is read as codes that is not a
# tuple or list of them (a dict's keys, a str's characters)
BAD_SHAPES = [
    ("linpoly", "LinearizedPoly", ({1: 2, 0: 1},), "coeffs"),
    ("linpoly", "LinearizedPoly", (5,), "coeffs"),
    ("linpoly", "LinearizedPoly", ("12",), "coeffs"),
    ("linpoly", "transcript", (5,), "coeffs"),
    ("linpoly", "orbit_rep", (5,), "coeffs"),
    ("linpoly", "search", (5,), "support"),
    ("presemifield", "SwitchSpec", (5,), "b"),
    ("presemifield", "SwitchSpec", ((1, 0, 0),), "b"),
    ("codes", "trace_codeword", (5,), "coeffs"),
]


# each id names the function, the row and the argument
@pytest.mark.parametrize(
    "module, name, args, named",
    BAD_SHAPES,
    ids=[f"{name}-args{i}-{named}" for i, (_, name, _, named) in enumerate(BAD_SHAPES)],
)
def test_bad_coefficient_and_support_shapes_raise_value_error(f9, module, name, args, named):
    fn = getattr(import_module(f"semiswitch.{module}"), name)
    with pytest.raises(ValueError, match=f"^{named} "):
        fn(f9, *args)


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
LOADED = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] in {'semiswitch', 'dataclasses'}))"
)


@cache
def _bare_interpreter_loads_dataclasses():
    script = f"import sys\n{LOADED}\n"
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    return "dataclasses" in res.stdout


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
        f"{LOADED}\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    # no command loads dataclasses: its imports (inspect, ast, dis) are start-up no command needs
    expected = ["semiswitch"] + [f"semiswitch.{m}" for m in loaded]
    if _bare_interpreter_loads_dataclasses():
        expected.append("dataclasses")
    assert res.stdout.strip() == repr(sorted(expected))
