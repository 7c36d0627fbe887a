"""End-to-end runs of the command line frontend."""

import json
import os
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semiswitch import cli

BASE = [sys.executable, "-m", "semiswitch"]


def run(*args, **kw):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=300, **kw
    )


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


def test_search_2_3_exhaustive():
    res = run("search", "--p", "2", "--n", "3", "--exhaustive")
    assert res.returncode == 0
    recs = records(res.stdout)
    assert recs[0]["record"] == "config"
    assert recs[0]["field"]["p"] == 2
    results = [r for r in recs if r["record"] == "result"]
    assert len(results) == 4
    assert all(r["families"] == ["monomial"] for r in results)
    assert recs[-1] == {"record": "summary", "found": 4}


def test_search_3_2_all_tagged_n2():
    res = run("search", "--p", "3", "--n", "2", "--exhaustive")
    assert res.returncode == 0
    results = [r for r in records(res.stdout) if r["record"] == "result"]
    assert len(results) == 18
    assert all("n2" in r["families"] for r in results)


def test_search_random_seed_reproducible():
    args = ("search", "--p", "3", "--n", "3", "--random", "--seed", "7", "--budget", "3000")
    first = run(*args)
    second = run(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    cfg = records(first.stdout)[0]
    assert cfg["seed"] == 7
    assert cfg["budget"] == 3000


def test_search_mask_matches_library():
    from semiswitch import build_field, search

    res = run("search", "--p", "3", "--n", "4", "--mask", "2", "--exhaustive")
    assert res.returncode == 0
    recs = records(res.stdout)
    assert recs[0]["mask"] == [2]
    ctx = build_field(3, 1, 4)
    expected = search(ctx, (2,), mode="exhaustive")
    assert recs[-1]["found"] == len(expected)
    got = [tuple(r["coeffs"]) for r in recs if r["record"] == "result"]
    assert got == [L.coeffs for L in expected]


def test_search_mask_records_searched_support():
    # a mask lists distinct indices: their order does not change the search,
    # and a repeated one exits 2 (see test_exit_code_negative_budget)
    messy = run("search", "--p", "3", "--n", "3", "--mask", "2,0", "--exhaustive")
    clean = run("search", "--p", "3", "--n", "3", "--mask", "0,2", "--exhaustive")
    assert messy.returncode == clean.returncode == 0
    assert records(messy.stdout)[0]["mask"] == [0, 2]
    assert messy.stdout == clean.stdout


def test_config_line_is_canonical_json():
    res = run("search", "--p", "2", "--n", "3", "--exhaustive")
    first = res.stdout.splitlines()[0]
    parsed = json.loads(first)
    assert first == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    assert set(parsed["field"]) == {"p", "m", "n", "modulus", "generator_index"}


def test_verify_reports(tmp_path):
    infile = tmp_path / "polys.jsonl"
    infile.write_text('{"coeffs":[0,0,1,0]}\n{"coeffs":[0,0,0,0]}\n')
    res = run("verify", "--p", "3", "--n", "4", str(infile))
    assert res.returncode == 0
    results = [r for r in records(res.stdout) if r["record"] == "result"]
    good, zero = results
    assert good["predicate"] and good["presemifield"]
    assert good["ganley"] is True
    assert good["nuclei"] == [3, 9, 3, 3]
    assert good["hws"]["ell"] == 8
    assert good["vanishing_sums"] is True
    assert zero["predicate"] is False
    assert zero["zero_divisor"]


def test_verify_q4_n3_instance(tmp_path):
    infile = tmp_path / "inst.jsonl"
    infile.write_text('{"coeffs":[7,28,26]}\n')
    res = run(
        "verify",
        "--p", "2", "--m", "2", "--n", "3",
        "--modulus", "1,1,0,1,1,0,1",
        str(infile),
    )
    assert res.returncode == 0
    (rep,) = [r for r in records(res.stdout) if r["record"] == "result"]
    assert rep["predicate"] is True
    assert rep["presemifield"] is True
    assert rep["ganley"] is False
    assert "n3" in rep["families"]


def test_codes_reports():
    res = run("codes", "--p", "3", "--n", "2")
    assert res.returncode == 0
    (rep,) = [r for r in records(res.stdout) if r["record"] == "result"]
    assert rep["dimension"] == 3
    assert rep["full_weight_nonconstant"] == 12

    res = run("codes", "--p", "2", "--n", "3")
    (rep,) = [r for r in records(res.stdout) if r["record"] == "result"]
    assert rep["dimension"] == 7
    assert rep["full_weight_nonconstant"] == 0
    assert rep["candidates"] == 8**3

    # random mode counts the draws, not the whole space
    res = run("codes", "--p", "2", "--n", "3", "--random", "--seed", "1", "--budget", "5")
    assert res.returncode == 0
    (rep,) = [r for r in records(res.stdout) if r["record"] == "result"]
    assert rep["candidates"] == 5

    # F_2 over F_2: length q^n - 1 = 1, one defining coset {0} mod 1
    res = run("codes", "--p", "2", "--n", "1")
    assert res.returncode == 0
    (rep,) = [r for r in records(res.stdout) if r["record"] == "result"]
    assert (rep["dimension"], rep["length"]) == (1, 1)
    assert (rep["full_weight_constant"], rep["full_weight_nonconstant"]) == (1, 0)


def test_codes_random_config_pins_seed_and_budget():
    # different seeds give different censuses, so the config must differ too
    args = ("codes", "--p", "5", "--n", "3", "--random", "--budget", "3000")
    one, two = run(*args, "--seed", "1"), run(*args, "--seed", "2")
    assert one.returncode == two.returncode == 0
    cfg = records(one.stdout)[0]
    assert (cfg["seed"], cfg["budget"]) == (1, 3000)
    assert cfg != records(two.stdout)[0]


def test_failing_row_walks_once(f81_n4, monkeypatch):
    # a failing row's verdict and witness come from one zero-divisor walk
    from semiswitch import BinaryOp, LinearizedPoly, build_switch, switch_spec_for
    from semiswitch.presemifield import find_zero_divisor

    calls = []
    call = BinaryOp.__call__
    monkeypatch.setattr(BinaryOp, "__call__", lambda op, x, y: calls.append(x) or call(op, x, y))
    L = LinearizedPoly(f81_n4, (5, 7, 0, 11))
    rep = cli._verify_one(L)
    row_calls = len(calls)
    calls.clear()
    assert rep["predicate"] is rep["presemifield"] is False
    assert rep["zero_divisor"] == list(find_zero_divisor(build_switch(switch_spec_for(L))))
    assert row_calls == len(calls)


def test_deep_field_monomial_verifies_in_seconds(tmp_path, capsys):
    # F_{2^17}: verify answers the monomial in closed form, and the walk of
    # its switch makes one op call per unit, where a kernel of 17 rows per
    # unit took over 20 s
    from semiswitch import (
        LinearizedPoly, build_field, build_switch, find_zero_divisor, switch_spec_for,
    )

    infile = tmp_path / "row.jsonl"
    infile.write_text(json.dumps({"coeffs": [1] + [0] * 16}) + "\n")
    t0 = time.perf_counter()
    assert cli.main(["verify", "--p", "2", "--n", "17", str(infile)]) == 0
    (row,) = [r for r in records(capsys.readouterr().out) if r["record"] == "result"]
    assert row["presemifield"] is True
    L = LinearizedPoly(build_field(2, 1, 17), (1,) + (0,) * 16)
    assert find_zero_divisor(build_switch(switch_spec_for(L))) is None
    assert time.perf_counter() - t0 < 10


def test_repeated_monomial_does_no_deep_work(tmp_path, capsys, monkeypatch):
    # a passing monomial's report is closed form: no walk, unitalization or nuclei
    from semiswitch import build_field, families, presemifield, search

    monomial = next(L for L in search(build_field(3, 1, 2)) if L.is_monomial())
    infile = tmp_path / "rows.jsonl"
    infile.write_text((json.dumps({"coeffs": list(monomial.coeffs)}) + "\n") * 2)
    calls = []
    for module, name in (
        (presemifield, "find_zero_divisor"),
        (families, "unitalize"),
        (families, "nuclei"),
    ):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    assert cli.main(["verify", "--p", "3", "--n", "2", str(infile)]) == 0
    first, second = [r for r in records(capsys.readouterr().out) if r["record"] == "result"]
    assert first == second and first["presemifield"]
    assert calls == []


def test_passing_monomial_whose_switch_breaks_is_a_consistency_failure(
    tmp_path, capsys, monkeypatch
):
    # the closed form still makes the walk's one op call, x*(xi/x) at x = 1
    from semiswitch import BinaryOp, families

    build = families.build_switch

    def broken(spec):
        op = build(spec)
        return BinaryOp(spec.ctx, lambda x, y: 0 if (x, y) == (1, spec.xi) else op(x, y), spec)

    infile = tmp_path / "row.jsonl"
    infile.write_text('{"coeffs":[1,0]}\n')
    monkeypatch.setattr(families, "build_switch", broken)
    assert cli.main(["verify", "--p", "3", "--n", "2", str(infile)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "consistency"
    assert err["witness"] == [1, 0]


def test_failing_row_that_verifies_is_a_consistency_failure(tmp_path, capsys, monkeypatch):
    from semiswitch import presemifield

    infile = tmp_path / "row.jsonl"
    infile.write_text('{"coeffs":[0,0,0,0]}\n')
    monkeypatch.setattr(presemifield, "find_zero_divisor", lambda op: None)
    assert cli.main(["verify", "--p", "3", "--n", "4", str(infile)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "consistency"
    assert err["witness"] == [0, 0, 0, 0]


@pytest.mark.parametrize("command", ["search", "verify"])
def test_passing_row_that_fails_verification_is_a_consistency_failure(
    tmp_path, capsys, monkeypatch, command
):
    from semiswitch import build_field, presemifield, search

    first = list(search(build_field(3, 1, 2))[0].coeffs)
    infile = tmp_path / "row.jsonl"
    infile.write_text(json.dumps({"coeffs": first}) + "\n")
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier output\n")
    monkeypatch.setattr(presemifield, "find_zero_divisor", lambda op: (1, 1))
    argv = [command, "--p", "3", "--n", "2", "--out", str(out)]
    argv += [str(infile)] if command == "verify" else []
    assert cli.main(argv) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "consistency"
    assert err["witness"] == first
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(tmp_path.iterdir()) == [out, infile]


@pytest.mark.parametrize("where", ["missing-dir", "under-a-file", "a-dir"])
@pytest.mark.parametrize("command", ["search", "verify", "codes", "hws"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, where):
    # an --out that cannot be written fails before the field is built, not
    # after the whole run, and the message names the path as given
    from semiswitch import linpoly

    searches = []
    monkeypatch.setattr(linpoly, "search", lambda *a, **k: searches.append(a))
    monkeypatch.setattr(cli, "build_field", lambda *a, **k: pytest.fail("field built"))
    infile = tmp_path / "rows.jsonl"
    infile.write_text('{"coeffs":[1,0]}\n')
    (tmp_path / "file").write_text("")
    out = {
        "missing-dir": tmp_path / "missing" / "hits.jsonl",
        "under-a-file": tmp_path / "file" / "hits.jsonl",
        "a-dir": tmp_path,
    }[where]
    argv = [command, "--p", "3", "--n", "2", "--out", str(out)]
    argv += [str(infile)] if command in ("verify", "hws") else []
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    assert str(out) in captured.err and ".tmp" not in captured.err
    assert searches == []
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file", infile]


def test_internal_key_error_is_not_bad_input(monkeypatch):
    # a KeyError from the library is a bug: it propagates, never exit 2
    from semiswitch import families

    def broken(L, deep=True, orbits=None):
        raise KeyError("internal")

    monkeypatch.setattr(families, "classify", broken)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["search", "--p", "3", "--n", "2"])


def test_hws_table(tmp_path):
    infile = tmp_path / "polys.jsonl"
    infile.write_text('{"coeffs":[0,0,1,0]}\n')
    res = run("hws", "--p", "3", "--n", "4", str(infile))
    assert res.returncode == 0
    (rep,) = [r for r in records(res.stdout) if r["record"] == "result"]
    assert rep["ell"] == 8
    assert rep["genus"] == 7
    assert rep["impossible_zero_trace"] is False


def test_out_file_and_rerun_identical(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    args = ("search", "--p", "3", "--n", "2", "--exhaustive")
    assert run(*args, "--out", str(out1)).returncode == 0
    assert run(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 20  # config + 18 + summary


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_out_fifo_is_written_in_place(tmp_path, capsys):
    # a path that is not a regular file is written as stdout is: replacing
    # it left a regular file, and the FIFO's reader got nothing
    argv = ["search", "--p", "3", "--n", "2"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    fifo = tmp_path / "hits"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        assert cli.main([*argv, "--out", str(fifo)]) == 0
        got = os.read(reader, 1 << 20).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == plain


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_is_stdout():
    # resolved, /dev/stdout names a pipe entry under /proc that no temp file can sit beside
    plain = run("search", "--p", "3", "--n", "2")
    res = run("search", "--p", "3", "--n", "2", "--out", "/dev/stdout")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == plain.stdout


def test_csv_format():
    res = run("search", "--p", "3", "--n", "2", "--exhaustive", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    # config and summary stay JSON; results are CSV rows
    csv_rows = [l for l in lines if not l.startswith("{")]
    assert len(csv_rows) == 18
    assert all(len(row.split(",")) >= 4 for row in csv_rows)

    # codes writes JSON lines only, and says so before the census runs:
    # a census over budget (n = 4) exits 2 as well
    for n in ("2", "4"):
        res = run("codes", "--p", "3", "--n", n, "--exhaustive", "--format", "csv")
        assert res.returncode == 2
        assert "invalid input" in res.stderr and "csv" in res.stderr
        assert res.stdout == ""


def test_search_output_feeds_verify_and_hws(tmp_path):
    # the natural round trip: search --out, then verify/hws on that file
    hits = tmp_path / "hits.jsonl"
    res = run("search", "--p", "3", "--n", "2", "--exhaustive", "--out", str(hits))
    assert res.returncode == 0

    res = run("verify", "--p", "3", "--n", "2", str(hits))
    assert res.returncode == 0
    results = [r for r in records(res.stdout) if r["record"] == "result"]
    assert len(results) == 18
    assert all(r["presemifield"] for r in results)

    res = run("hws", "--p", "3", "--n", "2", str(hits))
    assert res.returncode == 0
    results = [r for r in records(res.stdout) if r["record"] == "result"]
    assert len(results) == 18
    # unit multiples carry no curve statistic but still report a point count
    skipped = [r for r in results if "skipped" in r]
    assert skipped and all(r["point_count"] == 1 for r in skipped)
    assert all("ell" in r for r in results if "skipped" not in r)


@pytest.mark.parametrize(
    "command, field",
    [
        ("verify", ["--p", "2", "--m", "2", "--n", "2"]),
        ("hws", ["--p", "3", "--n", "2", "--modulus", "2,2,1"]),
    ],
)
def test_file_pinned_to_another_field_exits_2(tmp_path, command, field):
    # the coefficient codes of a search over F_9 mean nothing in another field
    hits = tmp_path / "hits.jsonl"
    assert run("search", "--p", "3", "--n", "2", "--out", str(hits)).returncode == 0
    res = run(command, *field, str(hits))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("invalid input: line 1: config pins field ")
    pinned = records(hits.read_text())[0]["field"]
    asked = cli._build_ctx(cli.make_parser().parse_args([command, *field, str(hits)])).to_spec()
    assert pinned != asked
    assert cli._dump(pinned) in res.stderr and cli._dump(asked) in res.stderr


def test_exit_code_invalid_field():
    res = run("search", "--p", "9", "--n", "2")
    assert res.returncode == 2
    assert "invalid input" in res.stderr
    # modulus entries are taken as given, never reduced mod p
    for modulus, message in (
        ("1,0,4", "coefficient 4 is not an int in 0..2"),
        ("-2,0,1", "coefficient -2 is not an int in 0..2"),
        ("2,0,2", "monic (leading coefficient 2)"),
        ("", "--modulus"),  # empty is not the default modulus
    ):
        res = run("search", "--p", "3", "--n", "2", f"--modulus={modulus}")
        assert res.returncode == 2
        assert message in res.stderr and res.stdout == ""


def test_orders_far_over_the_cap_exit_3_at_once():
    # no trial division of p and no p^(m n) before the order meets the cap
    for args in (("--p", "2305843009213693951", "--n", "1"), ("--p", "3", "--n", "100000000")):
        res = subprocess.run(BASE + ["search", *args], capture_output=True, text=True, timeout=2)
        assert res.returncode == 3 and "exceeds cap" in res.stderr, args
    res = run("search", "--p", "4", "--n", "1")
    assert res.returncode == 2 and "not prime" in res.stderr


def test_exit_code_budget_exceeded(tmp_path):
    res = run("search", "--p", "3", "--n", "9", "--exhaustive")
    assert res.returncode == 3
    assert "budget" in res.stderr
    # the budget is checked before anything reaches stdout
    for command in ("search", "codes"):
        res = run(command, "--p", "3", "--n", "4", "--exhaustive")
        assert res.returncode == 3
        assert "budget" in res.stderr
        assert res.stdout == ""
    # a failed run leaves an existing --out file as it was, and no temp file
    out = tmp_path / "o.jsonl"
    out.write_bytes(b"earlier output\n")
    res = run("search", "--p", "3", "--n", "4", "--exhaustive", "--out", str(out))
    assert res.returncode == 3
    assert out.read_bytes() == b"earlier output\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize(
    "args, env, word",
    [
        (("search", "--random", "--budget", "-5"), {}, "budget"),
        (("search", "--exhaustive", "--budget", "-5"), {}, "budget"),
        (("codes", "--random", "--budget", "-1"), {}, "budget"),
        (("search", "--random", "--seed", "-1"), {}, "seed"),
        (("codes", "--random", "--seed", "-1"), {}, "seed"),
        (("search", "--exhaustive"), {"SEMISWITCH_FIELD_CAP": "-1"}, "field cap"),
        (("search", "--exhaustive"), {"SEMISWITCH_FIELD_CAP": "abc"}, "SEMISWITCH_FIELD_CAP"),
        (("search", "--mask="), {}, "--mask '' is not a list of integers"),
        (("search", "--mask", "0,,1"), {}, "--mask '0,,1' is not a list of integers"),
        (("search", "--mask=0,0"), {}, "support indices must be distinct, got [0, 0]"),
    ],
    ids=[
        "search-random", "search-exhaustive", "codes", "search-seed", "codes-seed",
        "field-cap", "field-cap-not-int",
        "mask-empty", "mask-empty-entry", "mask-repeat",
    ],
)
def test_exit_code_negative_budget(args, env, word):
    res = run(*args, "--p", "3", "--n", "2", env={**os.environ, **env})
    assert res.returncode == 2
    assert "invalid input" in res.stderr and word in res.stderr
    assert res.stdout == ""


def test_search_budget_reads_no_environment():
    # --budget is the one way to set the search budget
    args = ("search", "--p", "3", "--n", "2", "--random")
    plain = run(*args)
    knob = run(*args, env={**os.environ, "SEMISWITCH_SEARCH_BUDGET": "5"})
    assert plain.returncode == knob.returncode == 0
    assert knob.stdout == plain.stdout
    assert records(knob.stdout)[0]["budget"] == 1 << 20


def test_zero_budget_is_valid():
    # no draws: a config record and an empty result
    for command in ("search", "codes"):
        res = run(command, "--p", "3", "--n", "2", "--random", "--budget", "0")
        assert res.returncode == 0
        assert records(res.stdout)[0]["record"] == "config"


def test_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        BASE + ["search", "--p", "3", "--n", "3", "--exhaustive"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["record"] == "config"
    proc.stdout.close()
    assert proc.wait(timeout=300) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_commands_do_not_import_numpy(tmp_path):
    # the package is pure Python: field construction, verify, hws, both
    # search modes and the code census import no numpy (two passing F_27
    # rows and two failing ones, so classify, nuclei and curve bounds run)
    rows = tmp_path / "rows.jsonl"
    rows.write_text(
        "".join(
            json.dumps({"coeffs": c}) + "\n"
            for c in ([22, 5, 19], [24, 21, 5], [1, 1, 1], [0, 5, 7])
        )
    )
    field = ["--p", "3", "--n", "3"]
    argvs = [
        ["verify", *field, str(rows)],
        ["hws", *field, str(rows)],
        ["search", *field, "--random", "--seed", "1", "--budget", "300"],
        ["search", *field, "--exhaustive"],
        ["codes", *field, "--exhaustive"],
    ]
    script = (
        "import sys\n"
        "from semiswitch import cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    assert '"predicate":true' in res.stdout and '"record":"summary"' in res.stdout


def test_exit_code_missing_infile(tmp_path):
    res = run("verify", "--p", "3", "--n", "2", str(tmp_path / "nope.jsonl"))
    assert res.returncode == 2


def test_exit_code_malformed_infile(tmp_path):
    infile = tmp_path / "bad.jsonl"
    infile.write_text('{"coeffs":[1,2,3]}\n')  # wrong arity for n = 2
    res = run("verify", "--p", "3", "--n", "2", str(infile))
    assert res.returncode == 2


@pytest.mark.parametrize("command", ["verify", "hws"])
@pytest.mark.parametrize(
    "line",
    [
        '{"coeffs": 5}',
        '{"coeffs": [null, 0]}',
        "[1, 2]",
        '{"coeffs": [1.5, 0]}',
        '{"coeffs": [true, 0]}',
        pytest.param("[" * 200000, id="deep-nesting"),
    ],
)
def test_exit_code_malformed_record(tmp_path, command, line):
    infile = tmp_path / "bad.jsonl"
    infile.write_text(line + "\n")
    res = run(command, "--p", "3", "--n", "2", str(infile))
    assert res.returncode == 2
    assert res.stderr.startswith("invalid input: line 1:")


def test_search_conflicting_modes():
    res = run("search", "--p", "3", "--n", "2", "--exhaustive", "--random")
    assert res.returncode == 2


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
COEFFS = JSON | st.lists(st.integers(min_value=-2, max_value=10), max_size=3)
RECORD = JSON | st.fixed_dictionaries({"coeffs": COEFFS})


@pytest.mark.parametrize("command", ["verify", "hws"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=st.lists(RECORD, min_size=1, max_size=4))
def test_fuzz_records_exit_0_or_2(tmp_path, capsys, command, lines):
    infile = tmp_path / "fuzz.jsonl"
    infile.write_text("".join(json.dumps(v) + "\n" for v in lines))
    assert cli.main([command, "--p", "3", "--n", "2", str(infile)]) in (0, 2)
    capsys.readouterr()
