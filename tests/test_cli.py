import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from multishift import ratfield
from multishift.cli import COMMANDS, emit, main, parse_args
from multishift.fixtures import fixture_document, list_fixtures
from multishift.langmodel import DEFAULT_BUDGET
from multishift.measures import EDGE_ROUTES, VERTEX_ROUTES

SRC = Path(__file__).resolve().parent.parent / "src"
FIXDIR = SRC / "multishift" / "fixtures"


def run_cli(args, stdin_text=None, **run_options):
    # the child imports the package from this checkout, like the test process
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "multishift.cli", *args],
                          capture_output=True, text=True, input=stdin_text,
                          env={**os.environ, "PYTHONPATH": path}, **run_options)
    return proc.returncode, proc.stdout, proc.stderr


def write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_enumerate_matches_published_table():
    code, out, _ = run_cli(["enumerate", "--spec", str(FIXDIR / "counting.json"),
                            "--max-n", "10"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["f"] == [1, 2, 4, 8, 17, 37, 81, 178, 392, 864, 1905]
    assert result["g"]["000"] == [0, 0, 0, 2, 6, 14, 32, 72, 160, 354, 782]
    assert result["fa"]["010"] == [0, 0, 0, 1, 2, 4, 9, 20, 44, 97, 214]


def test_enumerate_full_shift_and_zero():
    code, out, _ = run_cli(["enumerate", "--spec", str(FIXDIR / "full_shift.json"),
                            "--max-n", "4"])
    assert json.loads(out)["result"]["f"] == [1, 2, 4, 8, 16]
    code, out, _ = run_cli(["enumerate", "--spec", str(FIXDIR / "full_shift.json"),
                            "--max-n", "0"])
    assert json.loads(out)["result"]["f"] == [1]


def test_enumerate_table_format():
    code, out, _ = run_cli(["enumerate", "--spec", str(FIXDIR / "counting.json"),
                            "--max-n", "4", "--table"])
    assert code == 0
    assert "g[000]" in out.splitlines()[0]
    assert out.splitlines()[1].split() == ["0", "1", "0", "0"]


def test_enumerate_table_ignores_slices():
    base = ["enumerate", "--spec", str(FIXDIR / "counting.json"), "--max-n", "9", "--table"]
    plain = run_cli(base)
    assert plain[0] == 0
    assert run_cli(base + ["--slices"]) == plain


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_enumerate_no_slices_below_one(max_n):
    code, out, err = run_cli(["enumerate", "--spec", str(FIXDIR / "counting.json"),
                              "--max-n", max_n, "--slices"])
    assert code == 0, err
    assert json.loads(out)["result"]["slices"] == []


def test_enumerate_slices_budget(tmp_path):
    doc = {"alphabet": ["0", "1"], "forbidden": [], "repeated": []}
    code, out, err = run_cli(["enumerate", "--spec", write_spec(tmp_path, doc),
                              "--max-n", "40", "--budget", "1000", "--slices"])
    assert (code, out) == (3, "")
    assert err == "budget exceeded: 2^40 strings exceed the budget 1000\n"


@pytest.mark.parametrize("args", [
    ["perron", "--table"], ["genfun", "--json"], ["measure", "--cylinder", "000", "--table"],
    ["escape", "--word", "00*00#1", "--json"], ["enumerate", "--allow-reducible"],
    ["genfun", "--allow-reducible"]],
    ids=["perron-table", "genfun-json", "measure-table", "escape-json",
         "enumerate-reducible", "genfun-reducible"])
def test_options_no_command_reads_are_refused(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--spec", str(FIXDIR / "counting.json"), *args[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("fixture, word, why", [
    ("counting", "01*10#1", "cylinder path uses a missing edge"),
    ("counting", "00*00#3", "branch index 3 outside 1..2"),
    ("entropy_split", "000", "00 is not an allowed block of length 2")],
    ids=["missing-edge", "branch-range", "unknown-block"])
def test_escape_and_measure_refuse_a_path_alike(capsys, fixture, word, why):
    for command, option in (("escape", "--word"), ("measure", "--cylinder")):
        code = main([command, "--spec", str(FIXDIR / f"{fixture}.json"), option, word])
        assert (code, capsys.readouterr().err) == (2, f"spec error: {why}\n"), command


def test_genfun_nonreduced_series():
    code, out, _ = run_cli(["genfun", "--spec", str(FIXDIR / "nonreduced.json")])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["series"][:6] == ["1", "2", "5", "11", "24", "51"]
    assert result["solution"]["F"] == {"num": ["0", "0", "-1", "1"],
                                       "den": ["2", "1", "-3", "1"]}


def test_perron_report_published_values():
    code, out, _ = run_cli(["perron", "--spec", str(FIXDIR / "eigenvectors.json")])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["perron"]["certificate"]["exact"] == "2"
    assert result["eigenvectors"]["U_exact"] == ["3/2", "1", "1/2", "1"]
    assert result["eigenvectors"]["V_exact"] == ["2/3", "2/3", "4/3", "4/3"]
    assert result["normalization"]["UtV_exact"] == "11/3"
    assert result["irreducible"] is True


def test_perron_forced_reducible_report_omits_failed_vectors():
    # first_language is reducible and its formula vectors degenerate
    code, out, err = run_cli(["perron", "--spec", str(FIXDIR / "first_language.json"),
                              "--allow-reducible"])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["irreducible"] is False
    assert result["perron"]["certificate"]["exact"] == "2"
    assert result["entropy"]["entropy"] == format(math.log(2), ".15g")
    assert result["eigenvectors"] is None
    assert result["normalization"] is None
    assert result["residuals"] is None
    # nonreduced is reducible too, but its formula vectors are valid
    code, out, err = run_cli(["perron", "--spec", str(FIXDIR / "nonreduced.json"),
                              "--allow-reducible"])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["irreducible"] is False and result["eigenvectors"]["exact"] is True


@pytest.mark.parametrize("m", [10 ** 8, 10 ** 10])
def test_perron_large_multiplicity(tmp_path, m):
    doc = {"alphabet": ["0", "1"], "forbidden": ["11"],
           "repeated": [{"word": "00", "multiplicity": m}]}
    code, out, err = run_cli(["perron", "--spec", write_spec(tmp_path, doc)])
    assert code == 0, err
    cert = json.loads(out)["result"]["perron"]["certificate"]
    low, high = Fraction(cert["low"]), Fraction(cert["high"])
    # the root (m + sqrt(m^2 + 4)) / 2 is the positive zero of x^2 - m x - 1
    assert 0 < low and low * low - m * low - 1 <= 0 <= high * high - m * high - 1


@pytest.mark.parametrize("args", [["perron"], ["verify", "--max-n", "4"],
                                  ["measure", "--cylinder", "000"],
                                  ["escape", "--word", "0*0#1"]])
def test_multiplicity_beyond_float_range_exits_numeric(tmp_path, args):
    # the root and the counts are exact, but their float views overflow
    doc = {"alphabet": ["0", "1"], "forbidden": ["11"],
           "repeated": [{"word": "00", "multiplicity": 10 ** 320}]}
    code, _, err = run_cli([args[0], "--spec", write_spec(tmp_path, doc), *args[1:]])
    assert code == 4, err
    assert err.startswith("numeric failure: ") and "Traceback" not in err


@pytest.mark.parametrize("args", [["perron"], ["measure", "--cylinder", "0000"]])
def test_non_positive_perron_vector_exits_numeric(tmp_path, args):
    # the float formulas cancel on this spec: 14 of the 60 entries of V and
    # all of U come out <= 0, yet both residuals are tiny; a Perron vector
    # of an irreducible matrix is strictly positive
    doc = {"alphabet": ["0", "1", "2"], "forbidden": ["22", "00212", "00112"],
           "repeated": [{"word": "00", "multiplicity": 10 ** 6},
                        {"word": "20", "multiplicity": 3}]}
    code, out, err = run_cli([args[0], "--spec", write_spec(tmp_path, doc), *args[1:]])
    assert code == 4 and out == "", err
    assert err.startswith("numeric failure: Perron eigenvectors have non-positive entries")


def test_escape_cost_does_not_grow_with_the_multiplicities(tmp_path):
    # 10^8 parallel loops at block 0: the transfer moves them as one
    # weighted step, within 1 GiB of address space and 60 s
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    m = 10 ** 8
    doc = {"alphabet": ["0", "1"], "forbidden": ["11"],
           "repeated": [{"word": "00", "multiplicity": m}]}
    code, out, err = run_cli(["escape", "--spec", write_spec(tmp_path, doc),
                              "--word", "0*0#1", "--max-n", "6"],
                             timeout=60, preexec_fn=limit)
    assert code == 0, err
    # length one: every edge but the hole, m - 1 loops, 0 -> 1 and 1 -> 0
    assert json.loads(out)["result"]["h"][1] == m + 1


def test_cli_import_needs_no_numpy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, multishift.cli; assert 'numpy' not in sys.modules, 'numpy imported'"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_cli_import_generates_no_code():
    # dataclasses and the introspection modules it pulls in cost about 12 ms
    # of every start-up, and its generated methods more, cached in no .pyc
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import multishift.cli; "
         "print(' '.join(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "multishift.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cli_calls_load_no_argparse_gettext_or_locale():
    # argparse imports gettext, which imports locale: about 6 ms of every start-up
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    spec = str(FIXDIR / "eigenvectors.json")
    calls = [["enumerate", "--max-n", "3", "--slices"], ["genfun"], ["perron"],
             ["measure", "--cylinder", "000"], ["escape", "--word", "00*00#1", "--max-n", "3"],
             ["verify", "--max-n", "4"]]
    script = ("import sys; before = set(sys.modules)\n"
              "import contextlib, io; import multishift.cli as cli\n"
              f"for argv in {calls!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              f"        assert cli.main([argv[0], '--spec', {spec!r}, *argv[1:]]) == 0, argv\n"
              "added = set(sys.modules) - before\n"
              "print(' '.join(sorted(added & {'argparse', 'gettext', 'locale'})))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout.strip()) == (0, ""), proc.stderr


def test_measure_routes_agree():
    code, out, _ = run_cli(["measure", "--spec", str(FIXDIR / "eigenvectors.json"),
                            "--cylinder", "00*00#1", "--route", "all"])
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["measures"]) == 3
    assert float(result["max_route_gap"]) <= 1e-9
    assert result["measures"][0]["exact"] == "3/22"


def test_measure_vertex_word():
    code, out, _ = run_cli(["measure", "--spec", str(FIXDIR / "eigenvectors.json"),
                            "--cylinder", "000", "--route", "markov"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["measures"][0]["exact"] == "3/22"


def test_measure_help_lists_each_route_once(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["measure", "--help"])
    assert exit_.value.code == 0
    routes = ("all",) + EDGE_ROUTES + VERTEX_ROUTES
    listed = re.findall(r"\{([a-z_,]+)\}", capsys.readouterr().out)
    assert listed and all(group.split(",") == list(dict.fromkeys(routes)) for group in listed)
    for route in routes:
        for cylinder in ("00*00#1",) * (route in ("all",) + EDGE_ROUTES) + \
                ("000",) * (route in ("all",) + VERTEX_ROUTES):
            assert main(["measure", "--spec", str(FIXDIR / "eigenvectors.json"),
                         "--cylinder", cylinder, "--route", route]) == 0, route
            measured = json.loads(capsys.readouterr().out)["result"]["measures"]
            assert route == "all" or [m["route"] for m in measured] == [route]


@pytest.mark.parametrize("cylinder, route, form", [
    ("00*00#1", "parry", "an edge"), ("000", "shannon_parry", "a vertex")],
    ids=["parry-on-edge", "shannon_parry-on-vertex"])
def test_measure_route_of_the_other_cylinder_form_is_a_spec_error(capsys, cylinder, route,
                                                                   form):
    code = main(["measure", "--spec", str(FIXDIR / "eigenvectors.json"),
                 "--cylinder", cylinder, "--route", route])
    assert (code, capsys.readouterr().err) == \
        (2, f"spec error: route {route!r} not valid for {form} cylinder\n")


COUNTING = str(FIXDIR / "counting.json")


@pytest.mark.parametrize("argv, reason", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["perron", "--spec", COUNTING, "extra", "-1"], "unrecognized arguments: extra -1"),
    (["perron", "--spec", COUNTING, "--bogus"], "unrecognized arguments: --bogus"),
    (["measure", "--spec", COUNTING], "the following arguments are required: --cylinder"),
    (["perron", "--spec"], "argument --spec: expected one argument"),
    (["perron", "--spec", "--allow-reducible"], "argument --spec: expected one argument"),
    (["enumerate", "--spec", COUNTING, "--max-n", "ten"], "argument --max-n: invalid int value"),
    (["enumerate", "--spec", COUNTING, "--max-n=1.5"], "argument --max-n: invalid int value"),
    (["measure", "--spec", COUNTING, "--cylinder", "000", "--route", "bogus"],
     "argument --route: invalid choice: 'bogus'"),
    (["verify", "--json", "--table", "--spec", COUNTING],
     "argument --table: not allowed with argument --json"),
    (["enumerate", "--spec", COUNTING, "--slices=yes"],
     "argument --slices: ignored explicit argument 'yes'"),
    (["enumerate", "--s", COUNTING], "ambiguous option: --s could match --spec, --slices")],
    ids=["no-command", "unknown-command", "unknown-token", "unknown-option", "missing-required",
         "missing-value", "option-for-value", "non-integer", "non-integer-after-equals",
         "route-outside-choices", "json-with-table", "value-to-switch", "ambiguous-prefix"])
def test_usage_errors_exit_2_with_usage_and_reason_on_stderr(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    command = argv[0] if argv and argv[0] in COMMANDS else None
    assert usage.startswith(f"usage: multishift {command or ''}".rstrip() + " [-h]")
    assert error.startswith(" ".join(filter(None, ["multishift", command])) + ": error: " + reason)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--version"], ["--vers"],
                                  *([command, "-h"] for command in COMMANDS),
                                  ["verify", "--spec", COUNTING, "--help"]])
def test_help_and_version_exit_0_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.strip()


def test_help_is_printed_from_the_option_table(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    lines = capsys.readouterr().out.splitlines()
    for command, (_, text, _) in COMMANDS.items():
        assert any(line.split() == [command, *text.split()] for line in lines), command
    for command, (_, _, options) in COMMANDS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for flag, _, default, text in options:
            assert text and flag in out
            assert " ".join(text.split()) + (" (required)" if default is None
                                             else f" (default: {default})") in out, flag


def test_option_grammar():
    head = ["enumerate", "--spec", "-"]
    assert parse_args(head + ["--max-n=3"]) == parse_args(head + ["--max-n", "3"]) \
        == parse_args(head + ["--max", "3"]) == parse_args(head + ["--max-n", "7", "--max-n", "3"])
    assert parse_args(head + ["--max-n", "3"]).max_n == 3
    assert parse_args(head + ["--max-n", "-1"]).max_n == -1
    assert parse_args(["enumerate", "--spec=-", "--tab"]).fmt == "table"


def test_option_defaults_and_no_state_between_parses():
    def parsed(*argv):
        return vars(parse_args([*argv, "--spec", "-"]))

    assert parsed("enumerate") == {"command": "enumerate", "spec": "-", "fmt": "json",
                                   "budget": DEFAULT_BUDGET, "max_n": 10, "slices": False}
    assert parsed("genfun") == {"command": "genfun", "spec": "-", "series_n": 12}
    assert parsed("perron") == {"command": "perron", "spec": "-", "allow_reducible": False}
    assert parsed("measure", "--cylinder", "000") == {
        "command": "measure", "spec": "-", "allow_reducible": False, "cylinder": "000",
        "route": "all"}
    assert parsed("escape", "--word", "0") == {
        "command": "escape", "spec": "-", "allow_reducible": False, "budget": DEFAULT_BUDGET,
        "word": "0", "max_n": 12}
    assert parsed("verify", "--json", "--max-n", "3")["fmt"] == "json"
    assert parsed("verify") == {"command": "verify", "spec": "-", "fmt": "table",
                                "allow_reducible": False, "budget": DEFAULT_BUDGET, "max_n": 10}


def test_escape_command():
    code, out, _ = run_cli(["escape", "--spec", str(FIXDIR / "escape_hole.json"),
                            "--word", "0*1#2,1*1#1", "--max-n", "12"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["h"][2] == 7
    assert result["tau"][1] == 6
    assert float(result["ln_lambda"]) > float(result["ln_theta_word"])


def test_verify_all_fixtures_pass():
    for name in list_fixtures():
        code, out, err = run_cli(["verify", "--spec", str(FIXDIR / f"{name}.json"),
                                  "--max-n", "8", "--allow-reducible"])
        assert code == 0, f"{name}: {out}{err}"
        assert "FAIL" not in out


def test_verify_catches_corrupted_fixture(tmp_path):
    doc = fixture_document("counting")
    doc["repeated"][0]["multiplicity"] = 3  # stale expected tables
    code, out, _ = run_cli(["verify", "--spec", write_spec(tmp_path, doc),
                            "--max-n", "10"])
    assert code == 1
    assert "FAIL expected_counts" in out


def test_exit_code_spec_error(tmp_path):
    doc = {"alphabet": ["0", "1"], "forbidden": ["00", "000"], "repeated": []}
    code, _, err = run_cli(["verify", "--spec", write_spec(tmp_path, doc)])
    assert code == 2
    assert "not reduced" in err


def test_exit_code_budget(tmp_path):
    doc = {"alphabet": ["0", "1"], "forbidden": [], "repeated": []}
    code, _, err = run_cli(["enumerate", "--spec", write_spec(tmp_path, doc),
                            "--max-n", "40", "--budget", "1000"])
    assert code == 3


@pytest.mark.parametrize("command, fixture, options", [
    ("enumerate", "sparse_alpha15", ["--max-n", "1000000000000"]),
    ("verify", "sparse_alpha15", ["--max-n", "1000000000000"]),
    ("escape", "counting", ["--word", "00*00#1", "--max-n", "200000"])],
    ids=["enumerate", "verify", "escape"])
def test_budget_refuses_before_it_counts(capsys, command, fixture, options):
    # the refusal builds no power q**n of a huge n and runs no escape count
    start = time.monotonic()
    code = main([command, "--spec", str(FIXDIR / f"{fixture}.json"), *options])
    assert (code, capsys.readouterr().err[:17]) == (3, "budget exceeded: ")
    assert time.monotonic() - start < 1.0


def test_exit_code_io():
    code, _, err = run_cli(["enumerate", "--spec", "/nonexistent/spec.json"])
    assert code == 5


@pytest.mark.parametrize("content", [
    b"\xff\xfe", b"[" * 200000, b'{"alphabet": ["0", "1"], "n": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "deep-nesting", "5000-digit-integer"])
def test_unreadable_spec_exits_io_without_traceback(tmp_path, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    code, _, err = run_cli(["perron", "--spec", str(path)])
    assert code == 5
    assert err.startswith("cannot read spec: ") and "Traceback" not in err


def test_exit_code_unknown_keys(tmp_path):
    doc = {"alphabet": ["0", "1"], "verboten": ["00"]}
    code, _, err = run_cli(["verify", "--spec", write_spec(tmp_path, doc)])
    assert code == 2


def test_stdin_spec():
    doc = json.dumps({"alphabet": ["0", "1"], "forbidden": [],
                      "repeated": [{"word": "00", "multiplicity": 2}]})
    code, out, _ = run_cli(["enumerate", "--spec", "-", "--max-n", "3"], stdin_text=doc)
    assert code == 0
    assert json.loads(out)["result"]["f"] == [1, 2, 5, 13]


def test_stdin_spec_is_decoded_strictly():
    # \xff\xfe is no UTF-8 (it is a UTF-16 byte order mark): the decoding
    # error is reported, not a JSON one, in any locale
    proc = subprocess.run([sys.executable, "-m", "multishift.cli", "perron", "--spec", "-"],
                          capture_output=True, input=b"\xff\xfe",
                          env={**os.environ, "PYTHONPATH": str(SRC), "LC_ALL": "C"})
    assert proc.returncode == 5
    assert b"can't decode" in proc.stderr and b"Traceback" not in proc.stderr
    doc = {"alphabet": ["0", "1"], "forbidden": ["00"], "name": "\u00e9t\u00e9"}
    proc = subprocess.run([sys.executable, "-m", "multishift.cli", "enumerate", "--spec", "-",
                           "--max-n", "3"], capture_output=True,
                          input=json.dumps(doc, ensure_ascii=False).encode("utf-8"),
                          env={**os.environ, "PYTHONPATH": str(SRC), "LC_ALL": "C"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["f"] == [1, 2, 3, 5]


def test_reports_are_deterministic():
    args = ["perron", "--spec", str(FIXDIR / "no_witness.json")]
    outs = {run_cli(args)[1] for _ in range(3)}
    assert len(outs) == 1
    args2 = ["genfun", "--spec", str(FIXDIR / "entropy_split.json")]
    assert run_cli(args2)[1] == run_cli(args2)[1]


# a string that spells the separator the report writer replaces
ROW_BREAK = "],\n      ["
report_text = st.text(st.sampled_from('"\\[]{},:\n\t') | st.characters(min_codepoint=0x80),
                      max_size=6) | st.just(ROW_BREAK)
report_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2 ** 64, 2 ** 200), st.floats(),
    report_text,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
report_values = st.recursive(
    report_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(report_text, inner, max_size=4)
    | st.lists(st.lists(report_scalars, max_size=3) | st.tuples(report_scalars), max_size=4),
    max_leaves=30)


def emitted(obj) -> str:
    with redirect_stdout(io.StringIO()) as out:
        emit(obj)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(report_values)
@example([[1, 2], [], [3]])
@example([[ROW_BREAK, "x"], (1, -0.0), [[]], {}, [], 7, {"k": [ROW_BREAK]}])
@example({"a": {"b": [[[1]], [[]]], "c": {}}, "d": [(), [[]]]})
def test_report_writer_prints_what_json_dumps_indent_2_prints(obj):
    assert emitted(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [{"x": Fraction(1, 2)}, [[1, Fraction(1, 2)]], [1, {2}],
                                 {"rows": [(1,), [b"1"]]}])
def test_report_writer_refuses_what_json_cannot_encode(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        emitted(obj)


def test_main_entry_direct(capsys, tmp_path):
    # in-process call for coverage of the return path
    doc = {"alphabet": ["0", "1"], "forbidden": [], "repeated": []}
    assert main(["enumerate", "--spec", write_spec(tmp_path, doc), "--max-n", "2"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"]["f"] == [1, 2, 4]


def test_exit_code_numeric(tmp_path, monkeypatch):
    from multishift import cli
    from multishift.errors import NumericError

    def boom(spec, allow_reducible=False):
        raise NumericError("forced")

    monkeypatch.setattr(cli.spectral, "spectral_report", boom)
    doc = {"alphabet": ["0", "1"], "forbidden": [], "repeated": []}
    assert cli.main(["perron", "--spec", write_spec(tmp_path, doc)]) == 4


def test_inexact_division_exits_numeric(monkeypatch, capsys):
    exact = ratfield._zdiv

    def skewed(a, b):
        # one more in the constant term: a division by any non-unit
        # polynomial now leaves a remainder
        return exact([(a[0] if a else 0) + 1] + a[1:], b)

    monkeypatch.setattr(ratfield, "_zdiv", skewed)
    assert main(["genfun", "--spec", str(FIXDIR / "counting.json")]) == 4
    err = capsys.readouterr().err
    assert err == "numeric failure: exact Z[z] division left a remainder\n"


@st.composite
def spec_documents(draw):
    """Small spec documents over two or three symbols; about half carry one
    fault: a repeated or lone symbol, an empty or foreign word, or a
    multiplicity below 2."""
    alphabet = draw(st.sampled_from(("01", "012")))
    words = lambda lo: st.text(alphabet, min_size=lo, max_size=4)
    doc = {"alphabet": list(alphabet),
           "forbidden": draw(st.lists(words(2), max_size=3, unique=True)),
           "repeated": [{"word": w, "multiplicity": m} for w, m in
                        draw(st.lists(st.tuples(words(1), st.integers(2, 4)), max_size=2,
                                      unique_by=lambda t: t[0]))]}
    fault = draw(st.sampled_from((None, None, None, "symbols", "word", "multiplicity")))
    if fault == "symbols":
        doc["alphabet"] = draw(st.sampled_from((["0"], ["0", "0"], ["0", "1", "1"])))
    elif fault == "word":
        doc["forbidden"].append(draw(st.sampled_from(("", "x", "0x"))))
    elif fault == "multiplicity":
        doc["repeated"].append({"word": draw(words(1)), "multiplicity": draw(st.integers(0, 1))})
    return doc


@settings(max_examples=150, deadline=None)
@given(spec_documents(), st.sampled_from([("perron",), ("genfun",),
                                          ("verify", "--max-n", "4")]))
def test_random_documents_exit_with_a_documented_code(doc, command):
    stdin = io.TextIOWrapper(io.BytesIO(json.dumps(doc).encode("utf-8")))
    with mock.patch("sys.stdin", stdin), redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        code = main([command[0], "--spec", "-", *command[1:]])
    event(f"{command[0]} exit {code}")
    assert code in (0, 2, 3, 4, 5) or (code == 1 and command[0] == "verify")


def test_verify_max_n_below_p_is_raised_to_p():
    # building_blocks has p = 4; the suffix recurrences reach p positions ahead
    code, out, err = run_cli(["verify", "--spec", str(FIXDIR / "building_blocks.json"),
                              "--max-n", "2"])
    assert code == 0, f"{out}{err}"
    assert "Traceback" not in err
    assert "PASS recurrence_repeated_suffix" in out


def test_exit_code_bad_branch_index():
    code, _, err = run_cli(["measure", "--spec", str(FIXDIR / "counting.json"),
                            "--cylinder", "00*00#x"])
    assert code == 2
    assert "bad edge token" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [["measure", "--cylinder", ""],
                                  ["escape", "--word", " , "]],
                         ids=["measure", "escape"])
def test_exit_code_empty_cylinder(args):
    code, _, err = run_cli([args[0], "--spec", str(FIXDIR / "counting.json"), *args[1:]])
    assert code == 2
    assert "empty cylinder" in err
    assert "Traceback" not in err


# blocks 110 and 111 with the one edge 111 -> 110: no cycle, so no point
EMPTY_SHIFT = {"alphabet": ["0", "1"], "forbidden": ["00", "01", "1111"],
               "repeated": [{"word": "1110", "multiplicity": 2}]}


EMPTY_SHIFT_RUNS = {"perron": ["perron"], "escape": ["escape", "--word", "111*110#1"],
                    "measure": ["measure", "--cylinder", "111"]}


# the shift is named empty with --allow-reducible and without it; the
# runs with the flag keep the bare command as their id
@pytest.mark.parametrize("args, flag", [
    pytest.param(args, flag, id=name + suffix)
    for suffix, flag in (("", ["--allow-reducible"]), ("-without-flag", []))
    for name, args in EMPTY_SHIFT_RUNS.items()])
def test_an_empty_shift_is_a_spec_error(tmp_path, capsys, args, flag):
    path = write_spec(tmp_path, EMPTY_SHIFT)
    assert main([args[0], "--spec", path, *flag, *args[1:]]) == 2
    assert capsys.readouterr().err == \
        "spec error: the shift is empty: its block graph has no cycle\n"


@pytest.mark.parametrize("flag", [["--allow-reducible"], []], ids=["allow-reducible", "without-flag"])
def test_verify_skips_the_root_of_an_empty_shift(tmp_path, capsys, flag):
    path = write_spec(tmp_path, EMPTY_SHIFT)
    assert main(["verify", "--spec", path, *flag]) == 0
    assert "PASS perron_route_agreement: skipped: the shift is empty: its block graph " \
        "has no cycle\n" in capsys.readouterr().out


@pytest.mark.parametrize("theta, mark", [(16180339887.7753, "PASS"),
                                         (16180339887.7753 * (1 + 2e-6), "FAIL")])
def test_expected_theta_is_compared_relative_to_its_size(tmp_path, capsys, theta, mark):
    # theta is about 1e10 times the golden ratio; the first value is it to
    # 15 significant digits, the second is off by 2e-6 of it
    doc = {"alphabet": ["0", "1"],
           "repeated": [{"word": w, "multiplicity": 10 ** 10} for w in ("00", "01", "10")],
           "expected": {"theta": theta}}
    main(["verify", "--spec", write_spec(tmp_path, doc), "--max-n", "4"])
    assert f"{mark} expected_theta: got 16180339887.775" in capsys.readouterr().out


@pytest.mark.parametrize("doc, field", [
    ({"repeated": [{"word": "00"}]}, "repeated[0] has no multiplicity"),
    ({"repeated": [{"word": "00", "multiplicity": "2"}]}, "repeated[0].multiplicity"),
    ({"repeated": [{"word": "00", "multiplicity": 2.5}]}, "repeated[0].multiplicity"),
    ({"repeated": [{"word": "00", "multiplicity": True}]}, "repeated[0].multiplicity"),
    ({"forbidden": "01"}, "forbidden must be a list"),
    ({"repeated": "00"}, "repeated must be a list"),
    ({"repeated": ["00"]}, "repeated[0] must be a {word, multiplicity} object"),
    ({"expected": [1]}, "expected must be an object"),
    ({"expected": {"theta": "abc"}}, "expected.theta must be a number"),
    ({"expected": {"f": 5}}, "expected.f must be a list of integers"),
    ({"repeated": [{"word": "00", "multiplicity": 2}], "expected": {"g": [1]}},
     "expected.g must be an object"),
    ({"repeated": [{"word": "00", "multiplicity": 2}], "expected": {"g": {"11": [1]}}},
     "expected.g key '11' is not a repeated word"),
], ids=["no-multiplicity", "string-multiplicity", "float-multiplicity",
        "bool-multiplicity", "string-forbidden", "string-repeated", "non-object-entry",
        "list-expected", "string-theta", "int-f", "list-g", "unknown-g-word"])
def test_spec_document_types_are_strict(tmp_path, capsys, doc, field):
    path = write_spec(tmp_path, {"alphabet": ["0", "1"], **doc})
    assert main(["enumerate", "--spec", path, "--max-n", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and field in err


def test_zero_length_needs_no_budget():
    code, out, err = run_cli(["enumerate", "--spec", str(FIXDIR / "counting.json"),
                              "--max-n", "0", "--budget", "0"])
    assert code == 0, err
    assert json.loads(out)["result"]["f"] == [1]
