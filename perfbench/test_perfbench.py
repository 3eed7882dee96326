"""Checks of the benchmark's own parts: the tracer, the brute-force
counter that confirms recorded count tables, and the output comparison."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import multishift  # noqa: E402
from multishift import cli  # noqa: E402

from gen import brute_tables  # noqa: E402
from outputs import extract, mismatch  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

COUNTING = HERE.parent / "src" / "multishift" / "fixtures" / "counting.json"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _originals():
    funcs = []
    for mod_name, names in TARGETS.items():
        mod = sys.modules[f"multishift.{mod_name}"]
        funcs += [getattr(mod, n) for n in names if "." not in n
                  and not isinstance(getattr(mod, n), type)]
    return funcs


def test_traced_perron_counts_calls_made_through_imported_names():
    # spectral calls weighted_count through its own imported binding
    with Tracer() as tracer:
        code, _ = _run(["perron", "--spec", str(COUNTING)])
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["langmodel.weighted_count"][1] > 0
    assert metrics["spectral.perron_root"][1] > 0
    assert metrics["cli.main"][1] == 1


def test_self_times_sum_to_the_root_span():
    with Tracer() as tracer:
        _run(["verify", "--json", "--spec", str(COUNTING), "--max-n", "6"])
    total = sum(self_s for self_s, _ in tracer.metrics().values())
    assert tracer.root_s > 0
    assert total == pytest.approx(tracer.root_s, rel=1e-9)


def test_every_binding_is_wrapped_and_then_restored():
    originals = _originals()
    with Tracer():
        held = [(name, attr) for name, mod in list(sys.modules.items())
                if name.startswith("multishift") for attr, value in vars(mod).items()
                if any(value is f for f in originals)]
        assert held == []
    assert multishift.spectral.weighted_count is multishift.langmodel.weighted_count
    assert _originals() == originals


def test_brute_force_counter_matches_the_published_tables():
    doc = json.loads(COUNTING.read_text())
    expected = doc["expected"]
    tables = brute_tables(doc, len(expected["f"]))
    assert tables["f"][1:] == expected["f"]
    assert tables["g"]["000"][1:] == expected["g"]["000"]
    assert tables["fa"]["010"][1:] == expected["fa"]["010"]


def test_mismatch_reports_exit_and_field_changes():
    code, stdout = _run(["enumerate", "--spec", str(COUNTING), "--max-n", "6"])
    ref = extract("enumerate", code, stdout)
    assert mismatch(ref, ref) is None
    changed = json.loads(json.dumps(ref))
    changed["exact"]["f"][3] += 1
    assert mismatch(changed, ref) == "exact fields differ from the reference"
    assert mismatch({"exit": 3}, ref) == "exit 3, expected 0"
