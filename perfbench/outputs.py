"""The checked part of a CLI report, and its comparison with a reference.

Only fields that an exact program must reproduce bit for bit are kept
(count tables, series, root certificates, exact eigenvectors and
measures, escape counts, verify check names with pass/fail).  A few
printed floats are kept apart and compared with a relative tolerance.
"""

from __future__ import annotations

import json
import math

FLOAT_RTOL = 1e-9


def _pick(d: dict, keys) -> dict:
    return {k: d.get(k) for k in keys}


def exact_fields(command: str, report: dict) -> dict:
    res = report["result"]
    if command == "enumerate":
        return _pick(res, ("f", "g", "fa", "slices"))
    if command == "genfun":
        return _pick(res, ("system", "solution", "series", "correction"))
    if command == "perron":
        ev, norm = res["eigenvectors"], res["normalization"]
        return {"adjacency": res["adjacency"], "irreducible": res["irreducible"],
                "certificate": _pick(res["perron"]["certificate"], ("low", "high", "exact")),
                "eigenvectors": _pick(ev, ("labels", "exact", "U_exact", "V_exact", "UtV_exact")),
                "normalization": _pick(norm, ("agree", "property_witness", "identity_exact")),
                "estimate_n": res["entropy"]["estimate_n"]}
    if command == "measure":
        return {"cylinder": res["cylinder"],
                "measures": [_pick(m, ("route", "exact")) for m in res["measures"]]}
    if command == "escape":
        return _pick(res, ("hole", "h", "tau", "word_weight", "counts_match_tau"))
    if command == "verify":
        return {"checks": [[c["name"], c["passed"]] for c in res["checks"]]}
    raise ValueError(f"unknown command {command!r}")


def float_fields(command: str, report: dict) -> list[float]:
    res = report["result"]
    if command == "perron":
        texts = [res["perron"]["theta"], res["entropy"]["entropy"]]
    elif command == "measure":
        texts = [m["value"] for m in res["measures"]]
    elif command == "escape":
        texts = [res["theta"]]
    else:
        texts = []
    return [float(t) for t in texts]


def extract(command: str, exit_code: int, stdout: str) -> dict:
    """What a run of one item is checked on: exit code, exact fields, floats."""
    out = {"exit": exit_code}
    if exit_code == 0:
        report = json.loads(stdout)
        out["exact"] = exact_fields(command, report)
        out["floats"] = float_fields(command, report)
    return out


def mismatch(got: dict, want: dict) -> str | None:
    """A one-line reason when ``got`` differs from the reference, else None."""
    if got["exit"] != want["exit"]:
        return f"exit {got['exit']}, expected {want['exit']}"
    if got.get("exact") != want.get("exact"):
        return "exact fields differ from the reference"
    got_f, want_f = got.get("floats", []), want.get("floats", [])
    if len(got_f) != len(want_f):
        return "float fields differ in number from the reference"
    for a, b in zip(got_f, want_f):
        if not math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL):
            return f"float {a!r} differs from reference {b!r}"
    return None
