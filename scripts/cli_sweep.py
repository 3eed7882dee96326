"""Run every bundled fixture through eight CLI commands and record the runs.

    python scripts/cli_sweep.py OUTDIR

Each of the 14 fixtures x 8 commands = 112 runs is a fresh
``python -m multishift.cli`` process on this checkout's ``src``.  Each
run writes ``OUTDIR/<fixture>.<command>.txt`` with its exit code, stdout
and stderr, so ``diff -r`` between the OUTDIRs of two checkouts shows
every byte of output that changed.  ``OUTDIR/SHA256SUMS`` lists the
digest of every run in ``sha256sum`` format.  The committed manifest
``scripts/cli_sweep.sha256`` is that file for this checkout's output:
``sha256sum --quiet -c`` on it, run inside OUTDIR, names each run whose
output differs.  A change that alters output on purpose commits the new
manifest.  The sweep exits 1 when any run printed a traceback (an
uncaught exception), else 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from multishift.fixtures import list_fixtures, load_fixture  # noqa: E402


def commands(p: int) -> dict[str, list[str]]:
    """The eight runs of one fixture whose words have length at most p."""
    block = "0" * (p - 1)
    return {
        "enumerate": ["enumerate", "--max-n", "7"],
        "enumerate-slices": ["enumerate", "--max-n", "7", "--slices"],
        "genfun": ["genfun"],
        "perron": ["perron"],
        "perron-reducible": ["perron", "--allow-reducible"],
        "verify": ["verify", "--json", "--max-n", "7", "--allow-reducible"],
        "measure": ["measure", "--cylinder", "0" * (p + 1)],
        "escape": ["escape", "--word", f"{block}*{block}#1", "--max-n", "6"],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fixtures = SRC / "multishift" / "fixtures"
    tracebacks = []
    for name in list_fixtures():
        for cmd, args in commands(load_fixture(name).p).items():
            run = subprocess.run(
                [sys.executable, "-m", "multishift.cli", args[0],
                 "--spec", str(fixtures / f"{name}.json"), *args[1:]],
                capture_output=True, text=True, env=env)
            (out / f"{name}.{cmd}.txt").write_text(
                f"exit {run.returncode}\n--- stdout\n{run.stdout}--- stderr\n{run.stderr}")
            if "Traceback" in run.stderr:
                tracebacks.append(f"{name}.{cmd}")
    runs = sorted(out.glob("*.txt"))
    (out / "SHA256SUMS").write_text("".join(
        f"{hashlib.sha256(run.read_bytes()).hexdigest()}  {run.name}\n" for run in runs))
    print(f"{len(runs)} runs written to {out}")
    if tracebacks:
        print("traceback in: " + ", ".join(tracebacks), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
