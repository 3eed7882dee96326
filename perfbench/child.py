"""One fresh process of the benchmark: a set-up measurement or one
repetition of a workload.

    python3 child.py setup JOB.json   # time import + reading/validating specs
    python3 child.py rep JOB.json     # run every item once through cli.main

The job names the checkout's ``src`` directory, which must be the one
``multishift`` is imported from.  The result is one JSON object on
standard output; the program's own output is captured per item.

Next to every timing the child also times :func:`probe_work`, a fixed
piece of pure-Python work that shares no code with the package, so the
parent can factor out how fast the host ran at that moment.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


_PROBE_WORDS = [tuple("0123"[(i * 7 + k) % 4] for k in range(6)) for i in range(64)]


def probe_work():
    """A mix of the operations the package spends its time on: tuple
    slicing and comparison, list.index, allocation of small tuples,
    lists and dict entries, and Fraction and big-int arithmetic."""
    from fractions import Fraction  # not at the top: set-up timing imports it
    table, hits, total, x = {}, 0, Fraction(0), 1
    for i in range(3000):
        table[(i % 97, i % 13)] = [i, (i, i + 1)]
    for i in range(600):
        w = _PROBE_WORDS[i % 64] + ("1",)
        hits += w[-3:] == ("0", "1", "1")
        hits += _PROBE_WORDS.index(_PROBE_WORDS[(i * 13) % 64])
        total += Fraction(i % 17 + 1, i % 13 + 2)
        x = (x * 1000003 + i) % (1 << 89)
    return len(table), hits, total, x


def probe() -> float:
    """Best of three timings of :func:`probe_work`.  The collector is off,
    so objects the program left alive cannot slow the probe down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            probe_work()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def _check_origin(src: str) -> None:
    import multishift
    origin = Path(multishift.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        sys.exit(f"multishift imported from {origin}, not from {src}")


def setup(job: dict) -> dict:
    start = perf_counter()
    import multishift  # noqa: F401  (the import is what is timed)
    from multishift import cli
    for path in job["specs"]:
        cli.spec_from_document(cli.load_spec_document(path))
    took = perf_counter() - start
    _check_origin(job["src"])
    return {"setup_s": took, "probe_s": probe()}


def run_item(cli, argv: list[str]) -> tuple[int, float, float, str]:
    """Exit code, seconds, probe seconds around the call, and stdout."""
    before = probe()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error ends a real CLI process with exit 1
            code = 1
        took = perf_counter() - start
    return code, took, (before + probe()) / 2, out.getvalue()


def rep(job: dict) -> dict:
    from multishift import cli
    _check_origin(job["src"])
    from outputs import extract
    from tracer import Tracer

    tracer = Tracer() if job["trace"] else contextlib.nullcontext()
    items = []
    with tracer:
        for item in job["items"]:
            code, took, probe_s, stdout = run_item(cli, item["argv"])
            items.append({"id": item["id"], "seconds": took, "probe_s": probe_s,
                          **extract(item["command"], code, stdout)})
    result = {"items": items,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if job["trace"]:
        result["trace"] = tracer.metrics()
    return result


def main() -> None:
    mode, job_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text())
    result = setup(job) if mode == "setup" else rep(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
