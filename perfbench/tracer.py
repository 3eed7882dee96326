"""Per-layer spans recorded from outside the package.

:class:`Tracer` replaces each listed function of ``multishift`` with a
timing wrapper at every place it is bound: the defining module, every
module that imported it by name, and the package namespace.  A span's
self time is its duration minus the durations of the wrapped calls made
directly inside it, so the self times of all wrapped functions add up
to the total time of the root span (``cli.main``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# module -> functions whose spans are recorded; "Class.method" wraps a
# method, a bare class name wraps its __init__
TARGETS = {
    "langmodel": ("validate_spec", "oracle_tables", "weighted_count",
                  "weighted_count_ending_with", "weighted_count_forbidden_suffix",
                  "enumerate_slice", "extend_repeated_to_full_length"),
    "genfun": ("build_system", "correlation_matrix", "conjugate_correlation_matrix",
               "solve_generating_functions", "constraint_correction"),
    "ratfield": ("RatMat.solve", "RatMat.inverse", "series_coeffs",
                 "largest_real_zero", "solve_numeric"),
    "spectral": ("adjacency_matrix", "is_irreducible", "power_iteration", "perron_root",
                 "perron_vectors", "eigenvector_normalization", "correction_derivative_at",
                 "multiplicity_one_witness", "entropy"),
    "measures": ("MeasureContext", "shannon_parry_matrix", "cylinder_measure",
                 "kolmogorov_report", "pushforward_report", "escape_report"),
    "verify": ("run_verification",),
    "cli": ("main",),
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Installs the wrappers on entry and restores every binding on exit."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_s = 0.0  # total duration of the outermost spans
        self._open: list[float] = []  # time spent in wrapped children, per open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        open_spans = self._open
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self_s[name] += took - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += took
                else:
                    self.root_s += took
        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for mod_name in TARGETS:
            importlib.import_module(f"multishift.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "multishift" or name.startswith("multishift.")]
        for mod_name, fns in TARGETS.items():
            mod = sys.modules[f"multishift.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                owner_name, _, method = fn_name.partition(".")
                if isinstance(getattr(mod, owner_name), type):
                    cls = getattr(mod, owner_name)
                    attr = method or "__init__"
                    self._rebind(cls, attr, self._wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(mod, fn_name)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def metrics(self) -> dict[str, tuple[float, int]]:
        """``name -> (self seconds, calls)`` for every listed function."""
        return {name: (self.self_s.get(name, 0.0), self.calls.get(name, 0))
                for name in span_names()}
