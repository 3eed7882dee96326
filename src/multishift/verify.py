"""Cross-validation suite: every exact result against its independent oracle.

Each invariant produces one named pass/fail line.  The suite is what the
``verify`` subcommand runs; a spec file may bundle expected tables
(counts, root) which are then checked as well, so a corrupted spec is
caught by its stale expectations.  The three counting recurrences (Guibas
and Odlyzko's correlation recurrences with multiplicities) are compared in
integers scaled by L = lcm of the multiplicities, exact as L·(m−1)/m is an
integer, each target's terms built once (:func:`_recurrence_checks`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import genfun, measures, spectral, words as W
from .errors import EmptyShiftError, MultishiftError
from .langmodel import DEFAULT_BUDGET, ShiftSpec, oracle_tables
from .ratfield import series_coeffs
from .spectral import THETA_TOL


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}" + (f": {self.detail}" if self.detail else "")


class VerificationReport(NamedTuple):
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                           for c in self.checks]}


def _holds(scale: int, f: list[int], terms: list, n_stop: int) -> bool:
    """Whether scale·f_n = Σ c·t[n + s] over the terms (c, t, s), for each n < n_stop."""
    return all(scale * f[n] == sum(c * t[n + s] for c, t, s in terms) for n in range(n_stop))


def _recurrence_checks(spec: ShiftSpec, f, g, fa, max_n: int) -> list[CheckResult]:
    """The three counting recurrences satisfied by the oracle tables, with
    μ_j = (m_j - 1)/m_j, w(a) = genfun.embedded_weight(a), w_t(a) the same
    weight beyond the cut-off t, and C(u, v) the correlation shifts:

    - extension, n < max_n: q f_n - f_{n+1} = -Σ_j μ_j g_j(n+1) + Σ_a w(a) fa_a(n+1);
    - repeated suffix r_k, n <= max_n - p: f_n = g_k(n + |r_k|) - Σ_j Σ_{s ∈ C(r_j, r_k)}
      μ_j g_j(n+s) + Σ_a Σ_{t ∈ C(a, r_k), t <= |r_k|} w(a) fa_a(n+t);
    - forbidden suffix a_k, n <= max_n - p: f_n = -Σ_j Σ_{s ∈ C(r_j, a_k), s < |r_j|}
      μ_j g_j(n+s) + Σ_i Σ_{t ∈ C(a_i, a_k)} w_t(a_i) fa_i(n+t).

    Both sides are multiplied by L = lcm(m_j).  L·μ_j = L - L/m_j is an
    integer, as m_j divides L, so the scaled sides are integers, equal
    exactly when the unscaled sides are.  Each target's term list, one
    (coefficient, table, shift) per correlation shift with the weight
    folded in, is built once; each recurrence stops at its first failing n.
    """
    reps, fws = spec.repeated, spec.forbidden
    lcm = math.lcm(*(m for _, m in reps))
    shed = {r: lcm // m - lcm for r, m in reps}  # -L·μ_j
    weight = {a: lcm * genfun.embedded_weight(spec, a) for a in fws}
    extension = [(lcm, f, 1)] + [(shed[r], g[r], 1) for r in shed] + \
        [(weight[a], fa[a], 1) for a in fws]
    repeated = [[(lcm, g[r_k], len(r_k))]
                + [(shed[r], g[r], s) for r in shed for s in W.correlation_shifts(r, r_k)]
                + [(weight[a], fa[a], t) for a in fws
                   for t in W.correlation_shifts(a, r_k) if t <= len(r_k)] for r_k, _ in reps]
    forbidden = [[(shed[r], g[r], s) for r in shed
                  for s in W.correlation_shifts(r, a_k) if s < len(r)]
                 + [(lcm * genfun.embedded_weight(spec, a, threshold=t), fa[a], t)
                    for a in fws for t in W.correlation_shifts(a, a_k)] for a_k in fws]
    # the suffix recurrences reach p positions ahead, so stop early enough
    stop = max(0, max_n - spec.p) + 1
    return [CheckResult("recurrence_extension", _holds(lcm * spec.q, f, extension, max_n)),
            CheckResult("recurrence_repeated_suffix",
                        all(_holds(lcm, f, terms, stop) for terms in repeated)),
            CheckResult("recurrence_forbidden_suffix",
                        all(_holds(lcm, f, terms, stop) for terms in forbidden))]


def _measure_check(name: str, kind: str, failing: list[str], detail: str) -> CheckResult:
    """A measure check that fails on the classes ``failing``, the first
    five of them named after its detail."""
    if failing:
        detail += f"; failing {kind} " + ", ".join(failing[:5] + ["…"] * (len(failing) > 5))
    return CheckResult(name, not failing, detail)


def run_verification(spec: ShiftSpec, max_n: int = 10, budget: int = DEFAULT_BUDGET,
                     expected: dict | None = None,
                     allow_reducible: bool = False) -> VerificationReport:
    """Run the master invariant suite on one spec.

    The series checks and every spectral check read one
    :class:`spectral.Analysis`, so each stage runs once.  ``max_n`` is
    raised to at least p, the reach of the suffix recurrences.
    """
    checks: list[CheckResult] = []
    max_n = max(spec.p, max_n)
    f, g, fa = oracle_tables(spec, max_n, budget)

    an = spectral.Analysis(spec, allow_reducible)
    sol = an.solution
    fs = series_coeffs(sol.all_words, max_n)
    # Fraction == int compares exactly, so the integer tables are read as they are
    checks.append(CheckResult(
        "series_vs_oracle_all_words", fs == f,
        "" if fs == f else f"series {fs[:6]}... oracle {f[:6]}..."))
    for r, fun in sol.ending_with:
        got = series_coeffs(fun, max_n)
        checks.append(CheckResult(f"series_vs_oracle_suffix[{''.join(r)}]", got == g[r]))
    for a, fun in sol.forbidden_tail:
        got = series_coeffs(fun, max_n)
        checks.append(CheckResult(f"series_vs_oracle_forbidden_tail[{''.join(a)}]", got == fa[a]))

    checks.extend(_recurrence_checks(spec, f, g, fa, max_n))

    if sol.mode == "reduced":
        # the solution stage refuses, in either mode, an F that the closed
        # forms from the core and its conjugate miss; the reduced report names it
        checks.append(CheckResult("series_equals_correction_form", True))

    mat = an.matrix
    if all(len(r) == spec.p for r in spec.repeated_words):
        top = min(spec.p + 6, max_n)
        ok = mat.power_sums(top - spec.p + 1) == f[spec.p:top + 1]
        checks.append(CheckResult("block_power_sums_match_counts", ok))

    irreducible = spectral.is_irreducible(mat)
    root = None
    try:
        # the root is refused unless the Sturm interval meets the enclosure;
        # an empty shift is named before a reducible one is refused
        root = an.root
        checks.append(CheckResult(
            "perron_route_agreement", True,
            f"Sturm interval meets the Collatz-Wielandt enclosure on the "
            f"{len(spec.pattern_automaton.transfer)}-state transfer matrix, "
            f"gap {root.route_gap:.3g}"))
    except EmptyShiftError as exc:
        checks.append(CheckResult("perron_route_agreement", True, f"skipped: {exc}"))
    except MultishiftError as exc:
        refused = not (irreducible or allow_reducible)
        checks.append(CheckResult(
            "perron_route_agreement", refused,
            "skipped: reducible adjacency matrix (pass allow_reducible to force)"
            if refused else str(exc)))
    if root is not None and irreducible:
        try:
            res_l, res_r = an.vectors.residuals
            checks.append(CheckResult(
                "eigen_residuals", max(res_l, res_r) <= THETA_TOL,
                f"left {res_l:.3g} right {res_r:.3g}"))
            norm = an.normalization
            name = "normalization_identity"
            if norm.witness is None:
                checks.append(CheckResult(
                    name, True,
                    f"witness unknown; identity {'holds' if norm.agree else 'fails'} empirically"))
            else:
                checks.append(CheckResult(name, norm.agree))
            ctx = measures.MeasureContext(an)
            kol = measures.kolmogorov_report(ctx, min(4, max_n))
            checks.append(_measure_check(
                "measure_additivity", "blocks", kol["violations"],
                f"max defect {kol['max_defect']:.3g} over {kol['checked']} cylinders"))
            push = measures.pushforward_report(ctx, min(4, max_n))
            checks.append(_measure_check(
                "pushforward_equality", "classes",
                [f"{v['length']}:{v['block']}" for v in push["violations"]],
                f"{push['checked']} vertex words"))
        except MultishiftError as exc:
            checks.append(CheckResult("spectral_pipeline", False, str(exc)))

    if expected:
        def against(name: str, got_full: list[int], want_full: list) -> None:
            # bundled tables start at n = 1; compare the overlap only
            k = min(len(got_full) - 1, len(want_full))
            got, want = got_full[1:k + 1], list(want_full[:k])
            checks.append(CheckResult(name, got == want,
                                      "" if got == want else f"got {got}, expected {want}"))

        if "f" in expected:
            against("expected_counts", f, expected["f"])
        for key, table in (expected.get("g") or {}).items():
            against(f"expected_suffix_counts[{key}]", g[spec.word(key)], table)
        for key, table in (expected.get("fa") or {}).items():
            against(f"expected_forbidden_tail_counts[{key}]", fa[spec.word(key)], table)
        if "theta" in expected:
            try:
                # on an irreducible matrix the flag changes nothing, so
                # the analysis root serves
                root = an.root if irreducible or allow_reducible else \
                    spectral.perron_root(an, allow_reducible=True)
                want = float(expected["theta"])
                ok = abs(root.theta - want) <= 1e-6 * max(1.0, abs(want))
                checks.append(CheckResult("expected_theta", ok,
                                          f"got {root.theta}, expected {expected['theta']}"))
            except MultishiftError as exc:
                checks.append(CheckResult("expected_theta", False, str(exc)))

    return VerificationReport(checks)
