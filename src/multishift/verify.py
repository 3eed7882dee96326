"""Cross-validation suite: every exact result against its independent oracle.

Each invariant produces one named pass/fail line.  The suite is what the
``verify`` subcommand runs; a spec file may bundle expected tables
(counts, root) which are then checked as well, so a corrupted spec is
caught by its stale expectations.
"""

from __future__ import annotations

from fractions import Fraction
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


def _recurrence_checks(spec: ShiftSpec, f, g, fa, max_n: int) -> list[CheckResult]:
    """The counting recurrences satisfied by the oracle tables."""
    out = []
    reps, fws = spec.repeated, spec.forbidden

    ok = True
    for n in range(max_n):
        lhs = spec.q * f[n] - f[n + 1]
        rhs = -sum(Fraction(m - 1, m) * g[r][n + 1] for r, m in reps)
        rhs += sum(genfun.embedded_weight(spec, a) * fa[a][n + 1] for a in fws)
        if lhs != rhs:
            ok = False
            break
    out.append(CheckResult("recurrence_extension", ok))

    # the join recurrences reach p positions ahead, so stop early enough
    safe_n = max(0, max_n - spec.p)

    ok = True
    for r_k, _ in reps:
        for n in range(safe_n + 1):
            rhs = Fraction(g[r_k][n + len(r_k)])
            for r_j, m_j in reps:
                for s in W.correlation_shifts(r_j, r_k):
                    rhs -= Fraction(m_j - 1, m_j) * g[r_j][n + s]
            for a in fws:
                for t in W.correlation_shifts(a, r_k):
                    if t <= len(r_k):
                        rhs += genfun.embedded_weight(spec, a) * fa[a][n + t]
            if f[n] != rhs:
                ok = False
    out.append(CheckResult("recurrence_repeated_suffix", ok))

    ok = True
    for a_k in fws:
        for n in range(safe_n + 1):
            rhs = Fraction(0)
            for r_j, m_j in reps:
                for s in W.correlation_shifts(r_j, a_k):
                    if s <= len(r_j) - 1:
                        rhs -= Fraction(m_j - 1, m_j) * g[r_j][n + s]
            for a_i in fws:
                for t in W.correlation_shifts(a_i, a_k):
                    rhs += genfun.embedded_weight(spec, a_i, threshold=t) * fa[a_i][n + t]
            if f[n] != rhs:
                ok = False
    out.append(CheckResult("recurrence_forbidden_suffix", ok))
    return out


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
        ok = all(mat.power_sum(n - spec.p + 1) == f[n]
                 for n in range(spec.p, min(spec.p + 6, max_n) + 1))
        checks.append(CheckResult("block_power_sums_match_counts", ok))

    irreducible = spectral.is_irreducible(mat)
    if irreducible or allow_reducible:
        try:
            # the root is refused unless the Sturm interval meets the enclosure
            root = an.root
            checks.append(CheckResult(
                "perron_route_agreement", True,
                f"Sturm interval meets the Collatz-Wielandt enclosure on the "
                f"{len(an.transfer)}-state transfer matrix, gap {root.route_gap:.3g}"))
        except EmptyShiftError as exc:
            checks.append(CheckResult("perron_route_agreement", True, f"skipped: {exc}"))
            root = None
        except MultishiftError as exc:
            checks.append(CheckResult("perron_route_agreement", False, str(exc)))
            root = None
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
    else:
        checks.append(CheckResult(
            "perron_route_agreement", True,
            "skipped: reducible adjacency matrix (pass allow_reducible to force)"))

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
