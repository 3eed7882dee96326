"""Linear systems for the weighted counting series and their solutions.

For a validated spec this module assembles the coefficient matrix tying
together F (all allowed words), one G per repeated word (words ending
with it) and one Fa per forbidden word (words whose only forbidden
occurrence is terminal).  One builder serves both modes: it uses tail
correlations and embedded-occurrence weights, which for a reduced union
are the plain correlations and weight 1.

Every entry is a polynomial in z (a correlation polynomial times a
constant), so the system is held once, as one labelled polynomial
matrix: :func:`system_rows` builds its rows and :func:`build_system`
labels them, for a spec and for its extension alike.  It reads
[[z - q, -z w^T], [1, C]] with the weights w of :func:`targets` and the
core C (:attr:`GenFunSystem.core`), so x = C^-1 1 gives F = z / (z - q
+ R) with R = z w^T x and every other series as -F x_i.  One Cramer
solve of the core, in either mode, serves :func:`constraint_correction`
and :func:`solve_generating_functions`; the bordered matrix is never
solved.  The solve asserts, by cross-multiplication, that the closed
forms (:func:`closed_form`) from R and from the conjugate core
(:attr:`GenFunSystem.conjugate`) reproduce F.  ``spectral.Analysis``
keeps each of these as a stage.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, partial
from typing import NamedTuple

from . import words as W
from .errors import NumericError
from .langmodel import ShiftSpec
from .ratfield import Poly, RatFun, RatMat, quotient_json
from .words import Word


def targets(spec: ShiftSpec) -> tuple[tuple[Word, Fraction], ...]:
    """The rows of the core in order, each word with its weight w in the
    correction: (m - 1)/m for a repeated word, minus the embedded weight
    for a forbidden one (-1 on a reduced union).  The top row of the
    counting system is built from them: its entry in column t is -w z."""
    return tuple((r, Fraction(m - 1, m)) for r, m in spec.repeated) + \
        tuple((a, Fraction(-embedded_weight(spec, a))) for a in spec.forbidden)


def _labels(spec: ShiftSpec) -> tuple[str, ...]:
    return tuple(f"G[{''.join(r)}]" for r in spec.repeated_words) + \
        tuple(f"Fa[{''.join(a)}]" for a in spec.forbidden)


def correlation_matrix(spec: ShiftSpec) -> RatMat:
    """The core (l+s)-square matrix of the counting system.

    Entry regimes: repeated-vs-repeated rows carry z(1 - 1/m_j)(r_j,
    r_i)_z minus z^|r_j| on the diagonal, forbidden columns carry
    -z(a_j, r_i)_z, and the forbidden rows repeat the pattern with the
    correlations taken against a_i (see :attr:`GenFunSystem.core`).
    """
    return build_system(spec).core


def conjugate_rows(rows) -> list[list[Poly]]:
    """D^-1 P^T D of the core P of the bordered matrix rows, entrywise, in
    either mode.  D is diagonal with c_i z, c the weights of :func:`targets`
    (minus the top row after the corner), so entry (i, j) is P_ji scaled
    by c_j / c_i, and z c^T (D^-1 P^T D)^-1 1 = z c^T P^-1 1 = R."""
    c = [-e.coeff(1) for e in rows[0][1:]]
    n = len(c)
    return [[rows[1 + j][1 + i] * (c[j] / c[i]) for j in range(n)] for i in range(n)]


def conjugate_correlation_matrix(system: GenFunSystem) -> RatMat:
    """The conjugate core of a system (:func:`conjugate_rows`)."""
    return RatMat.from_rows(conjugate_rows(system.matrix.entries), system.matrix.labels[1:])


class GenFunSystem:
    """Bordered polynomial coefficient matrix, labelled by the unknowns,
    right-hand side (z, 0, ..., 0) and mode ("reduced" or
    "non_reduced").  Immutable; the core and its conjugate are cached on
    first use."""

    def __init__(self, matrix: RatMat, rhs: tuple[Poly, ...], mode: str):
        vars(self).update(matrix=matrix, rhs=rhs, mode=mode)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "labels": list(self.matrix.labels),
            "matrix": self.matrix.to_json(),
            "rhs": [quotient_json(e) for e in self.rhs],
        }

    @cached_property
    def core(self) -> RatMat:
        """The core correlation matrix: the lower-right block of the
        bordered matrix."""
        return RatMat.from_rows([row[1:] for row in self.matrix.entries[1:]],
                                self.matrix.labels[1:])

    @cached_property
    def conjugate(self) -> RatMat:
        """The conjugate core D^-1 P^T D, built once per system."""
        return conjugate_correlation_matrix(self)


def embedded_weight(spec: ShiftSpec, a: Word, threshold: int = 0) -> int:
    """Product of multiplicities over repeated words embedded in a.

    One factor m_j per occurrence of r_j inside a beyond the cut-off
    (``threshold`` as in :func:`words.non_terminal_occurrences`).  This
    is the weight a forbidden-tail word sheds relative to the plain
    product weight, so it multiplies; the worked systems, where no
    forbidden word embeds more than one occurrence, cannot tell the
    product from the first-order sum 1 + sum (m_j - 1) gamma.
    """
    out = 1
    for r, m in spec.repeated:
        out *= m ** W.non_terminal_occurrences(a, r, threshold)
    return out


def system_rows(spec: ShiftSpec) -> tuple[tuple[Poly, ...], ...]:
    """Bordered (1+l+s) matrix of the counting system as rows of
    polynomials, corner z - q.

    Entry (t_k, w) sums one term per overlap s of (w, t_k): (1 - 1/m_j)
    z^s for a repeated column r_j, with s < |r_j| in a forbidden row
    (a whole r_j overlapping a forbidden word would sit inside it), and
    -z^s times the embedded-occurrence weight for a forbidden column,
    with s <= |t_k| (a longer overhang would put the whole appended
    word inside a, impossible for reduced collections).  For a reduced
    union every weight is 1.  An overlap index finds the nonzero
    entries: the core's words (repeated, then forbidden) by their
    suffixes, read off each target's prefixes t_k[:s].  Each entry is
    one integer coefficient list over its denominator (m_j, or 1).
    """
    reps, fws = spec.repeated, spec.forbidden
    ell, zero, one = len(reps), Poly.zero(), Poly.one()
    rows = [(Poly._of([-spec.q, 1]), *(Poly([0, -w]) for _, w in targets(spec)))]

    core = spec.repeated_words + fws
    by_suffix: dict[Word, list[int]] = {}
    for c, w in enumerate(core):
        for s in range(1, len(w) + 1):
            by_suffix.setdefault(w[-s:], []).append(c)
    tail_weight = cache(partial(embedded_weight, spec))
    for k, t_k in enumerate(core):
        repeated_row = k < ell
        coefs: dict[int, dict[int, int]] = {}  # column -> overlap s -> coefficient of z^s
        for s in range(1, len(t_k) + 1):
            for c in by_suffix.get(t_k[:s], ()):
                if c >= ell:
                    coefs.setdefault(c, {})[s] = -tail_weight(core[c], 0 if repeated_row else s)
                elif repeated_row or s < len(core[c]):
                    coefs.setdefault(c, {})[s] = reps[c][1] - 1
        if repeated_row:  # the diagonal's -z^|r_k|, at r_k's own overlap s = |r_k|
            coefs[k][len(t_k)] -= reps[k][1]
        row = [one] + [zero] * len(core)
        for c, coef in coefs.items():
            row[1 + c] = Poly._of([coef.get(s, 0) for s in range(max(coef) + 1)],
                                  reps[c][1] if c < ell else 1)
        rows.append(tuple(row))
    return tuple(rows)


def build_system(spec: ShiftSpec) -> GenFunSystem:
    """The counting system in the mode the spec calls for: the rows of
    :func:`system_rows` as a labelled matrix."""
    labels = ("F",) + _labels(spec)
    matrix = RatMat.from_rows(system_rows(spec), labels)
    rhs = (Poly.x(),) + (Poly.zero(),) * (matrix.nrows - 1)
    return GenFunSystem(matrix, rhs, "reduced" if spec.union_reduced else "non_reduced")


class GenFunSolution(NamedTuple):
    """All counting series of a spec, as canonical rational functions
    from one solve of the core of ``system``."""

    all_words: RatFun                       # F
    ending_with: tuple[tuple[Word, RatFun], ...]   # G per repeated word
    forbidden_tail: tuple[tuple[Word, RatFun], ...]  # Fa per forbidden word
    system: GenFunSystem
    correction: RatFun                      # R of F = z / (z - q + R)

    @property
    def mode(self) -> str:
        return self.system.mode

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "F": self.all_words.to_json(),
            "G": {"".join(w): f.to_json() for w, f in self.ending_with},
            "Fa": {"".join(w): f.to_json() for w, f in self.forbidden_tail},
        }


def _weighted_solve(spec: ShiftSpec, core: RatMat) -> tuple[tuple[Poly, ...], Poly, Poly]:
    """x = C^-1 1 = ys / D (:attr:`RatMat.inverse_row_sums`) and z sum_i w_i ys_i."""
    ys, det = core.inverse_row_sums
    return ys, det, sum((y * w for (_, w), y in zip(targets(spec), ys)), Poly.zero()).shift(1)


def constraint_correction(spec: ShiftSpec, core: RatMat) -> RatFun:
    """The correction R with F = z / (z - q + R) from the core of a spec
    (or from its conjugate): R = z * sum_i w_i x_i, the weighted row sums
    x = C^-1 1 of the inverted core.  One solve by Cramer gives x_i =
    y_i / D over one common denominator, so R is the single quotient
    z * sum_i w_i y_i / D; zero for empty collections."""
    _, det, num = _weighted_solve(spec, core)
    return RatFun(num, det)


def closed_form(q: int, r: RatFun) -> tuple[Poly, Poly]:
    """F = z / (z - q + R) as the polynomial pair (z den, (z - q) den +
    num) of R = num / den.  R is canonical, so the second is already the
    reduced numerator of z - q + R: it shares no factor with den."""
    return r.den.shift(1), Poly._of([-q, 1]) * r.den + r.num


def _solution(spec: ShiftSpec, system: GenFunSystem, correction: RatFun) -> GenFunSolution:
    """Every series from the one solve of the core, x = ys / D: with
    Q = (z - q) D + z sum_i w_i ys_i, F = z D / Q and the series of the
    i-th core row (G, then Fa) is -F x_i = -z ys_i / Q.  The closed forms
    from the correction and from the conjugate core must reproduce F,
    F.num * den == num * F.den for each pair (num, den)."""
    ys, det, weighted = _weighted_solve(spec, system.core)
    common = Poly._of([-spec.q, 1]) * det + weighted  # Q
    f = RatFun(det.shift(1), common)
    series = [RatFun(y.shift(1) * -1, common) for y in ys]
    ell = len(spec.repeated)
    for r in (correction, constraint_correction(spec, system.conjugate)):
        num, den = closed_form(spec.q, r)
        if f.num * den != num * f.den:
            raise NumericError("closed forms disagree with the solved system")
    return GenFunSolution(f, tuple(zip(spec.repeated_words, series[:ell])),
                          tuple(zip(spec.forbidden, series[ell:])), system, correction)


def solve_generating_functions(spec: ShiftSpec) -> GenFunSolution:
    """Solve the counting system exactly (:func:`_solution`); a closed
    form that misses F is an internal error, not a tolerance matter."""
    system = build_system(spec)
    return _solution(spec, system, constraint_correction(spec, system.core))
