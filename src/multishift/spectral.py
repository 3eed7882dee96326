"""Adjacency matrices of a spec, Perron data, entropy, and the
normalization identity.

An :class:`Analysis` derives each stage of one spec once, on first use:
the extended spec, the adjacency matrix, the counting system, the
constraint correction, the counting series, the Perron root, the
formula eigenvectors, the normalization report and the entropy.  The
eigen stages read the extension's counting system, from the same
builder as the spec's and built once per distinct spec, only at the
root: its polynomial core is evaluated there and never solved
symbolically.  :func:`spectral_report`, the measure context, the
escape report and the verification suite read every stage from one
analysis; the public functions below are the same stages for callers
that need just one.

The Perron root always travels two independent routes: the largest real
zero of the denominator of the closed form F = z / (z - q + R)
(:func:`genfun.closed_form`), R from one solve of the core in either
mode, isolated by Sturm sequences, and an exact Collatz-Wielandt
enclosure on the transfer matrix of the automaton of F and R, whose
order is at most sum |w| + 1 however many blocks there are; the two
must meet or the computation refuses to answer.  The block matrix keeps
irreducibility, the empty-shift refusal, the eigenvectors and the
report.

Eigenvectors come from the correlation formulas; when the root is
certified exact the whole pipeline stays in big rationals.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from fractions import Fraction
from itertools import repeat
from operator import mul, truediv
from typing import NamedTuple, Sequence

from . import genfun
from .errors import EmptyShiftError, NumericError, RouteMismatchError, SpecError
from .langmodel import (ShiftSpec, _pattern_states, enumerate_slice,
                        extend_repeated_to_full_length, weighted_count)
from .ratfield import Poly, RatFun, RatMat, RootCertificate, largest_real_zero, solve_numeric
from .words import Word

THETA_TOL = 1e-9
POWER_TOL = 1e-12
POWER_CAP = 10 ** 5


def agree(a, b) -> bool:
    """The agreement rule of every numeric check: exact equality unless
    a float is involved, else a relative gap of at most THETA_TOL, so
    that the rule neither goes blind on small values nor breaks on large
    ones."""
    if not (isinstance(a, float) or isinstance(b, float)):
        return a == b
    return abs(a - b) <= THETA_TOL * max(abs(a), abs(b))


class AdjMatrix:
    """Non-negative integer matrix indexed by labeled words, stored as its
    block graph: per row i the pairs (j, e), e = A_ij > 0, in increasing
    j.  Every walk reads these lists; the dense rows exist only as the
    printed view :attr:`entries`.  Immutable; the derived views are
    cached on first use."""

    def __init__(self, labels: tuple[Word, ...],
                 successors: tuple[tuple[tuple[int, int], ...], ...]):
        if len(successors) != len(labels):
            raise ValueError("successor lists do not match the label count")
        vars(self).update(labels=labels, successors=successors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(e for _, e in row) for row in self.successors)

    @property
    def max_row_sum(self) -> int:
        return max(self.row_sums(), default=0)

    def binary(self) -> "AdjMatrix":
        """The compatible 0/1 matrix (same zero pattern)."""
        return AdjMatrix(self.labels,
                         tuple(tuple((j, 1) for j, _ in row) for row in self.successors))

    def entry(self, i: int, j: int) -> int:
        """A_ij, by a scan of row i's successor list."""
        return next((e for k, e in self.successors[i] if k == j), 0)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, a view for printing and for the length-2 spec of
        :func:`langmodel.spec_from_matrix`; nothing computes with them."""
        return tuple(tuple(map(dict(row).get, range(self.size), repeat(0)))
                     for row in self.successors)

    @cached_property
    def index(self) -> dict[Word, int]:
        """Label to row index."""
        return {x: i for i, x in enumerate(self.labels)}

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Strong components of the positive-entry digraph (see
        :func:`_strong_components`)."""
        return tuple(map(tuple, _strong_components(self.successors)))

    def path(self, vertices: Sequence[Word],
             branches: Sequence[int] | None = None) -> list[int]:
        """Row indices of a path of labels, refused unless every label is
        a block, every step an edge and every branch index within 1..e."""
        idx = []
        for v in vertices:
            if v not in self.index:
                raise SpecError(f"{''.join(v)} is not an allowed block of length "
                                f"{len(self.labels[0])}")
            idx.append(self.index[v])
        for k, (a, b) in enumerate(zip(idx, idx[1:])):
            e = self.entry(a, b)
            if e == 0:
                raise SpecError("cylinder path uses a missing edge")
            if branches is not None and not 1 <= branches[k] <= e:
                raise SpecError(f"branch index {branches[k]} outside 1..{e}")
        return idx

    def power_sums(self, k_max: int) -> list[int]:
        """The sums of all entries of the powers, 1^T A^k 1 for k = 1..k_max,
        from one run of k_max sparse products with the ones vector."""
        v, out = [1] * self.size, []
        for _ in range(k_max):
            v = [sum(e * v[j] for j, e in row) for row in self.successors]
            out.append(sum(v))
        return out

    def to_json(self) -> dict:
        return {"labels": ["".join(x) for x in self.labels],
                "entries": self.entries}


def _splice_matrix(spec: ShiftSpec, weight) -> AdjMatrix:
    """Matrix on the allowed words of length p-1 whose (X, Y) entry is
    ``weight(X*Y)`` when the splice exists (Y = X[1:] + s), else 0.  The
    labels are the entries of the language slice, which come out in
    lexicographic order, so the splices of X in alphabet order reach its
    successors in increasing j."""
    labels = [w for w, _ in enumerate_slice(spec.p - 1, spec).entries]
    if not labels:
        raise SpecError("no allowed words of length p-1; spec is over-constrained")
    index = {x: i for i, x in enumerate(labels)}
    rows = []
    for x in labels:
        row = []
        for s in spec.alphabet:
            if (j := index.get(x[1:] + (s,))) is not None and (e := weight(x + (s,))):
                row.append((j, e))
        rows.append(tuple(row))
    return AdjMatrix(tuple(labels), tuple(rows))


def adjacency_matrix(spec: ShiftSpec) -> AdjMatrix:
    """The edge-count matrix: labels are allowed words of length p-1 and
    the (X, Y) entry is the leading multiplicity of the splice X*Y when
    it is allowed, else 0.

    Both labels are allowed, so a splice is forbidden only when it is
    itself a forbidden word, and its leading multiplicity is m_r for the
    one repeated word r that is a prefix of it (R is reduced), else 1:
    one set and one dict lookup per splice, and the prefixes of each
    label read once."""
    forbidden, reps = frozenset(spec.forbidden), dict(spec.repeated)

    @cache
    def lead(x: Word) -> int:
        return next((reps[x[:k]] for k in range(1, len(x) + 1) if x[:k] in reps), 1)

    return _splice_matrix(
        spec, lambda xy: 0 if xy in forbidden else reps.get(xy) or lead(xy[:-1]))


def _strong_components(successors: Sequence[Sequence[tuple[int, int]]]) -> list[list[int]]:
    """Strongly connected components of the positive-entry digraph of the
    successor lists, by Tarjan's algorithm (1972), without recursion.  A
    vertex's low link drops to the order once its component is out, so
    finished vertices never lower another's."""
    size = len(successors)
    low: dict[int, int] = {}
    stack: list[int] = []
    work: list[tuple] = []  # (vertex, its number, its unread successors, its stack slot)
    components = []

    def enter(v: int) -> None:
        low[v] = len(low)
        work.append((v, low[v], iter(successors[v]), len(stack)))
        stack.append(v)

    for root in range(size):
        if root not in low:
            enter(root)
        while work:
            v, index, edges, slot = work[-1]
            for w, _ in edges:
                if w not in low:
                    enter(w)
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index:
                    components.append(stack[slot:])
                    del stack[slot:]
                    low.update(dict.fromkeys(components[-1], size))
    return components


def is_irreducible(mat: AdjMatrix) -> bool:
    """Strong connectivity of the positive-entry digraph: one strong
    component, which for a single block needs its loop."""
    return len(mat.components) == 1 and (mat.size > 1 or bool(mat.successors[0]))


class PowerResult(NamedTuple):
    lower: Fraction
    upper: Fraction
    iterations: int


def _plus_identity(v: list, rows: list) -> list:
    """(A + I) v over rows of (columns, weights), weights None for a row of
    unit weight; each entry sums e * v_j in increasing j, as the dense
    product does (1 * x is x, so unit rows skip the multiply)."""
    get = v.__getitem__
    return [x + (sum(map(get, cols)) if ws is None else sum(map(mul, ws, map(get, cols))))
            for x, (cols, ws) in zip(v, rows)]


def power_iteration(successors: Sequence[Sequence[tuple[int, int]]]) -> PowerResult:
    """Collatz-Wielandt enclosure of the Perron root of an irreducible
    matrix, given as its successor lists (per row the pairs (j, A_ij)
    with A_ij > 0, in increasing j).

    Iterates on A + I (primitive, so no period trouble) in floats until
    the min/max ratios ((A+I)v)_i / v_i pinch to relative POWER_TOL.
    For every positive v those ratios, less one, bound the spectral
    radius of a non-negative matrix (Collatz 1942, Wielandt 1950); they
    are taken exactly on the final vector, so rounding on the way cannot
    break the enclosure.  The exact step writes every final float as
    X_i / 2^K over one dyadic denominator, takes (A+I)X in integers and
    picks the extreme ratios by cross-multiplication, so only the two
    bounds become Fractions.
    """
    rows = [(tuple(j for j, _ in row),
             None if all(e == 1 for _, e in row) else tuple(e for _, e in row))
            for row in successors]
    v = [1.0] * len(rows)
    for it in range(1, POWER_CAP + 1):
        w = _plus_identity(v, rows)
        ratios = list(map(truediv, w, v))
        lower, upper = min(ratios), max(ratios)
        total = sum(w)
        v = [a / total for a in w]
        if upper - lower <= POWER_TOL * lower:
            break
    else:
        raise NumericError(f"power iteration did not converge in {POWER_CAP} steps "
                           f"(enclosure [{lower - 1}, {upper - 1}])")
    dyadic = [x.as_integer_ratio() for x in v]
    scale = max(d for _, d in dyadic)  # every d is a power of two
    xs = [n * (scale // d) for n, d in dyadic]
    ys = _plus_identity(xs, rows)
    lo = hi = 0
    for i in range(1, len(xs)):  # every X_i is positive
        if ys[i] * xs[lo] < ys[lo] * xs[i]:
            lo = i
        elif ys[i] * xs[hi] > ys[hi] * xs[i]:
            hi = i
    return PowerResult(Fraction(ys[lo], xs[lo]) - 1, Fraction(ys[hi], xs[hi]) - 1, it)


def _cw_enclosure(successors: Sequence[Sequence[tuple[int, int]]]) -> tuple[Fraction, Fraction]:
    """Enclosure of the spectral radius of any non-negative matrix, given
    as its successor lists: the largest over its strong components, each
    enclosed by the power iteration on its rows re-indexed in component
    order.  A one-vertex component without a loop is exactly [0, 0] and
    is not iterated."""
    lower = upper = Fraction(0)
    for comp in _strong_components(successors):
        if len(comp) == 1 and all(j != comp[0] for j, _ in successors[comp[0]]):
            continue
        if len(comp) == len(successors):
            rows = successors
        else:
            pos = {v: k for k, v in enumerate(comp)}
            rows = [sorted((pos[j], e) for j, e in successors[i] if j in pos) for i in comp]
        res = power_iteration(rows)
        lower, upper = max(lower, res.lower), max(upper, res.upper)
    return lower, upper


class PerronResult(NamedTuple):
    """Perron root with its exact certificate and the iterative cross-check."""

    theta: float
    certificate: RootCertificate
    theta_iterative: float
    route_gap: float
    irreducible: bool

    @property
    def exact(self) -> Fraction | None:
        return self.certificate.exact

    def scalar(self):
        """Fraction when exactly certified, float otherwise."""
        return self.certificate.scalar()

    def to_json(self) -> dict:
        return {
            "theta": format(self.theta, ".15g"),
            "certificate": self.certificate.to_json(),
            "theta_iterative": format(self.theta_iterative, ".15g"),
            "route_gap": format(self.route_gap, ".3g"),
            "irreducible": self.irreducible,
        }


def perron_root(source: ShiftSpec | Analysis, allow_reducible: bool = False) -> PerronResult:
    """Perron root by the combinatorial route, cross-checked iteratively.

    Accepts a validated spec or an :class:`Analysis` whose matrix,
    transfer matrix and correction it reuses; a caller holding an integer
    matrix converts it with :func:`langmodel.spec_from_matrix` first.
    The Sturm interval must meet the exact Collatz-Wielandt enclosure of
    the transfer matrix T (:attr:`Analysis.transfer`), whose midpoint is
    ``theta_iterative``; the enclosure is the largest over T's strong
    components.  Reducible inputs are an error unless explicitly allowed.
    A block graph without a cycle is refused: it is nilpotent, with root
    0, and the shift is empty.

    T and the block matrix A have the same spectral radius, reducible or
    not.  The automaton's walk gives f_n = e_root^T T^n 1 (the oracle's
    count), and every live state is reachable from the root, so rho(T) =
    limsup f_n^(1/n).  1^T A^k 1 is f_(p-1+k) but for the repeated
    occurrences that start in the last p - 1 symbols, a factor between 1
    and M^(p-1) for the largest multiplicity M, so rho(A) = limsup
    (1^T A^k 1)^(1/k) is the same growth rate.
    """
    an = source if isinstance(source, Analysis) else Analysis(source)
    mat = an.matrix
    if all(len(c) == 1 and not mat.entry(c[0], c[0]) for c in mat.components):
        raise EmptyShiftError("the shift is empty: its block graph has no cycle")
    irreducible = is_irreducible(mat)
    if not irreducible and not allow_reducible:
        raise SpecError("adjacency matrix is reducible; pass allow_reducible to proceed")
    # the root never exceeds the maximal row sum of a non-negative matrix
    cert = largest_real_zero(genfun.closed_form(an.spec.q, an.correction)[1],
                             1, mat.max_row_sum + 1)
    lower, upper = _cw_enclosure(an.transfer)
    if cert.low > upper or cert.high < lower:
        raise RouteMismatchError(
            f"combinatorial root in [{float(cert.low)!r}, {float(cert.high)!r}] misses "
            f"the iterative enclosure [{float(lower)!r}, {float(upper)!r}]")
    theta_iter = float((lower + upper) / 2)
    return PerronResult(cert.value, cert, theta_iter, abs(cert.value - theta_iter), irreducible)


class EigenData(NamedTuple):
    """Perron eigen data from the correlation formulas.

    U and V are the raw formula values (the printable ones); the
    normalized pair rescales U so that the dot product is one.  Entries
    are Fractions when the root is exactly certified, floats otherwise.
    """

    labels: tuple[Word, ...]
    left: tuple
    right: tuple
    left_normalized: tuple
    dot: object
    root: PerronResult
    exact: bool
    residuals: tuple[float, float]  # scaled (left, right) residuals, see eigen_residuals

    def to_json(self) -> dict:
        def fmt(xs):
            return [format(float(x), ".15g") for x in xs]
        out = {
            "labels": ["".join(x) for x in self.labels],
            "U": fmt(self.left),
            "V": fmt(self.right),
            "U_normalized": fmt(self.left_normalized),
            "V_normalized": fmt(self.right),
            "UtV": format(float(self.dot), ".15g"),
            "exact": self.exact,
        }
        if self.exact:
            out["U_exact"] = [str(x) for x in self.left]
            out["V_exact"] = [str(x) for x in self.right]
            out["UtV_exact"] = str(Fraction(self.dot))
        return out


def perron_vectors(spec: ShiftSpec, allow_reducible: bool = False) -> EigenData:
    """Left and right Perron eigenvectors from the correlation formulas
    (the :attr:`Analysis.vectors` stage)."""
    return Analysis(spec, allow_reducible).vectors


def eigen_residuals(mat: AdjMatrix, theta: float, left: Sequence, right: Sequence) -> tuple[float, float]:
    """Infinity-norm residuals of the two eigen equations, each relative
    to ||A|| ||v|| (maximal row sum times largest entry), so that they do
    not grow with the multiplicities."""
    u, v = [float(x) for x in left], [float(x) for x in right]
    ua = [0.0] * mat.size
    for x, row in zip(u, mat.successors):
        for j, e in row:
            ua[j] += x * e
    av = [sum(e * v[j] for j, e in row) for row in mat.successors]
    return tuple(max(abs(a - theta * b) for a, b in zip(image, vec))
                 / (mat.max_row_sum * max(map(abs, vec)) or 1.0)
                 for image, vec in ((ua, u), (av, v)))


class Witness(NamedTuple):
    """Multiplicity-one connector and cycle words behind the normalization."""

    start: Word
    anchor: Word
    connector: Word
    cycle: Word

    def to_json(self) -> dict:
        return {"X": "".join(self.start), "Y": "".join(self.anchor),
                "Z": "".join(self.connector), "W": "".join(self.cycle)}


def multiplicity_one_witness(spec: ShiftSpec | Analysis) -> Witness | None:
    """Bounded search for the normalization witness.

    Looks for labels X, Y plus multiplicity-one words Z (X to Y) and W
    (a proper cycle at Y) of length at most 3p; a miss returns None and
    means "unknown", never "impossible".  The search runs on the
    extended spec; an :class:`Analysis` lends its extension and matrix.
    """
    an = spec if isinstance(spec, Analysis) else Analysis(spec)
    ext, mat = an.ext, an.matrix
    labels = mat.labels
    n = len(labels)
    max_edges = 2 * ext.p + 1  # words of at most 3p symbols
    # edges whose spliced word carries weight one in the extended spec;
    # labels themselves always have weight one (shorter than p).  Every
    # repeated word of the extension has length p, so a splice's weight
    # is its leading multiplicity: the matrix entry
    plain = [[j for j, e in row if e == 1] for row in mat.successors]

    @cache
    def paths_from(src: int) -> tuple[dict[int, int | None], dict[int, int]]:
        parent: dict[int, int | None] = {src: None}
        depth = {src: 0}
        queue = [src]
        for i in queue:  # the list grows behind the loop: breadth first
            if depth[i] < max_edges:
                for j in plain[i]:
                    if j not in parent:
                        parent[j], depth[j] = i, depth[i] + 1
                        queue.append(j)
        return parent, depth

    def rebuild(parent: dict[int, int | None], dst: int) -> list[int]:
        path = [dst]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1]

    def path_word(path: list[int]) -> Word:
        w = labels[path[0]]
        for idx in path[1:]:
            w = w + labels[idx][-1:]
        return w

    for y in range(n):
        cycle: list[int] | None = None
        for j in plain[y]:
            if j == y:
                cycle = [y, y]
                break
            parent, depth = paths_from(j)
            if y in depth and 1 + depth[y] <= max_edges:
                cand = [y] + rebuild(parent, y)
                if cycle is None or len(cand) < len(cycle):
                    cycle = cand
        if cycle is None:
            continue
        for x in range(n):
            parent, depth = paths_from(x)
            if y in depth:
                return Witness(labels[x], labels[y],
                               path_word(rebuild(parent, y)), path_word(cycle))
    return None


class NormalizationReport(NamedTuple):
    """Dot product of the formula eigenvectors against the derivative identity."""

    dot: object
    identity_value: object
    agree: bool
    witness: Witness | None
    exact: bool

    def to_json(self) -> dict:
        out = {
            "UtV": format(float(self.dot), ".15g"),
            "identity": format(float(self.identity_value), ".15g"),
            "agree": self.agree,
            "property_witness": self.witness.to_json() if self.witness else "unknown",
        }
        if self.exact:
            out["UtV_exact"] = str(Fraction(self.dot))
            out["identity_exact"] = str(Fraction(self.identity_value))
        return out


def correction_derivative_at(spec: ShiftSpec, core: RatMat, theta, r: list, y: list):
    """Derivative of the constraint correction R = z w^T P^-1 1 at theta
    from the core P, r = P(theta)^-1 1 and y = P(theta)^-T w, without a
    solve: the product rule and (P^-1)' = -P^-1 P' P^-1 give the
    bilinear form R'(theta) = w^T r - theta y^T P'(theta) r."""
    slope = sum(yi * sum(e.derivative_at(theta) * rj for e, rj in zip(row, r))
                for yi, row in zip(y, core.entries))
    return sum(w * ri for (_, w), ri in zip(genfun.targets(spec), r)) - theta * slope


def eigenvector_normalization(spec: ShiftSpec,
                              allow_reducible: bool = False) -> NormalizationReport:
    """U^T V against theta^(p-1) (1 + R'(theta)) (the
    :attr:`Analysis.normalization` stage)."""
    return Analysis(spec, allow_reducible).normalization


class EntropyReport(NamedTuple):
    ln_theta: float
    estimate: float
    estimate_n: int

    def to_json(self) -> dict:
        return {"entropy": format(self.ln_theta, ".15g"),
                "finite_n_estimate": format(self.estimate, ".15g"),
                "estimate_n": self.estimate_n}


def entropy(source: ShiftSpec | Analysis, allow_reducible: bool = False) -> EntropyReport:
    """ln(theta), with a finite-size (1/n) ln |slice| sanity estimate at
    n = max(p, min(12, max(2, floor(log_q 2^20)))).

    Accepts a spec or an :class:`Analysis` whose root it reuses.
    """
    an = source if isinstance(source, Analysis) else Analysis(source, allow_reducible)
    theta = an.root.theta
    spec = an.spec
    cap = max(2, int(math.log(1 << 20) / math.log(spec.q)))
    estimate_n = max(spec.p, min(12, cap))
    # the oracle costs states x q x n, not q**n: no budget for this count
    count = weighted_count(estimate_n, spec, math.inf)
    est = math.log(count) / estimate_n if count else float("-inf")
    return EntropyReport(math.log(theta), est, estimate_n)


class Analysis:
    """Every derived stage of one spec, each computed once on first use.

    A stage first reads the stages it needs.  ``ext``, ``matrix``,
    ``transfer`` and ``system`` read the spec; ``ext_system`` is the
    counting system of ``ext`` from the same builder (it is ``system``
    when the extension is the spec), and is never solved symbolically;
    ``correction`` reads the one solve of the core of ``system``, in
    either mode; ``solution`` reads that solve, ``correction`` and the
    conjugate core; ``root`` reads ``matrix``, ``transfer`` and
    ``correction``; ``_core_at_root`` solves the core of ``ext_system``
    twice at ``root``; ``vectors`` read ``matrix`` and those solves;
    ``normalization`` reads ``vectors``, the solves and the derivative
    of that core at the root; ``entropy`` reads ``root``.
    A failed stage is not cached: reading it again repeats the
    computation and raises again.
    """

    def __init__(self, spec: ShiftSpec, allow_reducible: bool = False):
        self.spec = spec
        self.allow_reducible = allow_reducible

    @cached_property
    def ext(self) -> ShiftSpec:
        """The spec with its repeated words extended to full length p."""
        return extend_repeated_to_full_length(self.spec)

    @cached_property
    def matrix(self) -> AdjMatrix:
        """The adjacency matrix, of the spec and of its extension alike
        (extending the repeated words leaves it unchanged)."""
        return adjacency_matrix(self.spec)

    @cached_property
    def transfer(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Successor lists of the transfer matrix T on the live states of
        the automaton of F and R (:func:`langmodel._pattern_states`): T_st
        sums factor(t) over the symbols that move s to t, forbidden moves
        left out.  A live state is one that ends no forbidden word; its
        word is allowed, so the root reaches it.  Its order is at most
        sum |w| + 1, whatever q and p."""
        delta, factor, bad, _ = _pattern_states(self.spec)
        live = [s for s, a in enumerate(bad) if a is None]
        pos = {s: k for k, s in enumerate(live)}
        rows = []
        for s in live:
            row: dict[int, int] = {}
            for t in delta[s]:
                if bad[t] is None:
                    row[pos[t]] = row.get(pos[t], 0) + factor[t]
            rows.append(tuple(sorted(row.items())))
        return tuple(rows)

    @cached_property
    def system(self) -> genfun.GenFunSystem:
        return genfun.build_system(self.spec)

    @cached_property
    def ext_system(self) -> genfun.GenFunSystem:
        """The counting system of ``ext``, built once per distinct spec;
        the eigen stages evaluate its core at the root."""
        return self.system if self.ext is self.spec else genfun.build_system(self.ext)

    @cached_property
    def correction(self) -> RatFun:
        """R of F = z / (z - q + R), from the core's cached solve."""
        return genfun.constraint_correction(self.spec, self.system.core)

    @cached_property
    def solution(self) -> genfun.GenFunSolution:
        return genfun._solution(self.spec, self.system, self.correction)

    @cached_property
    def root(self) -> PerronResult:
        return perron_root(self, self.allow_reducible)

    @cached_property
    def _core_at_root(self) -> tuple[list, list]:
        """The extended core P solved twice at the root: r = P^-1 1 and
        y = P^-T w for the target weights w.  The extension is reduced, so
        w holds the constants of its conjugate core D^-1 P^T D, with
        D = diag(w z), whose row sums are therefore y / w."""
        theta = self.root.scalar()
        m = [[e(theta) for e in row] for row in self.ext_system.core.entries]
        return (solve_numeric(m, [1] * len(m)),
                solve_numeric(list(zip(*m)), [w for _, w in genfun.targets(self.ext)]))

    @cached_property
    def vectors(self) -> EigenData:
        """Left and right Perron eigenvectors from the correlation formulas.

        They are evaluated on the extended spec, the setting where the
        formulas hold, and refused when their relative residuals against
        the matrix exceed THETA_TOL.  Label X has U_X = 1 - sum_t theta
        w_t r_t (t[1:], X)(theta) and V_X = 1 - sum_t theta y_t (X,
        t)(theta) over the targets t of the extended core, with r and y
        the two solves of ``_core_at_root`` (y = w s, s the conjugate
        core's row sums).  An overlap index finds each label's nonzero
        correlations: the targets by their length-s suffixes for U, by
        their length-s prefixes for V.  The terms are taken in target
        order, each correlation polynomial evaluated by Horner once per
        distinct polynomial; a target without overlap would subtract
        exactly zero, so skipping it changes no bit.
        """
        ext, root = self.ext, self.root
        theta = root.scalar()
        exact = root.exact is not None
        rsums, ysums = self._core_at_root
        one = Fraction(1) if exact else 1.0
        labels = self.matrix.labels
        targets = genfun.targets(ext)

        # (t[1:], X) has overlap s < |t| when t ends with the first s symbols
        # of X; (X, t) has overlap s <= |t| when t starts with the last s
        # symbols of X (a longer overlap would put all of t inside X: no
        # forbidden word is, X being allowed, and no repeated word of ext
        # fits, having length p)
        by_suffix: dict[Word, list[tuple[int, int]]] = {}
        by_prefix: dict[Word, list[tuple[int, int]]] = {}
        for i, (t, _) in enumerate(targets):
            for s in range(1, len(t)):
                by_suffix.setdefault(t[-s:], []).append((i, 1 << (s - 1)))
            for s in range(1, min(len(t), ext.p - 1) + 1):
                by_prefix.setdefault(t[:s], []).append((i, 1 << (s - 1)))
        at_root: dict[int, object] = {}  # correlation bits -> the polynomial at theta

        def formula(coef: list, index: dict, keys) -> object:
            bits: dict[int, int] = {}
            for key in keys:
                for i, b in index.get(key, ()):
                    bits[i] = bits.get(i, 0) | b
            out = one
            for i in sorted(bits):
                if (val := at_root.get(bits[i])) is None:
                    coeffs = tuple(bits[i] >> k & 1 for k in range(bits[i].bit_length()))
                    val = at_root[bits[i]] = Poly(coeffs)(theta)
                out = out - coef[i] * val
            return out

        lcoef = [theta * w * r for (_, w), r in zip(targets, rsums)]
        rcoef = [theta * y for y in ysums]
        span = range(1, ext.p)
        left = [formula(lcoef, by_suffix, (x[:s] for s in span)) for x in labels]
        right = [formula(rcoef, by_prefix, (x[-s:] for s in span)) for x in labels]

        # Perron-Frobenius: both vectors of an irreducible matrix are
        # strictly positive, so a wrong sign the residuals cannot see is refused
        bad_l, bad_r = (sum(x <= 0 for x in vec) for vec in (left, right))
        if root.irreducible and bad_l + bad_r:
            raise NumericError("Perron eigenvectors have non-positive entries: "
                               f"left {bad_l}, right {bad_r} of {len(labels)}")
        dot = sum(u * v for u, v in zip(left, right))
        if dot == 0:
            raise NumericError("degenerate eigenvector normalization")
        res_l, res_r = eigen_residuals(self.matrix, root.theta, left, right)
        if max(res_l, res_r) > THETA_TOL:
            raise NumericError(f"eigenvector residuals too large: left {res_l:.3g}, right {res_r:.3g}")
        return EigenData(labels, tuple(left), tuple(right), tuple(u / dot for u in left),
                         dot, root, exact, (res_l, res_r))

    @cached_property
    def normalization(self) -> NormalizationReport:
        """Compare U^T V with theta^(p-1) (1 + R'(theta)) on the extended spec.

        The identity is guaranteed under the witness condition; without a
        witness the comparison is still reported (it is conjectured to
        hold) but a disagreement is only an error when the witness was
        found.
        """
        vec = self.vectors
        theta = vec.root.scalar()
        derivative = correction_derivative_at(self.ext, self.ext_system.core, theta,
                                              *self._core_at_root)
        identity = theta ** (self.ext.p - 1) * (1 + derivative)
        ok = agree(vec.dot, identity)
        witness = multiplicity_one_witness(self)
        if witness is not None and not ok:
            raise NumericError("normalization identity failed despite a witness")
        return NormalizationReport(vec.dot, identity, ok, witness, vec.exact)

    @cached_property
    def entropy(self) -> EntropyReport:
        return entropy(self)


def spectral_report(spec: ShiftSpec, allow_reducible: bool = False) -> dict:
    """Bundle of everything the perron subcommand prints.

    On a reducible matrix the formula eigenvectors may fail; the report
    then prints null for them, their normalization and their residuals.
    """
    an = Analysis(spec, allow_reducible)
    try:
        vec, norm = an.vectors, an.normalization
        residuals = dict(zip(("left", "right"), (format(r, ".3g") for r in vec.residuals)))
    except NumericError:
        if an.root.irreducible:
            raise
        vec = norm = residuals = None
    return {
        "adjacency": an.matrix.to_json(),
        "irreducible": an.root.irreducible,
        "perron": an.root.to_json(),
        "eigenvectors": None if vec is None else vec.to_json(),
        "normalization": None if norm is None else norm.to_json(),
        "entropy": an.entropy.to_json(),
        "residuals": residuals,
    }
