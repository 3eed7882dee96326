"""Maximal-entropy measures on the edge shift, cylinder arithmetic, the
branch-erasing projection, push-forwards, and escape-rate estimates.

A :class:`MeasureContext` bundles everything derived from one spec: the
adjacency matrix, certified root, formula eigenvectors and normalization,
all read from one :class:`spectral.Analysis`, plus the row-stochastic
matrix of the Shannon-Parry measure.  Cylinder measures can then be
evaluated along independent routes (eigenvector formula, derivative
normalization, Markov-chain products) which must agree.  The additivity
check is decided once per block, by the row identity of the right
eigenvector, and names the failing blocks.  The push-forward check is
decided once per (length, last block) class, by the extremes of a
product of one factor per start block and per edge, and names the
failing classes.  Both count the vertex paths they cover by a DP over
(block, length); no vertex path is walked, so each check costs
O(edges * n_max) whether it passes or fails.

Every check here (stochastic rows, stationarity, normalization,
additivity, push-forward) compares by :func:`spectral.agree`: exact
equality when the root is an exact rational, so the whole pipeline is
in Fractions, else a gap of at most THETA_TOL relative to the larger
side.  No check uses an absolute tolerance, which would go blind as
cylinders get small.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import words as W
from .errors import NumericError, SpecError
from .langmodel import (DEFAULT_BUDGET, ShiftSpec, check_budget, multiplicity,
                        spec_from_matrix, transfer_tables, validate_spec)
from .spectral import (THETA_TOL, AdjMatrix, Analysis, EigenData, NormalizationReport,
                       PerronResult, agree, perron_vectors)
from .words import Word


class StochMat(NamedTuple):
    """Row-stochastic matrix with its stationary distribution; each row
    holds the pairs (j, P_ij) along the block's successor list."""

    labels: tuple[Word, ...]
    rows: tuple[tuple[tuple[int, object], ...], ...]
    stationary: tuple
    exact: bool

    def entry(self, i: int, j: int):
        """P_ij, by a scan of row i."""
        return next((x for k, x in self.rows[i] if k == j), 0)


def _validate_stochastic(sm: StochMat) -> StochMat:
    """Check the rows, the stationarity pi P = pi and the total of pi.

    pi P is one product over the sparse rows, with i ascending, so each
    entry sums the same nonzero terms in the same order as a dense
    column sum; adding an exact zero never changes a sum.
    """
    for i, row in enumerate(sm.rows):
        s = sum(x for _, x in row)
        if not agree(s, 1):
            raise NumericError(f"row {i} sums to {s}, not 1")
    image = [0] * len(sm.labels)
    for pi, row in zip(sm.stationary, sm.rows):
        for j, x in row:
            image[j] += pi * x
    if not all(agree(x, pi) for x, pi in zip(image, sm.stationary)):
        raise NumericError("stationary vector is not stationary")
    if not agree(sum(sm.stationary), 1):
        raise NumericError("stationary vector does not sum to 1")
    return sm


def shannon_parry_matrix(mat: AdjMatrix, theta, left_normalized: Sequence,
                         right: Sequence) -> StochMat:
    """Stochastic matrix A_XY V_Y / (theta V_X) with stationary U o V.

    Expects the normalized eigenvector pair (dot product one).  Rows and
    the stationary vector are divided by their sums, which kills residual
    round-off in floats and changes nothing in exact rationals, where the
    sums are exactly one.  Each row follows the block's successor list,
    and its sum adds the terms in increasing column order from one zero
    of the pipeline's type: adding a zero is exact, so this is the sum of
    the dense row.
    """
    if not agree(sum(u * v for u, v in zip(left_normalized, right)), 1):
        raise NumericError("eigenvector pair is not normalized")
    exact = isinstance(theta, Fraction)
    zero = Fraction(0) if exact else 0.0
    rows = []
    for i, succ in enumerate(mat.successors):
        if right[i] == 0:
            raise NumericError("zero eigenvector entry; matrix not irreducible?")
        scale = theta * right[i]
        terms = [(j, e * right[j] / scale) for j, e in succ]
        s = sum((x for _, x in terms), zero)
        if not agree(s, 1):
            raise NumericError(f"row {i} of the stochastic matrix sums to {s}")
        rows.append(tuple((j, x / s) for j, x in terms))
    stationary = [u * v for u, v in zip(left_normalized, right)]
    t = sum(stationary)
    stationary = [x / t for x in stationary]
    return _validate_stochastic(StochMat(mat.labels, tuple(rows), tuple(stationary), exact))


class Cylinder:
    """A cylinder set: a vertex path, with branch indices in edge form.

    ``vertices`` lists the p-1 blocks along the path; ``branches`` (one
    index per step, or None) distinguishes parallel edges.  A cylinder
    without branches lives in the projected block shift.  Immutable.
    """

    def __init__(self, vertices: tuple[Word, ...], branches: tuple[int, ...] | None = None):
        if not vertices:
            raise ValueError("empty cylinder")
        if branches is not None and len(branches) != len(vertices) - 1:
            raise ValueError("one branch index per edge required")
        vars(self).update(vertices=vertices, branches=branches)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"Cylinder{(self.vertices, self.branches)!r}"

    @property
    def n_edges(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_edge_form(self) -> bool:
        return self.branches is not None

    @classmethod
    def from_vertex_word(cls, text: Sequence[str], p: int) -> "Cylinder":
        w = W.word(text)
        if len(w) < p - 1:
            raise SpecError(f"vertex word shorter than {p - 1} symbols")
        verts = tuple(w[i:i + p - 1] for i in range(len(w) - p + 2))
        return cls(verts, None)

    @classmethod
    def from_edges(cls, edges: Sequence[tuple[Sequence[str], Sequence[str], int]]) -> "Cylinder":
        verts = [W.word(edges[0][0])]
        branches = []
        for x, y, j in edges:
            x, y = W.word(x), W.word(y)
            if verts[-1] != x:
                raise SpecError("edge chain is broken (tail does not match previous head)")
            verts.append(y)
            branches.append(int(j))
        return cls(tuple(verts), tuple(branches))

    def word(self) -> Word:
        """The underlying symbol word of the vertex path."""
        w = self.vertices[0]
        for v in self.vertices[1:]:
            w = w + v[-1:]
        return w

    def to_json(self) -> dict:
        return {"vertices": ["".join(v) for v in self.vertices],
                "branches": list(self.branches) if self.branches else None}


class MeasureContext:
    """Everything cylinder measures need, derived once from a spec.

    Accepts a spec or an :class:`Analysis` whose stages it reuses.
    """

    def __init__(self, source: ShiftSpec | Analysis, allow_reducible: bool = False):
        an = source if isinstance(source, Analysis) else Analysis(source, allow_reducible)
        self.spec = an.spec
        self.mat = an.matrix
        self.vectors: EigenData = an.vectors
        self.root: PerronResult = self.vectors.root
        self.norm: NormalizationReport = an.normalization
        self.sp: StochMat = shannon_parry_matrix(
            self.mat, self.root.scalar(), self.vectors.left_normalized, self.vectors.right)
        self._path_counts: dict[int, int] = {}

    @property
    def exact(self) -> bool:
        return self.vectors.exact

    @property
    def theta(self):
        return self.root.scalar()

    def path_count(self, n_max: int) -> int:
        """Number of vertex paths of 1..n_max edges, counted once per
        length: one count DP over (block, length) from every start block
        at once."""
        if n_max not in self._path_counts:
            counts, total = [1] * self.mat.size, 0
            for _ in range(n_max):
                reach = [0] * self.mat.size
                for k, c in enumerate(counts):
                    if c:
                        for j, _ in self.mat.successors[k]:
                            reach[j] += c
                counts = reach
                total += sum(counts)
            self._path_counts[n_max] = total
        return self._path_counts[n_max]

    @cached_property
    def _hat(self) -> tuple[EigenData, StochMat]:
        """Parry data of the compatible binary matrix, via the same
        correlation pipeline on the derived length-2 collections.

        The derived spec renames labels to single symbols, but its block
        order matches ours, so everything is used positionally.
        """
        binary = self.mat.binary()
        vec = perron_vectors(spec_from_matrix(binary.entries))
        sp = shannon_parry_matrix(binary, vec.root.scalar(), vec.left_normalized, vec.right)
        return vec, sp


class MeasureReport(NamedTuple):
    value: float
    route: str
    exact: Fraction | None = None

    def to_json(self) -> dict:
        out = {"value": format(self.value, ".15g"), "route": self.route}
        if self.exact is not None:
            out["exact"] = str(self.exact)
        return out


EDGE_ROUTES = ("shannon_parry", "combinatorial", "markov")
VERTEX_ROUTES = ("markov", "parry")


def cylinder_measure(ctx: MeasureContext, cyl: Cylinder,
                     route: str = "shannon_parry") -> MeasureReport:
    """Measure of a cylinder along the requested route.

    Edge cylinders: ``shannon_parry`` uses the normalized eigenvector
    formula, ``combinatorial`` the unscaled vectors over the derivative
    normalization, ``markov`` the chain product with equal branch
    splitting.  Vertex cylinders: ``markov`` is the push-forward chain
    product, ``parry`` the classical measure of the compatible binary
    matrix.  Branch indices never influence the value.
    """
    idx = ctx.mat.path(cyl.vertices, cyl.branches)
    i_first, i_last = idx[0], idx[-1]
    n = cyl.n_edges
    theta = ctx.theta

    if cyl.is_edge_form:
        if route == "shannon_parry":
            val = ctx.vectors.left_normalized[i_first] * ctx.vectors.right[i_last] / theta ** n
        elif route == "combinatorial":
            val = (ctx.vectors.left[i_first] * ctx.vectors.right[i_last]
                   / (theta ** n * ctx.norm.identity_value))
        elif route == "markov":
            val = ctx.sp.stationary[i_first]
            for a, b in zip(idx, idx[1:]):
                val = val * ctx.sp.entry(a, b) / ctx.mat.entry(a, b)
        else:
            raise SpecError(f"route {route!r} not valid for an edge cylinder")
    else:
        if route == "markov":
            val = ctx.sp.stationary[i_first]
            for a, b in zip(idx, idx[1:]):
                val = val * ctx.sp.entry(a, b)
        elif route == "parry":
            vec, _ = ctx._hat
            val = vec.left_normalized[i_first] * vec.right[i_last] / vec.root.scalar() ** n
        else:
            raise SpecError(f"route {route!r} not valid for a vertex cylinder")
    exact = Fraction(val) if isinstance(val, Fraction) else None
    return MeasureReport(float(val), route, exact)


def pushforward_report(ctx: MeasureContext, n_max: int) -> dict:
    """Check the push-forward identity on every vertex word up to n_max edges.

    The Markov product for the projected cylinder must equal the total
    eigenvector-formula measure of its branch preimage; since branch
    indices never change the measure (checked independently) the total
    is the preimage count times one representative.  Along a path
    f -> ... -> l their ratio is c_f times the product of c_ab over its
    edges, with c_f = pi_f / (U_f V_f) and c_ab = P_ab theta V_a /
    (A_ab V_b): the V factors telescope, whatever the values.  A block
    with U_f V_f = 0 has pi_f = 0, so both sides vanish on every path
    from it and it starts none.

    A min/max product DP over (block, length) carries the extremes of the
    ratio over the paths of each (length, last block) class; a factor
    below zero swaps them.  The ratio must :func:`spectral.agree` with
    one, which holds on an interval, so every path of a class passes
    exactly when both extremes do.  ``violations`` lists each failing
    class as ``{"length", "block", "low", "high"}``, shortest first and
    in block order, and ``checked`` is :meth:`MeasureContext.path_count`.
    The work is O(edges * n_max) whether the check passes or fails.
    """
    mat, sp, vec, theta = ctx.mat, ctx.sp, ctx.vectors, ctx.theta
    left, right = vec.left_normalized, vec.right
    start = [None if u * v == 0 else pi / (u * v)
             for pi, u, v in zip(sp.stationary, left, right)]
    edge = [[x * theta * right[a] / (e * right[b]) for (b, e), (_, x) in zip(row, sp.rows[a])]
            for a, row in enumerate(mat.successors)]
    report = {"checked": ctx.path_count(n_max), "violations": []}
    if ctx.exact and all(c in (None, 1) for c in start) and all(c == 1 for r in edge for c in r):
        return report
    # exactly one passes an exact ratio; inside the float interval agree(x, 1)
    # holds whatever the rounding, so only the classes outside it call agree
    lo, hi = (1, 1) if ctx.exact else (1 - THETA_TOL / 2, 1 + THETA_TOL / 2)
    low, high = start, start
    for length in range(1, n_max + 1):
        next_low, next_high = [None] * mat.size, [None] * mat.size
        for a, row in enumerate(mat.successors):
            if low[a] is None:
                continue
            for (b, _), c in zip(row, edge[a]):
                x, y = (low[a] * c, high[a] * c) if c >= 0 else (high[a] * c, low[a] * c)
                if next_low[b] is None or x < next_low[b]:
                    next_low[b] = x
                if next_high[b] is None or y > next_high[b]:
                    next_high[b] = y
        low, high = next_low, next_high
        for b, (x, y) in enumerate(zip(low, high)):
            if x is None or lo <= x and y <= hi or agree(x, 1) and agree(y, 1):
                continue
            report["violations"].append({"length": length, "block": "".join(mat.labels[b]),
                                         "low": float(x), "high": float(y)})
    return report


def kolmogorov_report(ctx: MeasureContext, n_max: int) -> dict:
    """Additivity of the edge-cylinder measure under one-edge extension.

    For every vertex path of 1..n_max edges, the measure of its edge
    cylinder must equal the sum over the one-edge extensions, each
    weighted by its number of parallel edges, where the two sides must
    :func:`spectral.agree`.  An edge cylinder of n edges from block f to
    block l measures U_f V_l / theta^n whatever the blocks in between,
    and its extensions into block j measure U_f V_j / theta^(n+1).  The
    factor U_f / theta^n is common to both sides and the agreement rule
    is relative, so every path ending at block l passes exactly when the
    row identity sum_j A_lj V_j / theta = V_l agrees: each block is
    decided once.  ``violations`` lists the labels of the failing blocks
    that end some path, in block order.  ``checked`` counts the vertex
    paths (:meth:`MeasureContext.path_count`).  ``max_defect`` is the row
    defect times the largest U_f / theta^n over the classes (f, l, n)
    that reach the row, which one max-DP over (block, length) gives.
    The work is O(edges * n_max) whether the check passes or fails.
    """
    mat, vec, theta = ctx.mat, ctx.vectors, ctx.theta
    left, right = vec.left_normalized, vec.right
    defects, failing = [], []
    for last, row in enumerate(mat.successors):
        total = sum(e * right[j] for j, e in row) / theta
        defects.append(abs(total - right[last]))
        failing.append(not agree(total, right[last]))
    # largest U_f over the first blocks of the paths of each length ending
    # at each block (None where none ends), and its largest U_f / theta^n;
    # a path from U_f = 0 measures zero on both sides, so it never fails
    top, scale, ends = [u or None for u in left], [0] * mat.size, [False] * mat.size
    for length in range(1, n_max + 1):
        reach = [None] * mat.size
        for k, u in enumerate(top):
            if u is not None:
                for j, _ in mat.successors[k]:
                    if reach[j] is None or u > reach[j]:
                        reach[j] = u
        top, power = reach, theta ** length
        scale = [s if u is None else max(s, u / power) for s, u in zip(scale, top)]
        ends = [e or u is not None for e, u in zip(ends, top)]
    violations = ["".join(label) for label, bad, end in zip(mat.labels, failing, ends)
                  if bad and end]
    worst = max([0.0] + [float(s * d) for s, d in zip(scale, defects)])
    return {"checked": ctx.path_count(n_max), "max_defect": worst, "violations": violations}


class EscapeReport(NamedTuple):
    """Avoidance counts for a hole cylinder and the derived rate estimates."""

    hole: Cylinder
    counts: tuple[int, ...]          # h[0..n_max] paths avoiding the hole
    survivor_rate: float | None      # ln lambda estimate from the last ratio
    escape_rate: float | None        # ln(theta / lambda)
    theta: float
    word_weight: int | None          # multiplicity of the underlying word
    tau: tuple[int, ...] | None      # weighted counts with the word forbidden
    tau_rate: float | None
    counts_match_tau: bool | None

    def to_json(self) -> dict:
        return {
            "hole": self.hole.to_json(),
            "h": list(self.counts),
            "ln_lambda": None if self.survivor_rate is None else format(self.survivor_rate, ".15g"),
            "escape_rate": None if self.escape_rate is None else format(self.escape_rate, ".15g"),
            "theta": format(self.theta, ".15g"),
            "word_weight": self.word_weight,
            "tau": None if self.tau is None else list(self.tau),
            "ln_theta_word": None if self.tau_rate is None else format(self.tau_rate, ".15g"),
            "counts_match_tau": self.counts_match_tau,
        }


def escape_report(source: ShiftSpec | Analysis, hole: Cylinder, n_max: int = 12,
                  budget: int = DEFAULT_BUDGET,
                  allow_reducible: bool = False) -> EscapeReport:
    """Count paths avoiding the hole cylinder and estimate the escape rate.

    ``h[n]`` counts length-n edge paths with no contiguous copy of the
    hole word, via a transfer construction on (vertex, state) pairs of
    the automaton of the hole word over its distinct edges
    (:func:`words.automaton`); a move into the state that ends the word
    is dropped.  An edge outside the hole resets the match, so the A_vj
    branches of a block pair that are not hole edges move together, one
    multiply-add to (j, 0), and only the hole's own edges step through
    the automaton: the cost is states x distinct edges x n_max, whatever
    the multiplicities.  When the underlying symbol word has weight one,
    the counts must reproduce the weighted counts of the spec with that
    word forbidden, and the check is enforced.  A spec is read through
    one :class:`Analysis` (or an analysis is given): its extension gives
    the weights and the spec with the hole word forbidden, its matrix and
    root the rest.  A caller holding an integer matrix converts it with
    :func:`langmodel.spec_from_matrix` first.
    """
    an = source if isinstance(source, Analysis) else Analysis(source, allow_reducible)
    spec, mat = an.ext, an.matrix
    if hole.branches is None:
        raise SpecError("the hole must be a specific edge cylinder (branch indices)")
    idx = mat.path(hole.vertices, hole.branches)
    hole_seq = list(zip(idx, idx[1:], hole.branches))
    if not hole_seq:
        raise SpecError("the hole needs at least one edge")
    edges = list(dict.fromkeys(hole_seq))
    delta, ends = W.automaton([hole_seq], edges)
    theta = an.root.theta
    wword = hole.word()
    weight = multiplicity(wword, spec)
    keep = [(r, m) for r, m in spec.repeated if r != wword]
    tau_spec = validate_spec(spec.alphabet, list(spec.forbidden) + [wword], keep)
    p = spec.p
    # checked before counting; the refusal names the first length over the budget
    for n in range(p, p + n_max):
        check_budget(n, tau_spec, budget)

    # per block: the hole edges leaving it as (column, target), and the pairs
    # (j, number of branches to j outside the hole), which all reset the match
    special = [[] for _ in range(mat.size)]
    for i, edge in enumerate(edges):
        special[edge[0]].append((i, edge[1]))
    plain = [[(j, rest) for j, e in row if (rest := e - sum(h[1] == j for h in special[v]))]
             for v, row in enumerate(mat.successors)]

    counts = [1]
    # (block, automaton state) -> paths ending there
    state_counts = {(v, 0): 1 for v in range(mat.size)}
    for _ in range(n_max):
        nxt: dict[tuple[int, int], int] = {}
        for (v, s), c in state_counts.items():
            for j, e in plain[v]:
                nxt[j, 0] = nxt.get((j, 0), 0) + c * e
            for i, j in special[v]:
                s2 = delta[s][i]
                if not ends[s2]:
                    nxt[j, s2] = nxt.get((j, s2), 0) + c
        state_counts = nxt
        counts.append(sum(state_counts.values()))

    survivor = None
    if n_max >= 2 and counts[-2] > 0 and counts[-1] > 0:
        survivor = math.log(counts[-1] / counts[-2])

    rate = None if survivor is None else math.log(theta) - survivor
    tau = tuple(transfer_tables(tau_spec, p + n_max - 1)[0][p:])
    tau_rate = match = None
    if len(tau) >= 2 and tau[-2] > 0 and tau[-1] > 0:
        tau_rate = math.log(tau[-1] / tau[-2])
    if weight == 1:
        match = all(counts[i + 1] == tau[i] for i in range(len(tau)))
        if not match:
            raise NumericError("avoidance counts disagree with the weighted oracle "
                               "for a weight-one hole word")
    return EscapeReport(hole, tuple(counts), survivor, rate, theta,
                        weight, tau, tau_rate, match)
