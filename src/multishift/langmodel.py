"""Shift specifications and the generalized language they generate.

A :class:`ShiftSpec` fixes an ordered alphabet, a reduced collection of
forbidden words, and a reduced collection of repeated words with
integer multiplicities >= 2.  Every other module consumes validated
specs.  This module also hosts the weighted counters f(n), g_r(n) and
f_a(n) that serve as the independent oracle for all generating-function
output.  They read one transfer pass over the live states of the
pattern automaton of F and R (:func:`words.automaton`,
:func:`transfer_tables`), which shares no code with the correlation
route.  The weighted slices, every allowed word with its multiplicity,
come from one layered walk over the same states (:func:`language_slices`),
whose layer at depth p - 1 gives the block graph (:attr:`ShiftSpec.blocks`)
that the adjacency matrix and the extension read.  The live states are
built once per spec and held by it (:attr:`ShiftSpec.pattern_automaton`),
each move decided there once: the slices and the block graph read the
moves, the count tables the transfer matrix T and the exits, and the
Perron root's cross-check T.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from . import words as W
from .errors import BudgetError, SpecError
from .words import Word

DEFAULT_BUDGET = 1 << 24


class ShiftSpec:
    """Validated shift data; build instances through :func:`validate_spec`.
    Compared by identity.  The fields are immutable; the derived values,
    :attr:`pattern_automaton` (the live states, with the transfer matrix
    T) and :attr:`blocks`, are built lazily and then kept."""

    def __init__(self, alphabet: tuple[str, ...], forbidden: tuple[Word, ...],
                 repeated: tuple[tuple[Word, int], ...], p: int, union_reduced: bool):
        vars(self).update(alphabet=alphabet, forbidden=forbidden, repeated=repeated, p=p,
                          union_reduced=union_reduced,
                          _index={s: i for i, s in enumerate(alphabet)})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"validate_spec{(self.alphabet, self.forbidden, self.repeated)!r}"

    @property
    def q(self) -> int:
        return len(self.alphabet)

    @property
    def repeated_words(self) -> tuple[Word, ...]:
        return tuple(r for r, _ in self.repeated)

    def is_allowed(self, w: Sequence[str]) -> bool:
        return not any(W.contains(w, a) for a in self.forbidden)

    def word(self, text: Sequence[str] | str) -> Word:
        """Coerce and check a word against the alphabet."""
        w = W.word(text)
        bad = [s for s in w if s not in self._index]
        if bad:
            raise SpecError(f"symbols {bad} not in alphabet {list(self.alphabet)}")
        return w

    @cached_property
    def pattern_automaton(self) -> PatternStates:
        """The live states of the automaton of F and R, each move decided
        once (:func:`_pattern_states`), built on first use; every walk
        over the spec's words, and T, read this one build."""
        return _pattern_states(self)

    @cached_property
    def blocks(self) -> BlockGraph:
        """The block graph, built on first use from the last layer of one
        walk (:func:`_layers`): its words, each with its weight W and its
        state, are the labels in lexicographic order.  Per label X come
        the successors (j, e) in increasing j; the adjacency matrix and
        the extension read them.

        A splice X*s is allowed when it is a move of X's state, and leads
        to the label Y = X[1:] + s.  Its edge count e, the leading
        multiplicity, is m_r for its one repeated prefix r (R is reduced),
        else 1.  Every other repeated occurrence in X*s lies in Y, so
        W(X*s) = e W(Y), and e = W(X) m / W(Y) exactly for the move's
        product m."""
        *_, layer = _layers(self.p - 1, self)
        moves = self.pattern_automaton.moves
        index = {x: j for j, (x, _, _) in enumerate(layer)}
        return tuple(x for x, _, _ in layer), tuple(
            tuple((j := index[x[1:] + sym], weight * m // layer[j][1]) for sym, m, _ in moves[s])
            for x, weight, s in layer)

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "forbidden": ["".join(a) for a in self.forbidden],
            "repeated": [{"word": "".join(r), "multiplicity": m} for r, m in self.repeated],
        }


def validate_spec(alphabet: Sequence[str],
                  forbidden: Sequence[Sequence[str]] = (),
                  repeated: Sequence[tuple[Sequence[str], int]] = ()) -> ShiftSpec:
    """Check every spec invariant and derive p and the union-reduced flag.

    p is the length of the longest declared word, clamped to at least 2
    so that the block presentation is indexed by words of length >= 1
    even for degenerate collections (empty, or length-1 repeats only).
    """
    alpha = tuple(alphabet)
    if len(alpha) < 2:
        raise SpecError("alphabet needs at least two symbols")
    if len(set(alpha)) != len(alpha):
        raise SpecError("alphabet has duplicate symbols")
    fwords = [W.word(a) for a in forbidden]
    rlist = [(W.word(r), int(m)) for r, m in repeated]

    for w in fwords + [r for r, _ in rlist]:
        if not w:
            raise SpecError("empty word in spec")
        missing = [s for s in w if s not in alpha]
        if missing:
            raise SpecError(f"word {''.join(w)} uses symbols {missing} outside the alphabet")
    for a in fwords:
        if len(a) < 2:
            raise SpecError(f"forbidden word {''.join(a)} is a bare symbol; drop it from the alphabet instead")
    if len(set(fwords)) != len(fwords):
        raise SpecError("duplicate forbidden words")
    if len(set(r for r, _ in rlist)) != len(rlist):
        raise SpecError("duplicate repeated words")
    if fwords and not W.is_reduced(fwords):
        raise SpecError("forbidden collection is not reduced")
    if rlist and not W.is_reduced([r for r, _ in rlist]):
        raise SpecError("repeated collection is not reduced")
    for r, m in rlist:
        if m < 2:
            raise SpecError(f"repeated word {''.join(r)} has multiplicity {m} < 2")
        if any(W.contains(r, a) for a in fwords):
            raise SpecError(f"repeated word {''.join(r)} contains a forbidden word")

    lengths = [len(w) for w in fwords] + [len(r) for r, _ in rlist]
    p = max(lengths + [2])
    union = fwords + [r for r, _ in rlist]
    union_reduced = W.is_reduced(union) if union else True
    # declaration order is part of the contract (system rows, reports)
    return ShiftSpec(alpha, tuple(fwords), tuple(rlist), p, union_reduced)


def multiplicity(w: Sequence[str], spec: ShiftSpec) -> int:
    """Weight of w: 0 when forbidden, else the product of m_i over all
    occurrences of each repeated word inside w."""
    w = W.word(w)
    if not spec.is_allowed(w):
        return 0
    out = 1
    for r, m in spec.repeated:
        out *= m ** W.subword_count(w, r)
    return out


def check_budget(n: int, spec: ShiftSpec, budget: int) -> None:
    """Refuse a length-n count when the q**n strings of length n exceed
    the budget; the empty word (n = 0) needs no walk and never does, and
    an infinite budget refuses nothing.  Since q >= 2, q**k already
    exceeds a finite budget at k = its bit length plus one, so no power
    beyond that is built."""
    if n >= 1 and budget < math.inf and \
            spec.q ** min(n, max(budget, 1).bit_length() + 1) > budget:
        raise BudgetError(f"{spec.q}^{n} strings exceed the budget {budget}")


class LanguageSlice(NamedTuple):
    """All allowed words of one length, with multiplicities."""

    n: int
    entries: tuple[tuple[Word, int], ...]
    cardinality: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [["".join(w), m] for w, m in self.entries],
            "cardinality": self.cardinality,
        }


class PatternStates(NamedTuple):
    """The live states of the automaton of F and R, those that end no
    forbidden word, numbered in build order from the root (0).  Per
    state: its moves (one-symbol word, product m of m_r over the repeated
    words r completed, target) in alphabet order; T's row (target, sum
    of m) by target; its exits (forbidden word completed, m); and the
    repeated words it ends."""

    moves: tuple[tuple[tuple[Word, int, int], ...], ...]
    transfer: tuple[tuple[tuple[int, int], ...], ...]
    exits: tuple[tuple[tuple[Word, int], ...], ...]
    done: tuple[tuple[Word, ...], ...]


BlockGraph = tuple[tuple[Word, ...], tuple[tuple[tuple[int, int], ...], ...]]


def _pattern_states(spec: ShiftSpec) -> PatternStates:
    """The live states of the automaton of F and R (:func:`words.automaton`),
    each move decided once.  A state whose first hit is forbidden is dead
    (F is reduced, so it ends one forbidden word at most); a live state's
    word is allowed, so the root reaches it.  The spec builds them once."""
    nf = len(spec.forbidden)
    delta, hits = W.automaton(spec.forbidden + spec.repeated_words, spec.alphabet)
    live = [s for s, h in enumerate(hits) if not h or h[0] >= nf]
    pos = {s: k for k, s in enumerate(live)}
    factor = [math.prod(spec.repeated[k - nf][1] for k in h if k >= nf) for h in hits]
    moves = tuple(tuple(((sym,), factor[t], pos[t]) for sym, t in zip(spec.alphabet, delta[s])
                        if t in pos) for s in live)
    transfer = []
    for row in moves:
        sums: dict[int, int] = {}
        for _, e, t in row:
            sums[t] = sums.get(t, 0) + e
        transfer.append(tuple(sorted(sums.items())))
    exits = tuple(tuple((spec.forbidden[hits[t][0]], factor[t]) for t in delta[s] if t not in pos)
                  for s in live)
    done = tuple(tuple(spec.repeated[k - nf][0] for k in hits[s] if k >= nf) for s in live)
    return PatternStates(moves, tuple(transfer), exits, done)


def _layers(n_max: int, spec: ShiftSpec, budget: int = DEFAULT_BUDGET
            ) -> Iterator[list[tuple[Word, int, int]]]:
    """The layers of lengths 1..n_max of one walk: every allowed word,
    in lexicographic order, with its weight and its live state in the
    spec's automaton of F and R (:attr:`ShiftSpec.pattern_automaton`).

    Layer n is layer n - 1 with each word extended by each allowed
    symbol in alphabet order.  A word's weight is its prefix's weight
    times m_r for each repeated word r that the new symbol completes.
    Both depend only on the word's state, read from its allowed moves.
    Only the current layer is kept.  The budget applies to q**n_max,
    checked before the automaton is built."""
    check_budget(n_max, spec, budget)
    moves = spec.pattern_automaton.moves
    layer: list[tuple[Word, int, int]] = [((), 1, 0)]  # (word, weight, state)
    for _ in range(n_max):
        layer = [(w + sym, weight * m, t) for w, weight, s in layer for sym, m, t in moves[s]]
        yield layer


def language_slices(n_max: int, spec: ShiftSpec, budget: int = DEFAULT_BUDGET
                    ) -> Iterator[LanguageSlice]:
    """The weighted slices of lengths 1..n_max, one per layer of one walk
    (:func:`_layers`).  The budget applies to q**n_max; n_max <= 0
    yields nothing."""
    if n_max < 1:
        return
    for n, layer in enumerate(_layers(n_max, spec, budget), 1):
        entries = tuple((w, m) for w, m, _ in layer)
        yield LanguageSlice(n, entries, sum(m for _, m in entries))


def enumerate_slice(n: int, spec: ShiftSpec, budget: int = DEFAULT_BUDGET) -> LanguageSlice:
    """The weighted language slice of length n: the last slice of
    :func:`language_slices`, so the budget applies to q**n."""
    if n < 1:
        raise ValueError("slice length must be >= 1")
    for last in language_slices(n, spec, budget):
        pass
    return last


def transfer_tables(spec: ShiftSpec, max_n: int
                    ) -> tuple[list[int], dict[Word, list[int]], dict[Word, list[int]]]:
    """The f, g and fa count tables for n = 0..max_n in one transfer pass.

    Allowed words are grouped by their live state in the spec's
    automaton of F and R (:attr:`ShiftSpec.pattern_automaton`), and each
    state carries the total weight of its words: a layer is the last
    times T.  A state's exits add to f_a, and its repeated words to g.
    The cost is states x q x max_n; callers apply the budget.
    """
    _, transfer, exits, done = spec.pattern_automaton
    f = [1] + [0] * max_n
    g = {r: [0] * (max_n + 1) for r in spec.repeated_words}
    fa = {a: [0] * (max_n + 1) for a in spec.forbidden}
    # repeated occurrences inside a terminal forbidden word a do not count
    discount = {a: 1 for a in spec.forbidden}
    for a in spec.forbidden:
        for r, m in spec.repeated:
            discount[a] *= m ** W.subword_count(a, r)

    layer = {0: 1}
    for n in range(1, max_n + 1):
        nxt: dict[int, int] = {}
        for s, weight in layer.items():
            for a, m in exits[s]:
                fa[a][n] += weight * m // discount[a]
            for t, e in transfer[s]:
                nxt[t] = nxt.get(t, 0) + weight * e
        for t, weight in nxt.items():
            for r in done[t]:
                g[r][n] += weight
        layer = nxt
        f[n] = sum(layer.values())
    return f, g, fa


def weighted_count(n: int, spec: ShiftSpec, budget: int = DEFAULT_BUDGET) -> int:
    """Oracle f(n): total weight of allowed words of length n; f(0) = 1.

    Read from :func:`transfer_tables`; the budget applies to q**n.
    """
    if n < 0:
        raise ValueError("negative length")
    check_budget(n, spec, budget)
    return transfer_tables(spec, n)[0][n]


def weighted_count_ending_with(r: Sequence[str], n: int, spec: ShiftSpec,
                               budget: int = DEFAULT_BUDGET) -> int:
    """Oracle g_r(n) for a repeated word r: total weight of allowed
    length-n words with suffix r.

    Includes the word r itself at n = |r|; zero for n < |r| and for
    n = 0.  Read from :func:`transfer_tables`.
    """
    r = W.word(r)
    if r not in spec.repeated_words:
        raise SpecError(f"{''.join(r)} is not a repeated word")
    if n <= 0 or n < len(r):
        return 0
    check_budget(n, spec, budget)
    return transfer_tables(spec, n)[1][r][n]


def weighted_count_forbidden_suffix(a: Sequence[str], n: int, spec: ShiftSpec,
                                    budget: int = DEFAULT_BUDGET) -> int:
    """Oracle f_a(n): weight of length-n words whose unique forbidden
    occurrence is a terminal copy of a, weighted per the suffix rule.

    Such a word is an allowed length n-1 prefix plus the last symbol of
    a; any other forbidden occurrence would either sit in the prefix or
    be a second suffix, impossible for a reduced collection.  Read from
    :func:`transfer_tables`.
    """
    a = W.word(a)
    if a not in spec.forbidden:
        raise SpecError(f"{''.join(a)} is not a forbidden word")
    if n <= 0 or n < len(a):
        return 0
    check_budget(n, spec, budget)
    return transfer_tables(spec, n)[2][a][n]


def oracle_tables(spec: ShiftSpec, max_n: int, budget: int = DEFAULT_BUDGET
                  ) -> tuple[list[int], dict[Word, list[int]], dict[Word, list[int]]]:
    """All three count tables for n = 0..max_n from one transfer pass.

    The budget applies to q**max_n, and not at all when max_n = 0.
    """
    if max_n < 0:
        raise ValueError("negative length")
    check_budget(max_n, spec, budget)
    return transfer_tables(spec, max_n)


def extend_repeated_to_full_length(spec: ShiftSpec) -> ShiftSpec:
    """Replace the repeated words by all their length-p completions.

    Every allowed length-p word beginning with a repeated word r joins
    the new collection, weighted by m_r (R is reduced, so r is its only
    repeated prefix): they are the splices of the spec's block graph
    (:attr:`ShiftSpec.blocks`) whose edge count exceeds 1, read in edge
    order, which is lexicographic.  The adjacency matrix is unchanged,
    the new union is always reduced, and specs whose repeated words
    already have length p come back untouched.
    """
    if all(len(r) == spec.p for r in spec.repeated_words):
        return spec
    labels, successors = spec.blocks
    return validate_spec(spec.alphabet, spec.forbidden,
                         [(x + labels[j][-1:], e) for x, row in zip(labels, successors)
                          for j, e in row if e > 1])


def spec_from_matrix(entries: Sequence[Sequence[int]]) -> ShiftSpec:
    """Length-2 collections of a non-negative integer matrix.

    Row i is named by the i-th symbol of 0-9a-z.  Zero entries become
    forbidden two-symbol words, entries above one become repeated words
    with that multiplicity; the union is reduced by construction and the
    associated adjacency matrix is the input.
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise SpecError("matrix must be square")
    if n < 2:
        raise SpecError("matrix order must be at least 2 to name symbols")
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    if n > len(digits):
        raise SpecError("matrix too large for the default symbol pool")
    alphabet = tuple(digits[:n])
    fw, rp = [], []
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            if e < 0:
                raise SpecError("negative matrix entry")
            pair = (alphabet[i], alphabet[j])
            if e == 0:
                fw.append(pair)
            elif e > 1:
                rp.append((pair, e))
    return validate_spec(alphabet, fw, rp)
