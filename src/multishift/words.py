"""Word-level combinatorics: overlap correlations, subword counting,
reducedness checks, and the pattern automaton that every walk over
words reads.

A word is a tuple of opaque symbol tokens.  Every function coerces its
word arguments with ``tuple()``, so plain strings work too (each
character is one token).  Symbols are compared by equality only; any
alphabet discipline is enforced upstream when a spec is validated.

Overlap lengths are counted from the right: ``t`` is an overlap of the
pair ``(u, v)`` when the last ``t`` symbols of ``u`` coincide with the
first ``min(t, |v|)`` symbols of ``v``.  The correlation polynomial is
``sum(z**(t-1))`` over those ``t``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Word = tuple[str, ...]


def word(symbols: Sequence[str] | str) -> Word:
    """Coerce a symbol sequence (e.g. a string) to the Word tuple form."""
    return tuple(symbols)


def correlate(u: Sequence[str], v: Sequence[str]) -> tuple[int, ...]:
    """Overlap bits of the ordered pair (u, v), one bit per position of u.

    Bit i (0-based here) is 1 when v, placed with its first symbol under
    position i of u, agrees with u on the whole overlapping segment.  If
    v sticks out past the end of u only the overlapping prefix of v is
    compared, so the first bit of ``correlate(w, w)`` is always 1.
    """
    u, v = tuple(u), tuple(v)
    n = len(u)
    bits = []
    for i in range(n):
        k = min(n - i, len(v))
        bits.append(1 if u[i:i + k] == v[:k] else 0)
    return tuple(bits)


def correlation_shifts(u: Sequence[str], v: Sequence[str]) -> tuple[int, ...]:
    """Overlap lengths of (u, v) in decreasing order.

    ``t`` appears when the suffix window of u of length t is matched by
    the prefix of v, i.e. when bit ``|u| - t`` of :func:`correlate` is set.
    """
    u = tuple(u)
    bits = correlate(u, v)
    return tuple(len(u) - i for i in range(len(u)) if bits[i])


def subword_count(w: Sequence[str], r: Sequence[str]) -> int:
    """Number of starting positions where r occurs inside w (overlaps count)."""
    w, r = tuple(w), tuple(r)
    if not r or len(r) > len(w):
        return 0
    return sum(1 for i in range(len(w) - len(r) + 1) if w[i:i + len(r)] == r)


def contains(w: Sequence[str], r: Sequence[str]) -> bool:
    """True when r occurs in w as a contiguous subword."""
    return subword_count(w, r) > 0


def non_terminal_occurrences(a: Sequence[str], r: Sequence[str],
                             threshold: int = 0) -> int:
    """Occurrences of r inside a other than a terminal (suffix) one.

    Counted as overlap lengths ``t`` of (a, r) with ``t > max(|r|,
    threshold)``; such a t pins a full copy of r ending strictly before
    the end of a.  ``threshold`` tightens the cut-off for the join
    bookkeeping of the non-reduced counting system.
    """
    r = tuple(r)
    cut = max(len(r), threshold)
    if len(a) <= cut:  # no overlap is longer than a
        return 0
    return sum(1 for t in correlation_shifts(a, r) if t > cut)


def is_reduced(words: Iterable[Sequence[str]]) -> bool:
    """True when no word of the collection sits inside another one.

    Duplicate entries count as mutual containment, hence not reduced.
    One set of the words, then a lookup of each word's proper subwords
    of the lengths the collection has; the empty word sits in no word.
    """
    ws = [w for w in map(tuple, words) if w]
    seen = set(ws)
    if len(seen) < len(ws):
        return False
    lengths = {len(w) for w in seen}
    return not any(w[i:i + k] in seen for w in seen for k in lengths if k < len(w)
                   for i in range(len(w) - k + 1))


def automaton(patterns: Sequence[Sequence], alphabet: Sequence
              ) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The Aho-Corasick automaton of the patterns (CACM 18(6), 1975),
    built breadth first.  State s stands for the longest suffix of the
    input read so far that is a prefix of a pattern, 0 for the empty one;
    ``delta[s][i]`` is the state after reading ``alphabet[i]``, and
    ``ends[s]`` the sorted indices of the patterns that are suffixes of
    state s.  With one pattern it is the KMP table.  A pattern symbol
    outside the alphabet cuts the pattern there, since no input reads it."""
    index = {a: i for i, a in enumerate(alphabet)}
    trie, ends = [{}], [[]]
    for k, w in enumerate(patterns):
        s = 0
        for a in w:
            if a not in index:
                break
            s = trie[s].setdefault(index[a], len(trie))
            if s == len(ends):
                trie.append({})
                ends.append([])
        else:
            ends[s].append(k)
    delta, fail, queue = [[]] * len(trie), [0] * len(trie), [0]
    for s in queue:
        row = list(delta[fail[s]]) if s else [0] * len(alphabet)
        for i, t in trie[s].items():
            fail[t] = delta[fail[s]][i] if s else 0
            ends[t] += ends[fail[t]]
            row[i] = t
            queue.append(t)
        delta[s] = row
    return delta, [tuple(sorted(e)) for e in ends]
