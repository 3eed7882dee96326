"""Word-level combinatorics: overlap correlations, the star product,
subword counting, and reducedness checks.

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
    return sum(1 for t in correlation_shifts(a, r) if t > cut)


def star(x: Sequence[str], y: Sequence[str]) -> Word | None:
    """Splice of two equal-length words, or None when undefined.

    For length m >= 2 the splice exists when the tail of x equals the
    head of y and extends x by the last symbol of y; length-1 words
    always splice to their two-symbol concatenation.
    """
    x, y = tuple(x), tuple(y)
    if len(x) != len(y):
        raise ValueError("star requires words of equal length")
    if not x:
        raise ValueError("star is undefined for empty words")
    if len(x) == 1:
        return x + y
    if x[1:] != y[:-1]:
        return None
    return x + y[-1:]


def is_reduced(words: Iterable[Sequence[str]]) -> bool:
    """True when no word of the collection sits inside another one.

    Duplicate entries count as mutual containment, hence not reduced.
    """
    ws = [tuple(w) for w in words]
    for i, inner in enumerate(ws):
        for j, outer in enumerate(ws):
            if i != j and contains(outer, inner):
                return False
    return True
