"""Shared test helpers: a from-scratch brute-force counter (independent
of the package's transfer-count oracle) and a seeded random spec generator.
"""

from __future__ import annotations

import itertools
import random

import pytest

from multishift.errors import SpecError
from multishift.langmodel import ShiftSpec, validate_spec
from multishift.spectral import adjacency_matrix, is_irreducible


def occurrences(w: tuple, r: tuple) -> int:
    return sum(1 for i in range(len(w) - len(r) + 1) if w[i:i + len(r)] == r)


def brute_weight(w: tuple, spec: ShiftSpec) -> int:
    """Weight computed by naive scanning, no shared code paths."""
    if any(occurrences(w, a) for a in spec.forbidden):
        return 0
    out = 1
    for r, m in spec.repeated:
        out *= m ** occurrences(w, r)
    return out


def brute_tables(spec: ShiftSpec, max_n: int):
    """f, g, fa tables by scanning every string of every length."""
    f = [1] + [0] * max_n
    g = {r: [0] * (max_n + 1) for r in spec.repeated_words}
    fa = {a: [0] * (max_n + 1) for a in spec.forbidden}
    for n in range(1, max_n + 1):
        for tup in itertools.product(spec.alphabet, repeat=n):
            m = brute_weight(tup, spec)
            if m:
                f[n] += m
                for r in spec.repeated_words:
                    if tup[n - len(r):] == r:
                        g[r][n] += m
            else:
                # candidate for the forbidden-tail table: terminal-only occurrence
                suffixes = [a for a in spec.forbidden
                            if len(a) <= n and tup[n - len(a):] == a]
                if len(suffixes) != 1:
                    continue
                a = suffixes[0]
                inner = sum(occurrences(tup[:-1], b) for b in spec.forbidden)
                # occurrences of any forbidden word not reaching the last symbol
                if inner:
                    continue
                weight = 1
                for r, mm in spec.repeated:
                    weight *= mm ** (occurrences(tup, r) - occurrences(a, r))
                fa[a][n] += weight
    return f, g, fa


def random_word(rng: random.Random, alphabet, lo=2, hi=4) -> tuple:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def random_spec(rng: random.Random, want_nonreduced: bool) -> ShiftSpec:
    """Rejection-sample a small valid spec with an irreducible matrix."""
    for _ in range(5000):
        q = rng.choice((2, 2, 3))
        alphabet = tuple("012"[:q])
        n_r = rng.randint(1, 2)
        reps = [(random_word(rng, alphabet, 2, 3), rng.randint(2, 4)) for _ in range(n_r)]
        n_f = rng.randint(1, 4 - n_r) if want_nonreduced else rng.randint(0, min(2, 4 - n_r))
        fws = []
        for i in range(n_f):
            if want_nonreduced and i == 0:
                r = rng.choice(reps)[0]
                left = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 1)))
                right = tuple(rng.choice(alphabet)
                              for _ in range(rng.randint(0 if left else 1, 1)))
                w = left + r + right
                if len(w) > 4:
                    continue
                fws.append(w)
            else:
                fws.append(random_word(rng, alphabet, 2, 4))
        try:
            spec = validate_spec(alphabet, fws, reps)
        except SpecError:
            continue
        if spec.union_reduced == want_nonreduced:
            continue
        try:
            mat = adjacency_matrix(spec)
        except SpecError:
            continue
        if not is_irreducible(mat):
            continue
        return spec
    raise RuntimeError("could not sample a spec with the requested shape")


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)
