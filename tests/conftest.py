"""Shared test helpers: a from-scratch brute-force counter (independent
of the package's transfer-count oracle), the pattern automaton by its
definition, the transfer pass over the states of the last p - 1 symbols
that the automaton's pass replaced, a seeded random spec generator,
a hypothesis strategy for small specs, the field-arithmetic
references that the fraction-free code is checked against (a polynomial
over Fraction coefficients, and on it the linear solve, the Euclidean
gcd and the Sturm isolation), the counting rows built entry by entry
from one correlation scan per pair and their printed form, the symbolic
route to the normalization identity, the dense-to-sparse row conversion, the
block-graph references (the
Collatz-Wielandt step with one Fraction per block, the eigenvector
formulas over every pair of label and target, and the escape transfer
with one automaton symbol per parallel edge), the solves of the
evaluated extended core that its transposed solve replaced (the
conjugate core's row sums and the derivative of the correction), and
the counting recurrences in Fraction arithmetic.  The
field references take ``ratfield`` values through their Fraction views
and run no ``ratfield.Poly`` arithmetic.  Definitions that no command
runs also live here, as references and input builders: the splice of
two words, the pairwise reducedness check, the leading multiplicity,
the naive multiplicity matrix, the preimage count of a vertex cylinder,
the lift of a rational stochastic matrix, and the product and row sums
of matrices of polynomials and canonical quotients, each sum and product
taken over Fraction coefficients and brought to lowest terms.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import reject, settings, strategies as st

from multishift import spectral, words
from multishift.errors import NumericError, RootBracketError, SingularMatrixError, SpecError
from multishift.genfun import build_system, conjugate_rows, embedded_weight, targets
from multishift.langmodel import (ShiftSpec, enumerate_slice, extend_repeated_to_full_length,
                                  multiplicity, validate_spec)
from multishift.measures import Cylinder, MeasureContext, StochMat
from multishift.ratfield import (ROOT_WIDTH, Poly, RatFun, RatMat, RootCertificate, _fr,
                                 solve_numeric)
from multishift.spectral import AdjMatrix, PowerResult, adjacency_matrix, is_irreducible
from multishift.verify import CheckResult


# HYPOTHESIS_PROFILE=ci prints the reproduce blob of a failing property
# test; example counts and deadlines stay with each test
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def sparse(rows) -> tuple[tuple[tuple[int, object], ...], ...]:
    """Dense rows as the sparse rows the package stores: per row the pairs
    (j, x) with x nonzero, in increasing j (the successor lists of an
    ``AdjMatrix``, the rows of a ``StochMat``)."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


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


def reference_automaton(patterns, alphabet) -> dict:
    """The pattern automaton by its definition: the state after an input
    is the longest suffix of that input which is a prefix of a pattern.
    Maps each state word to its successor state words, one per symbol
    in alphabet order, and the sorted indices of the patterns that are
    its suffixes."""
    patterns = [tuple(w) for w in patterns]
    # a prefix with a symbol outside the alphabet ends no input
    prefixes = {w[:i] for w in patterns for i in range(len(w) + 1)
                if all(a in alphabet for a in w[:i])}

    def state(read):
        return next(read[i:] for i in range(len(read) + 1) if read[i:] in prefixes)

    return {u: ([state(u + (a,)) for a in alphabet],
                tuple(k for k, w in enumerate(patterns) if u[len(u) - len(w):] == w))
            for u in prefixes}


def reference_transfer_tables(spec: ShiftSpec, max_n: int):
    """The f, g and fa count tables by the transfer pass over the states
    of the last k = p - 1 symbols: each state's moves are read by suffix
    tests of state + symbol against every forbidden and repeated word."""
    ends = spec.repeated_words
    k = spec.p - 1

    def ends_with(w, x):
        return len(x) <= len(w) and w[len(w) - len(x):] == x

    def moves(state):
        out = []
        for sym in spec.alphabet:
            w = state + (sym,)
            factor = 1
            for r, m in spec.repeated:
                if ends_with(w, r):
                    factor *= m
            bad = next((a for a in spec.forbidden if ends_with(w, a)), None)
            out.append((w[-k:], factor, bad, tuple(r for r in ends if ends_with(w, r))))
        return out

    f = [1] + [0] * max_n
    g = {r: [0] * (max_n + 1) for r in ends}
    fa = {a: [0] * (max_n + 1) for a in spec.forbidden}
    discount = {a: 1 for a in spec.forbidden}
    for a in spec.forbidden:
        for r, m in spec.repeated:
            discount[a] *= m ** occurrences(a, r)
    cache = {}
    layer = {(): 1}
    for n in range(1, max_n + 1):
        nxt = {}
        for state, weight in layer.items():
            if state not in cache:
                cache[state] = moves(state)
            for to, factor, bad, done in cache[state]:
                wt = weight * factor
                if bad is not None:
                    fa[bad][n] += wt // discount[bad]
                    continue
                nxt[to] = nxt.get(to, 0) + wt
                for r in done:
                    g[r][n] += wt
        layer = nxt
        f[n] = sum(layer.values())
    return f, g, fa


def star(x, y) -> tuple | None:
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


def reference_is_reduced(ws) -> bool:
    """Reducedness by comparing every ordered pair of entries."""
    ws = [tuple(w) for w in ws]
    return not any(i != j and words.contains(outer, inner)
                   for i, inner in enumerate(ws) for j, outer in enumerate(ws))


def leading_multiplicity(v, spec: ShiftSpec) -> int:
    """m(v)/m(v minus first symbol); the parallel-edge count generator.

    Exceeds 1 exactly when v begins with a repeated word, in which case
    it equals that word's multiplicity.
    """
    v = tuple(v)
    if len(v) < 2:
        return 1
    m_full = multiplicity(v, spec)
    if m_full == 0:
        raise SpecError(f"{''.join(v)} is forbidden; leading multiplicity undefined")
    m_tail = multiplicity(v[1:], spec)
    quot, rem = divmod(m_full, m_tail)
    if rem:
        raise SpecError("leading multiplicity is not integral; repeated collection not reduced?")
    return quot


def multiplicity_matrix(spec: ShiftSpec) -> AdjMatrix:
    """The naive variant of the adjacency matrix, weighting each splice by
    its full multiplicity.  Coincides with it exactly when all repeated
    words have length p; otherwise it overcounts paths.  The labels are
    the slice of length p-1, and each splice X*s is weighted by the
    brute-force :func:`langmodel.multiplicity`."""
    labels = tuple(w for w, _ in enumerate_slice(spec.p - 1, spec).entries)
    index = {x: i for i, x in enumerate(labels)}
    return AdjMatrix(labels, tuple(tuple((index[x[1:] + (s,)], m) for s in spec.alphabet
                                         if (m := multiplicity(x + (s,), spec)))
                                   for x in labels))


def preimage_count(ctx: MeasureContext, cyl: Cylinder) -> int:
    """Number of edge cylinders projecting onto the given vertex cylinder."""
    idx = ctx.mat.path(cyl.vertices, cyl.branches)
    out = 1
    for a, b in zip(idx, idx[1:]):
        out *= ctx.mat.entry(a, b)
    return out


def lift_rational_stochastic(sm: StochMat) -> AdjMatrix:
    """Integer matrix L * P for the least common denominator L.

    The Shannon-Parry matrix of the result is P again (root L, constant
    right eigenvector), so this inverts the construction on rational
    stochastic matrices.
    """
    if not sm.exact:
        raise NumericError("lift needs exact rational entries")
    lcm = math.lcm(*(Fraction(x).denominator for row in sm.rows for _, x in row if x > 0))
    successors = []
    for row in sm.rows:
        out = []
        for j, x in row:
            v = Fraction(x) * lcm
            if v.denominator != 1:
                raise NumericError("least common denominator failed; non-rational entry?")
            if v:
                out.append((j, int(v)))
        successors.append(tuple(out))
    mat = AdjMatrix(sm.labels, tuple(successors))
    if not is_irreducible(mat):
        raise SpecError("lift of a reducible stochastic matrix")
    return mat


def _pair(f) -> tuple[FractionPoly, FractionPoly]:
    """A polynomial or canonical quotient as a reference pair (num, den)."""
    if isinstance(f, RatFun):
        return FractionPoly(f.num), FractionPoly(f.den)
    return FractionPoly(f), ONE


def reference_sum(pairs) -> RatFun:
    """The sum of reference pairs (num, den), in lowest terms."""
    num, den = FractionPoly(), ONE
    for n, d in pairs:
        num, den = _reference_quotient(num * d + n * den, den * d)
    return _as_ratfun(num, den)


def matmul(a, b) -> list[list[RatFun]]:
    """The product of two matrices given as rows of polynomials or
    canonical quotients, entry by entry, as rows of canonical quotients."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("shape mismatch")
    return [[reference_sum((xn * yn, xd * yd) for (xn, xd), (yn, yd)
                           in zip(map(_pair, row), map(_pair, col)))
             for col in zip(*b)] for row in a]


def row_sums(rows) -> list[RatFun]:
    """The row sums of a matrix given as rows of canonical quotients."""
    return [reference_sum(map(_pair, row)) for row in rows]


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


@st.composite
def small_specs(draw):
    """Valid specs with q <= 3; about half plant a repeated word inside
    a forbidden one, which makes the union non-reduced."""
    alphabet = "012"[:draw(st.integers(2, 3))]
    words = lambda lo, hi: st.text(alphabet, min_size=lo, max_size=hi)
    repeated = draw(st.lists(st.tuples(words(1, 3), st.integers(2, 4)), max_size=2))
    forbidden = draw(st.lists(words(2, 4), max_size=3))
    if repeated and draw(st.booleans()):
        forbidden.append(draw(words(0, 1)) + repeated[0][0] + draw(words(1, 1)))
    try:
        return validate_spec(alphabet, forbidden, repeated)
    except SpecError:
        reject()


FAMILIES = ("short_forbidden", "unit_repeated", "nonreduced")


def family_spec(rng: random.Random, family: str, top: int = 6) -> ShiftSpec:
    """Rejection-sample a valid spec of one family: "short_forbidden" has
    a forbidden word shorter than p, "unit_repeated" a repeated word of
    length one, "nonreduced" a repeated word inside a forbidden one.
    A multiplicity is 2, 3, 5 or a power of ten up to 10^top.  The
    matrix may be reducible."""
    shape = {"short_forbidden": lambda s: any(len(a) < s.p for a in s.forbidden),
             "unit_repeated": lambda s: any(len(r) == 1 for r in s.repeated_words),
             "nonreduced": lambda s: not s.union_reduced}[family]
    for _ in range(5000):
        alphabet = "012"[:rng.choice((2, 2, 3))]
        reps = [(random_word(rng, alphabet, 1 if family == "unit_repeated" else 2, 4),
                 rng.choice((2, 3, 5, 10 ** rng.randint(2, top))))
                for _ in range(rng.randint(1, 2))]
        fws = [random_word(rng, alphabet, 2, 5) for _ in range(rng.randint(0, 3))]
        if family == "nonreduced":
            fws.append(random_word(rng, alphabet, 0, 1) + reps[0][0]
                       + random_word(rng, alphabet, 1, 1))
        try:
            spec = validate_spec(alphabet, fws, reps)
            adjacency_matrix(spec)
        except SpecError:
            continue
        if shape(spec):
            return spec
    raise RuntimeError(f"could not sample a {family} spec")


class FractionPoly:
    """Reference polynomial: a trimmed tuple of Fraction coefficients,
    ascending, with schoolbook field arithmetic; a rational operand of
    + and - is a constant polynomial.  Built from anything with a
    ``coeffs`` view (a ``ratfield.Poly``) or from coefficients, and
    iterable over its coefficients, so ``Poly(p)`` converts it."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in getattr(coeffs, "coeffs", coeffs)]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def __iter__(self):
        return iter(self.coeffs)

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __add__(self, other):
        a = self.coeffs
        b = other.coeffs if isinstance(other, FractionPoly) else (Fraction(other),)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def derivative(self):
        return FractionPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation, a Fraction or float operation per coefficient."""
        acc = 0.0 if isinstance(x, float) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def divmod(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        while len(rem) > other.degree and rem:
            k = len(rem) - 1 - other.degree
            f = rem[-1] / other.leading
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return FractionPoly(q), FractionPoly(rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero:
            raise NumericError("exact polynomial division left a remainder")
        return q

    def monic(self):
        return self * (1 / self.leading) if self.coeffs else self


ONE = FractionPoly((1,))


def reference_gcd(a, b) -> FractionPoly:
    """Monic gcd by the Euclidean algorithm over Fraction coefficients."""
    a, b = FractionPoly(a), FractionPoly(b)
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
        # keep coefficients tame; monic rescale is harmless for a gcd
        b = b.monic()
    return a.monic()


def _reference_quotient(num: FractionPoly, den: FractionPoly):
    """num / den in canonical form: coprime, monic denominator, 0 / 1."""
    if num.is_zero:
        return num, ONE
    g = reference_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    return num * (1 / den.leading), den.monic()


def _as_ratfun(num: FractionPoly, den: FractionPoly) -> RatFun:
    """A canonical reference quotient as a RatFun, assembled from its
    coefficients so that no ratfield arithmetic touches it."""
    out = object.__new__(RatFun)
    out.num, out.den = Poly(num.coeffs), Poly(den.coeffs)
    return out


def reference_solve(m: RatMat, columns) -> list[list[RatFun]]:
    """m^-1 times the polynomial right-hand columns (one list of entries
    per row) by the field route: each row taken in Q[z] as it stands, a
    Bareiss forward pass, then back substitution with a canonical
    quotient at every step."""
    n = m.nrows
    aug = [[FractionPoly(e) for e in list(row) + list(ext)]
           for row, ext in zip(m.entries, columns)]
    width = len(aug[0]) if aug else 0
    prev = ONE
    for k in range(n):
        piv = next((i for i in range(k, n) if not aug[i][k].is_zero), None)
        if piv is None:
            raise SingularMatrixError("singular matrix in exact elimination")
        aug[k], aug[piv] = aug[piv], aug[k]
        pivot = aug[k][k]
        for i in range(k + 1, n):
            head = aug[i][k]
            for j in range(k + 1, width):
                aug[i][j] = (pivot * aug[i][j] - head * aug[k][j]).exact_div(prev)
            aug[i][k] = FractionPoly()
        prev = pivot
    out = [[None] * (width - n) for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for col in range(width - n):
            num, den = aug[i][n + col], ONE
            for j in range(i + 1, n):
                xn, xd = out[j][col]
                num, den = _reference_quotient(num * xd - aug[i][j] * xn * den, den * xd)
            out[i][col] = _reference_quotient(num, den * aug[i][i])
    return [[_as_ratfun(*x) for x in row] for row in out]


def _reference_squarefree(p) -> FractionPoly:
    p = FractionPoly(p)
    g = reference_gcd(p, p.derivative())
    return p.exact_div(g) if g.degree > 0 else p


def reference_sturm_chain(p) -> list[FractionPoly]:
    """Sturm chain over Fraction coefficients: -rem scaled by 1/|lc|."""
    p = FractionPoly(p)
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero:
            break
        # positive rescale keeps the sign sequence intact
        chain.append(-rem * (1 / abs(rem.leading)))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _reference_variations(chain: list[FractionPoly], x: Fraction) -> int:
    signs = []
    for s in chain:
        v = s(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def reference_largest_real_zero(f, lo, hi) -> RootCertificate:
    """Sturm bisection with Fraction-coefficient chains and Fraction
    Horner evaluation at every step."""
    g = FractionPoly(f)
    if g.is_zero or g.degree < 1:
        raise RootBracketError("numerator has no roots")
    g = _reference_squarefree(g)
    a, b = _fr(lo), _fr(hi)
    if a >= b:
        raise ValueError("empty bracket")
    exact: Fraction | None = None
    if g(a) == 0:
        exact = a
        g = g.exact_div(FractionPoly((-a, 1)))
    if g.degree < 1:
        if exact is not None:
            return RootCertificate(float(exact), exact, exact, exact)
        raise RootBracketError("no real root in bracket")
    chain = reference_sturm_chain(g)
    if _reference_variations(chain, a) - _reference_variations(chain, b) == 0:
        if exact is not None:
            return RootCertificate(float(exact), exact, exact, exact)
        raise RootBracketError(f"no real root in ({a}, {b}]")
    while b - a > ROOT_WIDTH:
        mid = (a + b) / 2
        if g(mid) == 0:
            # exact hit: keep it unless a larger root remains to the right
            quot = g.exact_div(FractionPoly((-mid, 1)))
            if quot.degree >= 1:
                chain2 = reference_sturm_chain(quot)
                if _reference_variations(chain2, mid) - _reference_variations(chain2, b) > 0:
                    g, chain, a = quot, chain2, mid
                    continue
            return RootCertificate(float(mid), mid, mid, mid)
        if _reference_variations(chain, mid) - _reference_variations(chain, b) > 0:
            a = mid
        else:
            b = mid
    # integer (or bracket-endpoint) exactness inside the final interval
    k = Fraction(math.floor(b))
    if a < k <= b and g(k) == 0:
        return RootCertificate(float(k), k, k, k)
    mid = (a + b) / 2
    return RootCertificate(float(mid), a, b, None)


def reference_series_coeffs(f: RatFun, n_max: int) -> list[Fraction]:
    """Coefficients of z**-n, n = 0..n_max, of a proper f by Fraction
    long division in w = 1/z: each coefficient is the numerator's, less
    the denominator's tail against the coefficients already found."""
    if f.num.is_zero:
        return [Fraction(0)] * (n_max + 1)
    dn, dd = f.num.degree, f.den.degree
    if dn > dd:
        raise NumericError("series in 1/z needs numerator degree <= denominator degree")
    num_r = [f.num.coeff(dd - k) for k in range(dd + 1)]
    den_r = [f.den.coeff(dd - k) for k in range(dd + 1)]
    lead = den_r[0]
    out: list[Fraction] = []
    for k in range(n_max + 1):
        acc = num_r[k] if k < len(num_r) else Fraction(0)
        for j in range(1, min(k, dd) + 1):
            acc -= den_r[j] * out[k - j]
        out.append(acc / lead)
    return out


def correlation_coeffs(u, v, alpha: int | None = None) -> tuple[int, ...]:
    """Ascending 0/1 coefficients of the sum of z^(t-1) over the overlap
    lengths t <= alpha (default |u|) of (u, v); () when there is none."""
    shifts = [t for t in words.correlation_shifts(u, v) if alpha is None or t <= alpha]
    return tuple(int(k + 1 in shifts) for k in range(max(shifts, default=0)))


def reference_system_rows(spec: ShiftSpec) -> tuple[tuple[Poly, ...], ...]:
    """The bordered counting rows entry by entry: one correlation scan
    per (target, word) pair, each term's Fraction coefficient placed at
    its power of z, and each entry's coefficients converted to a
    ``Poly``."""

    def entry(terms) -> Poly:
        coeffs = [0] * (max((k for k, _ in terms), default=-1) + 1)
        for k, c in terms:
            coeffs[k] += c
        return Poly(coeffs)

    fws = spec.forbidden
    shares = [Fraction(m - 1, m) for _, m in spec.repeated]
    top = [entry([(0, -spec.q), (1, 1)])]
    top += [entry([(1, -share)]) for share in shares]
    top += [entry([(1, embedded_weight(spec, a))]) for a in fws]
    rows = [tuple(top)]

    targets = [(r, True) for r in spec.repeated_words] + [(a, False) for a in fws]
    for k, (t_k, repeated_row) in enumerate(targets):
        row = [entry([(0, 1)])]
        for j, (r_j, share) in enumerate(zip(spec.repeated_words, shares)):
            # a whole r_j overlapping a forbidden word would sit inside it
            alpha = len(r_j) if repeated_row else len(r_j) - 1
            corr = correlation_coeffs(r_j, t_k, alpha)
            terms = [(i + 1, share) for i, c in enumerate(corr) if c]
            if j == k:
                terms.append((len(r_j), -1))
            row.append(entry(terms))
        for a in fws:
            # overhangs past |t_k| would put the whole appended word
            # inside a, impossible for reduced collections
            row.append(entry([(t, -embedded_weight(spec, a, threshold=0 if repeated_row else t))
                              for t in words.correlation_shifts(a, t_k) if t <= len(t_k)]))
        rows.append(tuple(row))
    return tuple(rows)


def reference_system_json(spec: ShiftSpec, rows) -> dict:
    """The printed counting system of the rows of
    :func:`reference_system_rows`: the labels F, then G[r] per repeated
    word and Fa[a] per forbidden word, and every matrix and right-hand
    side (z, 0, ..., 0) entry printed as the canonical quotient e / 1,
    each coefficient in ``str(Fraction)`` form."""
    labels = ["F"] + [f"G[{''.join(r)}]" for r in spec.repeated_words] + \
        [f"Fa[{''.join(a)}]" for a in spec.forbidden]

    def printed(coeffs):
        return {"num": [str(c) for c in coeffs], "den": ["1"]}

    return {"mode": "reduced" if spec.union_reduced else "non_reduced",
            "labels": labels,
            "matrix": {"rows": labels, "cols": labels,
                       "entries": [[printed(e.coeffs) for e in row] for row in rows]},
            "rhs": [printed((0, 1))] + [printed(())] * (len(labels) - 1)}


def reference_identity(spec: ShiftSpec, theta):
    """theta^(p-1) (1 + R'(theta)) on the extended spec by the symbolic
    route: the core P of the extension's symbolic system and its
    entrywise derivative, both evaluated at theta, and one solve of the
    block system [[P, 0], [P', P]] (x, x') = (1, 0), the derivative of
    P x = 1.  Then R = z sum w_i x_i gives R' = sum w_i (x_i + z x_i')."""
    ext = extend_repeated_to_full_length(spec)
    core = build_system(ext).core
    n = core.nrows
    value = [[e(theta) for e in row] for row in core.entries]
    slope = [[FractionPoly(e).derivative()(theta) for e in row] for row in core.entries]
    zero = [0 * theta] * n
    block = [row + zero for row in value] + [d + v for d, v in zip(slope, value)]
    xs = solve_numeric(block, [1 + 0 * theta] * n + zero)
    derivative = sum(w * (xs[i] + theta * xs[n + i]) for i, (_, w) in enumerate(targets(ext)))
    return theta ** (ext.p - 1) * (1 + derivative)


def reference_power_iteration(mat: AdjMatrix) -> PowerResult:
    """The Collatz-Wielandt enclosure with the exact step on one Fraction
    per block: the same float iteration on A + I, then every ratio
    ((A+I)v)_i / v_i as a Fraction, and the least and the largest."""
    succ = mat.successors
    v = [1.0] * mat.size
    for it in range(1, spectral.POWER_CAP + 1):
        w = [x + sum(e * v[j] for j, e in row) for x, row in zip(v, succ)]
        ratios = [a / b for a, b in zip(w, v)]
        lower, upper = min(ratios), max(ratios)
        total = sum(w)
        v = [a / total for a in w]
        if upper - lower <= spectral.POWER_TOL * lower:
            break
    else:
        raise NumericError(f"power iteration did not converge in {spectral.POWER_CAP} steps "
                           f"(enclosure [{lower - 1}, {upper - 1}])")
    fv = [Fraction(x) for x in v]
    exact = [(x + sum(e * fv[j] for j, e in row)) / x for x, row in zip(fv, succ)]
    return PowerResult(min(exact) - 1, max(exact) - 1, it)


def reference_cw_enclosure(mat: AdjMatrix) -> tuple[Fraction, Fraction]:
    """The largest enclosure over the strong components, each one's dense
    submatrix (rows and columns in component order) through
    :func:`reference_power_iteration`."""
    blocks = [reference_power_iteration(mat if len(comp) == mat.size else AdjMatrix(
        tuple(mat.labels[i] for i in comp),
        sparse(tuple(mat.entries[i][j] for j in comp) for i in comp)))
        for comp in mat.components]
    return max(b.lower for b in blocks), max(b.upper for b in blocks)


def reference_escape_counts(mat: AdjMatrix, hole, n_max: int) -> tuple[int, ...]:
    """Avoidance counts h[0..n_max] of a hole edge cylinder by the
    per-branch transfer: every parallel edge is its own KMP symbol, so
    the table has one column per edge of the multigraph and each step
    visits every branch leaving a block."""
    idx = mat.path(hole.vertices, hole.branches)
    hole_seq = list(zip(idx, idx[1:], hole.branches))
    # the edges leaving each block, one per parallel branch
    leaving = [[(i, j, b) for j, e in row for b in range(1, e + 1)]
               for i, row in enumerate(mat.successors)]
    edges = [edge for row in leaving for edge in row]
    k = len(hole_seq)
    fail = [0] * k
    for i in range(1, k):
        j = fail[i - 1]
        while j and hole_seq[i] != hole_seq[j]:
            j = fail[j - 1]
        fail[i] = j + 1 if hole_seq[i] == hole_seq[j] else 0
    table = []
    for state in range(k):
        trans = {}
        for e in edges:
            j = state
            while j and hole_seq[j] != e:
                j = fail[j - 1]
            trans[e] = j + 1 if hole_seq[j] == e else 0
        table.append(trans)

    counts = [1]
    # (block, matched prefix of the hole) -> paths ending there
    state_counts = {(v, 0): 1 for v in range(mat.size)}
    for _ in range(n_max):
        nxt: dict[tuple[int, int], int] = {}
        for (v, s), c in state_counts.items():
            for edge in leaving[v]:
                s2 = table[s][edge]
                if s2 < k:
                    key = (edge[1], s2)
                    nxt[key] = nxt.get(key, 0) + c
        state_counts = nxt
        counts.append(sum(state_counts.values()))
    return tuple(counts)


def reference_vectors(an: spectral.Analysis) -> tuple[list, list]:
    """The raw formula eigenvectors (U, V) of an analysis, every label
    against every target of the extended core, each correlation
    polynomial built and evaluated at the root."""
    theta = an.root.scalar()
    rsums, ysums = an._core_at_root
    one = Fraction(1) if an.root.exact is not None else 1.0
    left, right = [], []
    for x in an.matrix.labels:
        u = v = one
        for i, (t, w) in enumerate(targets(an.ext)):
            u = u - theta * w * rsums[i] * Poly(correlation_coeffs(t[1:], x))(theta)
            v = v - theta * ysums[i] * Poly(correlation_coeffs(x, t))(theta)
        left.append(u)
        right.append(v)
    return left, right


def reference_conjugate_sums(rows, theta) -> list:
    """The row sums of the conjugate D^-1 P^T D of the core P of the
    bordered matrix rows at theta: :func:`genfun.conjugate_rows` evaluated
    there and solved against the ones vector."""
    conj = [[e(theta) for e in row] for row in conjugate_rows(rows)]
    ssums = solve_numeric(conj, [1] * len(conj))
    return ssums


def reference_correction_derivative_at(spec: ShiftSpec, core: RatMat, theta, m: list, r: list):
    """Derivative of the constraint correction at theta from the core P,
    its value m = P(theta) and the row sums r of m^-1, through one
    linear solve: r' = -P^{-1} P' r and the product rule on the diagonal
    weights."""
    n = len(m)
    md = [[FractionPoly(e).derivative()(theta) for e in row] for row in core.entries]
    rhs = [sum(md[i][j] * r[j] for j in range(n)) for i in range(n)]
    rprime = [-x for x in solve_numeric(m, rhs)]
    return sum(w * (r[i] + theta * rprime[i])
               for i, (_, w) in enumerate(targets(spec)))


def reference_recurrence_checks(spec: ShiftSpec, f, g, fa, max_n: int) -> list[CheckResult]:
    """The counting recurrences in Fraction arithmetic, every term built at
    every n: the check that ``verify._recurrence_checks`` replaced."""
    out = []
    reps, fws = spec.repeated, spec.forbidden

    ok = True
    for n in range(max_n):
        lhs = spec.q * f[n] - f[n + 1]
        rhs = -sum(Fraction(m - 1, m) * g[r][n + 1] for r, m in reps)
        rhs += sum(embedded_weight(spec, a) * fa[a][n + 1] for a in fws)
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
                for s in words.correlation_shifts(r_j, r_k):
                    rhs -= Fraction(m_j - 1, m_j) * g[r_j][n + s]
            for a in fws:
                for t in words.correlation_shifts(a, r_k):
                    if t <= len(r_k):
                        rhs += embedded_weight(spec, a) * fa[a][n + t]
            if f[n] != rhs:
                ok = False
    out.append(CheckResult("recurrence_repeated_suffix", ok))

    ok = True
    for a_k in fws:
        for n in range(safe_n + 1):
            rhs = Fraction(0)
            for r_j, m_j in reps:
                for s in words.correlation_shifts(r_j, a_k):
                    if s <= len(r_j) - 1:
                        rhs -= Fraction(m_j - 1, m_j) * g[r_j][n + s]
            for a_i in fws:
                for t in words.correlation_shifts(a_i, a_k):
                    rhs += embedded_weight(spec, a_i, threshold=t) * fa[a_i][n + t]
            if f[n] != rhs:
                ok = False
    out.append(CheckResult("recurrence_forbidden_suffix", ok))
    return out


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)
