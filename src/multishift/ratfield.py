"""Exact algebra substrate: polynomials over the rationals, canonical
quotients of polynomials, polynomial matrices solved by Cramer's rule,
power series in 1/z, and certified real-root isolation.

All symbolic computation is exact; floats only appear when a caller
evaluates at a float point.  A polynomial is integer coefficients over
one positive denominator in lowest terms, so its arithmetic, gcds and
Sturm chains all run over Z[z] on integer coefficient lists, and an
exact evaluation at u/v is one homogeneous Horner sum over the
integers, divided once.  A rational function is a canonical quotient
num / den: coprime parts and a monic den, so two quotients are equal
exactly when their parts are; it carries no arithmetic, and a caller
that needs a sum or a comparison of two forms cross-multiplies their
parts.  A matrix holds polynomial entries, as the counting systems do;
a linear solve against one right-hand column scales each row by the lcm
of its entries' denominators into Z[z], Bareiss elimination and the back
substitution use exact divisions with a remainder check, and every
unknown comes out as the quotient y_i / D over one common denominator D,
the determinant of the scaled matrix up to sign (Cramer's rule); the
inverse is one such solve per identity column.  Polynomial gcds and Sturm
chains are primitive remainder sequences over Z[z].  Sturm bisection
keeps its bracket as integer numerators over one denominator l 2^k, and
the series in 1/z runs over integer coefficients, so both build
Fractions only for results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import NumericError, RootBracketError, SingularMatrixError

Rational = Fraction | int


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Univariate polynomial with rational coefficients, ascending order.

    Stored canonically as integer coefficients ``ints`` (no trailing
    zero) over one positive ``den`` coprime to them, so equal
    polynomials have equal ``(ints, den)``.  ``coeffs``, ``coeff`` and
    ``leading`` are read-only Fraction views."""

    __slots__ = ("ints", "den")

    def __new__(cls, coeffs: Iterable[Rational] = (), den: int = 1):
        if not den:
            raise ZeroDivisionError("polynomial with zero denominator")
        cs = list(coeffs)
        scale = math.lcm(*(c.denominator for c in cs))
        return cls._of([c.numerator * (scale // c.denominator) for c in cs], den * scale)

    @classmethod
    def _of(cls, ints: list[int], den: int = 1) -> "Poly":
        """ints / den in lowest terms, for a list of ints (consumed) and a
        nonzero den: trimmed, over a positive den coprime to them all."""
        while ints and not ints[-1]:
            ints.pop()
        g = math.gcd(den, *ints) * (-1 if den < 0 else 1)
        p = object.__new__(cls)
        p.ints, p.den = tuple(c // g for c in ints), den // g
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._of([])

    @classmethod
    def one(cls) -> "Poly":
        return cls._of([1])

    @classmethod
    def x(cls) -> "Poly":
        return cls._of([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.ints[k], self.den) if 0 <= k < len(self.ints) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ints == other.ints and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __add__(self, other: "Poly") -> "Poly":
        a, b, da, db = self.ints, other.ints, self.den, other.den
        if da != db:
            den = math.lcm(da, db)
            a, b, da = [c * (den // da) for c in a], [c * (den // db) for c in b], den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(out, da)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            return Poly._of([c * n for c in self.ints], self.den * d)
        return Poly._of(_zmul(self.ints, other.ints), self.den * other.den)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Poly":
        """Multiply by z**k."""
        return Poly._of([0] * k + list(self.ints), self.den) if self.ints else self

    def derivative_at(self, x):
        """The derivative at x, exact for Fraction/int input, without
        building the derivative polynomial: Horner over the terms i c_i /
        den, each float term rounded once (int true division rounds
        correctly), so a float x gives the bits of Horner over the
        derivative's rounded coefficients."""
        ints, den = [i * c for i, c in enumerate(self.ints)][1:], self.den
        if isinstance(x, float):
            acc = 0.0
            for c in reversed(ints):
                acc = acc * x + c / den
            return acc
        x = _fr(x)
        v = x.denominator
        return Fraction(_zhorner(ints, x.numerator, v), den * v ** max(len(ints) - 1, 0))

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int input, float for float."""
        if isinstance(x, float):
            # int true division rounds correctly, so each term is float(coeff)
            acc, den = 0.0, self.den
            for c in reversed(self.ints):
                acc = acc * x + c / den
            return acc
        x = _fr(x)
        v = x.denominator
        return Fraction(_zhorner(self.ints, x.numerator, v), self.den * v ** max(self.degree, 0))

    def exact_div(self, other: "Poly") -> "Poly":
        """The quotient in Q[z]; a remainder raises NumericError.  By
        Gauss's lemma the primitive parts divide exactly in Z[z]."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ga, gb = math.gcd(*self.ints) or 1, math.gcd(*other.ints)
        q = _zdiv([c // ga for c in self.ints], [c // gb for c in other.ints])
        return Poly._of([c * ga * other.den for c in q], self.den * gb)

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd (zero only for two zeros), by the primitive remainder
        sequence over Z[z] from the primitive parts of a and b: each
        element is a nonzero multiple of the Euclidean remainder over Q,
        so the last nonzero one, made monic, is the gcd."""
        x, y = _zprimpart(list(a.ints)), _zprimpart(list(b.ints))
        while y:
            if len(y) == 1:
                return Poly.one()
            x, y = y, _zprimpart(_zprem(x, y))
        return Poly._of(x, x[-1]) if x else Poly.zero()

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts).replace("+ -", "- ")


class RatFun:
    """A quotient of polynomials in canonical form: coprime parts, monic
    denominator, zero as 0 / 1.  Equal functions are equal objects."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = num, Poly.one()
            return
        # a polynomial over a constant is canonical once made monic
        if den.degree > 0:
            g = Poly.gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
        lead = den.leading
        self.num = num * (1 / lead)
        self.den = den * (1 / lead)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self) -> str:
        if self.den == Poly.one():
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


class RatMat:
    """Rectangular matrix of polynomials with optional labels, one tuple
    that names both the rows and the columns.  Immutable; build it
    through :meth:`from_rows`."""

    def __init__(self, entries: tuple[tuple[Poly, ...], ...], labels: tuple[str, ...] = ()):
        vars(self).update(entries=entries, labels=labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Poly]], labels=()) -> "RatMat":
        ent = tuple(map(tuple, rows))
        widths = {len(r) for r in ent}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        return cls(ent, tuple(labels))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    def _integer_rows(self, rhs: Sequence[Poly]) -> list[list[list[int]]]:
        """The augmented rows [self | rhs] over Z[z]: each row is scaled
        by the lcm of its entries' ``den``.  Entries are ascending integer
        coefficient lists."""
        rows = []
        for row, b in zip(self.entries, rhs):
            row = row + (b,)
            scale = math.lcm(*(p.den for p in row))
            rows.append([[c * (scale // p.den) for c in p.ints] for p in row])
        return rows

    def inverse(self) -> list[list[RatFun]]:
        """Exact inverse, as rows of rational functions: column j is
        :meth:`cramer` against the j-th identity column."""
        n = self.nrows
        one, zero = Poly.one(), Poly.zero()
        cols = [self.cramer([one if i == j else zero for i in range(n)]) for j in range(n)]
        return [[RatFun(ys[i], det) for ys, det in cols] for i in range(n)]

    def cramer(self, rhs: Sequence[Poly]) -> tuple[list[Poly], Poly]:
        """Cramer's rule for self * x = rhs, one right-hand column:
        numerators y in Z[z] and one common denominator D, the determinant
        of the row-scaled matrix up to sign, with x_i = y_i / D."""
        if len(rhs) != self.nrows or any(len(row) != self.nrows for row in self.entries):
            raise ValueError("shape mismatch in solve")
        ys, det = _bareiss_solve(self._integer_rows(rhs))
        return [Poly._of(y) for y in ys], Poly._of(det)

    @cached_property
    def inverse_row_sums(self) -> tuple[tuple[Poly, ...], Poly]:
        """:meth:`cramer` against the ones vector, the row sums of the
        inverse over one denominator, solved once per matrix."""
        ys, det = self.cramer([Poly.one()] * self.nrows)
        return tuple(ys), det

    def solve(self, rhs: Sequence[Poly]) -> list[RatFun]:
        """Solve self * x = rhs exactly: x_i = y_i / D from :meth:`cramer`."""
        ys, det = self.cramer(rhs)
        return [RatFun(y, det) for y in ys]

    def to_json(self) -> dict:
        return {
            "rows": list(self.labels),
            "cols": list(self.labels),
            "entries": [[quotient_json(e) for e in row] for row in self.entries],
        }


def quotient_json(p: Poly) -> dict:
    """A polynomial printed as the rational function p / 1."""
    return {"num": p.to_json(), "den": ["1"]}


def _zmul(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[z] of ascending coefficient lists ([] is zero)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zsub(a: list[int], b: list[int]) -> list[int]:
    """Difference in Z[z], trimmed of leading zeros."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _zdiv(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b in Z[z]; a remainder, in a coefficient or in
    the polynomial, raises NumericError."""
    if not a:
        return []
    db, lead = len(b) - 1, b[-1]
    rem = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r:
            raise NumericError("exact Z[z] division left a remainder")
        q[k] = c
        if c:
            for i in range(db):
                rem[k + i] -= c * b[i]
    if any(rem[:db]):
        raise NumericError("exact Z[z] division left a remainder")
    return q


def _zprimpart(a: list[int]) -> list[int]:
    """a divided by its content, the positive gcd of its coefficients."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _zprem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (deg b >= 1) over Z: a times a power of
    |lc(b)|, less a multiple of b, of degree below deg b.  Scaling by
    |lc(b)| rather than lc(b) makes it a positive multiple of the
    remainder over Q."""
    db = len(b) - 1
    lead = b[-1]
    if lead < 0:
        b, lead = [-c for c in b], -lead
    rem = list(a)
    while len(rem) > db:
        h = rem.pop()
        k = len(rem) - db
        rem = [lead * c for c in rem]
        for i in range(db):
            rem[k + i] -= h * b[i]
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _zhorner(p: Sequence[int], u: int, v: int) -> int:
    """sum c_i u^i v^(d-i) for p of degree d, which is v^d p(u/v), by
    homogeneous Horner: one integer, however many coefficients."""
    acc, vk = 0, 1
    for c in reversed(p):
        acc = acc * u + c * vk
        vk *= v
    return acc



def _bareiss_solve(aug: list[list[list[int]]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free solve over Z[z] of the augmented rows [A | b].

    The forward pass is Bareiss elimination; every division by the
    previous pivot is exact in Z[z].  The last pivot D is det A up to the
    sign of the row swaps, so by Cramer y = D * A^-1 b lies in Z[z], and
    back substitution over the eliminated rows finds it by exact division:
    y_i = (D * b_i - sum_{k>i} a_ik * y_k) / a_ii.  Returns y, one entry
    per unknown, and D.  Rows are consumed destructively.
    """
    n = len(aug)
    if n == 0:
        return [], [1]
    prev = [1]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            raise SingularMatrixError("singular matrix in exact elimination")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        pivot, top = aug[k][k], aug[k]
        for i in range(k + 1, n):
            row = aug[i]
            head = row[k]
            for j in range(k + 1, n + 1):
                e = _zsub(_zmul(pivot, row[j]), _zmul(head, top[j]))
                row[j] = _zdiv(e, prev)
            row[k] = []
        prev = pivot
    det = prev
    ys: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = _zmul(det, row[n])
        for j in range(i + 1, n):
            acc = _zsub(acc, _zmul(row[j], ys[j]))
        ys[i] = _zdiv(acc, row[i])
    return ys, det


def solve_numeric(matrix: Sequence[Sequence], rhs: Sequence) -> list:
    """Gaussian elimination generic over exact rationals or floats.

    Used for evaluated (scalar) systems; keeps exactness when all the
    inputs are Fractions.  Raises SingularMatrixError on pivot failure.
    """
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[piv][k] == 0:
            raise SingularMatrixError("singular scalar system")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n + 1):
                    a[i][j] -= f * a[k][j]
    out = [None] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc -= a[i][j] * out[j]
        out[i] = acc / a[i][i]
    return out


def series_coeffs(f: RatFun, n_max: int) -> list[Fraction]:
    """Coefficients of z**-n, n = 0..n_max, of the expansion at infinity.

    Requires deg(num) <= deg(den) = d.  Long division in w = 1/z over the
    integers: with num = N / c and the monic den = D / e (D's leading
    coefficient is e), the n-th is X_n / (c e^n), where X_n = N_(d-n) e^n
    - sum_(j=1..d) D_(d-j) X_(n-j) e^(j-1).
    """
    num, c, den, e = f.num.ints, f.num.den, f.den.ints, f.den.den
    d = len(den) - 1
    if len(num) - 1 > d:
        raise NumericError("series in 1/z needs numerator degree <= denominator degree")
    head = [num[d - n] * e ** n if d - n < len(num) else 0 for n in range(d + 1)]
    tail = [den[d - j] * e ** (j - 1) for j in range(1, d + 1)]
    xs: list[int] = []
    out: list[Fraction] = []
    for n in range(n_max + 1):
        # xs[:-d - 1:-1] is the last d of the X values, newest first
        x = (head[n] if n <= d else 0) - sum(map(mul, tail, xs[:-d - 1:-1]))
        xs.append(x)
        out.append(Fraction(x, c * e ** n))
    return out


class RootCertificate(NamedTuple):
    """Isolating interval for a real root, with the exact value when known."""

    value: float
    low: Fraction
    high: Fraction
    exact: Fraction | None = None

    def scalar(self):
        """Preferred evaluation point: exact Fraction when certified, else float."""
        return self.exact if self.exact is not None else self.value

    def to_json(self) -> dict:
        return {
            "value": format(self.value, ".15g"),
            "low": str(self.low),
            "high": str(self.high),
            "exact": None if self.exact is None else str(self.exact),
        }


def _sturm_chain(g: list[int]) -> list[list[int]]:
    """Sturm chain of a primitive g in Z[z] (degree >= 1) as a primitive
    remainder sequence: g and the primitive part of g', then each next
    element is minus the primitive part of the pseudo-remainder of the
    previous two.  Every element is a positive multiple of the chain
    over Q whose next element is minus the remainder, so every sign
    sequence is the same.  The last element is gcd(g, g') up to a
    nonzero factor, a constant exactly when g is squarefree."""
    chain = [g, _zprimpart([i * c for i, c in enumerate(g)][1:])]
    while len(chain[-1]) > 1:
        rem = _zprem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_zprimpart([-c for c in rem]))
    return chain


def _variations(chain: list[list[int]], u: int, v: int) -> int:
    """Sign changes of the chain at u/v, v > 0: v^d p(u/v) has the sign of
    p(u/v), and u/v need not be in lowest terms."""
    signs = [s > 0 for s in (_zhorner(p, u, v) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


ROOT_WIDTH = Fraction(1, 10 ** 12)


def largest_real_zero(g: Poly, lo, hi) -> RootCertificate:
    """Largest real root of the polynomial ``g`` in [lo, hi].

    Sturm counting isolates the root; bisection shrinks the bracket to
    ROOT_WIDTH.  g is taken as a primitive integer polynomial, whose
    Sturm chain ends in gcd(g, g'); a repeated factor is divided out.  The
    bracket [a, b] is ua/v, ub/v, v = l 2^k with l the lcm of lo's and hi's
    denominators; each step doubles all three and splits at (ua + ub) / 2,
    and the sign at u/v is that of the integer v^deg(g) g(u/v).  The counts
    V(a) and V(b) are kept, and once V(a) - V(b) = 1 the bracket (a, b]
    holds one simple root: each later step reads the sign of g at the
    midpoint alone, against its sign at b, and takes the bracket that
    counting would take.  Exact rational hits (including integer roots)
    are certified; only they and the result are built as Fractions.
    """
    if g.is_zero or g.degree < 1:
        raise RootBracketError("numerator has no roots")
    a, b = _fr(lo), _fr(hi)
    if a >= b:
        raise ValueError("empty bracket")
    g = _zprimpart(list(g.ints))
    chain = _sturm_chain(g)
    if len(chain[-1]) > 1:
        common = chain[-1] if chain[-1][-1] > 0 else [-c for c in chain[-1]]
        g = _zdiv(g, common)
        chain = _sturm_chain(g)
    exact: Fraction | None = None
    if not _zhorner(g, a.numerator, a.denominator):
        exact = a
        g = _zdiv(g, [-a.numerator, a.denominator])
        if len(g) < 2:
            return RootCertificate(float(exact), exact, exact, exact)
        chain = _sturm_chain(g)
    v = math.lcm(a.denominator, b.denominator)
    ua, ub = a.numerator * (v // a.denominator), b.numerator * (v // b.denominator)
    # the counts at a and b are kept until they move or the chain is replaced
    va, vb = _variations(chain, ua, v), _variations(chain, ub, v)
    if va - vb == 0:
        if exact is not None:
            return RootCertificate(float(exact), exact, exact, exact)
        raise RootBracketError(f"no real root in ({a}, {b}]")
    gb = _zhorner(g, ub, v)
    while (ub - ua) * ROOT_WIDTH.denominator > ROOT_WIDTH.numerator * v:
        ua, ub, v = ua << 1, ub << 1, v << 1
        m = (ua + ub) >> 1
        gm = _zhorner(g, m, v)
        if not gm:
            # exact hit: keep it unless a larger root remains to the right
            mid = Fraction(m, v)
            quot = _zdiv(g, [-mid.numerator, mid.denominator])
            if len(quot) > 1:
                chain2 = _sturm_chain(quot)
                vb2 = _variations(chain2, ub, v)
                if (vm := _variations(chain2, m, v)) - vb2 > 0:
                    g, chain, ua, va, vb = quot, chain2, m, vm, vb2
                    gb = _zhorner(g, ub, v)
                    continue
            return RootCertificate(float(mid), mid, mid, mid)
        if va - vb == 1:
            # one simple root in (a, b]: it is right of mid iff g changes
            # sign on (mid, b] or sits at b
            if not gb or (gm > 0) != (gb > 0):
                ua = m
            else:
                ub, gb = m, gm
            continue
        vm = _variations(chain, m, v)
        if vm - vb > 0:
            ua, va = m, vm
        else:
            ub, vb, gb = m, vm, gm
    # integer (or bracket-endpoint) exactness inside the final interval
    k = ub // v
    if ua < k * v and not _zhorner(g, k, 1):
        k = Fraction(k)
        return RootCertificate(float(k), k, k, k)
    mid = Fraction(ua + ub, 2 * v)
    return RootCertificate(float(mid), Fraction(ua, v), Fraction(ub, v), None)
