import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (FractionPoly, _reference_squarefree, matmul, reference_gcd,
                      reference_largest_real_zero, reference_series_coeffs, reference_solve,
                      reference_sturm_chain, row_sums)
from multishift import ratfield, spectral
from multishift.errors import NumericError, RootBracketError, SingularMatrixError
from multishift.fixtures import list_fixtures, load_fixture
from multishift.genfun import solve_generating_functions
from multishift.ratfield import (Poly, RatFun, RatMat, _sturm_chain, _zdiv, _zprimpart,
                                 largest_real_zero, series_coeffs, solve_numeric)

# test polynomials are written over the reference and converted by Poly(...)
Z = FractionPoly((0, 1))
ONE_Q, ZERO_Q = RatFun(Poly.one(), Poly.one()), RatFun(Poly(), Poly.one())


def test_poly_basic_ops():
    z = Poly.x()
    p = z * z + z + Poly.one()
    assert p.derivative_at(Fraction(3)) == 7 and p.derivative_at(0.5) == 2.0
    assert Poly(Z ** 3 + Z + 2)(Fraction(2)) == 12
    g = Poly.gcd(Poly(Z * Z - 1), Poly(Z - 1))
    assert g == Poly(Z - 1)


def test_poly_divmod_exact():
    # the reference's long division, which the property tests lean on
    a = FractionPoly((-2, 1)) * FractionPoly((1, 0, 1))
    q, r = a.divmod(FractionPoly((-2, 1)))
    assert r.is_zero and q == FractionPoly((1, 0, 1))
    q, r = a.divmod(FractionPoly((0, 2)))
    assert q == FractionPoly((Fraction(1, 2), -1, Fraction(1, 2))) and r == FractionPoly((-2,))


def test_poly_deflate():
    # deflation by an exact root is exact division by z - root
    p = Poly((Z - 3) * (Z + 1))
    assert p.exact_div(Poly(Z - 3)) == Poly(Z + 1)
    with pytest.raises(NumericError):
        p.exact_div(Poly(Z - 2))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=97)
coefficient_lists = st.lists(rationals, max_size=5)


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, coefficient_lists, st.lists(rationals, min_size=1, max_size=3),
       rationals, st.integers(-4, 4), st.floats(-3, 3, allow_nan=False))
@example([Fraction(1, 3), 0, Fraction(-1, 3)], [Fraction(1, 3)], [0], Fraction(0), 0, -0.0)
def test_poly_ops_equal_the_fraction_reference(a, b, c, s, k, x):
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    ra, rb, rc = FractionPoly(a), FractionPoly(b), FractionPoly(c)
    assert pa.coeffs == ra.coeffs and pa.to_json() == [str(e) for e in ra.coeffs]
    pairs = [(pa + pb, ra + rb), (pa * pb, ra * rb),
             (pa * s, ra * s), (s * pa, ra * s), (pa * k, ra * k),
             (Poly.gcd(pa, pb), reference_gcd(ra, rb))]
    if not rc.is_zero:
        pairs.append(((pa * pc).exact_div(pc), (ra * rc).exact_div(rc)))
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        assert got.to_json() == [str(e) for e in want.coeffs]
    if not rb.is_zero:
        q, r = ra.divmod(rb)
        if r.is_zero:
            assert pa.exact_div(pb).coeffs == q.coeffs
        else:
            with pytest.raises(NumericError):
                pa.exact_div(pb)
    assert pa(s) == ra(s) and pa(k) == ra(k)
    assert isinstance(pa(s), Fraction)
    # float evaluation is bit-identical, signed zeros included
    assert pa(x).hex() == ra(x).hex()
    # and so is the derivative's, built by neither side's Poly
    assert pa.derivative_at(s) == ra.derivative()(s) and pa.derivative_at(k) == ra.derivative()(k)
    assert isinstance(pa.derivative_at(s), Fraction)
    assert pa.derivative_at(x).hex() == ra.derivative()(x).hex()


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, st.integers(-6, 6).filter(bool))
def test_poly_is_canonical_whatever_the_route(a, k):
    p = Poly(a)
    assert p.den > 0 and math.gcd(p.den, *p.ints) == 1 and (not p.ints or p.ints[-1])
    scale = math.lcm(*(e.denominator for e in a))
    routes = [Poly([e * k for e in a], k),                       # Fraction input over k
              Poly([int(e * scale * k) for e in a], scale * k),  # unreduced, maybe negative
              Poly(a + [0, 0]),                                  # untrimmed
              (p + p) * Fraction(1, 2), (p * Poly.x()).exact_div(Poly.x())]
    for q in routes:
        assert (q.ints, q.den, hash(q)) == (p.ints, p.den, hash(p)) and q == p


def test_ratfun_canonical_routes():
    # the same function assembled from different parts compares equal
    a = RatFun(Poly(Z * Z - 1), Poly(Z - 1))
    b = RatFun(Poly(Z + 1), Poly.one())
    assert a == b and hash(a) == hash(b)
    c = RatFun(Poly((2 * Z - 2) * (Z + 3)), Poly((Z - 2) * (Z + 3)))
    d = RatFun(Poly(Z - 1), Poly(Z * Fraction(1, 2) - 1))
    assert c == d and (c.num, c.den) == (Poly(2 * Z - 2), Poly(Z - 2))
    # monic denominator normalization, and zero as 0 / 1
    e = RatFun(Poly((3,)), Poly((2, -2)))
    assert e.den.leading == 1
    assert RatFun(Poly(), Poly(Z - 5)) == ZERO_Q


def identity_rows(n: int, one, zero) -> list[list]:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def test_mat_inverse_exact_random():
    rng = random.Random(42)
    ident = [identity_rows(n, ONE_Q, ZERO_Q) for n in range(4)]
    for n in (1, 2, 3):
        for _ in range(5):
            rows = [[Poly([rng.randint(-2, 2) for _ in range(3)])
                     for _ in range(n)] for _ in range(n)]
            m = RatMat.from_rows(rows)
            try:
                inv = m.inverse()
            except SingularMatrixError:
                continue
            assert matmul(m.entries, inv) == ident[n]
            assert matmul(inv, m.entries) == ident[n]


def test_mat_inverse_diagonal_and_identity():
    ident = RatMat.from_rows(identity_rows(3, Poly.one(), Poly.zero()))
    assert ident.inverse() == identity_rows(3, ONE_Q, ZERO_Q)
    d = RatMat.from_rows([[Poly.x(), Poly.zero()], [Poly.zero(), Poly(Z ** 2 + 1)]])
    inv = d.inverse()
    assert inv[0][0] == RatFun(Poly.one(), Poly.x())
    assert inv[1][1] == RatFun(Poly.one(), Poly(Z ** 2 + 1))


def test_mat_singular_raises():
    z = Poly.x()
    m = RatMat.from_rows([[z, z], [z, z]])
    with pytest.raises(SingularMatrixError):
        m.inverse()


def random_entry(rng: random.Random) -> Poly:
    """A polynomial of degree < 3 with small Fraction coefficients."""
    return Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 3))])


def test_solve_and_inverse_equal_the_field_reference():
    rng = random.Random(7)
    solved = 0
    for n in range(6):
        for _ in range(3):
            m = RatMat.from_rows([[random_entry(rng) for _ in range(n)] for _ in range(n)])
            rhs = [random_entry(rng) for _ in range(n)]
            try:
                want = reference_solve(m, [[b] for b in rhs])
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    m.solve(rhs)
                with pytest.raises(SingularMatrixError):
                    m.inverse()
                continue
            solved += 1
            assert m.solve(rhs) == [row[0] for row in want]
            ident = identity_rows(n, Poly.one(), Poly.zero())
            assert m.inverse() == reference_solve(m, ident)
    assert solved >= 12


def test_singular_combinations_raise():
    rng = random.Random(3)
    for n in (2, 3, 5):
        rows = [[random_entry(rng) for _ in range(n)] for _ in range(n - 1)]
        a, b = random_entry(rng), random_entry(rng)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        m = RatMat.from_rows(rows)
        for attempt in (m.inverse, lambda: m.solve([Poly.one()] * n),
                        lambda: m.cramer([Poly.one()] * n)):
            with pytest.raises(SingularMatrixError):
                attempt()


def test_exact_division_in_z_z():
    # (z^2 - 1) / (z - 1) and 6z^2 / (2z)
    assert _zdiv([-1, 0, 1], [-1, 1]) == [1, 1]
    assert _zdiv([0, 0, 6], [0, 2]) == [0, 3]
    assert _zdiv([], [5, 1]) == []
    for num, den in (([1], [2]),           # 1 / 2: a coefficient remainder
                     ([1, 1], [0, 1]),     # (z + 1) / z: a polynomial remainder
                     ([0, 0, 1], [0, 1, 1]),
                     ([3], [0, 1])):       # lower degree than the divisor
        with pytest.raises(NumericError):
            _zdiv(num, den)


def test_row_sums_published_values():
    # core matrix of the worked eigenvector example
    p = RatMat.from_rows([
        [Poly([0, 0, 0, Fraction(-1, 3)]), Poly([0, 0, -1])],
        [Poly([0, Fraction(2, 3)]), Poly([0, -1, 0, -1])],
    ])
    r1, r2 = row_sums(p.inverse())
    assert r1 == RatFun(Poly([-3, 3, -3]), Poly([0, 0, 2, 1, 0, 1]))
    assert r2 == RatFun(Poly([-2, 0, -1]), Poly([0, 0, 2, 1, 0, 1]))
    q = RatMat.from_rows([
        [Poly([0, 0, 0, Fraction(-1, 3)]), Poly([0, -1])],
        [Poly([0, 0, Fraction(2, 3)]), Poly([0, -1, 0, -1])],
    ])
    s1, s2 = row_sums(q.inverse())
    assert s1 == RatFun(Poly([-3]), Poly([2, 1, 0, 1]))
    assert s2 == RatFun(Poly([-2, -1]), Poly([0, 2, 1, 0, 1]))


def test_series_geometric():
    f = RatFun(Poly(Z), Poly(Z - 2))
    assert series_coeffs(f, 8) == [2 ** n for n in range(9)]
    g = RatFun(Poly(Z), Poly(Z - 5))
    assert series_coeffs(g, 4) == [5 ** n for n in range(5)]


def test_series_linearity():
    rng = random.Random(9)
    for _ in range(10):
        f = RatFun(Poly([rng.randint(-3, 3) for _ in range(3)]),
                   Poly([rng.randint(1, 3), rng.randint(-3, 3), 0, 1]))
        g = RatFun(Poly([rng.randint(-3, 3) for _ in range(2)]),
                   Poly([rng.randint(1, 4), 0, 1]))
        lhs = series_coeffs(row_sums([[f, g]])[0], 10)
        rhs = [a + b for a, b in zip(series_coeffs(f, 10), series_coeffs(g, 10))]
        assert lhs == rhs


def test_series_rejects_improper():
    with pytest.raises(Exception):
        series_coeffs(RatFun(Poly(Z ** 2), Poly(Z - 1)), 3)


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def proper_ratfuns(draw):
    """Proper rational functions with rational coefficients: the monic
    denominator is often over an integer den > 1, the numerator may be
    zero or of the denominator's degree, which may be 0."""
    den = draw(st.lists(small_rationals, min_size=1, max_size=5).filter(lambda cs: cs[-1]))
    num = draw(st.lists(small_rationals, max_size=len(den)))
    return RatFun(Poly(num), Poly(den))


@settings(max_examples=300, deadline=None)
@given(proper_ratfuns(), st.integers(0, 30))
# a monic denominator over 2 and over 6, with deg num = deg den
@example(RatFun(Poly((1,)), Poly((1, 2))), 30)
@example(RatFun(Poly((Fraction(1, 2), 0, 3)), Poly((3, -1, 2))), 30)
@example(RatFun(Poly((-5, Fraction(7, 3), 1)), Poly((Fraction(1, 2), Fraction(1, 3), 3))), 0)
# a zero numerator, and constant denominators
@example(ZERO_Q, 30)
@example(RatFun(Poly((Fraction(5, 3),)), Poly((Fraction(7, 2),))), 30)
@example(RatFun(Poly((Fraction(5, 3),)), Poly((Fraction(7, 2),))), 0)
def test_series_equals_the_fraction_long_division(f, n_max):
    got = series_coeffs(f, n_max)
    assert got == reference_series_coeffs(f, n_max)
    assert len(got) == n_max + 1 and all(type(c) is Fraction for c in got)


def test_series_equals_the_fraction_long_division_on_every_fixture():
    for name in list_fixtures():
        sol = solve_generating_functions(load_fixture(name))
        funs = [sol.all_words] + [f for _, f in sol.ending_with + sol.forbidden_tail]
        for f in funs:
            assert series_coeffs(f, 40) == reference_series_coeffs(f, 40), name


def test_largest_real_zero_exact_integer():
    cert = largest_real_zero(Poly(Z - 2), 1, 3)
    assert cert.exact == 2 and cert.value == 2.0
    # multiple real roots: take the largest
    p = Poly((Z - 2) * (Z ** 2 - Z - 1))
    cert2 = largest_real_zero(p, 1, 3)
    assert cert2.exact == 2


def test_largest_real_zero_sparse_family():
    alpha = 8
    cert = largest_real_zero(Poly(Z ** 2 - 4 * Z - (alpha - 3)), 1, 20)
    assert cert.exact == 5


def test_largest_real_zero_irrational_certificate():
    cert = largest_real_zero(Poly(Z ** 2 - Z - 1), 1, 3)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(cert.value - golden) < 1e-12
    assert cert.high - cert.low <= Fraction(1, 10 ** 12)
    assert cert.low <= Fraction(1618033988749894, 10 ** 15) + 1 <= cert.high + 1  # sanity


def test_largest_real_zero_bracket_failure():
    with pytest.raises(RootBracketError):
        largest_real_zero(Poly(Z - 10), 1, 3)


def test_largest_real_zero_at_left_endpoint():
    cert = largest_real_zero(Poly(Z - 1), 1, 3)
    assert cert.exact == 1


def test_solve_numeric_exact_and_float():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve_numeric(m, [Fraction(3), Fraction(4)])
    assert x == [Fraction(1), Fraction(1)]
    mf = [[2.0, 1.0], [1.0, 3.0]]
    xf = solve_numeric(mf, [3.0, 4.0])
    assert abs(xf[0] - 1) < 1e-14 and abs(xf[1] - 1) < 1e-14
    with pytest.raises(SingularMatrixError):
        solve_numeric([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                      [Fraction(0), Fraction(1)])


def test_certificate_endpoints_bracket_a_sign_change():
    poly = Poly(Z ** 2 - Z - 1)
    cert = largest_real_zero(poly, 1, 3)
    assert cert.exact is None
    assert poly(cert.low) * poly(cert.high) < 0


def small_polys(max_size=5):
    return st.lists(st.integers(-6, 6), max_size=max_size).map(Poly)


quarters = st.integers(-12, 12).map(lambda k: Fraction(k, 4))


@st.composite
def bracketed_polys(draw):
    """A polynomial with planted quarter-integer and repeated roots, and a
    bracket whose endpoints may be roots or bisection midpoints."""
    roots = draw(st.lists(quarters, max_size=3))
    p = draw(small_polys())
    for r in roots:
        p = p * Poly((-r, 1))
    if draw(st.booleans()):
        square = draw(small_polys(3))
        p = p * square * square
    ends = roots + [Fraction(draw(st.integers(-3, 0))), Fraction(draw(st.integers(1, 4)))]
    lo, hi = draw(st.sampled_from(ends)), draw(st.sampled_from(ends))
    assume(lo != hi)
    return p, min(lo, hi), max(lo, hi)


def outcome(isolate, p, lo, hi):
    try:
        return isolate(p, lo, hi)
    except RootBracketError as exc:
        return type(exc)


def assert_positive_multiples(ints: list[list[int]], ref: list[Poly]):
    assert len(ints) == len(ref)
    for q, r in zip(ints, ref):
        scale = Fraction(q[-1]) / r.leading
        assert scale > 0 and list(q) == [scale * c for c in r.coeffs]


def primitive(p: FractionPoly) -> list[int]:
    """The primitive integer form of a reference polynomial."""
    return _zprimpart(list(Poly(p.coeffs).ints))


@settings(max_examples=200, deadline=None)
@given(bracketed_polys())
# (z - 2)^2 (z^2 - z - 1): a repeated root
@example((Poly((Z - 2) ** 2 * (Z ** 2 - Z - 1)), Fraction(1), Fraction(3)))
# z^4 + 4z + 4: its chain has degrees 4, 3, 1, 0, and the degree-1
# divisor has a negative leading coefficient and takes three steps
@example((Poly((4, 4, 0, 0, 1)), Fraction(-4), Fraction(5)))
# negative leading coefficients, and pseudo-divisions by the derivative
# that end after one step because the z^(d-1) term is missing
@example((Poly((4, 3, -1, 0, -1)), Fraction(-4), Fraction(5)))
@example((Poly((-1, 0, -1)), Fraction(-4), Fraction(5)))
@example((Poly((-3, 4, 3, -4, 0, -3)), Fraction(-4), Fraction(5)))
# the midpoint 3/2 of [1, 2] is a root, the largest in the bracket or not
@example((Poly((Z - Fraction(3, 2)) * (Z ** 2 - 2)), Fraction(1), Fraction(3)))
@example((Poly((Z - Fraction(3, 2)) * (Z ** 2 - 3)), Fraction(1), Fraction(3)))
# roots at lo and at hi
@example((Poly((Z - 1) * (Z - 3)), Fraction(1), Fraction(3)))
@example((Poly((Z - 1) * (Z + 1)), Fraction(1), Fraction(3)))
@example((Poly(Z - 3), Fraction(1), Fraction(3)))
@example((Poly((Z - 3) * (Z ** 2 - 2)), Fraction(1), Fraction(3)))
@example((Poly((Z - 1) * (Z ** 2 - 3)), Fraction(1), Fraction(3)))
# two roots 2^-30 apart: counted apart before the signs take over
@example((Poly((Z - Fraction(4, 3)) * (Z - Fraction(4, 3) - Fraction(1, 2 ** 30))),
          Fraction(1), Fraction(3)))
# the dyadic midpoint 7/4 is a root, met after the root is isolated
@example((Poly((Z - Fraction(7, 4)) * (Z ** 2 - 2)), Fraction(1), Fraction(3)))
# deflation at 3/2 leaves two roots to the right, still to be counted apart
@example((Poly((Z - Fraction(3, 2)) * (Z ** 2 - 3) * (Z - Fraction(19, 10))),
          Fraction(1), Fraction(3)))
def test_isolation_equals_the_fraction_reference(case):
    p, lo, hi = case
    assert outcome(largest_real_zero, p, lo, hi) == \
        outcome(reference_largest_real_zero, p, lo, hi)
    if p.degree >= 1:
        g = _reference_squarefree(p)
        assert_positive_multiples(_sturm_chain(primitive(g)), reference_sturm_chain(g))


def test_isolation_equals_the_reference_on_every_fixture(monkeypatch):
    isolated = []

    def checked(f, lo, hi):
        # the spectral stage hands over the numerator itself, not a RatFun
        assert isinstance(f, Poly)
        cert = largest_real_zero(f, lo, hi)
        assert cert == reference_largest_real_zero(f, lo, hi)
        g = _reference_squarefree(f)
        assert_positive_multiples(_sturm_chain(primitive(g)), reference_sturm_chain(g))
        isolated.append(cert)
        return cert

    monkeypatch.setattr(spectral, "largest_real_zero", checked)
    for name in list_fixtures():
        spectral.Analysis(load_fixture(name), allow_reducible=True).root
    assert len(isolated) == len(list_fixtures())


def _count_points(monkeypatch):
    """Wrap ratfield._variations; the list records (chain, point) per
    count, the point u/v as a Fraction."""
    counted = []

    def recorded(chain, u, v):
        counted.append((tuple(map(tuple, chain)), Fraction(u, v)))
        return variations(chain, u, v)

    variations = ratfield._variations
    monkeypatch.setattr(ratfield, "_variations", recorded)
    return counted


def test_isolation_counts_each_point_once_per_chain(monkeypatch):
    counted = _count_points(monkeypatch)
    for name in list_fixtures():
        del counted[:]
        spectral.Analysis(load_fixture(name), allow_reducible=True).root
        assert counted and len(set(counted)) == len(counted), name
    # a midpoint that is an exact root replaces the chain by the deflated one
    for p in (Poly((Z - Fraction(3, 2)) * (Z ** 2 - 2)),
              Poly((Z - Fraction(3, 2)) * (Z ** 2 - 3))):
        del counted[:]
        assert largest_real_zero(p, 1, 3) == reference_largest_real_zero(p, 1, 3)
        assert len({chain for chain, _ in counted}) == 2
        assert len(set(counted)) == len(counted)


def test_isolation_counts_only_until_the_root_is_isolated(monkeypatch):
    counted = _count_points(monkeypatch)
    # one root in [1, 3]: counted at the two endpoints, then signs only
    p = Poly(Z ** 2 - 2)
    assert largest_real_zero(p, 1, 3) == reference_largest_real_zero(p, 1, 3)
    assert [x for _, x in counted] == [1, 3]
    # two roots: counts at 2 and at 3/2 leave one root in (3/2, 2]
    del counted[:]
    p = Poly((Z ** 2 - 2) * (Z ** 2 - 3))
    assert largest_real_zero(p, 1, 3) == reference_largest_real_zero(p, 1, 3)
    assert [x for _, x in counted] == [1, 3, 2, Fraction(3, 2)]
    # the exact hit at 3/2 deflates the chain, which counts one root in
    # (3/2, 2] and is not counted again
    del counted[:]
    p = Poly((Z - Fraction(3, 2)) * (Z ** 2 - 3))
    assert largest_real_zero(p, 1, 3) == reference_largest_real_zero(p, 1, 3)
    assert [x for _, x in counted] == [1, 3, 2, 2, Fraction(3, 2)]


def test_a_repeated_factor_is_divided_out_with_its_sign_made_positive(monkeypatch):
    # the remainder sequence of g ends in 2 - z, a negative multiple of
    # the repeated factor z - 2; the squarefree quotient keeps g's sign
    counted = _count_points(monkeypatch)
    p = Poly((Z - 2) ** 2 * FractionPoly((-3, -3, -3, 1)))
    assert _sturm_chain(primitive(p))[-1] == [2, -1]
    assert largest_real_zero(p, 1, 5) == reference_largest_real_zero(p, 1, 5)
    assert_positive_multiples([list(counted[0][0][0])], [_reference_squarefree(p)])


@settings(max_examples=200, deadline=None)
@given(small_polys(), small_polys(), small_polys(4),
       st.integers(-3, 3).map(lambda k: Fraction(k, 2) or Fraction(1)))
@example(Poly(), Poly(), Poly(), Fraction(1))
@example(Poly(), Poly((3,)), Poly((1, 1)), Fraction(-2))
def test_gcd_equals_the_euclidean_reference(a, b, common, c):
    for x, y in ((a, b), (a * common, b * common), (a * common, Poly((c,))),
                 (Poly.zero(), b * common), (a * c, Poly.zero())):
        assert Poly.gcd(x, y).coeffs == reference_gcd(x, y).coeffs
    # over a constant the gcd is skipped; over c * common it is not
    num = a * common
    by_constant = RatFun(num, Poly((c,)))
    assert (by_constant.num, by_constant.den) == (num * (1 / c), Poly.one())
    if not common.is_zero:
        assert by_constant == RatFun(num * common, common * c)
