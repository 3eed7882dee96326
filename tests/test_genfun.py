import random
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings

from conftest import (FAMILIES, FractionPoly, family_spec, random_spec, reference_solve,
                      reference_sum, reference_system_json, reference_system_rows, small_specs)
from multishift import genfun
from multishift.cli import main
from multishift.errors import NumericError
from multishift.fixtures import list_fixtures, load_fixture
from multishift.genfun import (build_system, closed_form, conjugate_correlation_matrix,
                               constraint_correction, correlation_matrix,
                               solve_generating_functions, system_rows, targets)
from multishift.langmodel import extend_repeated_to_full_length, oracle_tables, validate_spec
from multishift.ratfield import Poly, RatFun, series_coeffs

Z = Poly.x()
ONE = Poly.one()
FIXDIR = Path(genfun.__file__).resolve().parent / "fixtures"


def eigen_spec():
    return validate_spec("01", ["010"], [("100", 3)])


def test_core_matrix_published():
    p = correlation_matrix(eigen_spec())
    assert p.entries[0][0] == Poly([0, 0, 0, Fraction(-1, 3)])
    assert p.entries[0][1] == Poly([0, 0, -1])
    assert p.entries[1][0] == Poly([0, Fraction(2, 3)])
    assert p.entries[1][1] == Poly([0, -1, 0, -1])


def test_conjugate_matrix_published():
    q = conjugate_correlation_matrix(build_system(eigen_spec()))
    assert q.entries[0][0] == Poly([0, 0, 0, Fraction(-1, 3)])
    assert q.entries[0][1] == Poly([0, -1])
    assert q.entries[1][0] == Poly([0, 0, Fraction(2, 3)])
    assert q.entries[1][1] == Poly([0, -1, 0, -1])


def test_scaling_diagonal():
    # the conjugate core reads D off the reduced system: minus its top row
    # after the corner
    def diagonal(spec):
        return [e * -1 for e in build_system(spec).matrix.entries[0][1:]]

    d = diagonal(eigen_spec())
    assert d[0] == Poly([0, Fraction(2, 3)])
    assert d[1] == Poly([0, -1])
    d = diagonal(validate_spec("01", ["010"], [("000", 2)]))
    assert d == [Poly([0, Fraction(1, 2)]), Poly([0, -1])]


def test_bordered_matrix_shape_and_empty_collections():
    s = validate_spec("01", ["010"], [("000", 2)])
    left = build_system(s).matrix
    assert left.nrows == 3
    assert left.entries[0][0] == Poly((-2, 1))
    assert left.entries[0][1] == Poly([0, Fraction(-1, 2)])
    assert left.entries[0][2] == Z
    assert left.entries[1][0] == Poly.one() and left.entries[2][0] == Poly.one()
    # no repeated words: the border reduces to the classical layout
    s2 = validate_spec("01", ["010"], [])
    left2 = build_system(s2).matrix
    assert left2.nrows == 2
    assert left2.entries[0][1] == Z
    assert left2.entries[1][1] == Z * Poly((-1, 0, -1))  # -z (a,a)_z


def test_published_nonreduced_system():
    s = validate_spec("01", ["001"], [("00", 2)])
    system = build_system(s)
    assert system.mode == "non_reduced"
    m = system.matrix
    assert m.entries[0][0] == Poly((-2, 1))
    assert m.entries[0][1] == Poly([0, Fraction(-1, 2)])
    assert m.entries[0][2] == Poly([0, 2])
    assert m.entries[1][0] == Poly.one()
    assert m.entries[1][1] == Poly([0, Fraction(1, 2), Fraction(-1, 2)])
    assert m.entries[1][2].is_zero
    assert m.entries[2][0] == Poly.one()
    assert m.entries[2][1] == Poly([0, Fraction(1, 2)])
    assert m.entries[2][2] == Poly([0, 0, 0, -1])


def test_nonreduced_solution_and_pole():
    s = validate_spec("01", ["001"], [("00", 2)])
    sol = solve_generating_functions(s)
    assert sol.all_words == RatFun(Poly([0, 0, -1, 1]), Poly([2, 1, -3, 1]))
    # largest real pole of the solved series is exactly 2
    den = sol.all_words.den
    assert den(Fraction(2)) == 0


def test_reduced_closed_forms_agree_and_match_table():
    s = validate_spec("01", ["010"], [("000", 2)])
    sol = solve_generating_functions(s)
    assert [int(c) for c in series_coeffs(sol.all_words, 10)] == \
        [1, 2, 4, 8, 17, 37, 81, 178, 392, 864, 1905]
    assert [int(c) for c in series_coeffs(dict(sol.ending_with)[("0", "0", "0")], 10)] == \
        [0, 0, 0, 2, 6, 14, 32, 72, 160, 354, 782]
    assert [int(c) for c in series_coeffs(dict(sol.forbidden_tail)[("0", "1", "0")], 10)] == \
        [0, 0, 0, 1, 2, 4, 9, 20, 44, 97, 214]


def test_full_shift_series():
    sol = solve_generating_functions(validate_spec("01", [], []))
    assert sol.all_words == RatFun(Z, Poly((-2, 1)))


def test_repeated_only_system():
    s = validate_spec("01", [], [("00", 2)])
    sol = solve_generating_functions(s)
    f, _, _ = oracle_tables(s, 10)
    assert [int(c) for c in series_coeffs(sol.all_words, 10)] == f


def test_correction_published_values():
    def correction(s):
        return constraint_correction(s, correlation_matrix(s))

    s = validate_spec("01", ["010"], [("100", 3)])
    assert correction(s) == RatFun(Poly([2, -1]), Poly([2, 1, 0, 1]))
    s2 = validate_spec("01", ["00"], [("01", 2), ("10", 3), ("11", 2)])
    assert correction(s2) == RatFun(Poly([-6, -3]), Poly([-3, 0, 1]))
    assert correction(validate_spec("01", [], [])).num.is_zero


def reference_closed_form(q, r) -> RatFun:
    """z / (z - q + R) over Fraction coefficients, in lowest terms."""
    z, num, den = FractionPoly((0, 1)), FractionPoly(r.num), FractionPoly(r.den)
    return reference_sum([(z * den, (z - q) * den + num)])


def test_correction_identity():
    for s in (validate_spec("01", ["010"], [("000", 2)]),
              validate_spec("01", ["00"], [("110", 2), ("01", 3)]),
              validate_spec("0123", [], [("10", 2), ("20", 3), ("30", 3)])):
        sol = solve_generating_functions(s)
        correction = constraint_correction(s, correlation_matrix(s))
        assert reference_closed_form(s.q, correction) == sol.all_words
        num, den = closed_form(s.q, correction)
        assert RatFun(num, den) == sol.all_words


@pytest.mark.parametrize("fixture, perturbed", [
    pytest.param("eigenvectors", "core", id="core"),
    pytest.param("eigenvectors", "conjugate", id="conjugate"),
    pytest.param("nonreduced", "core", id="nonreduced-core"),
    pytest.param("nonreduced", "conjugate", id="nonreduced-conjugate"),
])
def test_a_closed_form_off_by_one_coefficient_is_refused(monkeypatch, fixture, perturbed):
    # one more in the constant term of the correction from the core, or
    # of the one from the conjugate core: the solve refuses the
    # mismatch in either mode, and so does verify, with the numeric exit code
    spec = load_fixture(fixture)
    system = build_system(spec)
    target = (system.core if perturbed == "core" else system.conjugate).entries
    assert system.core.entries != system.conjugate.entries
    exact = genfun.constraint_correction

    def skewed(spec, core):
        r = exact(spec, core)
        return RatFun(r.num + ONE, r.den) if core.entries == target else r

    monkeypatch.setattr(genfun, "constraint_correction", skewed)
    with pytest.raises(NumericError, match="closed forms disagree"):
        solve_generating_functions(spec)
    assert main(["verify", "--spec", str(FIXDIR / f"{fixture}.json")]) == 4


def reference_correction(spec, core):
    """z * sum_i w_i x_i with x = core^-1 1 from the field-route solve."""
    z = FractionPoly((0, 1))
    xs = reference_solve(core, [[ONE]] * core.nrows)
    return reference_sum((z * FractionPoly(x.num) * w, FractionPoly(x.den))
                         for (_, w), (x,) in zip(targets(spec), xs))


def test_correction_by_cramer_equals_the_field_solve_on_fixtures():
    for name in list_fixtures():
        s = load_fixture(name)
        system = build_system(s)
        for core in (system.core, system.conjugate):
            assert constraint_correction(s, core) == reference_correction(s, core), name


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_specs())
def test_correction_by_cramer_equals_the_field_solve_property(s):
    system = build_system(s)
    for core in (system.core, system.conjugate):
        assert constraint_correction(s, core) == reference_correction(s, core)


def test_common_denominator_is_the_scaled_core_determinant():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def expr(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * z ** k
                   for k, c in enumerate(map(Fraction, coeffs)))

    for name in list_fixtures():
        core = build_system(load_fixture(name)).core
        ones = [Poly.one()] * core.nrows
        # the rows Cramer eliminates: each core row scaled into Z[z]
        scaled = [[expr(e) for e in row[:-1]]
                  for row in core._integer_rows([[b] for b in ones])]
        det = sympy.Matrix(core.nrows, core.nrows, sum(scaled, [])).det()
        d = expr(core.cramer(ones)[1].coeffs)
        assert sympy.expand(det - d) == 0 or sympy.expand(det + d) == 0, name


def test_the_core_of_a_nonreduced_union():
    # 00 sits inside 001: the core is still the lower-right block of the
    # bordered matrix, 001 weighs minus its embedded weight m = 2, and the
    # correction from the core gives F = z / (z - q + R)
    s = validate_spec("01", ["001"], [("00", 2)])
    system = build_system(s)
    assert correlation_matrix(s).entries == tuple(row[1:] for row in system.matrix.entries[1:])
    assert targets(s) == ((("0", "0"), Fraction(1, 2)), (("0", "0", "1"), Fraction(-2)))
    r = constraint_correction(s, system.core)
    assert r == reference_correction(s, system.core)
    assert RatFun(*closed_form(s.q, r)) == RatFun(Poly([0, 0, -1, 1]), Poly([2, 1, -3, 1]))


def test_series_from_the_core_solve_equal_the_bordered_solve():
    # the reference solves the whole bordered system; every fixture and
    # 510 draws, both modes, multiplicities up to 10^9
    rng = random.Random(29)
    specs = [load_fixture(name) for name in list_fixtures()]
    specs += [family_spec(rng, FAMILIES[k % 3], top=9) for k in range(510)]
    assert sum(not s.union_reduced for s in specs) >= 170
    assert any(m >= 10 ** 7 for s in specs for _, m in s.repeated)
    for s in specs:
        sol = solve_generating_functions(s)
        series = [sol.all_words] + [f for _, f in sol.ending_with + sol.forbidden_tail]
        assert series == sol.system.matrix.solve(list(sol.system.rhs)), s


def test_series_match_oracle_fixed_specs():
    specs = [
        validate_spec("01", ["010"], [("000", 2)]),
        validate_spec("01", ["001"], [("00", 2)]),
        validate_spec("01", ["00"], [("110", 2), ("01", 3)]),
        validate_spec("01", ["010", "101", "111"], [("00", 2), ("0110", 3)]),
        validate_spec("012", ["00"], [("12", 2), ("210", 3)]),
        validate_spec("01", ["0110"], [("11", 3), ("000", 2)]),
    ]
    for s in specs:
        sol = solve_generating_functions(s)
        f, g, fa = oracle_tables(s, 12)
        assert [int(c) for c in series_coeffs(sol.all_words, 12)] == f
        for r, fun in sol.ending_with:
            assert [int(c) for c in series_coeffs(fun, 12)] == g[r]
        for a, fun in sol.forbidden_tail:
            assert [int(c) for c in series_coeffs(fun, 12)] == fa[a]


def test_series_match_oracle_random(rng):
    for want_nonreduced in (False, True):
        for _ in range(4):
            s = random_spec(rng, want_nonreduced)
            sol = solve_generating_functions(s)
            f, g, fa = oracle_tables(s, 9)
            assert [int(c) for c in series_coeffs(sol.all_words, 9)] == f
            for r, fun in sol.ending_with:
                assert [int(c) for c in series_coeffs(fun, 9)] == g[r]
            for a, fun in sol.forbidden_tail:
                assert [int(c) for c in series_coeffs(fun, 9)] == fa[a]


def test_series_match_oracle_multiple_embeddings():
    # several repeated words (or several occurrences of one) inside a
    # single forbidden word: the correction weights must multiply
    specs = [
        validate_spec("01", ["1111", "1101"], [("11", 2), ("001", 2)]),
        validate_spec("012", ["0120"], [("12", 4), ("01", 3)]),
        validate_spec("012", ["1110"], [("11", 3), ("102", 4)]),
        validate_spec("01", ["00100"], [("00", 2)]),
        validate_spec("01", ["00010"], [("00", 3)]),
    ]
    for s in specs:
        assert not s.union_reduced
        sol = solve_generating_functions(s)
        f, g, fa = oracle_tables(s, 10)
        assert [int(c) for c in series_coeffs(sol.all_words, 10)] == f
        for r, fun in sol.ending_with:
            assert [int(c) for c in series_coeffs(fun, 10)] == g[r]
        for a, fun in sol.forbidden_tail:
            assert [int(c) for c in series_coeffs(fun, 10)] == fa[a]


def test_short_forbidden_next_to_long_repeated():
    # forbidden words shorter than a repeated word exercise the vacuous
    # overhang restriction in the appended-word rows
    for s in (validate_spec("012", ["1010", "02"], [("101", 3)]),
              validate_spec("012", ["1121", "01"], [("12", 2), ("002", 2)])):
        sol = solve_generating_functions(s)
        f, _, _ = oracle_tables(s, 9)
        assert [int(c) for c in series_coeffs(sol.all_words, 9)] == f


def assert_rows_equal_the_reference(spec):
    """The indexed rows equal the entry-by-entry builder as ``Poly``
    values, the same integer coefficients over the same denominator,
    on the spec and on its extension, once when the extension is the spec
    itself; the system prints each entry as the rational function e / 1,
    the form the genfun report prints."""
    for s in dict.fromkeys((spec, extend_repeated_to_full_length(spec))):
        rows, ref = system_rows(s), reference_system_rows(s)
        assert [[(e.ints, e.den) for e in row] for row in rows] == \
            [[(e.ints, e.den) for e in row] for row in ref], s
        assert build_system(s).to_json() == reference_system_json(s, ref), s


def test_system_rows_equal_the_reference_on_every_fixture():
    for name in list_fixtures():
        assert_rows_equal_the_reference(load_fixture(name))


def test_system_rows_equal_the_reference_on_family_draws():
    rng = random.Random(16)
    specs = [family_spec(rng, FAMILIES[i % 3]) for i in range(510)]
    assert sum(not s.union_reduced for s in specs) >= 50
    assert sum(any(len(r) == 1 for r in s.repeated_words) for s in specs) >= 50
    for spec in specs:
        assert_rows_equal_the_reference(spec)
    # multiplicities up to 1e9 on the same words
    for spec in specs[::10]:
        big = [(r, rng.choice((2, 10 ** 9, rng.randint(2, 10 ** 9)))) for r in spec.repeated_words]
        assert_rows_equal_the_reference(validate_spec(spec.alphabet, spec.forbidden, big))


def test_system_rows_with_unit_repeated_words():
    # length-1 repeated words: every target starting with the symbol
    # overlaps them, and their own diagonal is (1 - 1/m) z - z
    for spec in (validate_spec("01", ["11"], [("0", 3)]),
                 validate_spec("012", ["101", "22"], [("0", 10 ** 9), ("1", 2)]),
                 validate_spec("01", ["010"], [("1", 5)])):
        assert_rows_equal_the_reference(spec)
    rows = system_rows(validate_spec("01", ["11"], [("0", 3)]))
    assert rows[1][1] == Poly([0, Fraction(-1, 3)])

