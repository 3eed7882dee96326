import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from conftest import (FAMILIES, brute_tables, brute_weight, family_spec, leading_multiplicity,
                      reference_transfer_tables, small_specs)
from multishift import langmodel
from multishift.errors import BudgetError, SpecError
from multishift.fixtures import list_fixtures, load_fixture
from multishift.genfun import solve_generating_functions
from multishift.measures import Cylinder, MeasureContext, escape_report
from multishift.ratfield import series_coeffs
from multishift.langmodel import (enumerate_slice, extend_repeated_to_full_length,
                                  language_slices, multiplicity, oracle_tables,
                                  spec_from_matrix, transfer_tables, validate_spec,
                                  weighted_count,
                                  weighted_count_ending_with,
                                  weighted_count_forbidden_suffix)
from multishift.spectral import adjacency_matrix, is_irreducible


def spec_counting():
    return validate_spec("01", ["010"], [("000", 2)])


def spec_nonreduced():
    return validate_spec("01", ["001"], [("00", 2)])


def test_validate_flags_and_p():
    s = spec_counting()
    assert s.p == 3 and s.union_reduced
    s2 = spec_nonreduced()
    assert s2.p == 3 and not s2.union_reduced
    s3 = validate_spec("01", [], [])
    assert s3.p == 2 and s3.union_reduced


def test_validate_errors():
    with pytest.raises(SpecError):
        validate_spec("0", [], [])                      # one symbol
    with pytest.raises(SpecError):
        validate_spec("01", ["00", "000"], [])          # not reduced
    with pytest.raises(SpecError):
        validate_spec("01", [], [("00", 1)])            # multiplicity too small
    with pytest.raises(SpecError):
        validate_spec("01", ["00"], [("001", 2)])       # repeated contains forbidden
    with pytest.raises(SpecError):
        validate_spec("01", ["0"], [])                  # bare symbol forbidden
    with pytest.raises(SpecError):
        validate_spec("01", ["02"], [])                 # symbol outside alphabet
    with pytest.raises(SpecError):
        validate_spec("01", [], [("01", 2), ("01", 3)])  # duplicate repeated word


def test_multiplicity_examples():
    s = validate_spec("01", ["01"], [("00", 2), ("111", 2)])
    assert multiplicity("000", s) == 4
    s2 = validate_spec("01", ["00"], [("110", 2), ("01", 3)])
    assert multiplicity("1010", s2) == 3
    assert multiplicity("010", spec_counting()) == 0


def test_leading_multiplicity():
    s = validate_spec("01", ["00"], [("110", 2), ("01", 3)])
    assert leading_multiplicity("011", s) == 3
    assert leading_multiplicity("110", s) == 2
    assert leading_multiplicity("101", s) == 1
    with pytest.raises(SpecError):
        leading_multiplicity("001", s)


def test_enumerate_slice_published():
    s = validate_spec("01", ["01"], [("00", 2), ("111", 2)])
    got = [("".join(w), m) for w, m in enumerate_slice(3, s).entries]
    assert got == [("000", 4), ("100", 2), ("110", 1), ("111", 2)]
    s2 = validate_spec("01", ["010", "101", "111"], [("00", 2), ("0110", 3)])
    got2 = [("".join(w), m) for w, m in enumerate_slice(3, s2).entries]
    assert got2 == [("000", 4), ("001", 2), ("011", 1), ("100", 2), ("110", 1)]
    assert enumerate_slice(3, s2).cardinality == 10


def test_slice_length_one():
    s = spec_counting()
    got = enumerate_slice(1, s)
    assert [("".join(w), m) for w, m in got.entries] == [("0", 1), ("1", 1)]


def test_counting_tables_published():
    s = spec_counting()
    assert [weighted_count(n, s) for n in range(11)] == \
        [1, 2, 4, 8, 17, 37, 81, 178, 392, 864, 1905]
    assert weighted_count_ending_with("000", 5, s) == 14
    assert weighted_count_forbidden_suffix("010", 5, s) == 4


def test_full_shift_counts():
    s = validate_spec("01", [], [])
    assert [weighted_count(n, s) for n in range(7)] == [2 ** n for n in range(7)]


def test_oracle_tables_match_individual_counters():
    for s in (spec_counting(), spec_nonreduced(),
              validate_spec("01", ["00"], [("110", 2), ("01", 3)])):
        f, g, fa = oracle_tables(s, 8)
        assert f == [weighted_count(n, s) for n in range(9)]
        for r in s.repeated_words:
            assert g[r] == [weighted_count_ending_with(r, n, s) for n in range(9)]
        for a in s.forbidden:
            assert fa[a] == [weighted_count_forbidden_suffix(a, n, s) for n in range(9)]


def test_oracle_tables_match_brute_force():
    rng = random.Random(123)
    specs = [spec_counting(), spec_nonreduced(),
             validate_spec("012", ["00"], [("12", 2)]),
             validate_spec("01", ["0110"], [("11", 3), ("000", 2)])]
    for s in specs:
        f, g, fa = oracle_tables(s, 7)
        bf, bg, bfa = brute_tables(s, 7)
        assert f == bf
        assert g == bg
        assert fa == bfa


@pytest.mark.parametrize("name", list_fixtures())
def test_transfer_tables_equal_the_suffix_keyed_reference_on_fixtures(name):
    s = load_fixture(name)
    assert transfer_tables(s, 24) == reference_transfer_tables(s, 24)


def test_transfer_tables_equal_the_suffix_keyed_reference_on_family_draws():
    rng = random.Random(8)
    for i in range(210):
        s = family_spec(rng, ("short_forbidden", "unit_repeated", "nonreduced")[i % 3])
        assert transfer_tables(s, 24) == reference_transfer_tables(s, 24)


def test_g_includes_the_word_itself():
    s = spec_counting()
    assert weighted_count_ending_with("000", 3, s) == 2


def test_per_word_counts_take_declared_words_only():
    # g_r and f_a are series of the counting system: r must be a repeated
    # word and a a forbidden one
    s = spec_counting()
    for word in ("010", "00", "0000", "1"):
        with pytest.raises(SpecError, match=f"^{word} is not a repeated word$"):
            weighted_count_ending_with(word, 6, s)
    for word in ("000", "01", "0101"):
        with pytest.raises(SpecError, match=f"^{word} is not a forbidden word$"):
            weighted_count_forbidden_suffix(word, 6, s)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_specs(), st.integers(1, 9))
def test_oracle_tables_match_brute_force_property(s, max_n):
    event(f"q={s.q}, union reduced: {s.union_reduced}")
    assert oracle_tables(s, max_n) == brute_tables(s, max_n)


def test_budget_guard():
    s = validate_spec("01", [], [])
    with pytest.raises(BudgetError):
        weighted_count(30, s, budget=2 ** 20)
    # zero-length counts need no walk, so no budget refuses them
    assert oracle_tables(s, 0, budget=0) == ([1], {}, {})
    assert weighted_count(0, s, budget=0) == 1


def test_budget_decision_equals_the_full_power():
    # the capped power decides as q**n > budget would, with the same message
    rng = random.Random(24)
    budgets = [-1, 0, 1, 2, 2 ** 24, math.inf] + \
        [rng.getrandbits(rng.randint(1, 130)) for _ in range(30)]
    for q in range(2, 6):
        s = validate_spec("01234"[:q], [], [])
        for n in range(81):
            for budget in budgets:
                if n >= 1 and q ** n > budget:
                    with pytest.raises(BudgetError) as err:
                        langmodel.check_budget(n, s, budget)
                    assert str(err.value) == f"{q}^{n} strings exceed the budget {budget}"
                else:
                    langmodel.check_budget(n, s, budget)


def test_counts_cost_polynomial_in_length():
    # 2^60 strings: out of reach for any walk over words
    s = load_fixture("counting")
    series = series_coeffs(solve_generating_functions(s).all_words, 60)
    assert weighted_count(60, s, budget=2 ** 80) == series[60]
    # the budget still bounds q**n, refusing before it counts
    with pytest.raises(BudgetError, match="4\\^13 strings exceed the budget 16777216"):
        escape_report(load_fixture("sparse_alpha8"),
                      Cylinder.from_edges([(("1",), ("0",), 1)]))


def test_extension_refuses_before_walking_when_the_blocks_exceed_the_budget(monkeypatch):
    # 2^25 blocks: the extension and the block walk share one bound on q**(p - 1)
    s = validate_spec("01", ["0" * 26], [("1", 2)])

    def no_walk(*args):
        raise AssertionError("the automaton was built")
    monkeypatch.setattr(langmodel, "_pattern_states", no_walk)
    hole = Cylinder.from_edges([(("1",) * 25, ("1",) * 25, 0)])
    for run in (extend_repeated_to_full_length, adjacency_matrix, lambda s: oracle_tables(s, 25),
                MeasureContext, lambda s: escape_report(s, hole)):
        with pytest.raises(BudgetError, match="2\\^25 strings exceed the budget 16777216"):
            run(s)


def test_extension_published_and_matrix_invariance():
    s = validate_spec("01", ["0000"], [("01", 2)])
    ext = extend_repeated_to_full_length(s)
    assert [("".join(r), m) for r, m in ext.repeated] == \
        [("0100", 2), ("0101", 2), ("0110", 2), ("0111", 2)]
    assert adjacency_matrix(ext).entries == adjacency_matrix(s).entries
    # identity on full-length specs
    assert extend_repeated_to_full_length(spec_counting()) is spec_counting() or \
        extend_repeated_to_full_length(spec_counting()).repeated == spec_counting().repeated


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_specs(), st.builds(family_spec, st.integers(0, 10 ** 6).map(random.Random),
                                          st.sampled_from(FAMILIES))))
def test_extension_weighs_each_completion_by_its_leading_multiplicity(spec):
    # the definition: every allowed length-p word with a repeated prefix,
    # in lexicographic order, weighted by m(w) / m(w[1:]); the family
    # draws add reducible matrices and non-reduced unions
    event(f"irreducible: {is_irreducible(adjacency_matrix(spec))}, "
          f"union reduced: {spec.union_reduced}")
    ext = extend_repeated_to_full_length(spec)
    if all(len(r) == spec.p for r in spec.repeated_words):
        assert ext is spec
        return
    want = [(w, leading_multiplicity(w, spec))
            for w in itertools.product(spec.alphabet, repeat=spec.p)
            if spec.is_allowed(w) and any(w[:len(r)] == r for r in spec.repeated_words)]
    assert list(ext.repeated) == want


def test_extension_matrix_invariance_mixed_lengths():
    s = validate_spec("01", ["00"], [("01", 3), ("110", 2)])
    ext = extend_repeated_to_full_length(s)
    assert all(len(r) == s.p for r in ext.repeated_words)
    assert ext.union_reduced
    assert adjacency_matrix(ext).entries == adjacency_matrix(s).entries


def test_splice_weight_factorization():
    # weight of an allowed splice is the leading multiplicity times the
    # tail weight whenever the splice is not itself a repeated word
    s = validate_spec("01", ["00"], [("110", 2), ("01", 3)])
    blocks = [w for w, _ in enumerate_slice(3, s).entries]
    for x in blocks:
        for y in blocks:
            if x[1:] != y[:-1]:
                continue
            xy = x + y[-1:]
            if not s.is_allowed(xy) or xy in s.repeated_words:
                continue
            assert multiplicity(xy, s) == leading_multiplicity(x, s) * multiplicity(y, s)


def test_spec_from_matrix():
    s = spec_from_matrix([[0, 2], [1, 1]])
    assert s.forbidden == (("0", "0"),)
    assert s.repeated == ((("0", "1"), 2),)
    assert adjacency_matrix(s).entries == ((0, 2), (1, 1))
    with pytest.raises(SpecError):
        spec_from_matrix([[1, 2], [3]])


def test_multiplicity_extends_multiplicatively():
    s = validate_spec("01", ["010"], [("000", 2)])
    rng = random.Random(4)
    for _ in range(100):
        w = tuple(rng.choice("01") for _ in range(rng.randint(3, 8)))
        if not s.is_allowed(w):
            continue
        grow = multiplicity(w, s)
        for sym in "01":
            ext = w + (sym,)
            if not s.is_allowed(ext):
                continue
            factor = 1
            for r, m in s.repeated:
                if ext[len(ext) - len(r):] == r:
                    factor *= m
            assert multiplicity(ext, s) == grow * factor


def test_slice_cardinality_and_order():
    s = validate_spec("012", ["00"], [("12", 2)])
    for n in range(1, 6):
        sl = enumerate_slice(n, s)
        assert sl.cardinality == weighted_count(n, s)
        ws = [w for w, _ in sl.entries]
        assert ws == sorted(ws)  # the alphabet 012 is in character order


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_specs(), st.integers(1, 6))
def test_slices_match_brute_force_property(s, max_n):
    slices = list(language_slices(max_n, s))
    assert [sl.n for sl in slices] == list(range(1, max_n + 1))
    for sl in slices:
        # itertools.product runs in alphabet order: lexicographic
        weighted = [(w, brute_weight(w, s)) for w in itertools.product(s.alphabet, repeat=sl.n)]
        entries = tuple((w, m) for w, m in weighted if m > 0)
        assert sl.entries == entries
        assert sl.cardinality == sum(m for _, m in entries)


def test_slices_walk_equals_single_slices():
    for s in (spec_counting(), spec_nonreduced(), load_fixture("building_blocks"),
              validate_spec("012", ["00"], [("12", 2)])):
        assert list(language_slices(7, s)) == [enumerate_slice(n, s) for n in range(1, 8)]


def test_slices_empty_and_budget():
    s = validate_spec("01", [], [])
    assert list(language_slices(0, s, budget=0)) == []
    assert list(language_slices(-1, s, budget=0)) == []
    with pytest.raises(BudgetError, match="2\\^30 strings exceed the budget 1048576"):
        next(language_slices(30, s, budget=2 ** 20))
    with pytest.raises(BudgetError, match="2\\^30 strings exceed the budget 1048576"):
        enumerate_slice(30, s, budget=2 ** 20)
    with pytest.raises(ValueError):
        enumerate_slice(0, s)
