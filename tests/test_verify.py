"""The integer counting recurrences and the block power sums of the
verification suite, against the Fraction references and dense products."""

import random

from conftest import FAMILIES, family_spec, reference_recurrence_checks
from multishift import verify
from multishift.fixtures import list_fixtures, load_fixture
from multishift.langmodel import oracle_tables, validate_spec
from multishift.verify import _recurrence_checks, run_verification
from multishift.words import correlation_shifts

NAMES = ("recurrence_extension", "recurrence_repeated_suffix", "recurrence_forbidden_suffix")


def raised(table: list, n: int) -> list:
    return table[:n] + [table[n] + 1] + table[n + 1:]


def corrupted(spec, f, g, fa, rng, max_n):
    """Tables with one count raised by one at some p <= n <= max_n - p, in
    f, in one g table and in one fa table, each with the names of the
    recurrences that read the raised count."""
    n = rng.randint(spec.p, max_n - spec.p)
    reps, fws = spec.repeated_words, spec.forbidden

    def reading(*reads):
        return {name for name, read in zip(NAMES, reads) if read}

    yield (raised(f, n), g, fa), reading(True, reps, fws)
    if reps:
        r = rng.choice(reps)
        yield (f, {**g, r: raised(g[r], n)}, fa), reading(
            True, True, any(s < len(r) for a in fws for s in correlation_shifts(r, a)))
    if fws:
        a = rng.choice(fws)
        yield (f, g, {**fa, a: raised(fa[a], n)}), reading(
            True, any(t <= len(r) for r in reps for t in correlation_shifts(a, r)), True)


def assert_recurrences_equal_the_reference(spec, rng):
    max_n = 2 * spec.p + 2
    f, g, fa = oracle_tables(spec, max_n)
    got = _recurrence_checks(spec, f, g, fa, max_n)
    assert got == reference_recurrence_checks(spec, f, g, fa, max_n), spec
    assert all(c.passed for c in got), (spec, got)
    for tables, reading in corrupted(spec, f, g, fa, rng, max_n):
        got = _recurrence_checks(spec, *tables, max_n)
        assert got == reference_recurrence_checks(spec, *tables, max_n), spec
        assert {c.name for c in got if not c.passed} == reading, (spec, got)


def test_recurrences_equal_the_reference_on_every_fixture():
    rng = random.Random(3)
    for name in list_fixtures():
        assert_recurrences_equal_the_reference(load_fixture(name), rng)


def test_recurrences_equal_the_reference_on_family_draws():
    rng = random.Random(31)
    specs = [family_spec(rng, FAMILIES[i % 3], top=9) for i in range(210)]
    assert sum(not s.union_reduced for s in specs) >= 60
    # multiplicities up to 1e9 on the same words, so that L is large
    specs += [validate_spec(s.alphabet, s.forbidden,
                            [(r, rng.randint(2, 10 ** 9)) for r in s.repeated_words])
              for s in specs[::7]]
    for spec in specs:
        assert_recurrences_equal_the_reference(spec, rng)


def test_the_suffix_recurrences_read_lengths_up_to_max_n_minus_p():
    spec = validate_spec("01", ["11"], [("00", 3)])
    f, g, fa = oracle_tables(spec, 12)
    for n, passed in ((10, [False, False, False]), (11, [False, True, True]),
                      (12, [False, True, True])):
        got = _recurrence_checks(spec, raised(f, n), g, fa, 12)
        assert got == reference_recurrence_checks(spec, raised(f, n), g, fa, 12)
        assert [c.passed for c in got] == passed


def test_a_raised_count_fails_the_block_power_sums(monkeypatch):
    spec = validate_spec("01", ["11"], [("00", 3)])

    def power_sums_pass() -> bool:
        report = run_verification(spec, max_n=8)
        return {c.name: c.passed for c in report.checks}["block_power_sums_match_counts"]

    assert power_sums_pass()
    for n in range(spec.p, spec.p + 7):
        def skewed(s, max_n, budget, n=n):
            f, g, fa = oracle_tables(s, max_n, budget)
            return raised(f, n), g, fa
        monkeypatch.setattr(verify, "oracle_tables", skewed)
        assert not power_sums_pass()
