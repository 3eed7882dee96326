import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_automaton, reference_is_reduced, star
from multishift import words as W


def test_correlate_published_pair():
    assert W.correlate("210210", "2102") == (1, 0, 0, 1, 0, 0)
    assert W.correlate("2102", "210210") == (1, 0, 0, 1)


def test_correlate_self_overlap_bit():
    for w in ["0", "0110", "abcabc", "2102"]:
        assert W.correlate(w, w)[0] == 1


def test_correlation_poly_values():
    # the overlap lengths t are the exponents + 1 of the published
    # correlation polynomials sum z^(t-1)
    assert W.correlation_shifts("210210", "2102") == (6, 3)  # z^2 + z^5
    assert W.correlation_shifts("2102", "210210") == (4, 1)  # 1 + z^3
    assert W.correlation_shifts("000", "000") == (3, 2, 1)
    assert W.correlation_shifts("010", "010") == (3, 1)
    assert W.correlation_shifts("00", "11") == ()


def test_tail_correlation_published():
    # the tail of length alpha keeps the overlaps t <= alpha
    assert [t for t in W.correlation_shifts("210210", "2102") if t <= 4] == [3]  # z^2
    assert [t for t in W.correlation_shifts("2102", "210210") if t <= 2] == [1]  # 1


def test_correlation_shifts_match_the_overlap_definition():
    rng = random.Random(7)
    for _ in range(200):
        u = tuple(rng.choice("01") for _ in range(rng.randint(1, 6)))
        v = tuple(rng.choice("01") for _ in range(rng.randint(1, 6)))
        want = tuple(t for t in range(len(u), 0, -1)
                     if u[len(u) - t:][:len(v)] == v[:t])
        assert W.correlation_shifts(u, v) == want


def test_correlation_degree_bound_and_bits():
    rng = random.Random(3)
    for _ in range(100):
        u = tuple(rng.choice("012") for _ in range(rng.randint(1, 5)))
        v = tuple(rng.choice("012") for _ in range(rng.randint(1, 5)))
        shifts = W.correlation_shifts(u, v)
        assert all(1 <= t <= len(u) for t in shifts)
        assert list(shifts) == sorted(set(shifts), reverse=True)


def test_non_terminal_occurrences():
    assert W.non_terminal_occurrences("001", "00") == 1
    assert W.non_terminal_occurrences("0100", "01") == 1
    assert W.non_terminal_occurrences("001", "00", threshold=1) == 1
    assert W.non_terminal_occurrences("001", "00", threshold=3) == 0
    # threshold at or past the outer length kills everything
    assert W.non_terminal_occurrences("0010", "00", threshold=4) == 0


def test_non_terminal_vs_subword_count():
    rng = random.Random(11)
    for _ in range(200):
        a = tuple(rng.choice("01") for _ in range(rng.randint(1, 6)))
        r = tuple(rng.choice("01") for _ in range(rng.randint(1, 3)))
        if len(r) > len(a):
            continue
        total = W.subword_count(a, r)
        gamma = W.non_terminal_occurrences(a, r)
        assert gamma <= total
        assert gamma == total - (1 if a[len(a) - len(r):] == r else 0)


def test_star():
    assert star("01", "11") == ("0", "1", "1")
    assert star("01", "00") is None
    assert star("0", "1") == ("0", "1")
    with pytest.raises(ValueError):
        star("01", "0")


def test_star_prefix_suffix_property():
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randint(1, 5)
        x = tuple(rng.choice("01") for _ in range(m))
        y = tuple(rng.choice("01") for _ in range(m))
        xy = star(x, y)
        if xy is not None:
            assert xy[:m] == x
            assert xy[-m:] == y


def test_is_reduced():
    assert W.is_reduced(["010", "101", "111"])
    assert not W.is_reduced(["00", "000"])
    assert not W.is_reduced(["001", "00"])
    assert not W.is_reduced(["01", "01"])
    assert W.is_reduced(["01"])


@st.composite
def word_lists(draw):
    """Short words over three symbols, often one inside another, plus
    copies of some of them and subwords cut from others."""
    ws = draw(st.lists(st.text("012", max_size=5), max_size=8))
    for w in list(ws):
        if draw(st.booleans()):
            i = draw(st.integers(0, len(w)))
            ws.append(w if draw(st.booleans()) else w[i:i + draw(st.integers(0, len(w)))])
    return draw(st.permutations(ws))


@given(word_lists())
def test_is_reduced_matches_the_pairwise_reference(ws):
    assert W.is_reduced(ws) == reference_is_reduced(ws)


def test_subword_count():
    assert W.subword_count("000", "00") == 2
    assert W.subword_count("1010", "01") == 1
    assert W.subword_count("01", "0101") == 0
    assert W.subword_count("aaaa", "aa") == 3


def test_non_terminal_occurrences_vanish_for_reduced_unions():
    # no repeated word strictly inside a forbidden one means zero interior hits
    collections = [
        (["010"], ["000"]),
        (["010", "101", "111"], ["00", "0110"]),
        (["00"], ["110", "01"]),
    ]
    for fws, reps in collections:
        assert W.is_reduced(fws + reps)
        for a in fws:
            for r in reps:
                assert W.non_terminal_occurrences(a, r) == 0


def check_automaton(patterns, alphabet):
    delta, ends = W.automaton(patterns, alphabet)
    want = reference_automaton(patterns, alphabet)
    # the shortest input reaching a state is the state's own word
    label, order = {0: ()}, [0]
    for s in order:
        for a, t in zip(alphabet, delta[s]):
            if t not in label:
                label[t] = label[s] + (a,)
                order.append(t)
    assert len(label) == len(delta) == len(ends)
    assert set(label.values()) == set(want)
    for s, u in label.items():
        assert [label[t] for t in delta[s]] == want[u][0]
        assert ends[s] == want[u][1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_automaton_matches_its_definition(data):
    alphabet = data.draw(st.sampled_from(("ab", "abc", "abcd")))
    # duplicates, nested patterns and a symbol outside the alphabet included
    patterns = data.draw(st.lists(st.text(alphabet + "z", min_size=1, max_size=5),
                                  min_size=1, max_size=5))
    check_automaton(patterns, alphabet)


@pytest.mark.parametrize("patterns", [["aa"], ["aba"], ["aaa", "aa"], ["abab", "bab"],
                                      ["ab", "b", "aab"], ["abcab", "bca", "c"]])
def test_automaton_on_self_overlapping_patterns(patterns):
    check_automaton(patterns, "abc")


def test_automaton_of_one_pattern_over_tuple_tokens():
    # the escape hole's form: one word of (tail, head, branch) edges,
    # read over its own distinct edges
    x, y = (0, 0, 1), (0, 0, 2)
    for hole in ([x], [x, x], [x, y, x], [x, y, x, y], [x, x, y, x, x]):
        edges = list(dict.fromkeys(hole))
        check_automaton([hole], edges)
        delta, ends = W.automaton([hole], edges)
        assert len(delta) == len(hole) + 1 and sum(map(len, ends)) == 1
