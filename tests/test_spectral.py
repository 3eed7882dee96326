import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (FAMILIES, FractionPoly, family_spec, leading_multiplicity,
                      multiplicity_matrix, random_spec, reference_conjugate_sums,
                      reference_correction_derivative_at,
                      reference_cw_enclosure, reference_identity, reference_power_iteration,
                      reference_sum, reference_transfer_tables, reference_vectors, sparse,
                      star)
from multishift import cli, fixtures, genfun, langmodel, ratfield, spectral, words
from multishift.errors import EmptyShiftError, NumericError, SpecError
from multishift.fixtures import list_fixtures, load_fixture
from multishift.langmodel import (extend_repeated_to_full_length, multiplicity, oracle_tables,
                                  spec_from_matrix, validate_spec, weighted_count_ending_with)
from multishift.measures import Cylinder, MeasureContext, cylinder_measure, escape_report
from multishift.ratfield import solve_numeric
from multishift.spectral import (AdjMatrix, adjacency_matrix, agree, eigen_residuals,
                                 eigenvector_normalization, entropy, is_irreducible,
                                 multiplicity_one_witness,
                                 perron_root, perron_vectors, power_iteration)
from multishift.verify import run_verification


def eigen_spec():
    return validate_spec("01", ["010"], [("100", 3)])


def split_spec():
    return validate_spec("01", ["00"], [("110", 2), ("01", 3)])


def test_adjacency_published_matrices():
    a = adjacency_matrix(eigen_spec())
    assert ["".join(x) for x in a.labels] == ["00", "01", "10", "11"]
    assert a.entries == ((1, 1, 0, 0), (0, 0, 0, 1), (3, 1, 0, 0), (0, 0, 1, 1))

    b = adjacency_matrix(split_spec())
    assert ["".join(x) for x in b.labels] == ["01", "10", "11"]
    assert b.entries == ((0, 3, 3), (1, 0, 0), (0, 2, 1))

    c = adjacency_matrix(validate_spec("01", ["11"], [("00", 2)]))
    assert c.entries == ((2, 1), (1, 0))


def test_multiplicity_matrix_published():
    t = multiplicity_matrix(split_spec())
    assert t.entries == ((0, 3, 3), (3, 0, 0), (0, 2, 1))
    # equal-length collections: both constructions coincide
    s = validate_spec("01", ["010"], [("000", 2)])
    assert multiplicity_matrix(s).entries == adjacency_matrix(s).entries


def test_repeated_row_entries_equal():
    # rows labeled by a repeated block have all non-zero entries equal
    s = split_spec()
    a = adjacency_matrix(s)
    for i, x in enumerate(a.labels):
        if multiplicity(x, s) > 1:
            nz = {e for e in a.entries[i] if e}
            assert len(nz) == 1


def test_irreducibility():
    assert is_irreducible(adjacency_matrix(eigen_spec()))
    assert not is_irreducible(AdjMatrix((("a",), ("b",)), sparse(((1, 0), (0, 1)))))
    assert is_irreducible(AdjMatrix((("a",), ("b",)), sparse(((1, 1), (1, 1)))))
    # the non-reduced worked example has a reducible matrix
    assert not is_irreducible(adjacency_matrix(validate_spec("01", ["001"], [("00", 2)])))


def test_perron_root_exact_and_routes():
    pr = perron_root(eigen_spec())
    assert pr.exact == 2
    assert pr.route_gap <= 1e-9
    full = perron_root(validate_spec("01", [], []))
    assert full.exact == 2


def test_perron_root_sparse_family():
    for mults, alpha in (((2, 3, 3), 8), ((5, 5, 5), 15)):
        s = validate_spec("0123", [], [("10", mults[0]), ("20", mults[1]), ("30", mults[2])])
        pr = perron_root(s)
        assert abs(pr.theta - (2 + math.sqrt(1 + alpha))) <= 1e-9


def test_perron_root_entropy_split():
    s = split_spec()
    assert 2.55 <= perron_root(s).theta <= 2.65
    t = spec_from_matrix(multiplicity_matrix(s).entries)
    assert 3.85 <= perron_root(t, allow_reducible=True).theta <= 3.95


def test_perron_root_matrix_input_and_reducible():
    with pytest.raises(SpecError):
        perron_root(validate_spec("01", ["001"], [("00", 2)]))
    pr = perron_root(validate_spec("01", ["001"], [("00", 2)]), allow_reducible=True)
    assert pr.exact == 2
    # the one-block matrix (4) as a spec: every pair but 00 forbidden
    one = perron_root(validate_spec("01", ["01", "10", "11"], [("000", 4)]))
    assert one.exact == 4


def test_gcd_free_numerator_keeps_the_root(monkeypatch):
    # the root stage isolates the closed form's den = (z - q) den_R + num_R
    # with no sum of quotients, in either mode; it is the reduced numerator
    # of z - q + R over Fraction coefficients, and its certificate is the
    # one the solved counting series' den gives
    isolated = []

    def recorded(g, lo, hi):
        isolated.append(g)
        return ratfield.largest_real_zero(g, lo, hi)

    monkeypatch.setattr(spectral, "largest_real_zero", recorded)
    rng = random.Random(41)
    draws = [family_spec(rng, FAMILIES[k % 3]) for k in range(200)]
    assert sum(not s.union_reduced for s in draws) >= 67
    for s in [load_fixture(name) for name in list_fixtures()] + draws:
        an = spectral.Analysis(s, allow_reducible=True)
        r = an.correction
        z, num, den = FractionPoly((0, 1)), FractionPoly(r.num), FractionPoly(r.den)
        ref = reference_sum([((z - s.q) * den + num, den)]).num
        assert genfun.closed_form(s.q, r)[1] == ref, s
        del isolated[:]
        try:
            an.root
        except EmptyShiftError:
            continue
        except NumericError:
            # the enclosure, taken after the isolation, need not converge on a
            # component with an eigenvalue near minus its root
            pass
        hi = an.matrix.max_row_sum + 1
        assert isolated == [ref], s
        assert ratfield.largest_real_zero(ref, 1, hi) == \
            ratfield.largest_real_zero(an.solution.all_words.den, 1, hi), s


@pytest.mark.parametrize("entries, theta", [
    (((2, 1), (0, 2)), 2),  # a Jordan block: whole-matrix iteration converges like 1/k
    (((1, 1, 0), (0, 3, 1), (0, 0, 2)), 3),
    (((1, 1, 1), (1, 1, 0), (0, 0, 1)), 2),  # a two-block component beside a loop
])
def test_reducible_root_is_the_largest_component_root(entries, theta):
    # on the matrix itself and on the transfer matrix of its length-2 spec,
    # whose enclosure gives theta_iterative
    mat = AdjMatrix(tuple((str(i),) for i in range(len(entries))), sparse(entries))
    assert not is_irreducible(mat)
    an = spectral.Analysis(spec_from_matrix(entries), allow_reducible=True)
    for successors in (mat.successors, an.spec.pattern_automaton.transfer):
        lower, upper = spectral._cw_enclosure(successors)
        assert lower <= theta <= upper and upper - lower <= 1e-10
    assert an.root.exact == theta and not an.root.irreducible
    assert an.root.theta_iterative == float((lower + upper) / 2)


def _transfer_enclosure_checked(s) -> bool:
    """The transfer matrix's enclosure meets the Sturm certificate and
    overlaps the block matrix's reference enclosure, when that converges;
    False for an empty shift."""
    an = spectral.Analysis(s, allow_reducible=True)
    try:
        cert = an.root.certificate
    except EmptyShiftError:
        return False
    lower, upper = spectral._cw_enclosure(s.pattern_automaton.transfer)
    assert cert.low <= upper and lower <= cert.high, s
    assert upper - lower <= 1e-10 * upper, s
    try:
        a_lower, a_upper = reference_cw_enclosure(an.matrix)
    except NumericError:
        return True
    assert a_lower <= upper and lower <= a_upper, s
    return True


def test_cw_enclosure_meets_the_sturm_certificate_on_every_fixture():
    for name in list_fixtures():
        assert _transfer_enclosure_checked(load_fixture(name)), name


def test_transfer_enclosure_meets_the_sturm_certificate_on_draws():
    rng = random.Random(53)
    draws = [family_spec(rng, FAMILIES[k % 3]) for k in range(210)]
    checked = [s for s in draws if _transfer_enclosure_checked(s)]
    assert len(checked) >= 200
    assert sum(not s.union_reduced for s in checked) >= 60
    assert sum(not is_irreducible(adjacency_matrix(s)) for s in checked) >= 30


def test_transfer_matrix_is_small_on_b6(monkeypatch):
    # 1016 blocks, but the enclosure iterates on the 14 live automaton states
    s = validate_spec("0123", ["000000", "0123"], [("111112", 3)])
    iterations = _count_calls(monkeypatch, spectral, "power_iteration")
    an = spectral.Analysis(s)
    assert an.matrix.size == 1016 and len(s.pattern_automaton.transfer) == 14
    assert an.root.irreducible
    assert iterations and max(len(rows) for rows, in iterations) <= 14


def test_root_row_of_the_transfer_powers_is_the_count():
    # the Collatz-Wielandt route rests on f_n = e_0^T T^n 1; the reference
    # counts by suffix tests and knows nothing of the automaton.  Each of a
    # state's q symbols is a move or an exit, never both
    rng = random.Random(35)
    specs = [load_fixture(name) for name in list_fixtures()] + \
        [family_spec(rng, FAMILIES[k % 3]) for k in range(300)]
    for s in specs:
        moves, transfer, exits, _ = s.pattern_automaton
        assert all(len(m) + len(x) == s.q for m, x in zip(moves, exits)), s
        v, counts = [1] * len(transfer), [1]
        for _ in range(12):
            v = [sum(e * v[t] for t, e in row) for row in transfer]
            counts.append(v[0])
        assert counts == reference_transfer_tables(s, 12)[0], s


def _random_matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        entries = tuple(tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n))
                        for _ in range(n))
        yield AdjMatrix(tuple((str(i),) for i in range(n)), sparse(entries))


def test_power_sum_matches_dense_products():
    def dense_power_sum(entries, k):
        n = len(entries)
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(k):
            power = [[sum(power[i][m] * entries[m][j] for m in range(n)) for j in range(n)]
                     for i in range(n)]
        return sum(map(sum, power))

    for mat in _random_matrices(7, 40):
        assert mat.power_sums(6) == [dense_power_sum(mat.entries, k) for k in range(1, 7)]
        assert mat.power_sums(0) == []


def test_irreducibility_matches_reachability():
    def reachable(entries, i):
        seen, todo = {i}, [i]
        while todo:
            k = todo.pop()
            for j, e in enumerate(entries[k]):
                if e and j not in seen:
                    seen.add(j)
                    todo.append(j)
        return seen

    for mat in _random_matrices(11, 200):
        n = mat.size
        # every block reaches every block in one step or more
        want = all(len({j for k in range(n) if mat.entries[i][k]
                        for j in reachable(mat.entries, k)}) == n for i in range(n))
        assert is_irreducible(mat) == want, mat.entries


def test_adjacency_matrix_splices_each_label_with_q_successors():
    s = validate_spec("01", ["0000"], [("01", 2)])
    mat = adjacency_matrix(s)
    assert mat.size == 8 and all(len(row) <= s.q for row in mat.successors)
    # the entries are those of the definition over every pair of labels
    rng = random.Random(5)
    specs = [s] + [random_spec(rng, flag) for flag in (False, True)]
    specs += [family_spec(rng, family) for family in FAMILIES for _ in range(15)]
    for spec in specs:
        mat = adjacency_matrix(spec)
        want = tuple(tuple(0 if (xy := star(x, y)) is None or not spec.is_allowed(xy)
                           else leading_multiplicity(xy, spec) for y in mat.labels)
                     for x in mat.labels)
        assert mat.entries == want


@st.composite
def int_matrices(draw):
    """Square matrices of order 1..5, small entries mixed with entries up
    to 1e10; many are reducible."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.sampled_from((0, 0, 0, 1, 1, 2, 3)), st.integers(0, 10 ** 10))
    return AdjMatrix(tuple((str(i),) for i in range(n)),
                     sparse(tuple(draw(entry) for _ in range(n)) for _ in range(n)))


def _outcome(run, mat):
    try:
        return run(mat)
    except (NumericError, ZeroDivisionError) as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_integer_cw_step_equals_the_fraction_step(mat):
    # the same float iteration under both; a lower cap keeps the
    # non-converging examples (a Jordan block, an eigenvalue near -theta)
    # quick, and both read it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "POWER_CAP", 2000)
        assert _outcome(power_iteration, mat.successors) == \
            _outcome(reference_power_iteration, mat)
        assert _outcome(lambda m: spectral._cw_enclosure(m.successors), mat) == \
            _outcome(reference_cw_enclosure, mat)


def test_power_iteration_enclosure():
    mat = adjacency_matrix(eigen_spec())
    res = power_iteration(mat.successors)
    assert res.lower <= 2 <= res.upper
    assert res.upper - res.lower <= 1e-10


def test_eigenvectors_published_exact():
    vec = perron_vectors(eigen_spec())
    assert vec.exact
    assert vec.left == (Fraction(3, 2), Fraction(1), Fraction(1, 2), Fraction(1))
    assert vec.right == (Fraction(2, 3), Fraction(2, 3), Fraction(4, 3), Fraction(4, 3))
    assert vec.dot == Fraction(11, 3)


def test_eigenvectors_published_irrational():
    s = validate_spec("01", ["00"], [("01", 2), ("10", 3), ("11", 2)])
    vec = perron_vectors(s)
    r7 = math.sqrt(7)
    assert abs(vec.root.theta - (1 + r7)) <= 1e-9
    assert abs(vec.left[0] - (r7 - 1)) <= 1e-9
    assert abs(vec.left[1] - 2) <= 1e-9
    assert abs(vec.right[0] - 2 * (r7 - 2)) <= 1e-9
    assert abs(vec.right[1] - (5 - r7)) <= 1e-9


def test_eigenvectors_full_shift_constant():
    vec = perron_vectors(validate_spec("01", [], []))
    assert vec.left == (Fraction(1), Fraction(1))
    assert vec.right == (Fraction(1), Fraction(1))


def _bits(xs):
    return [x.hex() if isinstance(x, float) else x for x in xs]


def test_vectors_equal_the_all_pairs_formulas_bit_for_bit():
    rng = random.Random(17)
    specs = [("fixture " + name, load_fixture(name)) for name in list_fixtures()]
    specs += [(family, family_spec(rng, family)) for family in FAMILIES for _ in range(14)]
    compared = Counter()
    for name, s in specs:
        an = spectral.Analysis(s, allow_reducible=True)
        try:
            vec = an.vectors
        except NumericError:
            continue
        left, right = reference_vectors(an)
        assert _bits(vec.left) == _bits(left) and _bits(vec.right) == _bits(right), name
        compared[name.split()[0]] += 1
        compared["exact"] += vec.exact
    assert compared["fixture"] >= 12 and compared["exact"] >= 5, compared
    assert all(compared[family] >= 8 for family in FAMILIES), compared


def _condition_estimate(m: list[list[float]]) -> float:
    """A lower estimate of the 1-norm condition number of a float matrix,
    ||m||_1 ||m^-1||_1, by Hager's method (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, Algorithm 15.4): a few solves with m
    and its transpose instead of the inverse."""
    n = len(m)
    transposed = [list(col) for col in zip(*m)]
    x, inverse_norm = [1.0 / n] * n, 0.0
    for _ in range(5):
        y = solve_numeric(m, x)
        if sum(map(abs, y)) <= inverse_norm:
            break
        inverse_norm = sum(map(abs, y))
        z = solve_numeric(transposed, [math.copysign(1.0, v) for v in y])
        j = max(range(n), key=lambda k: abs(z[k]))
        if abs(z[j]) <= sum(map(math.prod, zip(z, x))):
            break
        x = [0.0] * n
        x[j] = 1.0
    return max(sum(map(abs, col)) for col in transposed) * inverse_norm


def test_derivative_at_equals_the_derivative_polynomial_bit_for_bit():
    # every entry of the extended core against the reference derivative,
    # at the root as a float and as the Fraction of that float (and the
    # exact root where there is one)
    rng = random.Random(31)
    specs = [load_fixture(name) for name in list_fixtures()]
    specs += [family_spec(rng, FAMILIES[k % 3]) for k in range(210)]
    compared = Counter()
    for s in specs:
        an = spectral.Analysis(s, allow_reducible=True)
        try:
            theta = an.root.theta
        except (EmptyShiftError, NumericError):
            continue
        points = (theta, Fraction(theta), an.root.scalar())
        refs = {}  # the reference values at the points, once per distinct entry
        for e in (e for row in an.ext_system.core.entries for e in row):
            if e not in refs:
                refs[e] = [FractionPoly(e).derivative()(x) for x in points]
            for x, want in zip(points, refs[e]):
                got = e.derivative_at(x)
                assert (type(got), got) == (type(want), want), (s, e, x)
        compared["spec"] += 1
        compared["exact"] += an.root.exact is not None
    assert compared["spec"] >= 200 and compared["exact"] >= 5, compared


def test_transposed_solve_gives_the_conjugate_sums_and_the_derivative():
    # the extension is reduced, so the target weights w are the constants
    # of its conjugate core; y / w is then that core's row sums and the
    # bilinear form is R'(theta): exactly at an exact root (agree compares
    # Fractions exactly), within agree at a float root.  Rounding moves a
    # float solve by up to about cond(P) 2^-53, so a float pair may miss
    # agree only where that bound exceeds THETA_TOL (an ill-conditioned
    # core, where neither route resolves 1e-9)
    rng = random.Random(29)
    specs = [("fixture", load_fixture(name)) for name in list_fixtures()]
    specs += [("draw", family_spec(rng, FAMILIES[k % 3])) for k in range(150)]
    compared = Counter()
    for kind, s in specs:
        an = spectral.Analysis(s)
        if not is_irreducible(an.matrix):
            continue
        weights = [w for _, w in genfun.targets(an.ext)]
        rows, core = an.ext_system.matrix.entries, an.ext_system.core
        assert weights == [-e.coeff(1) for e in rows[0][1:]], s
        theta = an.root.scalar()
        r, y = an._core_at_root
        m = [[e(theta) for e in row] for row in core.entries]
        sums = reference_conjugate_sums(rows, theta)
        slope = reference_correction_derivative_at(an.ext, core, theta, m, r)
        if not (all(agree(yi / w, si) for yi, w, si in zip(y, weights, sums))
                and agree(spectral.correction_derivative_at(an.ext, core, theta, r, y), slope)):
            rounding_bound = _condition_estimate(m) * 2 ** -53
            assert an.root.exact is None and rounding_bound > spectral.THETA_TOL, s
            compared["ill-conditioned"] += 1
        compared[kind] += 1
        compared["exact"] += an.root.exact is not None
    assert compared["draw"] >= 100 and compared["fixture"] >= 10, compared
    assert compared["exact"] >= 5, compared


def test_eigen_residuals_random(rng):
    for want_nonreduced in (False, True):
        for _ in range(3):
            s = random_spec(rng, want_nonreduced)
            vec = perron_vectors(s)
            mat = adjacency_matrix(extend_repeated_to_full_length(s))
            res_l, res_r = eigen_residuals(mat, vec.root.theta, vec.left, vec.right)
            assert max(res_l, res_r) <= 1e-9


def test_direction_reversal_swaps_vectors():
    # building the spec from reversed words transposes the matrix and
    # swaps the roles of the two eigenvectors
    s = eigen_spec()
    rev = validate_spec(s.alphabet,
                        [a[::-1] for a in s.forbidden],
                        [(r[::-1], m) for r, m in s.repeated])
    vec = perron_vectors(s)
    vec_rev = perron_vectors(rev)
    a = adjacency_matrix(s)
    b = adjacency_matrix(rev)
    for i, x in enumerate(a.labels):
        j = b.labels.index(x[::-1])
        for k, y in enumerate(a.labels):
            el = b.labels.index(y[::-1])
            assert a.entries[i][k] == b.entries[el][j]
        assert vec.left[i] == vec_rev.right[j]
        assert vec.right[i] == vec_rev.left[j]


def test_normalization_published():
    n = eigenvector_normalization(eigen_spec())
    assert n.dot == Fraction(11, 3)
    assert n.identity_value == Fraction(11, 3)
    assert n.agree and n.witness is not None

    s2 = validate_spec("01", ["00"], [("01", 2), ("10", 3), ("11", 2)])
    n2 = eigenvector_normalization(s2)
    assert n2.witness is None
    assert abs(float(n2.dot) - (28 - 8 * math.sqrt(7))) <= 1e-9
    assert n2.agree  # the identity holds empirically even without a witness


def test_normalization_sparse_family():
    for mults, alpha in (((2, 3, 3), 8), ((5, 5, 5), 15)):
        s = validate_spec("0123", [], [(w, m) for w, m in
                                       zip(("10", "20", "30"), mults)])
        n = eigenvector_normalization(s)
        assert abs(float(n.dot) - 2 * math.sqrt(1 + alpha)) <= 1e-9
        assert n.agree


def test_witness_search():
    # diagonal entry one: the loop word itself is the witness
    w = multiplicity_one_witness(eigen_spec())
    assert w is not None
    assert multiplicity(w.connector, extend_repeated_to_full_length(eigen_spec())) == 1
    assert multiplicity(w.cycle, extend_repeated_to_full_length(eigen_spec())) == 1
    s2 = validate_spec("01", ["00"], [("01", 2), ("10", 3), ("11", 2)])
    assert multiplicity_one_witness(s2) is None
    # the weight-one two-step cycle 0 -> 1 -> 0 qualifies here
    s3 = validate_spec("01", ["11"], [("00", 2)])
    w3 = multiplicity_one_witness(s3)
    assert w3 is not None and w3.cycle == ("0", "1", "0")


def test_plain_edges_read_off_the_matrix():
    # the witness search takes the edges with entry one as the splices of
    # weight one in the extension; the entry must be the splice's weight
    rng = random.Random(31)
    specs = [load_fixture(name) for name in list_fixtures()]
    specs += [random_spec(rng, want_nonreduced=k % 2 == 1) for k in range(40)]
    for s in specs:
        an = spectral.Analysis(s)
        labels = an.matrix.labels
        for i, row in enumerate(an.matrix.successors):
            for j, e in row:
                assert multiplicity(star(labels[i], labels[j]), an.ext) == e


def test_power_sums_equal_counts_when_full_length():
    for s in (validate_spec("01", ["010"], [("000", 2)]),
              validate_spec("01", ["11"], [("00", 3)])):
        mat = adjacency_matrix(s)
        f, _, _ = oracle_tables(s, s.p + 6)
        assert mat.power_sums(7) == f[s.p:s.p + 7]


def test_entropy_values():
    assert abs(entropy(validate_spec("01", [], [])).ln_theta - math.log(2)) <= 1e-12
    assert abs(entropy(eigen_spec()).ln_theta - math.log(2)) <= 1e-12
    e = entropy(split_spec())
    assert abs(e.ln_theta - math.log(2.5986745)) <= 1e-6
    assert abs(e.estimate - e.ln_theta) <= 0.2  # finite-size display value


def test_extension_route_used_for_short_words():
    s = validate_spec("01", ["0000"], [("01", 2)])
    vec = perron_vectors(s)
    mat = adjacency_matrix(s)
    res_l, res_r = eigen_residuals(mat, vec.root.theta, vec.left, vec.right)
    assert max(res_l, res_r) <= 1e-9


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_analysis_derives_each_stage_once(monkeypatch):
    iterations = _count_calls(monkeypatch, spectral, "power_iteration")
    corrections = _count_calls(monkeypatch, genfun, "constraint_correction")
    matrices = _count_calls(monkeypatch, spectral, "adjacency_matrix")
    spectral.spectral_report(eigen_spec())
    assert (len(iterations), len(corrections), len(matrices)) == (1, 1, 1)

    roots = _count_calls(monkeypatch, spectral, "perron_root")
    del matrices[:]
    assert run_verification(eigen_spec(), max_n=6).passed
    assert (len(roots), len(matrices)) == (1, 1)


def test_one_counting_system_per_distinct_spec(monkeypatch):
    systems = _count_calls(monkeypatch, genfun, "build_system")
    numeric = _count_calls(monkeypatch, spectral, "solve_numeric")
    matrices = _count_calls(monkeypatch, spectral, "adjacency_matrix")
    symbolic = _count_calls(monkeypatch, ratfield.RatMat, "cramer")
    automata = _count_calls(monkeypatch, words, "automaton")
    layers = _count_calls(monkeypatch, langmodel, "_layers")

    def counts(name, run):
        spec = load_fixture(name)  # a fresh spec has no automaton built yet
        labels = set(genfun.build_system(spec).matrix.labels) - {"F"}
        for calls in (systems, symbolic, numeric, matrices, automata, layers):
            del calls[:]
        run(spec)
        # every symbolic solve is of the spec's own core or its conjugate
        # core, never of the bordered matrix or of the extension's core
        assert all(set(m.labels) <= labels for m, *_ in symbolic), name
        block_walks = sum(n == s.p - 1 for n, s, *_ in layers)
        return (len(systems), len(symbolic), len(numeric), len(matrices), len(automata),
                block_walks)

    # counting: the extension is the spec, so one system serves both;
    # extension and nonreduced: the extended spec builds its own system
    # through the same builder, and only the spec's is solved.  In either
    # mode perron solves the core once and verify solves the core and its
    # conjugate; the bordered matrix is never solved.  Every walk over the
    # spec's words reads its one automaton of F and R, and the matrix and
    # the extension read its one walk of the blocks
    counting, extension = load_fixture("counting"), load_fixture("extension")
    assert extend_repeated_to_full_length(counting) is counting
    assert counts("counting", spectral.spectral_report) == (1, 1, 2, 1, 1, 1)
    assert counts("extension", spectral.spectral_report) == (2, 1, 2, 1, 1, 1)
    ext_labels = genfun.build_system(extend_repeated_to_full_length(extension)).matrix.labels
    assert not set(ext_labels) <= set(genfun.build_system(extension).matrix.labels)
    assert counts("nonreduced", lambda s: spectral.spectral_report(s, True)) == (2, 1, 2, 1, 1, 1)
    assert counts("counting", lambda s: run_verification(s, max_n=6)) == (1, 2, 2, 1, 1, 1)
    assert counts("extension", lambda s: run_verification(s, max_n=6)) == (2, 2, 2, 1, 1, 1)
    assert counts("nonreduced", lambda s: run_verification(
        s, max_n=6, allow_reducible=True)) == (1, 2, 0, 1, 1, 1)
    # and enumerate --slices prints the slices from one walk of all lengths
    for name in ("counting", "extension", "nonreduced"):
        path = str(Path(fixtures.__file__).parent / f"{name}.json")
        assert counts(name, lambda s: cli.main(["enumerate", "--spec", path, "--max-n", "7",
                                                "--slices"])) == (0, 0, 0, 0, 1, 0)
        assert [n for n, *_ in layers] == [7], name
    # the hole and the spec of its counts tau each build their own
    hole = Cylinder((("0", "0"), ("0", "0")), (1,))
    assert counts("counting", lambda s: escape_report(s, hole, 6)) == (1, 1, 0, 1, 3, 1)
    # the oracle reads the spec's one automaton for every table, g_r included
    for name in ("counting", "extension", "nonreduced"):
        assert counts(name, lambda s: [oracle_tables(s, 8)] + [
            weighted_count_ending_with(r, 8, s) for r in s.repeated_words]) == (0, 0, 0, 0, 1, 0)
    # a measure and an escape report walk the blocks once too, on the
    # first edge of each spec's graph
    for name, flag in (("counting", False), ("extension", False), ("nonreduced", True)):
        mat = adjacency_matrix(load_fixture(name))
        hole = Cylinder((mat.labels[0], mat.labels[mat.successors[0][0][0]]), (1,))
        assert counts(name, lambda s: cylinder_measure(MeasureContext(s, flag), hole))[5] == 1
        assert counts(name, lambda s: escape_report(s, hole, 6, allow_reducible=flag))[5] == 1


def test_analysis_solution_equals_the_standalone_solve():
    for name in list_fixtures():
        s = load_fixture(name)
        assert spectral.Analysis(s).solution.to_json() == \
            genfun.solve_generating_functions(s).to_json(), name


def test_conjugate_core_built_once_per_counting_system(monkeypatch):
    conjugates = _count_calls(monkeypatch, genfun, "conjugate_correlation_matrix")
    # the solution reads the conjugate of its system; the right eigenvector
    # rescales the extension's rows at the root and builds no symbolic one
    for name, want in (("counting", 1), ("extension", 1)):
        del conjugates[:]
        assert run_verification(load_fixture(name), max_n=6).passed
        assert len(conjugates) == want, name


def test_strong_components_once_per_matrix(monkeypatch):
    # irreducibility, the empty-shift refusal and verify's own check read
    # the block matrix's; the root's enclosure the transfer matrix's
    tarjan = _count_calls(monkeypatch, spectral, "_strong_components")
    report = run_verification(load_fixture("counting"), max_n=6)
    assert report.passed
    assert len(tarjan) == 2
    # the route detail names the order of the matrix the enclosure ran on
    route = next(c for c in report.checks if c.name == "perron_route_agreement")
    assert route.detail.startswith(
        "Sturm interval meets the Collatz-Wielandt enclosure on the 5-state transfer matrix, gap ")


def test_agree_exact_on_rationals():
    assert agree(Fraction(1, 3), Fraction(2, 6))
    assert not agree(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 40))
    assert agree(1, Fraction(1)) and not agree(0, Fraction(1, 10 ** 40))


def test_agree_relative_on_floats():
    # a relative gap of 1e-10 passes and one of 1e-8 fails at every scale;
    # an absolute 1e-9 refused the first above 10 and passed the second
    # below 0.1
    for scale in (1e-20, 1.0, 1e20):
        assert agree(scale, scale * (1 + 1e-10))
        assert not agree(scale, scale * (1 + 1e-8))
    assert agree(0.0, 0.0) and not agree(0.0, 1e-300)


def test_agree_mixed_is_relative():
    assert agree(Fraction(1, 3), 1 / 3) and agree(1 / 3, Fraction(1, 3))
    assert not agree(Fraction(1, 3), (1 / 3) * (1 + 1e-8))
    assert not agree(1e-12, Fraction(1, 10 ** 12) * 2)


def test_normalization_identity_equals_the_symbolic_route():
    rng = random.Random(11)
    specs = [(name, load_fixture(name)) for name in list_fixtures()]
    specs += [(f"random {i}", random_spec(rng, i % 2 == 1)) for i in range(6)]
    extended = 0
    for name, s in specs:
        an = spectral.Analysis(s, allow_reducible=True)
        try:
            got = an.normalization.identity_value
        except NumericError:
            # the formula vectors of a reducible matrix may fail
            assert not an.root.irreducible, name
            continue
        want = reference_identity(s, an.root.scalar())
        if an.root.exact is not None:
            assert got == want, name
        else:
            assert agree(got, want), name
        extended += an.ext is not s
    assert extended >= 5
