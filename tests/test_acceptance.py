"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a PASS line (visible with -s; the -v test name carries
the same information).  Three additional strict-xfail tests pin down
reference values that are internally inconsistent with the defining
identities; the decisions ledger outside the package documents why.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (lift_rational_stochastic, multiplicity_matrix, random_spec, row_sums,
                      sparse)
from multishift.genfun import (build_system, conjugate_correlation_matrix,
                               correlation_matrix, solve_generating_functions)
from multishift.langmodel import (extend_repeated_to_full_length, multiplicity,
                                  oracle_tables, spec_from_matrix, validate_spec,
                                  weighted_count)
from multishift.measures import (Cylinder, MeasureContext, StochMat,
                                 cylinder_measure, escape_report,
                                 kolmogorov_report, pushforward_report,
                                 shannon_parry_matrix)
from multishift.ratfield import Poly, RatFun, series_coeffs, solve_numeric
from multishift.spectral import (AdjMatrix, adjacency_matrix, eigen_residuals,
                                 eigenvector_normalization, is_irreducible, perron_root,
                                 perron_vectors)

Z = Poly.x()

F_TABLE = [2, 4, 8, 17, 37, 81, 178, 392, 864, 1905]
G_TABLE = [0, 0, 2, 6, 14, 32, 72, 160, 354, 782]
FA_TABLE = [0, 0, 1, 2, 4, 9, 20, 44, 97, 214]


def test_1_counting_tables_oracle_and_series():
    start = time.monotonic()
    spec = validate_spec("01", ["010"], [("000", 2)])
    f, g, fa = oracle_tables(spec, 10)
    assert f[1:] == F_TABLE
    assert g[("0", "0", "0")][1:] == G_TABLE
    assert fa[("0", "1", "0")][1:] == FA_TABLE
    sol = solve_generating_functions(spec)
    assert [int(c) for c in series_coeffs(sol.all_words, 10)][1:] == F_TABLE
    g_series, fa_series = dict(sol.ending_with), dict(sol.forbidden_tail)
    assert [int(c) for c in series_coeffs(g_series[("0", "0", "0")], 10)][1:] == G_TABLE
    assert [int(c) for c in series_coeffs(fa_series[("0", "1", "0")], 10)][1:] == FA_TABLE
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS counting tables, oracle == series ({elapsed:.2f}s)")


def test_2_exact_eigen_reproduction():
    spec = validate_spec("01", ["010"], [("100", 3)])
    mat = adjacency_matrix(spec)
    assert mat.entries == ((1, 1, 0, 0), (0, 0, 0, 1), (3, 1, 0, 0), (0, 0, 1, 1))

    p = correlation_matrix(spec)
    assert p.entries[0][0] == Poly([0, 0, 0, Fraction(-1, 3)])
    assert p.entries[0][1] == Poly([0, 0, -1])
    assert p.entries[1][0] == Poly([0, Fraction(2, 3)])
    assert p.entries[1][1] == Poly([0, -1, 0, -1])
    q = conjugate_correlation_matrix(build_system(spec))
    assert q.entries[0][1] == Poly([0, -1])
    assert q.entries[1][0] == Poly([0, 0, Fraction(2, 3)])

    r1, r2 = row_sums(p.inverse())
    assert r1 == RatFun(Poly([-3, 3, -3]), Poly([0, 0, 2, 1, 0, 1]))
    assert r2 == RatFun(Poly([-2, 0, -1]), Poly([0, 0, 2, 1, 0, 1]))
    s1, s2 = row_sums(q.inverse())
    assert s1 == RatFun(Poly([-3]), Poly([2, 1, 0, 1]))
    assert s2 == RatFun(Poly([-2, -1]), Poly([0, 2, 1, 0, 1]))

    root = perron_root(spec)
    assert root.exact == 2 and root.certificate.low == root.certificate.high == 2

    vec = perron_vectors(spec)
    assert vec.exact
    assert vec.left == (Fraction(3, 2), Fraction(1), Fraction(1, 2), Fraction(1))
    assert vec.right == (Fraction(2, 3), Fraction(2, 3), Fraction(4, 3), Fraction(4, 3))
    print("ACCEPTANCE 2 PASS exact root certificate and eigenvectors")


def test_3_normalization_identities():
    spec = validate_spec("01", ["010"], [("100", 3)])
    n = eigenvector_normalization(spec)
    assert abs(float(n.dot) - 11 / 3) <= 1e-9
    assert abs(float(n.identity_value) - 11 / 3) <= 1e-9
    assert n.dot == Fraction(11, 3)

    spec2 = validate_spec("01", ["00"], [("01", 2), ("10", 3), ("11", 2)])
    vec2 = perron_vectors(spec2)
    r7 = math.sqrt(7)
    assert abs(vec2.left[0] - (r7 - 1)) <= 1e-9
    assert abs(vec2.left[1] - 2) <= 1e-9
    assert abs(vec2.right[0] - 2 * (r7 - 2)) <= 1e-9
    assert abs(vec2.right[1] - (5 - r7)) <= 1e-9
    n2 = eigenvector_normalization(spec2)
    assert abs(float(n2.dot) - (28 - 8 * r7)) <= 1e-9
    assert n2.witness is None  # reported with the witness-unknown flag
    assert n2.agree

    for alpha, mults in ((3, None), (8, (2, 3, 3)), (15, (5, 5, 5))):
        if mults is None:
            # weight 3 forces unit multiplicities: the free four-symbol shift
            fam = validate_spec("0123", [], [])
        else:
            fam = validate_spec("0123", [],
                                [(w, m) for w, m in zip(("10", "20", "30"), mults)])
        root = perron_root(fam)
        assert abs(root.theta - (2 + math.sqrt(1 + alpha))) <= 1e-9
        nf = eigenvector_normalization(fam)
        assert abs(float(nf.dot) - float(nf.identity_value)) <= 1e-9
        assert abs(float(nf.dot) - 2 * math.sqrt(1 + alpha)) <= 1e-9
    print("ACCEPTANCE 3 PASS normalization identities (11/3, 28-8*sqrt7, family)")


@pytest.mark.xfail(strict=True, reason="the quoted closed form (5-alpha+sqrt(1+alpha))"
                   "/(2+sqrt(1+alpha)) contradicts the dot product of the quoted "
                   "eigenvectors, which is 2*sqrt(1+alpha); see the decisions ledger")
def test_3_family_normalization_quoted_value():
    fam = validate_spec("0123", [], [("10", 2), ("20", 3), ("30", 3)])
    alpha = 8
    nf = eigenvector_normalization(fam)
    quoted = (5 - alpha + math.sqrt(1 + alpha)) / (2 + math.sqrt(1 + alpha))
    assert abs(float(nf.dot) - quoted) <= 1e-9


def test_4_nonreduced_system_and_root():
    spec = validate_spec("01", ["001"], [("00", 2)])
    assert not spec.union_reduced
    system = build_system(spec)
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

    sol = solve_generating_functions(spec)
    root = perron_root(spec, allow_reducible=True)
    assert root.exact == 2
    f, _, _ = oracle_tables(spec, 12)
    assert [int(c) for c in series_coeffs(sol.all_words, 12)] == f
    print("ACCEPTANCE 4 PASS overlapping-collection system, root 2, series == oracle")


@pytest.mark.xfail(strict=True, reason="the quoted series z/(z-2) implies counts 2^n, "
                   "which contradicts the weighted counts forced by the definitions "
                   "(already at length 2: 5, not 4); see the decisions ledger")
def test_4_nonreduced_series_quoted_form():
    spec = validate_spec("01", ["001"], [("00", 2)])
    sol = solve_generating_functions(spec)
    assert sol.all_words == RatFun(Z, Poly((-2, 1)))


def test_5_growth_split_between_matrices():
    spec = validate_spec("01", ["00"], [("110", 2), ("01", 3)])
    mat = adjacency_matrix(spec)
    naive = multiplicity_matrix(spec)
    assert 2.55 <= perron_root(spec).theta <= 2.65
    assert 3.85 <= perron_root(spec_from_matrix(naive.entries),
                               allow_reducible=True).theta <= 3.95
    assert weighted_count(3, spec) == 12
    # the naive matrix overcounts: nine two-step paths realize a word of weight three
    i, j = mat.labels.index(("1", "0")), mat.labels.index(("0", "1"))
    assert naive.entries[i][j] * naive.entries[j][i] == 9
    assert multiplicity("1010", spec) == 3
    assert sum(naive.row_sums()) == 12 and sum(mat.row_sums()) == 10
    print("ACCEPTANCE 5 PASS growth split 2.6 vs 3.9 and overcounting witness")


@pytest.mark.xfail(strict=True, reason="no matrix in this configuration has entry "
                   "sum 9: the edge-count matrix sums to 10 and the naive one to 12 "
                   "(= the weighted slice); the 9 is the two-step path count; see ledger")
def test_5_matrix_entry_sum_quoted_value():
    spec = validate_spec("01", ["00"], [("110", 2), ("01", 3)])
    naive = multiplicity_matrix(spec)
    assert sum(naive.row_sums()) == 9


def test_6_escape_rate_fixtures():
    spec = spec_from_matrix([[0, 2], [1, 1]])
    hole = Cylinder.from_edges([("0", "1", 2), ("1", "1", 1)])
    rep = escape_report(spec, hole, n_max=12)
    assert rep.counts[2] == 7
    assert rep.tau[1] == 6
    assert rep.word_weight == 2
    assert rep.survivor_rate > rep.tau_rate

    everything = validate_spec("01", ["01", "10", "11"])
    rep2 = escape_report(everything, Cylinder.from_edges([("0", "0", 1)]), n_max=5,
                         allow_reducible=True)
    assert all(c == 0 for c in rep2.counts[1:])
    print("ACCEPTANCE 6 PASS escape counts h(2)=7, tau(3)=6, rate ordering")


def test_7_randomized_oracle_equivalence_suite():
    start = time.monotonic()
    rng = random.Random(1105)
    specs = [random_spec(rng, False) for _ in range(10)] + \
            [random_spec(rng, True) for _ in range(10)]
    assert sum(1 for s in specs if not s.union_reduced) >= 10
    for spec in specs:
        sol = solve_generating_functions(spec)
        f, g, fa = oracle_tables(spec, 10)
        assert [int(c) for c in series_coeffs(sol.all_words, 10)] == f
        for r, fun in sol.ending_with:
            assert [int(c) for c in series_coeffs(fun, 10)] == g[r]
        for a, fun in sol.forbidden_tail:
            assert [int(c) for c in series_coeffs(fun, 10)] == fa[a]

        root = perron_root(spec)
        assert root.route_gap <= 1e-9

        vec = perron_vectors(spec)
        ext_mat = adjacency_matrix(extend_repeated_to_full_length(spec))
        res_l, res_r = eigen_residuals(ext_mat, root.theta, vec.left, vec.right)
        assert max(res_l, res_r) <= 1e-9

        if all(len(r) == spec.p for r in spec.repeated_words):
            mat = adjacency_matrix(spec)
            assert mat.power_sums(7) == [weighted_count(n, spec) for n in range(spec.p, spec.p + 7)]

        ctx = MeasureContext(spec)
        assert kolmogorov_report(ctx, 4)["violations"] == []
        assert pushforward_report(ctx, 4)["violations"] == []
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7 PASS randomized suite, {len(specs)} specs ({elapsed:.1f}s)")


def _random_rational_stochastic(rng, n):
    labels = tuple((chr(97 + i),) for i in range(n))
    while True:
        rows = []
        for _ in range(n):
            weights = [rng.randint(0, 3) for _ in range(n)]
            if sum(weights) == 0:
                weights[rng.randrange(n)] = 1
            total = sum(weights)
            rows.append(tuple(Fraction(w, total) for w in weights))
        probe = AdjMatrix(labels, sparse(tuple(1 if e else 0 for e in row) for row in rows))
        if not is_irreducible(probe):
            continue
        m = [[rows[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        m[-1] = [Fraction(1)] * n
        rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
        stationary = tuple(solve_numeric(m, rhs))
        return StochMat(labels, sparse(rows), stationary, True)


def test_8_round_trips():
    rng = random.Random(77)
    for k in range(10):
        sm = _random_rational_stochastic(rng, rng.randint(2, 3))
        lifted = lift_rational_stochastic(sm)
        vec = perron_vectors(spec_from_matrix(lifted.entries))
        assert vec.exact
        back = shannon_parry_matrix(lifted, vec.root.scalar(),
                                    vec.left_normalized, vec.right)
        assert back.rows == sm.rows
        assert back.stationary == sm.stationary

    # uniform weight 3 on every allowed length-2 word: the projected
    # measure is the plain binary-matrix measure
    spec = validate_spec("01", ["11"], [("00", 3), ("01", 3), ("10", 3)])
    ctx = MeasureContext(spec)
    binary = ctx.mat.binary()
    assert ctx.mat.entries == tuple(tuple(3 * e for e in row) for row in binary.entries)
    for length in range(1, 6):
        for vid in itertools.product(range(binary.size), repeat=length + 1):
            if any(binary.entries[a][b] == 0 for a, b in zip(vid, vid[1:])):
                continue
            verts = tuple(ctx.mat.labels[i] for i in vid)
            push = cylinder_measure(ctx, Cylinder(verts, None), "markov")
            hat = cylinder_measure(ctx, Cylinder(verts, None), "parry")
            assert abs(push.value - hat.value) <= 1e-12
    print("ACCEPTANCE 8 PASS stochastic lift round trips and uniform push-forward")
