import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import (family_spec, lift_rational_stochastic, preimage_count, random_spec,
                      reference_escape_counts, small_specs, sparse)
from multishift import measures, spectral
from multishift.errors import EmptyShiftError, NumericError, SpecError
from multishift.fixtures import load_fixture, list_fixtures
from multishift.langmodel import spec_from_matrix, validate_spec
from multishift.ratfield import RatMat
from multishift.measures import (Cylinder, EDGE_ROUTES, MeasureContext, StochMat,
                                 _validate_stochastic, cylinder_measure, escape_report,
                                 kolmogorov_report, pushforward_report, shannon_parry_matrix)
from multishift.spectral import (THETA_TOL, AdjMatrix, adjacency_matrix, agree,
                                 is_irreducible, perron_vectors)
from multishift.verify import run_verification


def eigen_spec():
    return validate_spec("01", ["010"], [("100", 3)])


def sp_of_matrix(entries):
    mat = AdjMatrix(tuple(("abcdefgh"[i],) for i in range(len(entries))), sparse(entries))
    vec = perron_vectors(spec_from_matrix(entries))
    return mat, vec, shannon_parry_matrix(mat, vec.root.scalar(),
                                          vec.left_normalized, vec.right)


def test_shannon_parry_published_irrational():
    _, _, sp = sp_of_matrix([[2, 1], [1, 0]])
    (_, p00), (_, p01) = sp.rows[0]
    assert abs(p00 - 2 * (math.sqrt(2) - 1)) <= 1e-12
    assert abs(p01 - (3 - 2 * math.sqrt(2))) <= 1e-12
    (j, p10), = sp.rows[1]  # no (1, 1) entry
    assert j == 0 and abs(p10 - 1) <= 1e-12


def test_shannon_parry_trivial_loop():
    mat = AdjMatrix((("x",),), sparse(((5,),)))
    sp = shannon_parry_matrix(mat, Fraction(5), (Fraction(1),), (Fraction(1),))
    assert sp.rows == sparse(((Fraction(1),),))
    assert sp.stationary == (Fraction(1),)


def test_shannon_parry_exact_rows_and_stationarity():
    ctx = MeasureContext(eigen_spec())
    assert ctx.sp.exact
    for row in ctx.sp.rows:
        assert sum(x for _, x in row) == 1
    n = len(ctx.sp.labels)
    for j in range(n):
        assert sum(ctx.sp.stationary[i] * ctx.sp.entry(i, j) for i in range(n)) \
            == ctx.sp.stationary[j]


def test_stationarity_is_checked_over_the_successor_lists():
    # float and exact: the stationary vector reversed still sums to one
    # but is not stationary
    float_mat, _, float_sp = sp_of_matrix([[2, 1], [1, 0]])
    exact = MeasureContext(eigen_spec())
    for mat, sp in ((float_mat, float_sp), (exact.mat, exact.sp)):
        assert _validate_stochastic(sp) is sp
        wrong = sp._replace(stationary=sp.stationary[::-1])
        with pytest.raises(NumericError, match="not stationary"):
            _validate_stochastic(wrong)


def reference_shannon_parry_rows(mat, theta, right):
    """The dense rows: A_ij V_j / (theta V_i) for every j, each row then
    divided by its sum."""
    rows = []
    for i in range(mat.size):
        row = [mat.entries[i][j] * right[j] / (theta * right[i]) for j in range(mat.size)]
        s = sum(row)
        rows.append(tuple(e / s for e in row))
    return tuple(rows)


def _typed_bits(rows):
    return [[(j, type(e), e.hex() if isinstance(e, float) else e) for j, e in row]
            for row in rows]


def test_shannon_parry_rows_equal_the_dense_rows():
    rng = random.Random(23)
    specs = [load_fixture(name) for name in list_fixtures()]
    specs += [family_spec(rng, family)
              for family in ("short_forbidden", "unit_repeated", "nonreduced") for _ in range(6)]
    compared = 0
    for s in specs:
        try:
            ctx = MeasureContext(s)
        except (NumericError, SpecError):
            continue
        want = reference_shannon_parry_rows(ctx.mat, ctx.theta, ctx.vectors.right)
        assert _typed_bits(ctx.sp.rows) == _typed_bits(sparse(want)), s
        compared += 1
    assert compared >= 20


def test_stochastic_rows_follow_the_successor_lists():
    for name in list_fixtures():
        try:
            ctx = MeasureContext(load_fixture(name))
        except (NumericError, SpecError):
            continue
        assert [[j for j, _ in row] for row in ctx.sp.rows] == \
            [[j for j, _ in row] for row in ctx.mat.successors], name


def test_checks_on_1016_blocks_never_build_the_dense_rows(monkeypatch):
    # the b_6 spec: verify and the measure checks walk the successor
    # lists; only printing the matrix builds its n^2 dense view
    analyses = []

    class Recorded(spectral.Analysis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            analyses.append(self)

    monkeypatch.setattr(spectral, "Analysis", Recorded)
    assert run_verification(validate_spec("0123", ["000000", "0123"], [("111112", 3)]),
                            max_n=8).passed
    an, = analyses
    ctx = MeasureContext(an)
    assert ctx.mat is an.matrix and an.matrix.size == 1016
    assert kolmogorov_report(ctx, 8)["violations"] == []
    assert pushforward_report(ctx, 8)["violations"] == []
    assert "entries" not in an.matrix.__dict__
    assert [[j for j, _ in row] for row in ctx.sp.rows] == \
        [[j for j, _ in row] for row in an.matrix.successors]


def test_cylinder_forms_and_projection():
    cyl = Cylinder.from_edges([("00", "00", 1), ("00", "01", 1)])
    assert cyl.word() == ("0", "0", "0", "1")
    v = Cylinder.from_vertex_word("0011", 3)
    assert [''.join(x) for x in v.vertices] == ["00", "01", "11"]
    with pytest.raises(SpecError):
        Cylinder.from_edges([("00", "01", 1), ("00", "00", 1)])  # broken chain


def test_cylinder_validation_against_context():
    ctx = MeasureContext(eigen_spec())
    with pytest.raises(SpecError):
        cylinder_measure(ctx, Cylinder.from_edges([("00", "11", 1)]))   # no such edge
    with pytest.raises(SpecError):
        cylinder_measure(ctx, Cylinder.from_edges([("10", "00", 7)]))   # branch range
    with pytest.raises(SpecError):
        cylinder_measure(ctx, Cylinder.from_vertex_word("01010", 3))    # forbidden block


def test_three_routes_agree_exactly_on_published_example():
    ctx = MeasureContext(eigen_spec())
    cyl = Cylinder.from_edges([("00", "00", 1)])
    values = [cylinder_measure(ctx, cyl, r).exact for r in EDGE_ROUTES]
    assert values == [Fraction(3, 22)] * 3


def test_full_shift_uniform_measure():
    ctx = MeasureContext(validate_spec("01", [], []))
    for n in range(1, 5):
        verts = tuple(("0",) if i % 2 else ("1",) for i in range(n + 1))
        rep = cylinder_measure(ctx, Cylinder(verts, (1,) * n), "shannon_parry")
        assert rep.exact == Fraction(1, 2 ** (n + 1))


def test_branch_indices_do_not_change_measure():
    ctx = MeasureContext(eigen_spec())
    verts = (("1", "0"), ("0", "0"), ("0", "0"))
    vals = set()
    for branches in itertools.product(range(1, 4), range(1, 2)):
        vals.add(cylinder_measure(ctx, Cylinder(verts, branches), "shannon_parry").exact)
    assert len(vals) == 1


def test_preimage_count_published():
    ctx = MeasureContext(eigen_spec())
    cyl = Cylinder.from_vertex_word("1000", 3)
    assert preimage_count(ctx, cyl) == 3  # one tripled edge on the path
    assert preimage_count(ctx, Cylinder.from_vertex_word("0001", 3)) == 1


def test_additivity_and_pushforward_exact_example():
    ctx = MeasureContext(eigen_spec())
    kol = kolmogorov_report(ctx, 5)
    assert kol["violations"] == []
    push = pushforward_report(ctx, 5)
    assert push["violations"] == []


def test_total_mass_of_one_edge_cylinders():
    ctx = MeasureContext(eigen_spec())
    mat = ctx.mat
    total = Fraction(0)
    for i, x in enumerate(mat.labels):
        for j, y in enumerate(mat.labels):
            if mat.entries[i][j]:
                rep = cylinder_measure(ctx, Cylinder((x, y), (1,)), "shannon_parry")
                total += mat.entries[i][j] * rep.exact
    assert total == 1


def test_lift_round_trips():
    labels = (("a",), ("b",))
    p1 = StochMat(labels, sparse(((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0)))),
                  (Fraction(2, 3), Fraction(1, 3)), True)
    assert lift_rational_stochastic(p1).entries == ((1, 1), (2, 0))
    p2 = StochMat(labels, sparse(((Fraction(2, 3), Fraction(1, 3)), (Fraction(1), Fraction(0)))),
                  (Fraction(3, 4), Fraction(1, 4)), True)
    assert lift_rational_stochastic(p2).entries == ((2, 1), (3, 0))
    ident = StochMat(labels, sparse(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))),
                     (Fraction(1, 2), Fraction(1, 2)), True)
    assert lift_rational_stochastic(ident).entries == ((0, 1), (1, 0))
    # an explicit zero in a row is no edge of the lift
    zero = ident._replace(rows=(((0, Fraction(0)), (1, Fraction(1))),
                                ((0, Fraction(1)),)))
    assert lift_rational_stochastic(zero).successors == (((1, 1),), ((0, 1),))


def test_lift_inverts_shannon_parry(rng):
    # random rational stochastic matrices round-trip exactly
    for _ in range(10):
        n = rng.randint(2, 3)
        rows = []
        for i in range(n):
            cuts = sorted(rng.randint(0, 6) for _ in range(n - 1))
            parts = [a - b for a, b in zip(cuts + [6], [0] + cuts)]
            if all(p == 0 for p in parts[:-1]) and rng.random() < 0.5:
                parts = [2] * (n - 1) + [6 - 2 * (n - 1)]
            rows.append(tuple(Fraction(p, 6) for p in parts))
        labels = tuple((chr(97 + i),) for i in range(n))
        mat_entries = tuple(tuple(int(e * 6) for e in row) for row in rows)
        probe = AdjMatrix(labels, sparse(mat_entries))
        from multishift.spectral import is_irreducible
        if not is_irreducible(probe):
            continue
        # stationary via exact solve on the probe chain
        from multishift.ratfield import solve_numeric
        mt = [[rows[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        mt[-1] = [Fraction(1)] * n
        rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
        stat = tuple(solve_numeric(mt, rhs))
        sm = StochMat(labels, sparse(rows), stat, True)
        lifted = lift_rational_stochastic(sm)
        vec = perron_vectors(spec_from_matrix(lifted.entries))
        assert vec.exact
        back = shannon_parry_matrix(lifted, vec.root.scalar(),
                                    vec.left_normalized, vec.right)
        assert back.rows == sm.rows
        assert back.stationary == sm.stationary


def test_escape_counts_published():
    spec = spec_from_matrix([[0, 2], [1, 1]])
    hole = Cylinder.from_edges([("0", "1", 2), ("1", "1", 1)])
    rep = escape_report(spec, hole, n_max=12)
    assert rep.counts[2] == 7
    assert rep.tau[1] == 6          # counts with the word forbidden, length 3
    assert rep.word_weight == 2
    assert rep.survivor_rate > rep.tau_rate
    assert rep.escape_rate is not None and rep.escape_rate > 0


def test_escape_brute_force_cross_check():
    spec = spec_from_matrix([[0, 2], [1, 1]])
    mat = adjacency_matrix(spec)
    hole = Cylinder.from_edges([("0", "1", 2), ("1", "1", 1)])
    rep = escape_report(spec, hole, n_max=8)
    edges = [(i, j, b) for i in range(2) for j in range(2)
             for b in range(1, mat.entries[i][j] + 1)]
    target = [(0, 1, 2), (1, 1, 1)]
    for n in range(1, 9):
        count = 0
        for path in itertools.product(edges, repeat=n):
            if any(path[k][1] != path[k + 1][0] for k in range(n - 1)):
                continue
            if any(list(path[k:k + 2]) == target for k in range(n - 1)):
                continue
            count += 1
        assert count == rep.counts[n]


def test_escape_weight_one_hole_matches_oracle():
    spec = eigen_spec()
    hole = Cylinder.from_edges([("00", "01", 1), ("01", "11", 1)])
    rep = escape_report(spec, hole, n_max=8)
    assert rep.word_weight == 1
    assert rep.counts_match_tau


def test_escape_everything_hole():
    # the one edge is the hole: block 0 with its loop, and block 1 with
    # no edge at all
    spec = validate_spec("01", ["01", "10", "11"])
    hole = Cylinder.from_edges([("0", "0", 1)])
    rep = escape_report(spec, hole, n_max=6, allow_reducible=True)
    assert rep.counts == (1, 0, 0, 0, 0, 0, 0)


def test_pushforward_uniform_multiplicities_match_binary_measure():
    # every allowed length-2 word repeated with one weight: the projected
    # measure coincides with the plain binary-matrix measure
    spec = validate_spec("01", ["11"], [("00", 3), ("01", 3), ("10", 3)])
    ctx = MeasureContext(spec)
    for length in range(1, 6):
        for vid in itertools.product(range(2), repeat=length + 1):
            labels = ctx.mat.labels
            if any(ctx.mat.entries[a][b] == 0 for a, b in zip(vid, vid[1:])):
                continue
            verts = tuple(labels[i] for i in vid)
            push = cylinder_measure(ctx, Cylinder(verts, None), "markov")
            hat = cylinder_measure(ctx, Cylinder(verts, None), "parry")
            assert abs(push.value - hat.value) <= 1e-12


def test_pushforward_can_coincide_with_uneven_multiplicities():
    # matching-ratio multiplicities reproduce the binary measure even
    # though they are not all equal
    spec = validate_spec("01", ["11"], [("00", 2), ("10", 4)])
    ctx = MeasureContext(spec)
    verts = (ctx.mat.labels[0], ctx.mat.labels[0])
    push = cylinder_measure(ctx, Cylinder(verts, None), "markov")
    hat = cylinder_measure(ctx, Cylinder(verts, None), "parry")
    assert abs(push.value - hat.value) <= 1e-12


def test_pushforward_differs_in_general():
    spec = validate_spec("01", ["11"], [("01", 2)])
    ctx = MeasureContext(spec)
    verts = (ctx.mat.labels[0], ctx.mat.labels[0])
    push = cylinder_measure(ctx, Cylinder(verts, None), "markov")
    hat = cylinder_measure(ctx, Cylinder(verts, None), "parry")
    assert abs(push.value - hat.value) > 1e-3


def test_measures_random_specs(rng):
    for want_nonreduced in (False, True):
        for _ in range(2):
            spec = random_spec(rng, want_nonreduced)
            ctx = MeasureContext(spec)
            assert kolmogorov_report(ctx, 3)["violations"] == []
            assert pushforward_report(ctx, 3)["violations"] == []


def test_all_routes_agree_on_short_cylinders():
    # exact pipeline and a float pipeline with a certified witness
    for spec in (eigen_spec(), validate_spec("01", ["00"], [("110", 2), ("01", 3)])):
        ctx = MeasureContext(spec)
        mat = ctx.mat
        for length in range(1, 4):
            for vid in itertools.product(range(mat.size), repeat=length + 1):
                if any(mat.entries[a][b] == 0 for a, b in zip(vid, vid[1:])):
                    continue
                verts = tuple(mat.labels[i] for i in vid)
                cyl = Cylinder(verts, (1,) * length)
                vals = [cylinder_measure(ctx, cyl, r).value for r in EDGE_ROUTES]
                assert max(vals) - min(vals) <= 1e-9


def test_pushforward_is_identity_without_repeats():
    # no repeated words: one branch everywhere, projected and edge
    # measures are literally the same numbers
    ctx = MeasureContext(validate_spec("01", ["010"], []))
    mat = ctx.mat
    for length in range(1, 4):
        for vid in itertools.product(range(mat.size), repeat=length + 1):
            if any(mat.entries[a][b] == 0 for a, b in zip(vid, vid[1:])):
                continue
            verts = tuple(mat.labels[i] for i in vid)
            vertex = cylinder_measure(ctx, Cylinder(verts, None), "markov")
            edge = cylinder_measure(ctx, Cylinder(verts, (1,) * length), "shannon_parry")
            assert abs(vertex.value - edge.value) <= 1e-12


def test_escape_with_extension_needed():
    # repeated word shorter than the longest forbidden word: counts are
    # taken on the extended collections, where the oracle check applies
    spec = validate_spec("01", ["0000"], [("01", 2)])
    hole = Cylinder.from_edges([("111", "111", 1)])
    rep = escape_report(spec, hole, n_max=8)
    assert rep.word_weight == 1
    assert rep.counts_match_tau
    assert rep.escape_rate > 0


def test_escape_solves_the_core_of_the_spec_not_of_its_extension(monkeypatch):
    # the extension (core order 5) only supplies the weights and the spec
    # with the hole word forbidden; the root is solved on the spec's core
    orders = []
    cramer = RatMat.cramer

    def recorded(self, rhs):
        orders.append(self.nrows)
        return cramer(self, rhs)

    monkeypatch.setattr(RatMat, "cramer", recorded)
    spec = load_fixture("extension")
    rep = escape_report(spec, Cylinder.from_edges([("111", "111", 1)]), n_max=8)
    assert rep.counts_match_tau
    assert orders and set(orders) == {2}


@st.composite
def escape_cases(draw):
    """A spec, from ``small_specs`` or a ``family_spec`` draw, whose
    multigraph has at most 2000 edges, and a hole of 1-3 edges along a
    walk in it, each branch drawn from 1..A_vj."""
    if draw(st.booleans()):
        spec = draw(small_specs())
    else:
        family = draw(st.sampled_from(("short_forbidden", "unit_repeated", "nonreduced")))
        spec = family_spec(random.Random(draw(st.integers(0, 10 ** 6))), family)
    try:
        mat = adjacency_matrix(spec)
    except SpecError:
        reject()
    if sum(mat.row_sums()) > 2000:
        reject()
    walk, branches = [draw(st.sampled_from(range(mat.size)))], []
    for _ in range(draw(st.integers(1, 3))):
        if not mat.successors[walk[-1]]:
            reject()
        j, e = draw(st.sampled_from(mat.successors[walk[-1]]))
        walk.append(j)
        branches.append(draw(st.integers(1, e)))
    return spec, Cylinder(tuple(mat.labels[i] for i in walk), tuple(branches))


@settings(max_examples=150, deadline=None)
@given(escape_cases(), st.integers(1, 6))
def test_weighted_escape_transfer_equals_the_per_branch_reference(case, n_max):
    spec, hole = case
    an = spectral.Analysis(spec, allow_reducible=True)
    try:
        an.root
    except EmptyShiftError:
        reject()  # a block graph without a cycle has no root, and the report refuses it
    rep = escape_report(an, hole, n_max)
    assert rep.counts == reference_escape_counts(adjacency_matrix(spec), hole, n_max)


@pytest.mark.parametrize("edges", [
    [("0", "0", 2)],                                  # a loop
    [("0", "0", 3), ("0", "0", 3)],                   # one edge twice
    [("0", "0", 1), ("0", "0", 3)],                   # two branches of one block pair
    [("0", "0", 2), ("0", "1", 1), ("1", "0", 1)],    # a loop entering a cycle
    [("0", "1", 1), ("1", "0", 1), ("0", "0", 2)],
    [("0", "0", 1), ("0", "0", 3), ("0", "0", 1)],    # an edge word that overlaps itself
    [("0", "0", 2), ("0", "0", 2), ("0", "0", 3), ("0", "0", 2), ("0", "0", 2)],
])
def test_weighted_escape_transfer_on_a_looped_block(edges):
    # block 0 has a loop of three branches
    spec = validate_spec("01", ["11"], [("00", 3)])
    hole = Cylinder.from_edges(edges)
    rep = escape_report(spec, hole, n_max=7)
    assert rep.counts == reference_escape_counts(adjacency_matrix(spec), hole, 7)


# Reference: the checks evaluated cylinder by cylinder through the public
# measure routes; the grouped checks must reproduce them exactly.

def _all_vertex_paths(mat, n_edges):
    paths = [(i,) for i in range(mat.size)]
    for _ in range(n_edges):
        paths = [p + (j,) for p in paths for j in range(mat.size) if mat.entries[p[-1]][j]]
    return paths


def _value(ctx, report):
    return report.exact if ctx.exact else report.value


def reference_pushforward(ctx, n_max):
    labels = ctx.mat.labels
    checked, violations = 0, []
    for length in range(1, n_max + 1):
        for path in _all_vertex_paths(ctx.mat, length):
            verts = tuple(labels[i] for i in path)
            vertex_cyl = Cylinder(verts, None)
            lhs = cylinder_measure(ctx, vertex_cyl, "markov")
            rep = cylinder_measure(ctx, Cylinder(verts, (1,) * length), "shannon_parry")
            total = preimage_count(ctx, vertex_cyl) * _value(ctx, rep)
            checked += 1
            if not agree(total, _value(ctx, lhs)):
                violations.append({"word": "".join(vertex_cyl.word()),
                                   "pushforward": float(lhs.value),
                                   "preimage_sum": float(total)})
    return {"checked": checked, "violations": violations}


def reference_kolmogorov(ctx, n_max):
    labels = ctx.mat.labels
    checked, worst, violations = 0, 0.0, []
    for length in range(1, n_max + 1):
        for path in _all_vertex_paths(ctx.mat, length):
            verts = tuple(labels[i] for i in path)
            base = _value(ctx, cylinder_measure(ctx, Cylinder(verts, (1,) * length),
                                                "shannon_parry"))
            total = 0
            for j in range(ctx.mat.size):
                e = ctx.mat.entries[path[-1]][j]
                if e:
                    ext = cylinder_measure(
                        ctx, Cylinder(verts + (labels[j],), (1,) * (length + 1)),
                        "shannon_parry")
                    total += e * _value(ctx, ext)
            checked += 1
            worst = max(worst, abs(float(total - base)))
            if not agree(total, base):
                violations.append("".join(Cylinder(verts, None).word()))
    return {"checked": checked, "max_defect": worst, "violations": violations}


REFERENCE_SPECS = {name: load_fixture(name) for name in list_fixtures()
                   if is_irreducible(adjacency_matrix(load_fixture(name)))}
# a float root with three successors per block, where the order of a sum shows
REFERENCE_SPECS["three_successors"] = validate_spec("012", ["00"], [("12", 2), ("201", 3)])


def _block_order(mat):
    return ["".join(label) for label in mat.labels]


def _word_class(mat, word):
    """(length, last block) of a vertex word: its last p symbols are the
    label of the block it ends at."""
    p = len(mat.labels[0])
    return len(word) - p, word[-p:]


def kolmogorov_classes(ctx, n_max):
    """The per-path reference with its failing words mapped to their last
    blocks, in block order: the classes the grouped check decides."""
    ref = reference_kolmogorov(ctx, n_max)
    failing = {_word_class(ctx.mat, word)[1] for word in ref["violations"]}
    return {**ref, "violations": [b for b in _block_order(ctx.mat) if b in failing]}


def pushforward_classes(ctx, n_max):
    """The per-path reference with its failing words mapped to their
    (length, last block) classes, shortest first and in block order."""
    ref = reference_pushforward(ctx, n_max)
    failing = {_word_class(ctx.mat, v["word"]) for v in ref["violations"]}
    return {**ref, "violations": [(n, b) for n in range(1, n_max + 1)
                                  for b in _block_order(ctx.mat) if (n, b) in failing]}


def classes_of(report):
    """A push-forward report with each failing class as (length, block)."""
    return {**report, "violations": [(v["length"], v["block"]) for v in report["violations"]]}


def assert_matches_reference(ctx, got, want, n_max):
    """Compare an additivity report with its class-mapped reference: exact
    roots the whole report, float roots ``checked`` and ``violations``
    equal and ``max_defect`` within its rounding.

    Each side of one check is a cylinder measure, about one at most,
    computed in at most degree + n_max + 2 rounded operations.  The
    check per block and the reference per path round in different
    orders, so their defects may differ by a few ulps of one for each.
    """
    if ctx.exact:
        assert got == want
        return
    degree = max(len(row) for row in ctx.mat.successors)
    bound = 4 * (degree + n_max + 2) * sys.float_info.epsilon
    assert {**got, "max_defect": None} == {**want, "max_defect": None}
    assert abs(got["max_defect"] - want["max_defect"]) <= bound


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_grouped_checks_equal_per_cylinder_reference(name):
    ctx = MeasureContext(REFERENCE_SPECS[name])
    for n_max in (3, 4):
        assert_matches_reference(ctx, kolmogorov_report(ctx, n_max),
                                 kolmogorov_classes(ctx, n_max), n_max)
        assert classes_of(pushforward_report(ctx, n_max)) == pushforward_classes(ctx, n_max)


def _corrupt_rows(ctx, factor):
    rows = [list(row) for row in ctx.sp.rows]
    j, x = rows[0][0]
    rows[0][0] = (j, x * factor)
    ctx.sp = ctx.sp._replace(rows=tuple(map(tuple, rows)))
    return ("pushforward",)


def _corrupt_sign(ctx, factor):
    # a negative edge factor, which swaps the extremes of a class it maps
    return _corrupt_rows(ctx, -factor)


def _corrupt_right(ctx, factor):
    right = list(ctx.vectors.right)
    right[0] *= factor
    ctx.vectors = ctx.vectors._replace(right=tuple(right))
    return ("kolmogorov", "pushforward")


def _corrupt_stationary(ctx, factor):
    # the start factor of the push-forward product
    stationary = list(ctx.sp.stationary)
    stationary[0] *= factor
    ctx.sp = ctx.sp._replace(stationary=tuple(stationary))
    return ("pushforward",)


CORRUPTED_SPECS = {name: REFERENCE_SPECS[name]
                   for name in ("counting", "eigenvectors", "three_successors")}
# a float root on 27 blocks, with parallel edges
CORRUPTED_SPECS["q3_p4"] = validate_spec("012", [], [("0121", 2), ("22", 3)])
# an exact root with U = (0, 1): block 0, where every corruption sits,
# starts only paths that measure zero on both sides of either check
CORRUPTED_SPECS["reducible"] = validate_spec("01", ["10"], [("11", 2)])


@pytest.mark.parametrize("name", CORRUPTED_SPECS)
@pytest.mark.parametrize("corrupt", [_corrupt_rows, _corrupt_sign, _corrupt_right,
                                     _corrupt_stationary],
                         ids=["rows", "sign", "right", "stationary"])
def test_grouped_checks_list_the_same_violations(name, corrupt):
    ctx = MeasureContext(CORRUPTED_SPECS[name], allow_reducible=True)
    failing = corrupt(ctx, Fraction(1001, 1000) if ctx.exact else 1.001)
    if not ctx.vectors.left_normalized[0]:
        failing = ()
    got = {"kolmogorov": kolmogorov_report(ctx, 4),
           "pushforward": classes_of(pushforward_report(ctx, 4))}
    assert_matches_reference(ctx, got["kolmogorov"], kolmogorov_classes(ctx, 4), 4)
    assert got["pushforward"] == pushforward_classes(ctx, 4)
    for check in ("kolmogorov", "pushforward"):
        assert bool(got[check]["violations"]) == (check in failing)


def _path_classes(mat, n_max, keep):
    """(length, last block) classes of the vertex paths of 1..n_max edges
    that keep selects, in report order: by length, then block order."""
    return [(n, "".join(mat.labels[b])) for n in range(1, n_max + 1)
            for b in sorted({path[-1] for path in _all_vertex_paths(mat, n) if keep(path)})]


@pytest.mark.parametrize("factor", [1 + THETA_TOL / 2, 1 + 2 * THETA_TOL],
                         ids=["inside", "beyond"])
def test_pushforward_certificate_at_the_tolerance(factor):
    # a start factor just inside the relative tolerance passes on every
    # path; just beyond it, every class reached from that block fails
    ctx = MeasureContext(load_fixture("counting"))
    _corrupt_stationary(ctx, factor)
    got = classes_of(pushforward_report(ctx, 4))
    assert got == pushforward_classes(ctx, 4)
    want = _path_classes(ctx.mat, 4, lambda path: path[0] == 0) if factor > 1 + THETA_TOL else []
    assert got["violations"] == want


def test_small_relative_error_flagged_on_every_path_of_the_right_vector():
    # an absolute bound passes an error of 1e-6 once the cylinders are
    # small: at length 12 it flagged 72 of the 3325 failing additivity paths
    ctx = MeasureContext(load_fixture("counting"))
    assert not ctx.exact
    _corrupt_right(ctx, 1 + 1e-6)
    succ = ctx.mat.successors
    # both sides of the additivity check read V at the last block and at
    # its successors; the push-forward reads it at the last block only
    reaches = {i for i, row in enumerate(succ) if i == 0 or any(j == 0 for j, _ in row)}
    ended = {b for _, b in _path_classes(ctx.mat, 12, lambda path: path[-1] in reaches)}
    assert kolmogorov_report(ctx, 12)["violations"] == \
        [b for b in _block_order(ctx.mat) if b in ended]
    push = pushforward_report(ctx, 12)
    assert classes_of(push)["violations"] == \
        _path_classes(ctx.mat, 12, lambda path: path[-1] == 0)


def test_small_relative_error_flagged_on_every_path_through_a_markov_row():
    ctx = MeasureContext(load_fixture("counting"))
    j = ctx.sp.rows[0][0][0]
    _corrupt_rows(ctx, 1 + 1e-6)
    push = pushforward_report(ctx, 12)
    assert classes_of(push)["violations"] == \
        _path_classes(ctx.mat, 12, lambda path: (0, j) in zip(path, path[1:]))
    assert kolmogorov_report(ctx, 12)["violations"] == []


def _paths_up_to(mat, n_max):
    """Sum over n = 1..n_max of 1^T B^n 1 for the binary matrix B."""
    b = [list(row) for row in mat.binary().entries]
    n = len(b)
    power, total = [row[:] for row in b], 0
    for _ in range(n_max):
        total += sum(map(sum, power))
        power = [[sum(power[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return total


def test_additivity_check_cost_polynomial_in_length():
    # about 5e10 vertex paths of up to 40 edges: only a check per block
    # and a count per (block, length) can answer
    ctx = MeasureContext(load_fixture("counting"))
    report = kolmogorov_report(ctx, 40)
    assert report["checked"] == _paths_up_to(ctx.mat, 40)
    assert report["violations"] == []


def test_pushforward_check_cost_polynomial_in_length():
    ctx = MeasureContext(load_fixture("counting"))
    assert not ctx.exact
    report = pushforward_report(ctx, 40)
    assert report["checked"] == _paths_up_to(ctx.mat, 40)
    assert report["violations"] == []


def test_verify_counts_the_vertex_paths_once(monkeypatch):
    # measure_additivity and pushforward_equality report the same count of
    # vertex paths, which one DP per context and length gives
    made, stored = MeasureContext, []

    class Recording(dict):
        def __setitem__(self, n_max, total):
            stored.append(n_max)
            super().__setitem__(n_max, total)

    def recording(*args, **kwargs):
        ctx = made(*args, **kwargs)
        ctx._path_counts = Recording()
        return ctx

    monkeypatch.setattr(measures, "MeasureContext", recording)
    checks = {c.name: c for c in run_verification(load_fixture("counting"), max_n=7).checks}
    assert stored == [4]
    assert checks["measure_additivity"].detail.endswith("over 77 cylinders")
    assert checks["pushforward_equality"].detail == "77 vertex words"


def test_failing_checks_cost_polynomial_in_length():
    # of about 5e10 vertex paths of up to 40 edges, every one ending at
    # block 00 or 10 fails additivity and every one ending at 00 the
    # push-forward: only a decision per class can answer
    ctx = MeasureContext(load_fixture("counting"))
    _corrupt_right(ctx, 1 + 1e-6)
    kol = kolmogorov_report(ctx, 40)
    assert kol["violations"] == ["00", "10"]
    assert kol["checked"] == 53406819682 == _paths_up_to(ctx.mat, 40)
    push = pushforward_report(ctx, 40)
    assert classes_of(push)["violations"] == [(n, "00") for n in range(1, 41)]
    # on block 00 the ratio is 1 / (1 + 1e-6) along every path, up to the
    # rounding of 41 factors each one to within its eigenvector's residual
    for v in push["violations"]:
        assert v["low"] <= v["high"]
        assert all(abs(x * (1 + 1e-6) - 1) <= 1e-10 for x in (v["low"], v["high"]))


def test_verify_names_the_failing_measure_classes(monkeypatch):
    made = MeasureContext

    def corrupted(*args, **kwargs):
        ctx = made(*args, **kwargs)
        _corrupt_right(ctx, 1 + 1e-6)
        _corrupt_rows(ctx, 1 + 1e-6)
        return ctx

    monkeypatch.setattr(measures, "MeasureContext", corrupted)
    checks = {c.name: c for c in run_verification(load_fixture("counting")).checks}
    kol, push = checks["measure_additivity"], checks["pushforward_equality"]
    assert not kol.passed and not push.passed
    assert kol.detail == "max defect 6.52e-08 over 77 cylinders; failing blocks 00, 10"
    assert push.detail == "77 vertex words; failing classes 1:00, 2:00, 2:01, 3:00, 3:01, …"
