"""The one-pass kernels of n-ary independence nodes (``dtree._fold``)
against the pairwise ``convolve`` fold they replace and against the
possible-worlds oracle."""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcdb import algebra as alg
from pvcdb import dtree, prob
from pvcdb.algebra import INF, NEG_INF, U64_MAX, Cmp, Const, MonoidKind, SemiringKind, Var
from pvcdb.dtree import ProdNode, SumNode, VarLeaf, distribution
from pvcdb.errors import ArithmeticOverflow
from pvcdb.oracle import brute_distribution
from pvcdb.prob import (
    PRUNE_EPS,
    Distribution,
    boolean_fold,
    convolve,
    extreme_fold,
    sum_fold,
)

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL

# Deterministic, with no example database written next to the tests.
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def dists(draw, values, max_size, sub_normalised=False):
    """A distribution over 1..max_size distinct draws from ``values``;
    with ``sub_normalised``, possibly with some mass removed, as pruning
    leaves it."""
    support = draw(st.lists(values, min_size=1, max_size=max_size, unique=True))
    weights = draw(
        st.lists(st.floats(1e-6, 1.0), min_size=len(support), max_size=len(support))
    )
    mass = draw(st.floats(0.3, 1.0)) if sub_normalised and draw(st.booleans()) else 1.0
    total = sum(weights)
    return Distribution((v, mass * w / total) for v, w in zip(support, weights))


def _pairwise(ds, op):
    """The right-nested pairwise chain, last child first."""
    return functools.reduce(lambda acc, p: convolve(p, acc, op), ds[-2::-1], ds[-1])


def _assert_close(got, want, tol):
    for v in set(got.support) | set(want.support):
        assert abs(got[v] - want[v]) <= tol, (v, got, want)


def _assert_emitted_well(d):
    values = [v for v, _ in d.entries]
    assert values == sorted(values) and len(set(values)) == len(values)
    assert all(p > PRUNE_EPS for _, p in d.entries)


def _mass(ds):
    return functools.reduce(operator.mul, (d.total_mass() for d in ds))


# Boolean children: one point or both values, with masses down to 1e-9
# so that products fall below PRUNE_EPS.
boolean_children = st.lists(
    st.one_of(
        st.sampled_from([Distribution.point(0), Distribution.point(1)]),
        dists(st.sampled_from([0, 1]), 2, sub_normalised=True),
        st.floats(1e-9, 1e-3).map(lambda q: Distribution([(0, 1 - q), (1, q)])),
        st.floats(1e-9, 1e-3).map(lambda q: Distribution([(0, q), (1, 1 - q)])),
    ),
    min_size=1,
    max_size=12,
)


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1 - 1e-6))


class TestBooleanFold:
    @SETTINGS
    @given(boolean_children, st.booleans())
    def test_matches_pairwise_convolution(self, ds, disjunction):
        got = boolean_fold(ds, disjunction)
        _assert_emitted_well(got)
        assert set(got.support) <= {0, 1}
        _assert_close(got, _pairwise(ds, B.add if disjunction else B.mul), 1e-12)
        # No total - part difference: sub-normalised children keep the
        # product of their masses.
        assert got.total_mass() == pytest.approx(_mass(ds), abs=1e-12)

    def test_no_rounding_residue(self):
        # 1 - (1 - p)^n style differences leave ~1e-16 entries behind;
        # the two accumulators never subtract.
        ds = [Distribution([(0, 0.1), (1, 0.9)])] * 20
        assert boolean_fold(ds, True).entries == ((1, 1.0),)
        ds = [Distribution([(0, 0.9), (1, 0.1)])] * 20
        assert boolean_fold(ds, False).entries == ((0, 1.0),)

    @SETTINGS
    @given(
        st.lists(st.lists(probabilities, min_size=1, max_size=4), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_nested_sums_and_products_match_the_oracle(self, groups, sum_of_products):
        # One variable per probability; p = 0 or 1 gives a one-point
        # distribution.
        var_dists, parts = {}, []
        for group in groups:
            names = []
            for p in group:
                name = "x%d" % len(var_dists)
                entries = [(v, q) for v, q in ((0, 1.0 - p), (1, p)) if q > 0]
                var_dists[name] = Distribution(entries)
                names.append(Var(name))
            parts.append(alg.make_product(names) if sum_of_products else alg.make_sum(names))
        expr = alg.make_sum(parts) if sum_of_products else alg.make_product(parts)
        got = distribution(dtree.compile(expr, var_dists, B), B)
        _assert_emitted_well(got)
        _assert_close(got, brute_distribution(expr, var_dists, B), 1e-9)

    @pytest.mark.parametrize("disjunction", [True, False])
    def test_dtree_nodes_take_the_boolean_fold(self, disjunction):
        leaves = [VarLeaf("x%d" % i, Distribution([(0, 0.5), (1, 0.5)])) for i in range(3)]
        node = SumNode(leaves) if disjunction else ProdNode(leaves)
        want = (1, 0.875) if disjunction else (0, 0.875)
        assert want in distribution(node, B).entries


small_sums = st.one_of(
    dists(st.integers(0, 20), 1),
    dists(st.integers(0, 20), 2, sub_normalised=True),
    dists(st.integers(0, 40), 6, sub_normalised=True),
)


class TestAscendingSum:
    @SETTINGS
    @given(st.lists(small_sums, min_size=2, max_size=25))
    def test_dense_fold_in_ascending_span_matches_pairwise(self, ds):
        with pytest.MonkeyPatch.context() as mp:
            # The list is exact at any width; lift the cost bound so
            # that every fold here takes it.
            mp.setattr(prob, "_DENSE_PAIR_RATIO", float("inf"))
            ordered = sorted(ds, key=dtree._span)
            got = sum_fold(ordered)
            node = SumNode([VarLeaf("x%d" % i, d) for i, d in enumerate(ds)], MonoidKind.SUM)
            via_node = distribution(node, B)
        _assert_emitted_well(got)
        assert via_node.entries == got.entries
        _assert_close(got, _pairwise(ds, operator.add), 1e-12)
        assert got.total_mass() == pytest.approx(_mass(ds), abs=1e-12)

    @SETTINGS
    @given(st.lists(small_sums, min_size=2, max_size=25))
    def test_either_path_matches_pairwise_at_the_default_cost_bound(self, ds):
        node = SumNode([VarLeaf("x%d" % i, d) for i, d in enumerate(ds)], MonoidKind.COUNT)
        got = distribution(node, B)
        _assert_emitted_well(got)
        _assert_close(got, _pairwise(ds, operator.add), 1e-12)


class TestOverflowNearU64Max:
    @SETTINGS
    @given(
        st.lists(st.integers(-8, 8), min_size=2, max_size=5),
        st.lists(st.floats(0.1, 0.9), min_size=5, max_size=5),
    )
    def test_checked_pairwise_fallback(self, offsets, probs):
        # Tops that add up to about U64_MAX: the dense list declines and
        # the pairwise fold checks the pairs whose sum passes 64 bits.
        n = len(offsets)
        tops = [U64_MAX // n + k for k in offsets]
        ds = [Distribution([(0, 1 - p), (t, p)]) for t, p in zip(tops, probs)]
        node = SumNode([VarLeaf("x%d" % i, d) for i, d in enumerate(ds)], MonoidKind.SUM)
        if sum(tops) > U64_MAX:
            with pytest.raises(ArithmeticOverflow):
                distribution(node, B)
        else:
            got = distribution(node, B)
            assert got.support[-1] == sum(tops)
            _assert_close(got, _pairwise(ds, operator.add), 1e-12)

    def test_natural_sum_past_u64_raises(self):
        expr = alg.make_sum([Var("x"), Var("y")])
        big = Distribution([(0, 0.5), (2**63, 0.5)])
        with pytest.raises(ArithmeticOverflow):
            distribution(dtree.compile(expr, {"x": big, "y": big}, N), N)


class TestNaturalSum:
    @SETTINGS
    @given(st.lists(dists(st.integers(0, 6), 4), min_size=2, max_size=6), st.integers(0, 3))
    def test_matches_the_oracle_and_pairwise(self, ds, constant):
        var_dists = {"x%d" % i: d for i, d in enumerate(ds)}
        parts = [Var(name) for name in var_dists]
        if constant:
            parts.append(alg.Const(constant))
        expr = alg.make_sum(parts)
        tree = dtree.compile(expr, var_dists, N)
        assert isinstance(tree, SumNode) and tree.kind is None
        got = distribution(tree, N)
        _assert_emitted_well(got)
        _assert_close(got, brute_distribution(expr, var_dists, N), 1e-9)
        leaves = [Distribution.point(constant)] if constant else []
        _assert_close(got, _pairwise(ds + leaves, N.add), 1e-12)


# Few distinct values, so that children share them, and both infinities.
extreme_values = st.one_of(st.integers(0, 8), st.sampled_from([INF, NEG_INF]))

extreme_children = st.lists(
    st.one_of(
        dists(extreme_values, 1),
        dists(extreme_values, 4, sub_normalised=True),
        # Masses down to 1e-9, so that products fall below PRUNE_EPS.
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.floats(1e-9, 1e-3)).map(
            lambda t: Distribution.from_pairs([(t[0], 1 - t[2]), (t[1], t[2])])
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestExtremeFold:
    """MIN and MAX fold in one sweep (``prob.extreme_fold``)."""

    @SETTINGS
    @given(extreme_children, st.booleans())
    def test_matches_pairwise_convolution(self, ds, largest):
        got = extreme_fold(ds, largest)
        _assert_emitted_well(got)
        _assert_close(got, _pairwise(ds, max if largest else min), 1e-12)
        # Sub-normalised children keep the product of their masses.
        assert got.total_mass() == pytest.approx(_mass(ds), abs=1e-12)

    @SETTINGS
    @given(dists(extreme_values, 6, sub_normalised=True), st.booleans())
    def test_one_child_gives_back_its_entries(self, d, largest):
        assert extreme_fold([d], largest).entries == d.entries

    @SETTINGS
    @given(
        st.lists(
            st.lists(st.one_of(st.integers(0, 5), st.sampled_from([INF, NEG_INF])),
                     min_size=1, max_size=3),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.floats(0.05, 1.0), min_size=18, max_size=18),
        st.sampled_from([MonoidKind.MIN, MonoidKind.MAX]),
    )
    def test_sum_nodes_match_the_oracle(self, tables, weights, kind):
        # Variable x_i takes the values 0..k-1, and at value k the i-th
        # child of the sum is tables[i][k]: one multi-valued leaf each.
        var_dists, groups = {}, []
        it = iter(weights)
        for i, table in enumerate(tables):
            name = "x%d" % i
            w = [next(it) for _ in table]
            var_dists[name] = Distribution((k, q / sum(w)) for k, q in enumerate(w))
            groups.append(
                alg.make_msum(kind, [
                    alg.make_scaled(kind, Cmp(Var(name), "=", Const(k)), v)
                    for k, v in enumerate(table)
                ])
            )
        expr = alg.make_msum(kind, groups)
        tree = dtree.compile(expr, var_dists, N)
        got = distribution(tree, N)
        _assert_emitted_well(got)
        _assert_close(got, brute_distribution(expr, var_dists, N), 1e-9)
        if isinstance(tree, SumNode):
            assert tree.kind is kind
            children = [distribution(c, N) for c in tree.parts]
            assert got.entries == extreme_fold(children, kind is MonoidKind.MAX).entries
            _assert_close(got, _pairwise(children, max if kind is MonoidKind.MAX else min), 1e-12)

    @pytest.mark.parametrize("largest", [True, False])
    def test_thousands_of_children_do_not_underflow(self, largest):
        # Every child is at its neutral end with mass 1/2 and takes one
        # value of its own otherwise: the product of the children's
        # swept mass falls to 2**-3000 before the sweep meets the values
        # that carry the result.
        n = 3000
        neutral = NEG_INF if largest else INF
        ds = [Distribution([(neutral, 0.5), (v, 0.5)]) for v in range(n)]
        got = extreme_fold(ds, largest)
        _assert_emitted_well(got)
        # The k-th value from the far end has mass 0.5 ** (k + 1), exact
        # in binary; 0.5 ** 49 is the least above PRUNE_EPS.
        far = [(n - 1 - k if largest else k, 0.5 ** (k + 1)) for k in range(49)]
        assert got.entries == tuple(sorted(far))

    def test_no_child_takes_a_value_below_the_others_least(self):
        # A child whose mass lies wholly above every other child's
        # values decides a MAX alone: the others' masses only scale it.
        low = Distribution([(1, 0.25), (2, 0.25)])
        high = Distribution([(5, 0.75), (6, 0.25)])
        got = extreme_fold([low, high, low], True)
        assert got.entries == ((5, 0.75 * 0.25), (6, 0.25 * 0.25))
