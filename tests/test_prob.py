import functools
import operator
import random

import pytest

from pvcdb import prob
from pvcdb.algebra import INF, NEG_INF, THETAS, MonoidKind, SemiringKind, compare, scale
from pvcdb.errors import LengthMismatch, UnorderedCarrier, WeightSumOutOfTolerance
from pvcdb.prob import (
    Distribution,
    compare_convolve,
    convolve,
    extreme_fold,
    format_distribution,
    mix,
    parse_distribution,
    sum_fold,
)

B = SemiringKind.BOOLEAN


def coin(p=0.5):
    return Distribution([(0, 1 - p), (1, p)])


def rand_dist(rng, size, hi=30):
    values = rng.sample(range(hi), size)
    weights = [rng.random() + 1e-3 for _ in values]
    total = sum(weights)
    return Distribution((v, w / total) for v, w in zip(values, weights))


class TestDistribution:
    def test_sorted_unique_positive(self):
        d = Distribution([(3, 0.2), (1, 0.8)])
        assert d.support == (1, 3)
        with pytest.raises(ValueError):
            Distribution([(1, 0.5), (1, 0.5)])
        with pytest.raises(ValueError):
            Distribution([(1, 0.0)])

    def test_from_pairs_accumulates(self):
        d = Distribution.from_pairs([(1, 0.25), (1, 0.25), (2, 0.5)])
        assert d[1] == pytest.approx(0.5)

    def test_normalization_check(self):
        coin().check_normalized()
        with pytest.raises(WeightSumOutOfTolerance):
            Distribution([(0, 0.5), (1, 0.4)]).check_normalized()


class TestConvolve:
    def test_boolean_or(self):
        # 1 - (1-p)(1-q) by direct enumeration of the four value pairs
        out = convolve(coin(), coin(), B.add)
        assert out[1] == pytest.approx(0.75)
        assert out[0] == pytest.approx(0.25)

    def test_scaling_convolution(self):
        p_x = Distribution([(0, 0.3), (1, 0.3), (2, 0.4)])
        p_a = Distribution([(5, 0.4), (10, 0.4), (15, 0.2)])
        out = convolve(p_x, p_a, lambda s, m: scale(s, m, MonoidKind.SUM))
        assert out[10] == pytest.approx(0.28)
        assert out.support == (0, 5, 10, 15, 20, 30)
        assert out.total_mass() == pytest.approx(1.0)

    def test_multiplicative_identity(self):
        p = rand_dist(random.Random(3), 5)
        out = convolve(p, Distribution.point(1), SemiringKind.NATURAL.mul)
        assert out.close_to(p, 1e-12)

    def test_mass_conservation_randomized(self):
        rng = random.Random(17)
        for _ in range(50):
            p = rand_dist(rng, rng.randint(1, 8))
            q = rand_dist(rng, rng.randint(1, 8))
            out = convolve(p, q, SemiringKind.NATURAL.add)
            assert out.total_mass() == pytest.approx(p.total_mass() * q.total_mass(), abs=1e-9)

    def test_support_bounds(self):
        rng = random.Random(19)
        for _ in range(50):
            p = rand_dist(rng, rng.randint(1, 6))
            q = rand_dist(rng, rng.randint(1, 6))
            assert len(convolve(p, q, SemiringKind.NATURAL.add)) <= len(p) * len(q)
            merged = set(p.support) | set(q.support)
            out = convolve(p, q, MonoidKind.MIN.plus)
            assert len(out) <= len(merged)
            assert set(out.support) <= merged

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(23)
        for _ in range(30):
            p = rand_dist(rng, rng.randint(1, 6))
            q = rand_dist(rng, rng.randint(1, 6))
            table = {}
            for a, pa in p:
                for b, qb in q:
                    table[a + b] = table.get(a + b, 0.0) + pa * qb
            out = convolve(p, q, SemiringKind.NATURAL.add)
            assert all(abs(out[v] - m) <= 1e-12 for v, m in table.items())


class TestCompareConvolve:
    def test_deterministic_comparison(self):
        out = compare_convolve(Distribution.point(10), Distribution.point(50), "<=")
        assert out.entries == ((1, 1.0),)

    def test_mixed_comparison(self):
        p = Distribution([(5, 0.4), (10, 0.6)])
        out = compare_convolve(p, Distribution.point(7), "<=")
        assert out[1] == pytest.approx(0.4)
        assert out[0] == pytest.approx(0.6)

    def test_equal_points_not_equal(self):
        out = compare_convolve(Distribution.point(3), Distribution.point(3), "!=")
        assert out.entries == ((0, 1.0),)

    def test_outcomes_sum_to_one(self):
        rng = random.Random(29)
        for theta in ("<=", ">=", "=", "!=", "<", ">"):
            p = rand_dist(rng, 5)
            q = rand_dist(rng, 4)
            out = compare_convolve(p, q, theta)
            assert out.total_mass() == pytest.approx(1.0)

    def test_unordered_carrier(self):
        p = Distribution.point((1, 2))
        with pytest.raises(UnorderedCarrier):
            compare_convolve(p, p, "<=")


def _assert_well_formed(d):
    """The invariant that kernel outputs keep without being checked."""
    values = [v for v, _ in d.entries]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert all(p > 0 for _, p in d.entries)


def _assert_same(got, want, tol=1e-12):
    _assert_well_formed(got)
    assert got.support == want.support
    for (_, p), (_, q) in zip(got.entries, want.entries):
        assert abs(p - q) <= tol


def _scaled_term(rng, sk, kind, values):
    """The distribution of one ``x (x) v`` term: a variable of the
    semiring scaling a value drawn from ``values``."""
    if sk is SemiringKind.BOOLEAN:
        x = coin(rng.uniform(0.05, 0.95))
    else:
        x = rand_dist(rng, rng.randint(1, 3), hi=4)
    return convolve(x, Distribution.point(rng.choice(values)), lambda s, m: scale(s, m, kind))


def _sub_normalised(rng, d):
    """``d`` with some mass removed, as pruning leaves it."""
    keep = rng.uniform(0.5, 1.0)
    return Distribution((v, p * keep) for v, p in d.entries)


SEMIRINGS = [SemiringKind.BOOLEAN, SemiringKind.NATURAL]


class TestSumFold:
    """The dense SUM/COUNT fold against the pairwise chain it replaces."""

    @staticmethod
    def _pairwise(dists):
        return functools.reduce(lambda acc, p: convolve(p, acc, operator.add), dists[1:], dists[0])

    @pytest.mark.parametrize("sk", SEMIRINGS, ids=["bool", "nat"])
    def test_scaled_terms_match_pairwise(self, sk):
        # Short folds of sparse supports stay pairwise (None); the rest
        # must agree with the pairwise chain.
        rng = random.Random(41)
        dense = 0
        for _ in range(40):
            kind = rng.choice([MonoidKind.SUM, MonoidKind.COUNT])
            values = [1] if kind is MonoidKind.COUNT else range(0, 12)
            dists = [_scaled_term(rng, sk, kind, values) for _ in range(rng.randint(2, 40))]
            got = sum_fold(dists)
            if got is not None:
                dense += 1
                _assert_same(got, self._pairwise(dists))
        assert dense >= 20

    def test_multi_valued_and_sub_normalised(self, monkeypatch):
        # The list is exact at any width; lift the cost bound so that
        # every fold here takes it.
        monkeypatch.setattr(prob, "_DENSE_PAIR_RATIO", float("inf"))
        rng = random.Random(43)
        for _ in range(30):
            dists = []
            for _ in range(rng.randint(2, 12)):
                d = rand_dist(rng, rng.randint(1, 6), hi=15)
                dists.append(_sub_normalised(rng, d) if rng.random() < 0.3 else d)
            got = sum_fold(dists)
            assert got is not None
            _assert_same(got, self._pairwise(dists))
            mass = functools.reduce(operator.mul, (d.total_mass() for d in dists))
            assert got.total_mass() == pytest.approx(mass, abs=1e-12)

    def test_points_shift_the_sum(self):
        dists = [Distribution.point(7), coin(0.25), Distribution.point(3)]
        assert sum_fold(dists).entries == ((10, 0.75), (11, 0.25))

    def test_declines_sparse_and_non_integral_supports(self):
        wide = [Distribution([(0, 0.5), (2**40, 0.5)]) for _ in range(30)]
        assert sum_fold(wide) is None
        assert sum_fold([coin(), Distribution([(0, 0.5), (INF, 0.5)])]) is None
        assert sum_fold([Distribution.point(2**63), Distribution.point(2**63)]) is None


class TestExtremeConvolve:
    """The MIN/MAX merge against pairwise ``min``/``max``."""

    @pytest.mark.parametrize("sk", SEMIRINGS, ids=["bool", "nat"])
    @pytest.mark.parametrize("kind", [MonoidKind.MIN, MonoidKind.MAX])
    def test_scaled_terms_match_pairwise(self, sk, kind):
        rng = random.Random(47)
        op = min if kind is MonoidKind.MIN else max
        for _ in range(30):
            p = _scaled_term(rng, sk, kind, range(20))
            for _ in range(rng.randint(1, 6)):
                q = _scaled_term(rng, sk, kind, range(20))
                _assert_same(extreme_fold([p, q], kind is MonoidKind.MAX), convolve(p, q, op))
                p = convolve(p, q, op)

    def test_multi_valued_infinite_and_sub_normalised(self):
        rng = random.Random(53)
        for _ in range(200):
            sides = []
            for _ in range(2):
                d = rand_dist(rng, rng.randint(1, 8), hi=12)
                extra = rng.sample([INF, NEG_INF], rng.randint(0, 2))
                if extra:
                    share = rng.uniform(0.1, 0.5)
                    d = Distribution(
                        [(v, p * (1 - share)) for v, p in d.entries]
                        + [(v, share / len(extra)) for v in extra]
                    )
                sides.append(_sub_normalised(rng, d) if rng.random() < 0.3 else d)
            p, q = sides
            _assert_same(extreme_fold([p, q], False), convolve(p, q, min))
            _assert_same(extreme_fold([p, q], True), convolve(p, q, max))

    def test_disjoint_supports(self):
        low = Distribution([(1, 0.5), (2, 0.5)])
        high = Distribution([(5, 0.25), (6, 0.75)])
        assert extreme_fold([low, high], False).entries == low.entries
        assert extreme_fold([low, high], True).entries == high.entries


def _compare_reference(p, q, theta):
    true_mass = sum(pa * qb for a, pa in p for b, qb in q if compare(a, b, theta))
    false_mass = p.total_mass() * q.total_mass() - true_mass
    return Distribution([(k, m) for k, m in ((0, false_mass), (1, true_mass)) if m > 1e-15])


class TestCompareSweep:
    """``compare_convolve``'s sweep against every pair."""

    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_every_pair(self, theta):
        rng = random.Random(59)
        for _ in range(100):
            sides = []
            for _ in range(2):
                d = rand_dist(rng, rng.randint(1, 8), hi=10)
                if rng.random() < 0.3:
                    d = Distribution([(v, p * 0.5) for v, p in d.entries] + [(INF, 0.5)])
                sides.append(_sub_normalised(rng, d) if rng.random() < 0.3 else d)
            p, q = sides
            _assert_same(compare_convolve(p, q, theta), _compare_reference(p, q, theta))

    @pytest.mark.parametrize("sk", SEMIRINGS, ids=["bool", "nat"])
    def test_scaled_terms_against_constants(self, sk):
        rng = random.Random(61)
        for theta in THETAS:
            for _ in range(20):
                p = _scaled_term(rng, sk, MonoidKind.SUM, range(10))
                q = Distribution.point(rng.randint(0, 20))
                _assert_same(compare_convolve(p, q, theta), _compare_reference(p, q, theta))

    @pytest.mark.parametrize("theta", ["=", "!="])
    def test_tuple_carriers_match_values(self, theta):
        p = Distribution([((0, 0), 0.2), ((1, 3), 0.5), ((1, 4), 0.3)])
        q = Distribution([((1, 3), 0.6), ((2, 0), 0.4)])
        _assert_same(compare_convolve(p, q, theta), _compare_reference(p, q, theta))

    @pytest.mark.parametrize("theta", ["<=", ">=", "<", ">"])
    def test_tuple_carriers_are_unordered(self, theta):
        p = Distribution([((0, 0), 0.5), ((1, 3), 0.5)])
        with pytest.raises(UnorderedCarrier):
            compare_convolve(p, p, theta)


class TestKernelOutputs:
    def test_pairwise_combinators_are_well_formed(self):
        rng = random.Random(67)
        for _ in range(30):
            p, q = rand_dist(rng, rng.randint(1, 6)), rand_dist(rng, rng.randint(1, 6))
            _assert_well_formed(convolve(p, q, SemiringKind.NATURAL.add))
            _assert_well_formed(mix([0.4, 0.6], [p, q]))
            _assert_well_formed(Distribution.from_pairs(list(p) + list(q)))


class TestMix:
    def test_single_child(self):
        p = rand_dist(random.Random(5), 4)
        assert mix([1.0], [p]).close_to(p, 1e-12)

    def test_mixture_of_equal_children(self):
        p = rand_dist(random.Random(7), 5)
        out = mix([0.3, 0.7], [p, p])
        assert out.close_to(p, 1e-12)

    def test_two_branch_case_split(self):
        # combining the value-1 and value-2 branches of a case split on
        # one variable: the shared outcome 80 pools mass from both sides
        pa, pb, pc = 0.6, 0.3, 0.8
        left = Distribution(
            [(40, pa * pb), (50, pa * (1 - pb)), (60, (1 - pa) * pb), (80, (1 - pa) * (1 - pb))]
        )
        right = Distribution(
            [(70, pa * pb), (80, pa * (1 - pb)), (100, (1 - pa) * pb), (120, (1 - pa) * (1 - pb))]
        )
        out = mix([pc, 1 - pc], [left, right])
        assert out[80] == pytest.approx((1 - pa) * (1 - pb) * pc + pa * (1 - pb) * (1 - pc))
        assert out.total_mass() == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mix([1.0], [coin(), coin()])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightSumOutOfTolerance):
            mix([0.5, 0.4], [coin(), coin()])

    def test_mass_conservation_randomized(self):
        rng = random.Random(31)
        for _ in range(30):
            k = rng.randint(1, 5)
            raw = [rng.random() + 1e-3 for _ in range(k)]
            weights = [w / sum(raw) for w in raw]
            children = [rand_dist(rng, rng.randint(1, 6)) for _ in range(k)]
            assert mix(weights, children).total_mass() == pytest.approx(1.0)


class TestSerialization:
    def test_round_trip(self):
        d = Distribution([(INF, 0.25), (3, 0.5), (0, 0.25)])
        text = format_distribution(d)
        assert "+inf" in text
        assert parse_distribution(text).close_to(d, 1e-12)

    def test_sorted_lines(self):
        d = Distribution([(10, 0.5), (2, 0.5)])
        lines = format_distribution(d).splitlines()
        assert lines[0].startswith("2\t")
        assert lines[1].startswith("10\t")

    def test_tuple_values(self):
        d = Distribution([((1, 5), 0.5), ((0, 0), 0.5)])
        text = format_distribution(d)
        assert parse_distribution(text).close_to(d, 1e-12)
