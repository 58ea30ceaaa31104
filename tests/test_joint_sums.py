"""Joint-sum nodes (``dtree.JointSumNode``): a joint, or a product of
comparisons of sums, whose sums fall apart term by term, against
possible-worlds enumeration."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pvcdb import algebra as alg
from pvcdb import cli, dtree
from pvcdb.algebra import Cmp, Const, MConst, MonoidKind, SemiringKind, Var
from pvcdb.dtree import JointSumNode, VarLeaf, compile_joint, distribution, eval_dtree
from pvcdb.engine import answer_distributions
from pvcdb.oracle import brute_query
from pvcdb.prob import Distribution
from pvcdb.pvc import CONST, PvcDatabase, PvcTable

from test_dtree import all_valuations

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL

# Deterministic, with no example database written next to the tests.
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)

TOL = 1e-9


@st.composite
def universes(draw):
    """A semiring and distributions of 1 to 5 variables; under NATURAL
    some take the values 0, 1 and 2."""
    sk = draw(st.sampled_from([B, N]))
    dists = {}
    for i in range(draw(st.integers(1, 5))):
        if sk is N and draw(st.booleans()):
            w = draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
            dists["x%d" % i] = Distribution((k, w[k] / sum(w)) for k in range(3))
        else:
            p = draw(st.floats(0.05, 0.95))
            dists["x%d" % i] = Distribution([(0, 1 - p), (1, p)])
    return sk, dists


@st.composite
def sums(draw, names):
    """A semiring sum or a monoid sum over ``names``: mostly one variable
    per term, sometimes a product of two, sometimes a constant term."""
    kind = draw(st.sampled_from([None, *MonoidKind]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        weight = alg.make_product(
            [Var(n) for n in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))]
        )
        if draw(st.integers(0, 5)) == 0:
            weight = Const(1)
        if kind is None:
            terms.append(weight)
        else:
            value = 1 if kind is MonoidKind.COUNT else draw(st.integers(0, 4))
            terms.append(alg.make_scaled(kind, weight, value))
    return alg.make_sum(terms) if kind is None else alg.make_msum(kind, terms)


@st.composite
def comparisons(draw, sk, names):
    """``[sum theta bound]``, often against 0, sometimes mirrored; a
    Boolean semiring bound is 0 or 1."""
    side = draw(sums(names))
    bound = draw(st.sampled_from([0, 0, 1, 2, 3, 5]))
    if sk is B and not isinstance(side, alg.MExpr):
        bound = min(bound, 1)
    const = MConst(side.kind, bound) if isinstance(side, alg.MExpr) else Const(bound)
    theta = draw(st.sampled_from(alg.THETAS))
    if draw(st.integers(0, 3)) == 0:
        return Cmp(const, theta, side)
    return Cmp(side, theta, const)


@st.composite
def expressions(draw, sk, names):
    """A sum, a comparison of one with a constant, or a product of up to
    three such comparisons."""
    shape = draw(st.sampled_from(["sum", "cmp", "product"]))
    if shape == "sum":
        return draw(sums(names))
    if shape == "cmp":
        return draw(comparisons(sk, names))
    return alg.make_product(draw(st.lists(comparisons(sk, names), min_size=2, max_size=3)))


def _brute(exprs, dists, sk, scalar):
    acc = {}
    for nu in all_valuations(dists):
        weight = 1.0
        for n, value in nu.items():
            weight *= dists[n][value]
        values = tuple(e.eval(nu, sk) for e in exprs)
        key = values[0] if scalar else values
        acc[key] = acc.get(key, 0.0) + weight
    return acc


def _check(tree, exprs, dists, sk, scalar):
    """The tree agrees with enumeration on the distribution and reads
    back every valuation; over one variable it is one leaf."""
    dtree.validate(tree, dists)
    if len(frozenset().union(*(e.vars() for e in exprs))) == 1:
        assert isinstance(tree, VarLeaf) and dtree.node_count(tree) == 1, exprs
    got = distribution(tree, sk)
    want = _brute(exprs, dists, sk, scalar)
    for key in set(got.support) | set(want):
        assert abs(got[key] - want.get(key, 0.0)) <= TOL, (key, exprs)
    for nu in all_valuations(dists):
        values = tuple(e.eval(nu, sk) for e in exprs)
        assert eval_dtree(tree, nu, sk) == (values[0] if scalar else values)


def _has_joint_sum(tree):
    return any(isinstance(n, JointSumNode) for n in dtree._post_order(tree))


class TestAgainstEnumeration:
    @SETTINGS
    @given(st.data())
    def test_joints(self, data):
        sk, dists = data.draw(universes())
        names = sorted(dists)
        exprs = data.draw(st.lists(expressions(sk, names), min_size=1, max_size=3))
        _check(compile_joint(exprs, dists, sk), exprs, dists, sk, False)

    @SETTINGS
    @given(st.data())
    def test_products_of_comparisons(self, data):
        sk, dists = data.draw(universes())
        names = sorted(dists)
        expr = alg.make_product(
            data.draw(st.lists(comparisons(sk, names), min_size=2, max_size=3))
        )
        _check(dtree.compile(expr, dists, sk), [expr], dists, sk, True)

    @SETTINGS
    @given(
        st.sampled_from([B, N]),
        st.sampled_from(list(MonoidKind)),
        st.sampled_from(alg.THETAS),
        st.integers(0, 5),
        st.lists(st.tuples(st.floats(0.05, 0.95), st.integers(0, 4)), min_size=1, max_size=6),
    )
    def test_one_group_of_rows(self, sk, kind, theta, bound, rows):
        # The joint of a grouped aggregate after a selection on it, one
        # variable per row: every row is a component of its own.
        names = ["r%d" % i for i in range(len(rows))]
        dists = {n: Distribution([(0, 1 - p), (1, p)]) for n, (p, _) in zip(names, rows)}
        cell = alg.make_msum(
            kind, [alg.make_scaled(kind, Var(n), v) for n, (_, v) in zip(names, rows)]
        )
        presence = Cmp(alg.make_sum([Var(n) for n in names]), "!=", Const(0))
        phi = alg.make_product([presence, Cmp(cell, theta, MConst(kind, bound))])
        tree = compile_joint([phi, cell], dists, sk)
        assert dtree.mutex_count(tree) == 0
        if len(rows) > 1:
            assert _has_joint_sum(tree)
        _check(tree, [phi, cell], dists, sk, False)


def _small_grouped_db(seed, rows):
    """R(g, v) under NATURAL over one variable per row, every other one
    taking the values 0, 1 and 2."""
    rng = random.Random(seed)
    r = PvcTable("R", ("g", "v"), (CONST, CONST))
    dists = {}
    for i in range(rows):
        name = "x%d" % i
        r.add_row((rng.randrange(2), rng.randint(0, 3)), Var(name))
        if i % 2:
            w = [rng.uniform(0.1, 1.0) for _ in range(3)]
            dists[name] = Distribution([(k, w[k] / sum(w)) for k in range(3)])
        else:
            p = rng.uniform(0.2, 0.8)
            dists[name] = Distribution([(0, 1 - p), (1, p)])
    return PvcDatabase([r], dists, N)


class TestGroupedBagAggregates:
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 6),
        st.sampled_from(["count", "sum", "prod"]),
        st.one_of(st.none(), st.tuples(st.sampled_from(alg.THETAS), st.integers(0, 6))),
    )
    def test_match_brute_query(self, seed, rows, agg, selection):
        db = _small_grouped_db(seed, rows)
        text = "agg[g; m<-%s(v)](R)" % agg
        if selection is not None:
            text = "select[m%s%d](%s)" % (selection[0], selection[1], text)
        plan = cli.parse_query(text)
        _, answers = answer_distributions(plan, db)
        brute = brute_query(plan, db)
        for row in answers:
            want = {}
            for value, p in brute.dists.get((row.values[0],), [((0, 0), 1.0)]):
                value = value if value[0] else (0, 0)
                want[value] = want.get(value, 0.0) + p
            got = {}
            for value, p in row.joint:
                value = value if value[0] else (0, 0)
                got[value] = got.get(value, 0.0) + p
            for key in set(got) | set(want):
                assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= TOL, (text, key)
