import functools
import itertools
import math
import operator
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcdb import algebra as alg
from pvcdb import cli, dtree
from pvcdb.algebra import Cmp, Const, INF, MConst, MonoidKind, Scaled, SemiringKind, Var
from pvcdb.dtree import (
    ConstLeaf,
    MutexNode,
    SumNode,
    VarLeaf,
    choose_branch_variable,
    compile_joint,
    distribution,
    eval_dtree,
    mutex_count,
    node_count,
    prune,
    reduce_to_boolean,
    split_compare,
    split_product,
    split_scale,
    split_sum,
)
from pvcdb.engine import evaluate
from pvcdb.errors import (
    ArithmeticOverflow,
    BudgetExceeded,
    CarrierMismatch,
    NoVariables,
    WrongMonoid,
)
from pvcdb.exprtext import parse_expr
from pvcdb.oracle import brute_distribution
from pvcdb.prob import Distribution

from normal_form import equivalent, occurrences

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL


def coin(p=0.5):
    return Distribution([(0, 1 - p), (1, p)])


def tree_vars(d):
    """The variables of a tree: of its leaves and its mutex nodes."""
    return frozenset(
        n.name if isinstance(n, VarLeaf) else n.var
        for n in dtree._post_order(d)
        if isinstance(n, (VarLeaf, MutexNode))
    )


def one_two(p):
    return Distribution([(1, p), (2, 1 - p)])


def all_valuations(var_dists):
    names = sorted(var_dists)
    for combo in itertools.product(*(var_dists[v].support for v in names)):
        yield dict(zip(names, combo))


FIG_DISTS = {"a": one_two(0.6), "b": one_two(0.3), "c": one_two(0.8)}


class TestSplits:
    def test_sum_rule_splits_independent_summands(self):
        expr = parse_expr("sum{a*(b + 1)(x)10 + 1(x)20}")
        parts = split_sum(expr)
        assert parts is not None
        first, second = parts
        assert alg.variables(first) == {"a", "b"}
        assert alg.variables(second) == set()

    def test_shared_variables_block_all_rules(self):
        expr = parse_expr(
            "max{x4*y41*(z1 + z5)(x)15 + x4*y43*z3(x)60 + x5*y51*(z1 + z5)(x)10}"
        )
        for split in (split_sum, split_product, split_scale, split_compare):
            assert split(expr) is None

    def test_single_variable(self):
        assert split_sum(Var("x")) is None
        assert split_product(Var("x")) is None

    def test_product_rule_factors_common_variable(self):
        expr = parse_expr("x1*y11 + x1*y12")
        psi, rest = split_product(expr)
        assert alg.variables(psi) == {"x1"}
        assert equivalent(rest, parse_expr("y11 + y12"))

    def test_scalar_rule(self):
        expr = parse_expr("sum{a*b(x)10 + a(x)20}")
        psi, rest = split_scale(expr)
        assert alg.variables(psi) == {"a"}
        assert alg.variables(rest) == {"b"}

    def test_compare_rule(self):
        expr = parse_expr("[x + y <= z]")
        pair = split_compare(expr)
        assert pair is not None
        expr = parse_expr("[x + y <= x]")
        assert split_compare(expr) is None

    def test_scalar_rule_on_one_term(self):
        # The whole condition splits off; constant factors stay with the
        # value, as the rule for several terms would leave them.
        weight = parse_expr("(a + b)*c")
        psi, rest = split_scale(alg.Scaled(MonoidKind.MIN, weight, 4))
        assert psi is weight
        assert rest == MConst(MonoidKind.MIN, 4)
        scaled = alg.Scaled(MonoidKind.SUM, alg.make_product([Const(2), Var("a"), Var("b")]), 3)
        psi, rest = split_scale(scaled)
        assert equivalent(psi, parse_expr("a*b"))
        assert rest == MConst(MonoidKind.SUM, 6)
        assert split_scale(alg.Scaled(MonoidKind.SUM, Const(2), 3)) is None

    def test_connected_groups(self):
        x, y, z = 1, 2, 4
        keyed = [("a", x), ("k", 0), ("b", y)]
        assert dtree.connected_groups(keyed) == [["a"], ["k"], ["b"]]
        assert dtree.connected_groups(keyed, pool_keyless=True) == [["a"], ["b"], ["k"]]
        keyed.append(("c", y | x))
        assert dtree.connected_groups(keyed, pool_keyless=True) == [["a", "b", "c"], ["k"]]

    def test_connected_groups_keep_item_order_across_merges(self):
        x, y, z = 1, 2, 4
        keyed = [("a", x), ("b", y), ("c", z), ("d", z | x), ("e", y)]
        assert dtree.connected_groups(keyed) == [["a", "c", "d"], ["b", "e"]]


def _reference_common(factor_lists):
    """The multiset intersection of factor lists, taken with Counter."""
    common = Counter(factor_lists[0])
    for factors in factor_lists[1:]:
        common &= Counter(factors)
    return list(common.elements())


def _reference_remove(factors, removed):
    budget = Counter(removed)
    kept = []
    for f in factors:
        if budget[f]:
            budget[f] -= 1
        else:
            kept.append(f)
    return kept


def _reference_split_sum(expr):
    """split_sum with every sum grouped by the union-find."""
    parts = alg.sum_parts(expr)
    groups = dtree._components(parts) if len(parts) > 1 else [parts]
    return [alg.rebuild(expr, g) for g in groups] if len(groups) > 1 else None


@st.composite
def sums_of_products(draw):
    """A semiring and a sum of 2 to 4 products over at most four
    variables, with repeated factors, and under NATURAL constant factors
    and constant summands; under BOOLEAN the constant summand is 1."""
    sk = draw(st.sampled_from([B, N]))
    atoms = [Var(v) for v in "wxyz"] + ([Const(2), Const(3)] if sk is N else [])
    shared = draw(st.lists(st.sampled_from(atoms), max_size=2))
    summands = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.integers(0, 5)) == 0:
            summands.append(draw(st.sampled_from(atoms[4:] or [Const(1)])))
        else:
            own = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=3))
            summands.append(alg.make_product(shared + own))
    return sk, alg.make_sum(summands)


class TestMaskSplits:
    """Independence splits decided from the parts' masks: a variable in
    every part ends the sum split, and common factors match by identity."""

    def test_a_variable_in_every_part_is_one_component(self, monkeypatch):
        def no_grouping(items):
            raise AssertionError("grouped a sum whose parts share a variable")

        monkeypatch.setattr(dtree, "_components", no_grouping)
        assert split_sum(parse_expr("x*a + x*b")) is None
        assert split_sum(parse_expr("x*a + x*b + x*y*c")) is None

    def test_sums_without_a_common_variable_still_split(self):
        xa, yb = parse_expr("x*a"), parse_expr("y*b")
        assert split_sum(parse_expr("x*a + y*b")) == [xa, yb]
        # A constant part shares nothing: it is a component of its own,
        # placed last, and the parts that share x are one.
        parts = split_sum(parse_expr("x*a + 1 + x*b"))
        assert parts == [parse_expr("x*a + x*b"), Const(1)]
        assert split_sum(parse_expr("x*a + y*b + b*z")) == [xa, parse_expr("y*b + b*z")]

    def test_common_factors_keep_multiplicity_and_constants(self):
        xx = parse_expr("x*x")
        assert split_product(parse_expr("x*x*y + x*x*z")) == [xx, parse_expr("y + z")]
        assert split_product(parse_expr("2*x + 2*y")) == [Const(2), parse_expr("x + y")]
        # The least multiplicity is common; the rest stays with its summand.
        assert split_product(parse_expr("x*x*y + x*z")) is None
        assert split_product(parse_expr("x*x*y + x*x*x*z")) is None

    def test_no_split_when_the_rest_shares_the_common_variable(self):
        assert split_product(parse_expr("x*a + x*x*b")) is None
        assert split_product(parse_expr("2*x*a + 2*b*x*x")) is None

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(sums_of_products())
    def test_splits_match_the_counter_reference(self, case):
        sk, expr = case
        assert split_sum(expr) == _reference_split_sum(expr)
        if type(expr) is alg.Add:
            lists = [alg.product_factors(p) for p in expr.parts]
            shared = functools.reduce(operator.and_, [p.mask for p in expr.parts])
            common = dtree._common_factors(lists, shared)
            assert common == _reference_common(lists)
            for factors in lists:
                assert dtree._remove_factors(factors, common) == _reference_remove(factors, common)
        n = 2 if sk is B else 3
        dists = {v: Distribution([(k, 1 / n) for k in range(n)]) for v in expr.vars()}
        nus = list(all_valuations(dists)) or [{}]
        for split, combine in ((split_sum, sk.add), (split_product, sk.mul)):
            parts = split(expr)
            if parts is None:
                continue
            for i, p in enumerate(parts):
                for q in parts[i + 1:]:
                    assert not p.mask & q.mask
            want, *got = alg.eval_under([expr, *parts], nus, sk)
            assert [functools.reduce(combine, vs) for vs in zip(*got)] == want


class TestTreeShapes:
    """Node and mutex counts of a few compiled trees, pinned: a change to
    the independence splits states how it moves them."""

    def test_q1_lineage(self, shops_db, q1_plan):
        shapes = {}
        for values, phi in evaluate(q1_plan, shops_db).rows:
            tree = dtree.compile(phi, shops_db.var_dists)
            shapes[values] = (node_count(tree), mutex_count(tree))
        assert shapes == {
            ("M&S", 10): (7, 0),
            ("M&S", 50): (4, 0),
            ("M&S", 11): (7, 0),
            ("M&S", 60): (4, 0),
            ("M&S", 15): (4, 0),
            ("M&S", 40): (4, 0),
            ("Gap", 15): (7, 0),
            ("Gap", 60): (4, 0),
            ("Gap", 10): (7, 0),
        }

    @pytest.mark.parametrize(
        "text, nodes, mutex",
        [
            # x1 is common, and the rest splits into y11*(z1 + z5) and y12*z2.
            ("x1*y11*z1 + x1*y11*z5 + x1*y12*z2", 11, 0),
            # Connected through z1 and x2, with no common factor.
            ("x1*y11*z1 + x2*y21*z1 + x2*y22*z2", 13, 1),
        ],
    )
    def test_shops_style_sums(self, text, nodes, mutex):
        expr = parse_expr(text)
        tree = dtree.compile(expr, {v: coin() for v in expr.vars()})
        assert (node_count(tree), mutex_count(tree)) == (nodes, mutex)


class TestChooseBranchVariable:
    def test_most_occurrences(self):
        expr = parse_expr("sum{a*(b + c)(x)10 + c(x)20}")
        assert choose_branch_variable(expr) == "c"

    def test_tie_breaks_lexicographically(self):
        expr = parse_expr(
            "max{x4*y41*(z1 + z5)(x)15 + x4*y43*z3(x)60 + x5*y51*(z1 + z5)(x)10}"
        )
        assert choose_branch_variable(expr) == "x4"

    def test_single_variable(self):
        assert choose_branch_variable(parse_expr("min{q(x)3}")) == "q"

    def test_no_variables(self):
        with pytest.raises(NoVariables):
            choose_branch_variable(Const(1))

    def test_one_variable_clause_goes_first(self):
        # x occurs most, but w alone makes its term fire.
        expr = parse_expr("[min{x*y*z(x)3 + (w + x*y)(x)5 + x*z(x)4} <= 6]")
        assert choose_branch_variable(expr) == "w"
        assert choose_branch_variable(parse_expr("[6 >= max{x*y(x)3 + x*z(x)4 + w(x)9}]")) == "w"

    def test_one_variable_clauses_by_value_then_occurrences(self):
        assert choose_branch_variable(parse_expr("min{a(x)7 + b(x)2 + a*c(x)1}")) == "b"
        assert choose_branch_variable(parse_expr("max{a(x)7 + b(x)2 + a*c(x)1}")) == "a"
        assert choose_branch_variable(parse_expr("min{a(x)2 + b(x)2 + b*c(x)1}")) == "b"
        assert choose_branch_variable(parse_expr("min{b(x)2 + a(x)2}")) == "a"

    def test_other_monoids_by_occurrences(self):
        expr = parse_expr("sum{a*b(x)1 + a*c(x)2 + d(x)3}")
        assert choose_branch_variable(expr) == "a"


class TestCompileShapes:
    def test_worked_case_split(self):
        expr = parse_expr("sum{a*(b + c)(x)10 + c(x)20}")
        tree = dtree.compile(expr, FIG_DISTS, N)
        assert isinstance(tree, MutexNode) and tree.var == "c"
        assert len(tree.cases) == len(tree.parts) == 2
        left = tree.parts[0]
        assert isinstance(left, SumNode)
        sides = {tree_vars(child) for child in left.children()}
        assert frozenset({"a", "b"}) in sides
        assert frozenset() in sides
        dtree.validate(tree, FIG_DISTS)

    def test_worked_max_split_root(self):
        expr = parse_expr(
            "max{x4*y41*(z1 + z5)(x)15 + x4*y43*z3(x)60 + x5*y51*(z1 + z5)(x)10}"
        )
        dists = {v: coin() for v in alg.variables(expr)}
        tree = dtree.compile(expr, dists, B)
        assert isinstance(tree, MutexNode) and tree.var == "x4"
        dtree.validate(tree, dists)

    def test_independent_summands_need_no_case_split(self):
        expr = parse_expr("sum{a*b(x)10 + x*y(x)20}")
        dists = {v: coin() for v in alg.variables(expr)}
        tree = dtree.compile(expr, dists, B)
        assert isinstance(tree, SumNode)
        assert mutex_count(tree) == 0

    def test_constant_collapses_to_leaf(self):
        tree = dtree.compile(Const(1), {}, B)
        assert isinstance(tree, ConstLeaf) and tree.value == 1
        tree = dtree.compile(MConst(MonoidKind.SUM, 7), {}, N)
        assert isinstance(tree, ConstLeaf) and tree.value == 7

    def test_variable_leaf(self):
        tree = dtree.compile(Var("x"), {"x": coin(0.3)}, B)
        assert isinstance(tree, VarLeaf)
        assert distribution(tree, B)[1] == pytest.approx(0.3)

    def test_budget(self):
        expr = parse_expr("min{a*b(x)1 + b*c(x)2 + c*a(x)3}")
        dists = {v: coin() for v in "abc"}
        with pytest.raises(BudgetExceeded):
            dtree.compile(expr, dists, B, node_budget=3)

    def test_values_outside_the_semiring_are_rejected(self):
        # Called directly, the compiler checks a variable's values as
        # loading a database does, whether it tabulates the variable or
        # splits a case on it.
        with pytest.raises(CarrierMismatch, match="value of x: constant 2"):
            dtree.compile(parse_expr("x*x"), {"x": Distribution([(0, 0.5), (2, 0.5)])}, B)
        with pytest.raises(CarrierMismatch, match="value of x: .*non-negative: -1"):
            compile_joint(
                [parse_expr("sum{x(x)3}")], {"x": Distribution([(-1, 0.5), (1, 0.5)])}, N
            )
        dists = {"x": coin(), "y": Distribution([(0, 0.5), (2, 0.5)]), "z": coin()}
        with pytest.raises(CarrierMismatch, match="value of y: constant 2"):
            dtree.compile(parse_expr("x*y + x*z"), dists, B)
        tree = dtree.compile(parse_expr("x*x"), {"x": Distribution([(0, 0.5), (2, 0.5)])}, N)
        assert distribution(tree, N).entries == ((0, 0.5), (4, 0.5))


class TestDistribution:
    def test_weighted_sum_table(self):
        expr = parse_expr("sum{a*(b + c)(x)10 + c(x)20}")
        out = distribution(dtree.compile(expr, FIG_DISTS, N), N)
        pa, pb, pc = 0.6, 0.3, 0.8
        qa, qb, qc = 1 - pa, 1 - pb, 1 - pc
        expected = {
            40: pa * pb * pc,
            50: pa * qb * pc,
            60: qa * pb * pc,
            70: pa * pb * qc,
            80: qa * qb * pc + pa * qb * qc,
            100: qa * pb * qc,
            120: qa * qb * qc,
        }
        assert len(out) == 7
        for value, mass in expected.items():
            assert out[value] == pytest.approx(mass, abs=1e-12)

    def test_min_is_always_ten(self):
        expr = parse_expr("min{a*(b + c)(x)10 + c(x)20}")
        out = distribution(dtree.compile(expr, FIG_DISTS, N), N)
        assert out.entries == ((10, pytest.approx(1.0)),)

    def test_boolean_min_three_entries(self):
        expr = parse_expr("min{a*(b + c)(x)10 + c(x)20}")
        qa, qb, qc = 0.6, 0.3, 0.8
        dists = {"a": coin(qa), "b": coin(qb), "c": coin(qc)}
        out = distribution(dtree.compile(expr, dists, B), B)
        assert out[10] == pytest.approx(qc * qa + (1 - qc) * qa * qb, abs=1e-12)
        assert out[20] == pytest.approx(qc * (1 - qa), abs=1e-12)
        assert out[INF] == pytest.approx((1 - qc) * (1 - qa * qb), abs=1e-12)

    def test_single_variable_leaf(self):
        d = Distribution([(0, 0.2), (3, 0.8)])
        tree = dtree.compile(Var("x"), {"x": d}, N)
        assert distribution(tree, N) == d


def _independent_aggregate(kind, values, probs):
    names = ["x%d" % i for i in range(len(values))]
    expr = alg.make_msum(
        kind, [alg.make_scaled(kind, Var(n), v) for n, v in zip(names, values)]
    )
    dists = {n: coin(p) for n, p in zip(names, probs)}
    return distribution(dtree.compile(expr, dists, B), B)


def _sum_reference(values, probs):
    """Distribution of the sum of independent v_i * Bernoulli(p_i),
    by dynamic programming over the partial sums."""
    acc = {0: 1.0}
    for v, p in zip(values, probs):
        nxt = {}
        for s, m in acc.items():
            nxt[s] = nxt.get(s, 0.0) + m * (1 - p)
            nxt[s + v] = nxt.get(s + v, 0.0) + m * p
        acc = {s: m for s, m in nxt.items() if m > 1e-18}
    return acc


def _first_present_reference(values, probs, neutral):
    """Distribution of the first present value in the given order: the
    MIN over values sorted ascending, the MAX over values sorted
    descending."""
    acc, absent = {}, 1.0
    for v, p in zip(values, probs):
        acc[v] = acc.get(v, 0.0) + absent * p
        absent *= 1 - p
    acc[neutral] = absent
    return acc


def _assert_matches(got, expected):
    got = dict(got.entries)
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)
    for value in set(got) | set(expected):
        assert got.get(value, 0.0) == pytest.approx(expected.get(value, 0.0), abs=1e-9)


class TestManyIndependentTerms:
    """Aggregates over thousands of independent terms compile into one
    n-ary sum node; the recursion depth does not grow with the terms."""

    N_TERMS = 2000

    def _probs(self, rng):
        return [rng.uniform(0.2, 0.8) for _ in range(self.N_TERMS)]

    def test_count(self):
        probs = self._probs(random.Random(1))
        ones = [1] * self.N_TERMS
        got = _independent_aggregate(MonoidKind.COUNT, ones, probs)
        _assert_matches(got, _sum_reference(ones, probs))

    def test_sum(self):
        rng = random.Random(2)
        probs = self._probs(rng)
        values = [rng.randint(1, 3) for _ in range(self.N_TERMS)]
        got = _independent_aggregate(MonoidKind.SUM, values, probs)
        _assert_matches(got, _sum_reference(values, probs))

    def test_min_and_max(self):
        rng = random.Random(3)
        probs = self._probs(rng)
        values = rng.sample(range(1, 10**6), self.N_TERMS)
        for kind, neutral, descending in (
            (MonoidKind.MIN, INF, False),
            (MonoidKind.MAX, alg.NEG_INF, True),
        ):
            got = _independent_aggregate(kind, values, probs)
            order = sorted(zip(values, probs), reverse=descending)
            expected = _first_present_reference(
                [v for v, _ in order], [p for _, p in order], neutral
            )
            _assert_matches(got, expected)

    def test_one_sum_node_over_all_components(self):
        expr = alg.make_msum(
            MonoidKind.SUM,
            [alg.make_scaled(MonoidKind.SUM, Var("x%d" % i), i + 1) for i in range(50)],
        )
        dists = {v: coin() for v in alg.variables(expr)}
        tree = dtree.compile(expr, dists, B)
        assert isinstance(tree, SumNode) and len(tree.parts) == 50
        dtree.validate(tree, dists)


class TestOverflow:
    def _two_terms(self, kind, a, b):
        expr = alg.make_msum(
            kind, [alg.make_scaled(kind, Var("x"), a), alg.make_scaled(kind, Var("y"), b)]
        )
        tree = dtree.compile(expr, {"x": coin(), "y": coin()}, B)
        return distribution(tree, B)

    def test_sum_past_u64_raises(self):
        with pytest.raises(ArithmeticOverflow):
            self._two_terms(MonoidKind.SUM, 2**63, 2**63)

    def test_sum_at_u64_max_is_exact(self):
        top = 2**63
        out = self._two_terms(MonoidKind.SUM, top, top - 1)
        assert out.support == (0, top - 1, top, alg.U64_MAX)

    def test_prod_past_u64_raises(self):
        with pytest.raises(ArithmeticOverflow):
            self._two_terms(MonoidKind.PROD, 2**32, 2**32)

    def test_prod_at_u64_max_is_exact(self):
        out = self._two_terms(MonoidKind.PROD, 2**32 + 1, 2**32 - 1)
        assert out.support == (1, 2**32 - 1, 2**32 + 1, alg.U64_MAX)


class TestSparseSum:
    def test_equal_large_values_give_the_binomial(self):
        # 31 sums spread over a span of 30 * 2**40: the fold stays
        # pairwise instead of allocating a list that wide.
        n, value = 30, 2**40
        expr = alg.make_msum(
            MonoidKind.SUM,
            [alg.make_scaled(MonoidKind.SUM, Var("x%d" % i), value) for i in range(n)],
        )
        dists = {"x%d" % i: coin() for i in range(n)}
        out = distribution(dtree.compile(expr, dists, B), B)
        assert out.support == tuple(k * value for k in range(n + 1))
        for k in range(n + 1):
            assert out[k * value] == pytest.approx(math.comb(n, k) / 2**n, rel=1e-12)


def rand_semimodule(rng, names, kind, terms=3, clause_vars=2):
    parts = []
    for _ in range(terms):
        clause = alg.make_product(
            [Var(rng.choice(names)) for _ in range(rng.randint(1, clause_vars))]
        )
        if rng.random() < 0.3:
            clause = alg.make_sum([clause, Var(rng.choice(names))])
        parts.append(alg.make_scaled(kind, clause, rng.randint(0, 12)))
    return alg.make_msum(kind, parts)


class TestSoundness:
    @pytest.mark.parametrize("kind", [MonoidKind.MIN, MonoidKind.MAX, MonoidKind.SUM])
    def test_matches_brute_force(self, kind):
        rng = random.Random(kind.value)
        for _ in range(25):
            names = ["v%d" % i for i in range(rng.randint(2, 6))]
            expr = rand_semimodule(rng, names, kind)
            dists = {n: coin(rng.uniform(0.2, 0.8)) for n in names}
            got = distribution(dtree.compile(expr, dists, B), B)
            want = brute_distribution(expr, dists, B)
            assert got.close_to(want, 1e-9)

    def test_conditionals_match_brute_force(self):
        rng = random.Random(99)
        for _ in range(25):
            names = ["v%d" % i for i in range(rng.randint(2, 5))]
            kind = rng.choice([MonoidKind.MIN, MonoidKind.MAX, MonoidKind.SUM])
            left = rand_semimodule(rng, names, kind)
            expr = Cmp(left, rng.choice(("<=", ">=", "=")), MConst(kind, rng.randint(0, 15)))
            dists = {n: coin(rng.uniform(0.2, 0.8)) for n in names}
            got = distribution(dtree.compile(expr, dists, B), B)
            want = brute_distribution(expr, dists, B)
            assert got.close_to(want, 1e-9)

    def test_natural_variables(self):
        rng = random.Random(101)
        for _ in range(15):
            names = ["v%d" % i for i in range(rng.randint(2, 4))]
            expr = rand_semimodule(rng, names, MonoidKind.SUM)
            dists = {
                n: Distribution([(0, 0.3), (1, 0.4), (2, 0.3)]) for n in names
            }
            got = distribution(dtree.compile(expr, dists, N), N)
            want = brute_distribution(expr, dists, N)
            assert got.close_to(want, 1e-9)

    def test_read_back_equivalence(self):
        rng = random.Random(103)
        for _ in range(20):
            names = ["v%d" % i for i in range(rng.randint(2, 4))]
            kind = rng.choice(list(MonoidKind))
            expr = rand_semimodule(rng, names, kind)
            dists = {n: coin() for n in names}
            tree = dtree.compile(expr, dists, B)
            dtree.validate(tree, dists)
            for nu in all_valuations(dists):
                assert eval_dtree(tree, nu, B) == expr.eval(nu, B)
        # An expression over one variable is one leaf, in both semirings.
        universes = [(B, coin(0.3)), (N, Distribution([(0, 0.2), (1, 0.5), (2, 0.3)]))]
        for sk, dist in universes:
            dists = {"x": dist}
            for expr in _one_variable_exprs():
                tree = dtree.compile(expr, dists, sk)
                assert isinstance(tree, VarLeaf) and node_count(tree) == 1, expr
                dtree.validate(tree, dists)
                assert distribution(tree, sk).close_to(brute_distribution(expr, dists, sk), 1e-9)
                for nu in all_valuations(dists):
                    assert eval_dtree(tree, nu, sk) == expr.eval(nu, sk)


def _one_variable_exprs():
    """Expressions over the one variable x: a sum in each monoid, each
    compared with a constant by each theta, and a few that repeat x."""
    out = [parse_expr(t) for t in ("x*x", "[x + x > 1]", "min{x (x) 3 + x (x) 5}")]
    for kind in MonoidKind:
        values = (1, 1) if kind is MonoidKind.COUNT else (3, 2)
        side = parse_expr("%s{x(x)%d + x*x(x)%d}" % (kind.value, *values))
        out.append(side)
        out += [Cmp(side, theta, MConst(kind, 4)) for theta in alg.THETAS]
    return out


class TestAdversarialFuzz:
    """Nested conditional atoms inside products and sums, multi-valued
    natural variables, both semirings, with and without pruning."""

    def _rand_msum(self, rng, names, kind, depth):
        terms = [
            alg.make_scaled(
                kind, self._rand_sr(rng, names, depth - 1, False), rng.randint(0, 8)
            )
            for _ in range(rng.randint(1, 3))
        ]
        return alg.make_msum(kind, terms)

    def _rand_sr(self, rng, names, depth, allow_cmp=True):
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            if rng.random() < 0.8:
                return Var(rng.choice(names))
            return Const(rng.randint(0, 1))
        if roll < 0.55:
            return alg.make_sum(
                [self._rand_sr(rng, names, depth - 1, allow_cmp) for _ in range(2)]
            )
        if roll < 0.8:
            return alg.make_product(
                [self._rand_sr(rng, names, depth - 1, allow_cmp) for _ in range(2)]
            )
        if allow_cmp:
            kind = rng.choice([MonoidKind.MIN, MonoidKind.MAX, MonoidKind.SUM])
            if rng.random() < 0.5:
                return Cmp(
                    self._rand_msum(rng, names, kind, depth),
                    rng.choice(alg.THETAS),
                    MConst(kind, rng.randint(0, 12)),
                )
            return Cmp(
                self._rand_sr(rng, names, depth - 1, False),
                rng.choice(alg.THETAS),
                self._rand_sr(rng, names, depth - 1, False),
            )
        return alg.make_sum(
            [self._rand_sr(rng, names, depth - 1, False) for _ in range(2)]
        )

    def test_compile_and_prune_match_brute_force(self):
        rng = random.Random(424242)
        checked = 0
        while checked < 120:
            sk = B if checked % 2 == 0 else N
            names = ["v%d" % i for i in range(rng.randint(2, 5))]
            if sk is B:
                dists = {n: coin(rng.uniform(0.2, 0.8)) for n in names}
            else:
                dists = {}
                for n in names:
                    w = [rng.random() + 0.05 for _ in range(rng.randint(2, 3))]
                    t = sum(w)
                    dists[n] = Distribution([(i, x / t) for i, x in enumerate(w)])
            expr = self._rand_sr(rng, names, 3)
            if not alg.variables(expr):
                continue
            want = brute_distribution(expr, dists, sk)
            tree = dtree.compile(expr, dists, sk)
            dtree.validate(tree, dists)
            got = distribution(tree, sk)
            assert got.close_to(want, 1e-9), expr
            pruned = dtree.prune_all(expr, sk, dists)
            got2 = distribution(dtree.compile(pruned, dists, sk), sk)
            assert got2.close_to(want, 1e-9), expr
            checked += 1


class TestReduceToBoolean:
    def test_distribution_mapping(self):
        dists = {"x": Distribution([(0, 0.3), (1, 0.3), (2, 0.4)])}
        expr = parse_expr("min{x(x)5}")
        _, reduced = reduce_to_boolean(expr, dists)
        assert reduced["x"].close_to(Distribution([(0, 0.3), (1, 0.7)]), 1e-12)

    def test_boolean_input_unchanged(self):
        dists = {"x": coin(0.7)}
        expr = parse_expr("max{x(x)5}")
        out, reduced = reduce_to_boolean(expr, dists)
        assert reduced["x"] is dists["x"]
        assert out == expr

    def test_pipeline_equivalence(self):
        rng = random.Random(107)
        for _ in range(10):
            names = ["v%d" % i for i in range(rng.randint(2, 4))]
            kind = rng.choice([MonoidKind.MIN, MonoidKind.MAX])
            expr = rand_semimodule(rng, names, kind)
            dists = {
                n: Distribution([(0, 0.25), (1, 0.25), (3, 0.5)]) for n in names
            }
            direct = distribution(dtree.compile(expr, dists, N), N)
            bexpr, bdists = reduce_to_boolean(expr, dists)
            reduced = distribution(dtree.compile(bexpr, bdists, B), B)
            assert direct.close_to(reduced, 1e-9)

    def test_wrong_monoid(self):
        with pytest.raises(WrongMonoid):
            reduce_to_boolean(parse_expr("sum{x(x)5}"), {"x": coin()})

    def test_deep_weight_fits_the_default_recursion_limit(self):
        # MIN over a weight of 3,000 alternating levels,
        # x0*(x1 + x2*(… 2*x3000)): the reduction is one fold with its own
        # stack, and its one constant 2 becomes 1.  Fourteen levels agree
        # with the oracle; every third variable takes 0, 1 or 2.
        def chain(levels, last):
            weight = last
            for i in range(levels - 1, -1, -1):
                build = alg.make_sum if i % 2 else alg.make_product
                weight = build([Var("x%d" % i), weight])
            return alg.make_scaled(MonoidKind.MIN, weight, 5)

        three = Distribution([(0, 0.5), (1, 0.25), (2, 0.25)])
        for levels in (14, 3000):
            last = Var("x%d" % levels)
            expr = chain(levels, alg.make_product([Const(2), last]))
            dists = {"x%d" % i: coin() if i % 3 else three for i in range(levels + 1)}
            bexpr, bdists = reduce_to_boolean(expr, dists)
            assert bexpr is chain(levels, last)
            assert bdists["x0"].entries == bdists["x1"].entries == ((0, 0.5), (1, 0.5))
            got = distribution(dtree.compile(bexpr, bdists, B), B)
            if levels == 14:
                assert got.close_to(brute_distribution(expr, dists, N), 1e-9)
        weight = alg.make_product([expr.weight, parse_expr("[a != 0]")])
        with pytest.raises(CarrierMismatch, match="condition-free"):
            reduce_to_boolean(alg.make_scaled(MonoidKind.MAX, weight, 5), {**dists, "a": coin()})


class TestPrune:
    def test_sum_bounds_read_a_conditional_as_0_or_1(self, monkeypatch):
        # A conditional in a SUM weight is bounded by 0 and 1 without a
        # look at its sides, so pruning nested SUM conditionals bounds
        # each sub-expression once, not once per enclosing conditional.
        cond = parse_expr("[sum{[min{x(x)5} <= 3](x)3 + 1} >= 1]")
        assert dtree.prune(cond, N) is Const(1)
        depth = 200
        expr = Var("x0")
        for i in range(1, depth + 1):
            weight = alg.make_product([Var("x%d" % i), expr])
            terms = [
                alg.make_scaled(MonoidKind.SUM, weight, 2),
                Scaled(MonoidKind.SUM, Var("y%d" % i), 1),
            ]
            expr = Cmp(alg.make_msum(MonoidKind.SUM, terms), "<=", MConst(MonoidKind.SUM, 2))
        calls, bounds = [], dtree._weight_bounds

        def counted(*args, **kwargs):
            calls.append(args)
            return bounds(*args, **kwargs)

        monkeypatch.setattr(dtree, "_weight_bounds", counted)
        assert dtree.prune_all(expr, N) is expr
        assert len(calls) <= 5 * depth

    def test_prune_all_keeps_unchanged_subtrees(self):
        # Under N the MIN conditional keeps its form; under B one with
        # kept terms in two classes (below and at 5) does.
        for sk, cond in ((N, "[min{a(x)3 + b(x)3} <= 5]"), (B, "[min{a(x)3 + b(x)5} = 5]")):
            expr = parse_expr("y*%s + z*[sum{a(x)2} >= 1]" % cond)
            assert dtree.prune_all(expr, sk) is expr
        expr = parse_expr("y*[min{a(x)3 + b(x)9} <= 5] + z*[sum{a(x)2} >= 1]")
        out = dtree.prune_all(expr, N)
        assert equivalent(out, parse_expr("y*[min{a(x)3} <= 5] + z*[sum{a(x)2} >= 1]"))
        assert out.parts[1] is expr.parts[1]
        out = dtree.prune_all(expr, B)
        assert out is parse_expr("y*[a != 0] + z*[sum{a(x)2} >= 1]")
        assert out.parts[1] is expr.parts[1]

    def test_min_drops_terms_above_bound(self):
        cond = parse_expr("[min{x(x)10 + y(x)20} <= 15]")
        assert equivalent(prune(cond, N), parse_expr("[min{x(x)10} <= 15]"))
        # In B only whether x fires is left to ask.
        assert prune(cond, B) is parse_expr("[x != 0]")
        dists = {"x": coin(0.3), "y": coin(0.6)}
        for sk in (B, N):
            got = distribution(dtree.compile(prune(cond, sk), dists, sk), sk)
            assert got.close_to(brute_distribution(cond, dists, sk), 1e-12)

    def test_sum_collapses_when_total_fits(self):
        cond = parse_expr("[sum{x(x)5 + y(x)7} <= 15]")
        out = prune(cond, B)
        assert out == Const(1)

    def test_nothing_prunable_left_unchanged(self):
        cond = parse_expr("[min{x(x)10} <= 15]")
        assert prune(cond, N) is cond
        cond = parse_expr("[min{x(x)10 + y(x)15} = 15]")
        assert prune(cond, B) is cond

    def test_empty_keep_set_folds_to_constant(self):
        # min of the remaining (empty) sum is +inf, which decides the
        # comparison outright
        assert prune(parse_expr("[min{x(x)10} <= 5]")) == Const(0)
        assert prune(parse_expr("[min{x(x)10} >= 5]")) == Const(1)

    def test_non_conditional_unchanged(self):
        expr = parse_expr("x + y")
        assert prune(expr) is expr

    # Terms a..e carry the values 1, 3, 5, 7, 9 against the bound 5.
    # Pruning keeps the terms that can decide the comparison; each kept
    # value becomes the smallest (MIN) or largest (MAX) of its outcome
    # class: the comparison's truth for the order thetas, below / equal /
    # above the bound for = and !=.
    REPRESENTATIVES = {
        ("min", "<="): {"a": 1, "b": 1, "c": 1},
        ("min", "<"): {"a": 1, "b": 1},
        ("min", ">="): {"a": 1, "b": 1},
        ("min", ">"): {"a": 1, "b": 1, "c": 1},
        ("min", "="): {"a": 1, "b": 1, "c": 5},
        ("min", "!="): {"a": 1, "b": 1, "c": 5},
        ("max", ">="): {"c": 9, "d": 9, "e": 9},
        ("max", ">"): {"d": 9, "e": 9},
        ("max", "<="): {"d": 9, "e": 9},
        ("max", "<"): {"c": 9, "d": 9, "e": 9},
        ("max", "="): {"c": 5, "d": 9, "e": 9},
        ("max", "!="): {"c": 5, "d": 9, "e": 9},
    }

    @pytest.mark.parametrize("kind,theta", sorted(REPRESENTATIVES))
    def test_values_become_class_representatives(self, kind, theta):
        # Under N, and under B for = and != whose kept terms span two
        # classes.  Under B the order thetas keep one class, true or
        # false, which asks only whether a kept term fires.
        body = "%s{a(x)1 + b(x)3 + c(x)5 + d(x)7 + e(x)9}" % kind
        dists = {n: coin(0.3 + 0.1 * i) for i, n in enumerate("abcde")}
        reps = self.REPRESENTATIVES[kind, theta]
        for cond in (parse_expr("[%s %s 5]" % (body, theta)),
                     parse_expr("[5 %s %s]" % (dtree._MIRROR[theta], body))):
            for sk in (B, N):
                out = prune(cond, sk)
                if sk is B and theta not in ("=", "!="):
                    fires = alg.compare(next(iter(reps.values())), 5, theta)
                    weights = alg.make_sum([Var(n) for n in reps])
                    assert out is Cmp(weights, "!=" if fires else "=", Const(0))
                else:
                    assert out.right == MConst(MonoidKind(kind), 5)
                    terms = {t.weight.name: t.value for t in alg.sum_parts(out.left)}
                    assert terms == reps
                assert prune(out, sk) is out
                for target in (B, N):
                    got = distribution(dtree.compile(out, dists, target), target)
                    assert got.close_to(brute_distribution(cond, dists, target), 1e-12)

    @pytest.mark.parametrize("kind", ["min", "max"])
    @pytest.mark.parametrize("theta", alg.THETAS)
    @pytest.mark.parametrize("bound", ["+inf", "-inf"])
    def test_infinite_bounds(self, kind, theta, bound):
        # A comparison that an infinite bound decides folds outright, for
        # example [min{...} <= +inf] to 1; any other keeps its terms.
        cond = parse_expr("[%s{a(x)1 + b*c(x)5 + c(x)9} %s %s]" % (kind, theta, bound))
        dists = {n: coin(0.3 + 0.1 * i) for i, n in enumerate("abc")}
        want = brute_distribution(cond, dists, B)
        out = prune(cond)
        if len(want) == 1:
            assert out == Const(want.support[0])
        got = distribution(dtree.compile(out, dists, B), B)
        assert got.close_to(want, 1e-12)

    @pytest.mark.parametrize(
        "text",
        [
            "[min{x(x)2 + y(x)2 + x*y(x)2} <= 5]",
            "[5 >= min{x(x)2 + y(x)2}]",
            "[min{x(x)1 + y(x)5} = 5]",
            "[max{x(x)9 + y(x)5 + z(x)9} != 5]",
            "[min{x(x)1 + y(x)1 + 5} = 5]",
            "[max{x(x)8 + (1 + y)*z(x)8 + 5} != 5]",
        ],
    )
    def test_coarse_values_left_unchanged(self, text):
        cond = parse_expr(text)
        assert prune(cond, N) is cond
        if cond.theta in ("=", "!="):  # kept terms in two classes
            assert prune(cond, B) is cond
        else:  # one class, true: the disjunction of the clauses
            side = cond.right if type(cond.left) is MConst else cond.left
            weights = alg.make_sum([t.weight for t in side.terms])
            assert prune(cond, B) is Cmp(weights, "!=", Const(0))

    def test_constant_part_keeps_its_order(self):
        # 4 and 2 are both below 5, so they share a class; the constant
        # part 5 stays above every representative of the class.
        cond = parse_expr("[min{x(x)4 + y(x)2 + 5} = 5]")
        out = prune(cond)
        assert equivalent(out, parse_expr("[min{x(x)2 + y(x)2 + 5} = 5]"))
        dists = {"x": coin(0.3), "y": coin(0.6)}
        got = distribution(dtree.compile(out, dists, B), B)
        assert got.close_to(brute_distribution(cond, dists, B), 1e-12)

    @pytest.mark.parametrize("kind", ["min", "max", "sum"])
    def test_soundness_randomized(self, kind):
        rng = random.Random(kind)
        mk = MonoidKind(kind)
        for _ in range(30):
            names = ["v%d" % i for i in range(rng.randint(2, 5))]
            left = rand_semimodule(rng, names, mk)
            theta = rng.choice(("<=", ">=", "<", ">", "=", "!="))
            cond = Cmp(left, theta, MConst(mk, rng.randint(0, 20)))
            dists = {n: coin(rng.uniform(0.2, 0.8)) for n in names}
            pruned = prune(cond, B, dists)
            got = distribution(dtree.compile(pruned, dists, B), B)
            want = distribution(dtree.compile(cond, dists, B), B)
            assert got.close_to(want, 1e-9)


def _rand_minmax_cond(rng, sk, kind, theta):
    """A random conditional ``[kind{...} theta c]`` (bound on either
    side), sometimes under a product with a variable, and its variables'
    distributions: coins, and 3-valued variables under nat.  Weights are
    sums of products, sometimes with a constant summand (``1 + x``), and
    the sum sometimes has a constant part."""
    names = ["v%d" % i for i in range(rng.randint(2, 6))]
    dists = {}
    for n in names:
        if sk is N and rng.random() < 0.5:
            cuts = sorted(rng.uniform(0.1, 0.9) for _ in range(2))
            dists[n] = Distribution([(0, cuts[0]), (1, cuts[1] - cuts[0]), (2, 1 - cuts[1])])
        else:
            dists[n] = coin(rng.uniform(0.2, 0.8))
    terms = []
    for _ in range(rng.randint(1, 6)):
        clauses = [
            alg.make_product([Var(rng.choice(names)) for _ in range(rng.randint(1, 2))])
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < 0.25:
            clauses.append(Const(1))
        terms.append(alg.Scaled(kind, alg.make_sum(clauses), rng.randint(0, 10)))
    if rng.random() < 0.3:
        terms.append(MConst(kind, rng.randint(0, 10)))
    body, bound = alg.make_msum(kind, terms), MConst(kind, rng.randint(0, 10))
    cond = Cmp(body, theta, bound) if rng.random() < 0.7 else Cmp(bound, theta, body)
    if rng.random() < 0.3:
        cond = alg.make_product([Var(rng.choice(names)), cond])
    return cond, dists


class TestDenseMinConditionals:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_compiles_within_budget(self, seed):
        # [min{...} <= 50] over 32 terms of 3 clauses of 3 of 25 variables,
        # every value at most 50: after pruning, any firing clause decides
        # it.  Splitting on one-variable clauses first keeps these near
        # 5,000-6,500 nodes; by occurrences alone they take 10,900-14,100.
        params = cli.GenParams(
            terms_left=32, clauses=3, literals=3, num_vars=25, maxv=50, c=50, seed=seed
        )
        expr, dists = cli.gen_expression(params), cli.gen_var_dists(params, 0.5)
        tree = dtree.compile(dtree.prune_all(expr, B, dists), dists, B, node_budget=9000)
        assert distribution(tree, B).total_mass() == pytest.approx(1.0)


class TestMinMaxConditionalSweep:
    @pytest.mark.parametrize("sk", [B, N])
    @pytest.mark.parametrize("kind", [MonoidKind.MIN, MonoidKind.MAX])
    @pytest.mark.parametrize("theta", alg.THETAS)
    def test_matches_brute_force(self, sk, kind, theta):
        rng = random.Random("%s/%s/%s" % (sk.value, kind.value, theta))
        for case in range(125):
            expr, dists = _rand_minmax_cond(rng, sk, kind, theta)
            want = brute_distribution(expr, dists, sk)
            for source in (expr, dtree.prune_all(expr, sk, dists)):
                got = distribution(dtree.compile(source, dists, sk), sk)
                assert got.close_to(want, 1e-9), (case, expr, source)


class TestCompileJoint:
    def test_shared_variable_pair(self):
        exprs = [parse_expr("a + b"), parse_expr("a*c")]
        dists = {n: one_two(p) for n, p in (("a", 0.5), ("b", 0.4), ("c", 0.7))}
        tree = compile_joint(exprs, dists, N)
        out = distribution(tree, N)
        pa, pb, pc = dists["a"], dists["b"], dists["c"]
        expected = pa[2] * pb[1] * pc[1] + pa[1] * pb[2] * pc[2]
        assert out[(3, 2)] == pytest.approx(expected, abs=1e-12)
        assert out.total_mass() == pytest.approx(1.0)

    def test_disjoint_expressions_factorize(self):
        exprs = [parse_expr("a + b"), parse_expr("c")]
        dists = {n: one_two(0.5) for n in "abc"}
        out = distribution(compile_joint(exprs, dists, N), N)
        pa = brute_distribution(exprs[0], dists, N)
        pc = brute_distribution(exprs[1], dists, N)
        for (va, ma) in pa:
            for (vc, mc) in pc:
                assert out[(va, vc)] == pytest.approx(ma * mc, abs=1e-12)

    def test_single_expression_matches_scalar_path(self):
        expr = parse_expr("min{a(x)3 + b(x)9}")
        dists = {"a": coin(), "b": coin()}
        joint = distribution(compile_joint([expr], dists, B), B)
        scalar = distribution(dtree.compile(expr, dists, B), B)
        for value, p in scalar:
            assert joint[(value,)] == pytest.approx(p, abs=1e-12)

    def test_matches_brute_force(self):
        rng = random.Random(113)
        for _ in range(10):
            names = ["v%d" % i for i in range(rng.randint(2, 4))]
            e1 = rand_semimodule(rng, names, MonoidKind.SUM, terms=2)
            e2 = alg.make_sum([Var(rng.choice(names)), Var(rng.choice(names))])
            dists = {n: coin(rng.uniform(0.3, 0.7)) for n in names}
            out = distribution(compile_joint([e1, e2], dists, B), B)
            acc = {}
            for nu in all_valuations(dists):
                key = (e1.eval(nu, B), e2.eval(nu, B))
                weight = 1.0
                for n, value in nu.items():
                    weight *= dists[n][value]
                acc[key] = acc.get(key, 0.0) + weight
            for key, mass in acc.items():
                assert out[key] == pytest.approx(mass, abs=1e-9)

    def test_groups_that_decouple_mid_expansion(self):
        # substitution can drop a component to a constant while others
        # still share variables, nesting a mutex inside the product
        rng = random.Random(900)
        for case in range(60):
            names = ["v%d" % i for i in range(rng.randint(2, 5))]
            dists = {n: coin(rng.uniform(0.2, 0.8)) for n in names}
            exprs = []
            for _ in range(rng.randint(2, 4)):
                kind = rng.choice([MonoidKind.MIN, MonoidKind.MAX])
                terms = [
                    alg.make_scaled(kind, Var(rng.choice(names)), rng.randint(0, 9))
                    for _ in range(rng.randint(1, 3))
                ]
                body = alg.make_msum(kind, terms)
                if rng.random() < 0.5:
                    body = Cmp(
                        body, rng.choice(alg.THETAS), MConst(kind, rng.randint(0, 9))
                    )
                exprs.append(body)
            got = distribution(compile_joint(exprs, dists, B), B)
            acc = {}
            for nu in all_valuations(dists):
                weight = 1.0
                for n, value in nu.items():
                    weight *= dists[n][value]
                key = tuple(e.eval(nu, B) for e in exprs)
                acc[key] = acc.get(key, 0.0) + weight
            for key, mass in acc.items():
                assert got[key] == pytest.approx(mass, abs=1e-9), case


    def test_branch_choice_leaves_cached_occurrences_alone(self):
        # The branch variable is chosen from the occurrences of all the
        # expressions together; adding them into the first expression's
        # cached counts once sent later splits after variables it does
        # not contain, until the recursion limit.
        exprs = [
            parse_expr("x*y + y*z + z*x"),
            parse_expr("min{x*w(x)1 + w*u0(x)2 + w*u1(x)3 + w*u2(x)4 + w*u3(x)5}"),
        ]
        before = [dict(occurrences(e)) for e in exprs]
        dists = {n: coin() for e in exprs for n in alg.variables(e)}
        tree = compile_joint(exprs, dists, B)
        assert [dict(occurrences(e)) for e in exprs] == before
        got = distribution(tree, B)
        acc = {}
        for nu in all_valuations(dists):
            key = tuple(e.eval(nu, B) for e in exprs)
            acc[key] = acc.get(key, 0.0) + 0.5 ** len(dists)
        assert set(got.support) == set(acc)
        for key, mass in acc.items():
            assert got[key] == pytest.approx(mass, abs=1e-12)
        # Every Boolean sum with a constant part is the one leaf of 1,
        # and a clause of one variable goes first.
        assert dtree.node_count(tree) == 17


class TestNodeShapes:
    """One input per node class, in both semirings: every inner node
    holds its children in ``parts``, and the tree validates, reads back
    every valuation and agrees with enumeration."""

    INPUTS = [
        pytest.param("x", VarLeaf, id="var"),
        pytest.param("sum{x(x)3}", VarLeaf, id="table"),
        pytest.param("1", ConstLeaf, id="const"),
        pytest.param("x + y", SumNode, id="sum"),
        pytest.param("max{x(x)2 + y(x)5}", SumNode, id="msum"),
        pytest.param("x*y", dtree.ProdNode, id="prod"),
        pytest.param("sum{x*(y + z)(x)3 + x*z(x)5}", dtree.ScaleNode, id="scale"),
        pytest.param("[x + y <= z]", dtree.CmpNode, id="cmp"),
        pytest.param("x*y + y*z + z*x", MutexNode, id="mutex"),
        pytest.param("[x + y != 0]*[x + z = 0]", dtree.JointSumNode, id="joint_sum"),
    ]

    @pytest.mark.parametrize("sk", [B, N], ids=["bool", "nat"])
    @pytest.mark.parametrize("text, cls", INPUTS)
    def test_compiles_to_its_class(self, sk, text, cls):
        expr = parse_expr(text)
        if sk is B:
            dists = {"x": coin(0.3), "y": coin(0.6), "z": coin(0.8)}
        else:
            dist = Distribution([(0, 0.2), (1, 0.5), (2, 0.3)])
            dists = {"x": dist, "y": one_two(0.4), "z": dist}
        tree = dtree.compile(expr, dists, sk)
        assert type(tree) is cls
        for node in dtree._post_order(tree):
            if isinstance(node, (VarLeaf, ConstLeaf)):
                assert node.parts == ()
            else:
                assert node.parts and all(isinstance(c, dtree.DNode) for c in node.parts)
                assert node.children() is node.parts
        dtree.validate(tree, dists)
        for nu in all_valuations({n: dists[n] for n in alg.variables(expr)}):
            assert eval_dtree(tree, nu, sk) == expr.eval(nu, sk)
        assert distribution(tree, sk).close_to(brute_distribution(expr, dists, sk), 1e-9)


class TestValidator:
    def test_rejects_shared_variables_in_binary_node(self):
        x = VarLeaf("x", coin())
        bad = SumNode([x, VarLeaf("x", coin())])
        with pytest.raises(ValueError, match="share"):
            dtree.validate(bad)

    def test_rejects_shared_variables_between_first_and_third_child(self):
        children = [VarLeaf("x", coin()), VarLeaf("y", coin()), VarLeaf("x", coin())]
        with pytest.raises(ValueError, match="share"):
            dtree.validate(SumNode(children))
        dtree.validate(SumNode(children[:2]))

    def test_rejects_variable_below_its_mutex(self):
        bad = MutexNode("x", [(0, 0.5), (1, 0.5)], [VarLeaf("x", coin()), ConstLeaf(1)])
        with pytest.raises(ValueError, match="below"):
            dtree.validate(bad)

    def test_rejects_incomplete_mutex_fanout(self):
        three = Distribution([(0, 0.2), (1, 0.3), (2, 0.5)])
        partial = MutexNode("x", [(0, 0.2), (1, 0.3)], [ConstLeaf(0), ConstLeaf(1)])
        with pytest.raises(ValueError, match="support"):
            dtree.validate(partial, {"x": three})

    def test_compiled_trees_always_validate(self):
        rng = random.Random(131)
        for _ in range(20):
            names = ["v%d" % i for i in range(rng.randint(2, 5))]
            kind = rng.choice(list(MonoidKind))
            expr = rand_semimodule(rng, names, kind)
            dists = {n: coin(rng.uniform(0.2, 0.8)) for n in names}
            dtree.validate(dtree.compile(expr, dists, B), dists)


class TestDumps:
    def test_text_and_dot(self):
        expr = parse_expr("sum{a*(b + c)(x)10 + c(x)20}")
        tree = dtree.compile(expr, FIG_DISTS, N)
        text = "\n".join(dtree.tree_lines(tree))
        assert "|_|c" in text
        dot = "\n".join(dtree.dot_lines(tree))
        assert dot.startswith("digraph") and "->" in dot
        assert node_count(tree) >= 5

    def test_shared_subtree_is_printed_once(self):
        ab = dtree.ProdNode([VarLeaf("a", coin()), VarLeaf("b", coin())])
        tree = MutexNode("c", [(0, 0.5), (1, 0.5)], [ab, SumNode([ab, ConstLeaf(1)])])
        assert node_count(tree) == 6
        assert list(dtree.tree_lines(tree)) == [
            "n0 = a",
            "n1 = b",
            "n2 = (.): n0, n1",
            "n3 = 1",
            "n4 = (+): n2, n3",
            "n5 = |_|c: n2 <- 0 (p=0.5), n4 <- 1 (p=0.5)",
        ]
        dot = list(dtree.dot_lines(tree))
        assert dot[0] == "digraph dtree {" and dot[-1] == "}"
        assert [ln for ln in dot if "n2" in ln] == [
            '  n2 [label="(.)"];',
            "  n2 -> n0;",
            "  n2 -> n1;",
            "  n4 -> n2;",
            '  n5 -> n2 [label="0 (p=0.5)"];',
        ]
        assert sum(1 for ln in dot if "[label=" in ln and "->" not in ln) == 6


SUPPORTS = {
    "coin": Distribution([(0, 0.4), (1, 0.6)]),
    "one": Distribution([(1, 1.0)]),
    "zero": Distribution([(0, 1.0)]),
}


@st.composite
def clause_sums(draw):
    """A positive sum of clauses over 1 to 6 variables, each variable
    with support {0, 1}, {1} or {0}: clauses may repeat, be subsumed by
    others or be one variable, and one variable may be in every clause."""
    names = ["v%d" % i for i in range(draw(st.integers(1, 6)))]
    clause = st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
    clauses = draw(st.lists(clause, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        base = draw(st.sampled_from(clauses))
        extra = draw(st.lists(st.sampled_from(names), max_size=2))
        clauses.append(base + [v for v in dict.fromkeys(extra) if v not in base])
    if draw(st.booleans()):
        common = draw(st.sampled_from(names))
        clauses = [c if common in c else c + [common] for c in clauses]
    expr = alg.make_sum([alg.make_product([Var(v) for v in c]) for c in clauses])
    used = sorted(expr.vars())
    kinds = st.lists(st.sampled_from(sorted(SUPPORTS)), min_size=len(used), max_size=len(used))
    kinds = draw(kinds)
    return expr, {v: SUPPORTS[k] for v, k in zip(used, kinds)}


class TestClauseForm:
    """Boolean sums of clauses compile from their clause masks, into the
    trees their expressions compile to."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(clause_sums())
    def test_trees_read_back_and_match_brute_force(self, case):
        expr, dists = case
        for source in (expr, Cmp(expr, "!=", Const(0))):
            tree = dtree.compile(source, dists, B)
            assert dtree.validate(tree, dists)
            for nu in all_valuations(dists):
                assert eval_dtree(tree, nu, B) == source.eval(nu, B)
            want = brute_distribution(source, dists, B)
            assert distribution(tree, B).close_to(want, 1e-9)

    @pytest.mark.parametrize(
        "text,nodes,mutex",
        [
            # A clause sum under a factor that is no clause, and one left
            # by the case split of the sum around it.
            ("x*y*(z + w) + x*v*z", 10, 1),
            ("x*y*(z + w) + x*v*z + v*w", 11, 2),
            ("[x*y + y*z + z*x != 0]*(w + x*v)", 14, 2),
        ],
    )
    def test_mixed_inputs_keep_their_counts(self, text, nodes, mutex):
        expr = parse_expr(text)
        tree = dtree.compile(expr, {v: coin() for v in expr.vars()}, B)
        assert (node_count(tree), mutex_count(tree)) == (nodes, mutex)

    def test_a_repeated_variable_is_a_tabulated_leaf(self):
        # As the expression path tabulates x + x over the values of x.
        for support, label in ((coin(), "x{0:0 1:1}"), (SUPPORTS["one"], "x{1:1}")):
            tree = dtree.compile(parse_expr("x + x"), {"x": support}, B)
            assert tree.label() == label

    def test_joint_of_a_clause_sum_keeps_its_counts(self):
        exprs = (
            parse_expr("a*b + b*c + c*a + d"),
            parse_expr("min{a*d(x)1 + d*e(x)2 + b*e(x)3 + c(x)4}"),
        )
        dists = {v: coin() for e in exprs for v in e.vars()}
        tree = dtree.compile(exprs, dists, B)
        assert (node_count(tree), mutex_count(tree)) == (30, 10)

    @pytest.mark.parametrize(
        "params,budget",
        [
            (dict(terms_left=12, clauses=2, literals=2, num_vars=20, c=25, seed=91), 20),
            (dict(terms_left=32, clauses=3, literals=3, num_vars=25, c=50, seed=1), 5950),
        ],
    )
    def test_smallest_budget_of_c09_inputs(self, params, budget):
        params = cli.GenParams(maxv=50, **params)
        expr, dists = cli.gen_expression(params), cli.gen_var_dists(params, 0.5)
        pruned = dtree.prune_all(expr, B, dists)
        dtree.compile(pruned, dists, B, node_budget=budget)
        with pytest.raises(BudgetExceeded):
            dtree.compile(pruned, dists, B, node_budget=budget - 1)

    def test_children_in_variable_index_order(self):
        # A dump lists an independence node's children in the order of
        # their clause masks, which follows the variable index.
        expr = parse_expr("z + x*y*w + v")
        tree = dtree.compile(expr, {n: coin() for n in expr.vars()}, B)

        def mask(d):
            return functools.reduce(operator.or_, [Var(n).mask for n in tree_vars(d)])

        assert isinstance(tree, SumNode)
        product = next(c for c in tree.parts if len(c.parts) == 3)
        for node in (tree, product):
            masks = [mask(c) for c in node.parts]
            assert masks == sorted(masks)


#: Names whose order differs from the order of their variables' bits, so
#: that ties are broken by name, not by bit.
BRANCH_NAMES = ["k%02d" % ((i * 37) % 90) for i in range(90)]


@st.composite
def clause_mask_lists(draw):
    """Clauses as lists of names over up to 90 variables, with unit
    clauses, repeated clauses and ties in the counts; a chain through
    every name may join them."""
    names = draw(st.permutations(BRANCH_NAMES))[: draw(st.integers(2, 90))]
    clause = st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
    clauses = draw(st.lists(clause, min_size=1, max_size=40))
    if draw(st.booleans()):
        clauses += [[a, b] for a, b in zip(names, names[1:])]
    clauses += draw(st.lists(st.sampled_from(clauses), min_size=1, max_size=6))
    return clauses


def _clause(names):
    return alg.make_product([Var(n) for n in names])


def _pick_by_bits(clauses):
    products = [_clause(c) for c in clauses]  # masks hold while these live
    masks = sorted(p.mask for p in products)
    bit = dtree._branch_bit(dtree._Clauses(masks), functools.reduce(operator.or_, masks))
    return alg.variable_of(bit)


class TestBranchBit:
    """The case split of a clause form takes the variable that
    :func:`choose_branch_variable` takes on its expression, from counts
    kept bit-sliced over the clause masks."""

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(clause_mask_lists())
    def test_pick_equals_choose_branch_variable(self, clauses):
        expr = alg.make_sum([_clause(c) for c in clauses])
        assert _pick_by_bits(clauses) == choose_branch_variable(expr, sk=B)

    @pytest.mark.parametrize(
        "clauses,want",
        [
            # The unit of most occurrences, not the variable.
            ([["k01", "k02"], ["k01", "k03"], ["k02"], ["k03"], ["k03", "k04"]], "k03"),
            # A repeated unit counts twice; a tie goes to the smaller name.
            ([["k05"], ["k04"], ["k05"], ["k04", "k06"], ["k05", "k06"]], "k05"),
            ([["k05"], ["k04"], ["k04", "k06"], ["k05", "k06"]], "k04"),
            # Without units, the variable of most occurrences.
            ([["k03", "k01"], ["k01", "k02"], ["k02", "k03"], ["k02", "k04"]], "k02"),
            # 70 variables, one of them in every clause.
            ([["k%02d" % i, "k89"] for i in range(70)], "k89"),
            ([["k%02d" % i, "k%02d" % (i + 1)] for i in range(70)], "k01"),
        ],
    )
    def test_picks(self, clauses, want):
        assert _pick_by_bits(clauses) == want
        assert choose_branch_variable(alg.make_sum([_clause(c) for c in clauses]), sk=B) == want

    @pytest.mark.parametrize(
        "text",
        [
            "a*b + b*c + c*a",
            "x*y*z + x*y*w + x*v + v*w",
            " + ".join("s%d*s%d" % (i, i + 1) for i in range(30)),
            " + ".join("t%d*u%d + t%d*w%d + u%d*w%d" % ((i,) * 6) for i in range(4)),
        ],
        ids=["triangle", "shared-factor", "chain", "triangles"],
    )
    def test_budget_counts_each_shared_leaf_once(self, text):
        expr = parse_expr(text)
        dists = {v: coin() for v in expr.vars()}
        tree = dtree.compile(expr, dists, B)
        n = node_count(tree)
        parents = Counter(id(c) for d in dtree._post_order(tree) for c in d.parts
                          if type(c) is VarLeaf)
        assert max(parents.values()) > 1  # a leaf with several parents
        assert node_count(dtree.compile(expr, dists, B, node_budget=n)) == n
        with pytest.raises(BudgetExceeded):
            dtree.compile(expr, dists, B, node_budget=n - 1)

    def test_budget_counts_the_leaves_of_the_last_node(self):
        # The root's leaves are made with it, after its own check.
        expr = parse_expr("a*b*c")
        dists = {v: coin() for v in expr.vars()}
        assert node_count(dtree.compile(expr, dists, B, node_budget=4)) == 4
        with pytest.raises(BudgetExceeded):
            dtree.compile(expr, dists, B, node_budget=3)

    @pytest.mark.parametrize(
        "clauses,nodes,mutex",
        [
            ([("x%d" % i, "x%d" % (i + 1)) for i in range(400)], 1866, 961),
            ([c for i in range(1500) for c in (("a%d" % i, "b%d" % i), ("a%d" % i, "c%d" % i))],
             7501, 0),
            ([c for i in range(600)
              for c in (("p%d" % i, "q%d" % i), ("q%d" % i, "r%d" % i), ("p%d" % i, "r%d" % i))],
             3002, 1200),
        ],
        ids=["chain", "pairs", "triangles"],
    )
    def test_shapes_keep_their_counts(self, clauses, nodes, mutex):
        expr = alg.make_sum([_clause(c) for c in clauses])
        tree = dtree.compile(expr, {v: coin() for v in expr.vars()}, B)
        assert (node_count(tree), mutex_count(tree)) == (nodes, mutex)


def _reference_minmax_prune(cond, sk):
    """:func:`prune` of a MIN or MAX conditional with a constant bound
    by the general path alone: class representatives, one scaled term
    per clause, then the disjunction of the kept weights."""
    left, theta, right = cond.left, cond.theta, cond.right
    if type(left) is MConst:
        left, right, theta = right, left, dtree._MIRROR[theta]
    kind, bound, terms = left.kind, right.value, alg.sum_parts(left)
    forced = alg.make_cmp(left, theta, right)
    if type(forced) is Const:
        return forced
    idle = dtree._outcome_class(kind.neutral, theta, bound)
    kept = [t for t in terms if dtree._outcome_class(t.value, theta, bound) != idle]
    if not kept:
        return Const(1 if alg.compare(kind.neutral, bound, theta) else 0)
    split = []
    for t in dtree._class_representatives(kept, kind, theta, bound):
        if type(t) is Scaled and type(t.weight) is alg.Add:
            split += [alg.make_scaled(kind, c, t.value) for c in t.weight.parts]
        else:
            split.append(t)
    kept = list(dict.fromkeys(split))
    value = kept[0].value
    if all(type(t) is Scaled and t.value == value for t in kept):
        fires = alg.compare(value, bound, theta)
        if fires == alg.compare(kind.neutral, bound, theta):
            return Const(1 if fires else 0)
        if sk is B:
            weights = alg.make_sum([t.weight for t in kept])
            return alg.make_cmp(weights, "!=" if fires else "=", Const(0))
    if len(kept) == len(terms) and all(map(operator.is_, kept, terms)):
        return cond
    return alg.make_cmp(alg.make_msum(kind, kept), theta, right)


class TestLeanDisjunction:
    @pytest.mark.parametrize("sk", [B, N])
    @pytest.mark.parametrize("kind", [MonoidKind.MIN, MonoidKind.MAX])
    @pytest.mark.parametrize("theta", alg.THETAS)
    def test_matches_the_general_path(self, sk, kind, theta):
        # c07-style conditionals, with clauses that are constants and
        # terms that are, raw and folded.
        rng = random.Random("lean/%s/%s/%s" % (sk.value, kind.value, theta))
        names = ["v%d" % i for i in range(5)]
        for case in range(200):
            terms = []
            for _ in range(rng.randint(1, 5)):
                clauses = [
                    alg.make_product([Var(rng.choice(names)) for _ in range(rng.randint(1, 2))])
                    for _ in range(rng.randint(1, 3))
                ]
                if rng.random() < 0.2:
                    clauses.append(Const(rng.randint(0, 1)))
                build = Scaled if rng.random() < 0.3 else alg.make_scaled
                terms.append(build(kind, alg.make_sum(clauses), rng.randint(0, 12)))
            if rng.random() < 0.2:
                terms.append(MConst(kind, rng.randint(0, 12)))
            if not terms:
                continue
            body, bound = alg.make_msum(kind, terms), MConst(kind, rng.randint(0, 12))
            if type(body) is MConst:
                continue
            cond = Cmp(body, theta, bound) if rng.random() < 0.7 else Cmp(bound, theta, body)
            assert prune(cond, sk) is _reference_minmax_prune(cond, sk), (case, cond)

    def test_constant_clause_takes_the_general_path(self):
        cond = Cmp(alg.make_msum(MonoidKind.MIN, [
            Scaled(MonoidKind.MIN, parse_expr("x + 1"), 3),
            Scaled(MonoidKind.MIN, parse_expr("y"), 4),
        ]), "<=", MConst(MonoidKind.MIN, 5))
        assert prune(cond, B) is _reference_minmax_prune(cond, B) is Const(1)


class TestPruneSkipsConditionalFree:
    @pytest.mark.parametrize(
        "text", ["x*y + z", "x", "3", "min{x(x)3 + y*z(x)4}", "sum{x(x)2 + 5}", "(x + y)*z"]
    )
    def test_returns_its_input(self, text, monkeypatch):
        def no_fold(*args):
            raise AssertionError("walked a conditional-free expression")

        monkeypatch.setattr(alg, "fold", no_fold)
        expr = parse_expr(text)
        for sk in (B, N):
            assert dtree.prune_all(expr, sk) is expr

    def test_enters_only_subtrees_with_a_conditional(self, monkeypatch):
        visited = []
        fold = alg.fold

        def recording(roots, visit, memo, mask=None):
            def recorded(e):
                visited.append(e)
                return visit(e)

            return fold(roots, recorded, memo, mask)

        monkeypatch.setattr(alg, "fold", recording)
        expr = parse_expr("a*b*c + d*(e + f) + g*[min{x(x)3 + y(x)9} <= 5]")
        out = dtree.prune_all(expr, B)
        assert out is parse_expr("a*b*c + d*(e + f) + g*[x != 0]")
        assert visited and all(e.has_cmp for e in visited)
