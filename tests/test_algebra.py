import gc
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvcdb
from pvcdb import algebra as alg
from pvcdb import dtree
from pvcdb.algebra import (
    Add,
    Cmp,
    Const,
    INF,
    MConst,
    MonoidKind,
    MSum,
    Mul,
    NEG_INF,
    Scaled,
    SemiringKind,
    Var,
)
from pvcdb.errors import ArithmeticOverflow, CarrierMismatch, UnboundVariable
from pvcdb.exprtext import format_expr, parse_expr

from normal_form import equivalent, occurrences

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL


class TestMonoids:
    @pytest.mark.parametrize("kind", list(MonoidKind))
    def test_neutral_element(self, kind):
        for m in (0, 1, 5, 17):
            assert kind.plus(kind.neutral, m) == m
            assert kind.plus(m, kind.neutral) == m

    @pytest.mark.parametrize("kind", list(MonoidKind))
    def test_commutative_associative(self, kind):
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = (rng.randint(0, 40) for _ in range(3))
            assert kind.plus(a, b) == kind.plus(b, a)
            assert kind.plus(kind.plus(a, b), c) == kind.plus(a, kind.plus(b, c))

    def test_specific_operations(self):
        assert MonoidKind.SUM.plus(2, 3) == 5
        assert MonoidKind.MIN.plus(2, 3) == 2
        assert MonoidKind.MAX.plus(2, 3) == 3
        assert MonoidKind.PROD.plus(2, 3) == 6
        assert MonoidKind.COUNT.plus(2, 3) == 5
        assert MonoidKind.MIN.neutral == INF
        assert MonoidKind.MAX.neutral == NEG_INF

    def test_checked_overflow(self):
        big = 2**63
        with pytest.raises(ArithmeticOverflow):
            MonoidKind.SUM.plus(big, big)
        with pytest.raises(ArithmeticOverflow):
            MonoidKind.PROD.plus(big, big)


class TestSemirings:
    @pytest.mark.parametrize("sk", [B, N])
    def test_laws_on_sampled_triples(self, sk):
        rng = random.Random(11)
        hi = 1 if sk is B else 30
        for _ in range(100):
            a, b, c = (rng.randint(0, hi) for _ in range(3))
            assert sk.add(a, b) == sk.add(b, a)
            assert sk.mul(a, b) == sk.mul(b, a)
            assert sk.add(sk.add(a, b), c) == sk.add(a, sk.add(b, c))
            assert sk.mul(sk.mul(a, b), c) == sk.mul(a, sk.mul(b, c))
            assert sk.mul(a, sk.add(b, c)) == sk.add(sk.mul(a, b), sk.mul(a, c))
            assert sk.mul(0, a) == 0
            assert sk.mul(1, a) == a

    def test_boolean_constant_check(self):
        with pytest.raises(CarrierMismatch):
            B.check_constant(2)
        assert N.check_constant(2) == 2


class TestScaling:
    def test_min_max_fire_or_not(self):
        assert alg.scale(6, 5, MonoidKind.MIN) == 5
        assert alg.scale(0, 5, MonoidKind.MIN) == INF
        assert alg.scale(2, 7, MonoidKind.MAX) == 7
        assert alg.scale(0, 7, MonoidKind.MAX) == NEG_INF

    def test_sum_and_prod_folds(self):
        assert alg.scale(3, 5, MonoidKind.SUM) == 15
        assert alg.scale(3, 5, MonoidKind.PROD) == 125
        assert alg.scale(0, 5, MonoidKind.SUM) == 0
        assert alg.scale(0, 5, MonoidKind.PROD) == 1


class TestEvalSemiring:
    def test_boolean_product_of_sum(self):
        e = parse_expr("x1*y11*(z1 + z5)")
        nu = {"x1": 1, "y11": 1, "z1": 1, "z5": 1}
        assert e.eval(nu, B) == 1
        nu["z1"] = nu["z5"] = 0
        assert e.eval(nu, B) == 0

    def test_grouped_max_annotation_fires(self):
        # The worked shops query: for the M&S group, the valuation that
        # turns on suppliers 1 and 2 and products 1, 2, 5 satisfies both
        # the max-price bound and the non-emptiness condition.
        cond = parse_expr(
            "[max{x1*y11*(z1 + z5)(x)10 + x1*y12*z2(x)50 + x2*y21*(z1 + z5)(x)11"
            " + x2*y22*z2(x)60 + x3*y33*z3(x)15 + x3*y34*z4(x)40} <= 50]"
        )
        psi = parse_expr(
            "[x1*y11*(z1 + z5) + x1*y12*z2 + x2*y21*(z1 + z5) + x2*y22*z2"
            " + x3*y33*z3 + x3*y34*z4 != 0]"
        )
        phi = alg.make_product([cond, psi])
        nu = {v: 0 for v in alg.variables(phi)}
        for v in ("x1", "x2", "y11", "y21", "z1", "z2", "z5"):
            nu[v] = 1
        assert phi.eval(nu, B) == 1

    def test_natural_sum(self):
        e = parse_expr("x + y")
        assert e.eval({"x": 2, "y": 3}, N) == 5

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            parse_expr("x + y").eval({"x": 1}, N)

    def test_boolean_constant_rejected(self):
        with pytest.raises(CarrierMismatch):
            parse_expr("2*x").eval({"x": 1}, B)


class TestEvalSemimodule:
    def test_min_of_fired_terms(self):
        a = parse_expr("min{x*y(x)5 + (x + z)(x)10}")
        assert a.eval({"x": 2, "y": 3, "z": 0}, N) == 5

    def test_weighted_sum(self):
        a = parse_expr("sum{z1(x)4 + z2(x)8 + z3(x)7 + z4(x)6}")
        assert a.eval({"z1": 2, "z2": 2, "z3": 0, "z4": 0}, N) == 24

    def test_boolean_min(self):
        a = parse_expr("min{z1(x)4 + z2(x)8 + z3(x)7 + z4(x)6}")
        assert a.eval({"z1": 0, "z2": 1, "z3": 1, "z4": 1}, B) == 6

    def test_all_zero_yields_neutral(self):
        nu = {"z%d" % i: 0 for i in range(1, 5)}
        a = parse_expr("sum{z1(x)4 + z2(x)8 + z3(x)7 + z4(x)6}")
        assert a.eval(nu, N) == 0
        m = parse_expr("min{z1(x)4 + z2(x)8 + z3(x)7 + z4(x)6}")
        assert m.eval(nu, B) == INF


class TestVariables:
    def test_constant_has_none(self):
        assert alg.variables(Const(1)) == set()
        assert alg.variables(MConst(MonoidKind.SUM, 3)) == set()

    def test_duplicates_collapse(self):
        assert alg.variables(parse_expr("x + x*y")) == {"x", "y"}

    def test_disjoint_expression_pair(self):
        phi = parse_expr("x + y")
        a = parse_expr("sum{a*(b + c)(x)10 + c(x)20}")
        assert alg.variables(phi) & alg.variables(a) == set()
        assert alg.variables(a) == {"a", "b", "c"}

    def test_conditional_sides_counted(self):
        e = parse_expr("[min{p(x)3} <= 7]*q")
        assert alg.variables(e) == {"p", "q"}


def _rand_semiring_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return Const(rng.randint(0, 1))
        return Var(rng.choice(names))
    parts = [_rand_semiring_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    build = alg.make_sum if rng.random() < 0.5 else alg.make_product
    return build(parts)


def _shuffled_copy(rng, expr):
    """Reassociate and commute the same expression."""
    if isinstance(expr, Add):
        parts = [_shuffled_copy(rng, p) for p in expr.parts]
        rng.shuffle(parts)
        mid = max(1, len(parts) // 2)
        return alg.make_sum([alg.make_sum(parts[:mid]), alg.make_sum(parts[mid:])])
    if isinstance(expr, Mul):
        parts = [_shuffled_copy(rng, p) for p in expr.parts]
        rng.shuffle(parts)
        mid = max(1, len(parts) // 2)
        return alg.make_product(
            [alg.make_product(parts[:mid]), alg.make_product(parts[mid:])]
        )
    return expr


class TestEvaluationProperties:
    def test_homomorphism_over_sampled_valuations(self):
        rng = random.Random(23)
        names = ["a", "b", "c", "d"]
        for _ in range(100):
            phi = _rand_semiring_expr(rng, names, 2)
            psi = _rand_semiring_expr(rng, names, 2)
            for sk, hi in ((B, 1), (N, 4)):
                nu = {n: rng.randint(0, hi) for n in names}
                assert alg.make_sum([phi, psi]).eval(nu, sk) == sk.add(
                    phi.eval(nu, sk), psi.eval(nu, sk)
                )
                assert alg.make_product([phi, psi]).eval(nu, sk) == sk.mul(
                    phi.eval(nu, sk), psi.eval(nu, sk)
                )

    def test_order_insensitivity(self):
        rng = random.Random(31)
        names = ["a", "b", "c", "d", "e"]
        for _ in range(100):
            expr = _rand_semiring_expr(rng, names, 3)
            copy = _shuffled_copy(rng, expr)
            nu = {n: rng.randint(0, 3) for n in names}
            assert expr.eval(nu, N) == copy.eval(nu, N)
            assert equivalent(expr, copy)

    def test_scaling_distributes_over_semiring_sum(self):
        rng = random.Random(37)
        for kind in (MonoidKind.MIN, MonoidKind.MAX, MonoidKind.SUM):
            for _ in range(50):
                s1, s2 = rng.randint(0, 3), rng.randint(0, 3)
                m = rng.randint(0, 9)
                lhs = alg.scale(s1 + s2, m, kind)
                rhs = kind.plus(alg.scale(s1, m, kind), alg.scale(s2, m, kind))
                assert lhs == rhs

    def test_scaling_distributes_over_monoid_sum(self):
        rng = random.Random(39)
        for kind in (MonoidKind.MIN, MonoidKind.MAX, MonoidKind.SUM):
            for _ in range(50):
                s = rng.randint(0, 3)
                m1, m2 = rng.randint(0, 9), rng.randint(0, 9)
                lhs = alg.scale(s, kind.plus(m1, m2), kind)
                rhs = kind.plus(alg.scale(s, m1, kind), alg.scale(s, m2, kind))
                assert lhs == rhs

    def test_scaling_composes_with_semiring_product(self):
        rng = random.Random(43)
        for kind in (MonoidKind.MIN, MonoidKind.MAX, MonoidKind.SUM):
            for _ in range(50):
                s1, s2 = rng.randint(0, 3), rng.randint(0, 3)
                m = rng.randint(0, 9)
                assert alg.scale(s1 * s2, m, kind) == alg.scale(
                    s1, alg.scale(s2, m, kind), kind
                )

    def test_conditional_totality(self):
        rng = random.Random(41)
        names = ["a", "b"]
        for _ in range(60):
            left = _rand_semiring_expr(rng, names, 2)
            right = _rand_semiring_expr(rng, names, 2)
            theta = rng.choice(alg.THETAS)
            nu = {n: rng.randint(0, 3) for n in names}
            assert Cmp(left, theta, right).eval(nu, N) in (0, 1)


class TestNormalization:
    def test_distribution_into_clauses(self):
        assert equivalent(parse_expr("x*(y + z)"), parse_expr("x*y + x*z"))
        assert not equivalent(parse_expr("x*(y + z)"), parse_expr("x*y + z"))

    def test_semimodule_expansion(self):
        a = parse_expr("sum{(a + b)(x)5}")
        b = parse_expr("sum{a(x)5 + b(x)5}")
        assert equivalent(a, b)

    def test_duplicates_are_kept(self):
        assert not equivalent(parse_expr("x + x"), parse_expr("x"))


class TestSmartConstructors:
    def test_msum_merges_constants(self):
        out = alg.make_msum(
            MonoidKind.SUM,
            [MConst(MonoidKind.SUM, 3), MConst(MonoidKind.SUM, 4)],
        )
        assert isinstance(out, MConst) and out.value == 7

    def test_min_constant_absorbs_higher_terms(self):
        out = alg.make_msum(
            MonoidKind.MIN,
            [
                MConst(MonoidKind.MIN, 5),
                Scaled(MonoidKind.MIN, Var("x"), 9),
                Scaled(MonoidKind.MIN, Var("y"), 3),
            ],
        )
        assert isinstance(out, MSum)
        assert {t.value for t in out.terms if isinstance(t, Scaled)} == {3}

    def test_substitute_simplifies(self):
        a = parse_expr("sum{a*(b + c)(x)10 + c(x)20}")
        sub = alg.substitute(a, "c", 0)
        assert alg.variables(sub) == {"a", "b"}
        assert equivalent(sub, parse_expr("sum{a*b(x)10}"))

    def test_mixed_kind_sum_rejected(self):
        with pytest.raises(CarrierMismatch):
            MSum(
                MonoidKind.MIN,
                [Scaled(MonoidKind.MAX, Var("x"), 1)],
            )


def _min_sum(k):
    kind = MonoidKind.MIN
    return alg.make_msum(
        kind, [Scaled(kind, Var("x"), 2), Scaled(kind, Var("y"), 5), MConst(kind, k)]
    )


def _max_sum(k):
    kind = MonoidKind.MAX
    return alg.make_msum(
        kind, [Scaled(kind, Var("x"), 8), Scaled(kind, Var("y"), 5), MConst(kind, k)]
    )


def _cmp_valuations(semirings):
    """Every valuation of x and y, with x 3-valued under nat."""
    for sk in semirings:
        for x in (0, 1) if sk is B else (0, 1, 2):
            for y in (0, 1):
                yield sk, {"x": x, "y": y}


def _cmp_cases():
    """(left, right, semirings that hold the constants) triples."""
    # Constant parts below, at and above the bound 5, on either side; a
    # term of value 5 makes every comparison that the rule leaves open
    # depend on the valuation.
    for k in (3, 5, 7):
        for side in (_min_sum(k), _max_sum(k)):
            bound = MConst(side.kind, 5)
            yield side, bound, (B, N)
            yield bound, side, (B, N)
    for c in (0, 1, 2):
        semirings = (B, N) if c < 2 else (N,)
        yield Add([Const(1), Var("x")]), Const(c), semirings
        yield Const(c), Add([Var("x"), Const(1)]), semirings
    for a in (0, 1):
        for b in (0, 1):
            yield Const(a), Const(b), (B, N)
            yield MConst(MonoidKind.MIN, a * 5), MConst(MonoidKind.MAX, b * 5), (B, N)


class TestMakeCmp:
    @pytest.mark.parametrize("theta", alg.THETAS)
    def test_folds_exactly_the_decided_comparisons(self, theta):
        for left, right, semirings in _cmp_cases():
            unfolded = Cmp(left, theta, right)
            folded = alg.make_cmp(left, theta, right)
            values = {unfolded.eval(nu, sk) for sk, nu in _cmp_valuations(semirings)}
            if isinstance(folded, Const):
                assert values == {folded.value}, unfolded
            else:
                assert folded == unfolded
                assert len(values) == 2, unfolded

    @pytest.mark.parametrize("theta", alg.THETAS)
    def test_variable_free_sums_stay_unfolded(self, theta):
        # 1 + 1 is 1 under bool and 2 under nat, so neither comparison
        # may be decided without knowing the semiring.
        two = Add([Const(1), Const(1)])
        scaled = Scaled(MonoidKind.SUM, two, 2)
        cases = ((two, Const(2), (N,)), (scaled, MConst(MonoidKind.SUM, 4), (B, N)))
        for left, right, semirings in cases:
            out = alg.make_cmp(left, theta, right)
            assert out == Cmp(left, theta, right)
            for sk in semirings:
                assert out.eval({}, sk) == Cmp(left, theta, right).eval({}, sk)

    @pytest.mark.parametrize("theta", alg.THETAS)
    def test_compare_ranges_is_exact_on_integer_ranges(self, theta):
        ranges = [(lo, hi) for lo in range(4) for hi in range(lo, 4)]
        for a in ranges:
            for b in ranges:
                outcomes = {
                    alg.compare(x, y, theta)
                    for x in range(a[0], a[1] + 1)
                    for y in range(b[0], b[1] + 1)
                }
                decided = alg.compare_ranges(a, theta, b)
                assert (None if len(outcomes) == 2 else outcomes.pop()) == decided

    def test_mixed_sorts_rejected(self):
        with pytest.raises(CarrierMismatch):
            alg.make_cmp(Const(1), "=", MConst(MonoidKind.MIN, 1))

    def test_substitute_folds_presence_conditional(self):
        presence = parse_expr("[x + y != 0]")
        assert alg.substitute(presence, "x", 1) == Const(1)
        assert alg.substitute(presence, "x", 0) == parse_expr("[y != 0]")
        selection = parse_expr("[min{x(x)3 + y(x)9} <= 5]")
        assert alg.substitute(selection, "x", 1) == Const(1)
        assert alg.substitute(selection, "y", 1) == parse_expr("[min{x(x)3 + 9} <= 5]")


class TestMakeScaled:
    # Weights that are at least 1 under every valuation in both
    # semirings: a semiring sum with a non-zero constant summand.
    NONZERO = (
        Add([Const(1), Var("x")]),
        Add([Var("x"), Mul([Var("x"), Var("y")]), Const(1)]),
    )

    @pytest.mark.parametrize("kind", list(MonoidKind))
    def test_folds_nonzero_weights_under_min_and_max_only(self, kind):
        for weight in self.NONZERO:
            out = alg.make_scaled(kind, weight, 4)
            if kind in (MonoidKind.MIN, MonoidKind.MAX):
                assert out == MConst(kind, 4)
            else:
                assert out == Scaled(kind, weight, 4)

    @pytest.mark.parametrize("kind", [MonoidKind.MIN, MonoidKind.MAX])
    def test_weights_that_may_be_zero_stay_symbolic(self, kind):
        for weight in (Var("x"), Add([Var("x"), Var("y")]), Add([Const(0), Var("x")]),
                       Mul([Const(2), Var("x")]), Cmp(Var("x"), "=", Const(0))):
            assert alg.make_scaled(kind, weight, 4) == Scaled(kind, weight, 4)

    @pytest.mark.parametrize("kind", list(MonoidKind))
    def test_folded_term_equals_unfolded_under_every_valuation(self, kind):
        for weight in self.NONZERO:
            for value in (0, 3, kind.neutral):
                unfolded = Scaled(kind, weight, value)
                folded = alg.make_scaled(kind, weight, value)
                for sk, nu in _cmp_valuations((B, N)):
                    assert folded.eval(nu, sk) == unfolded.eval(nu, sk)

    def test_substitution_folds_a_fired_clause(self):
        # x = 1 leaves 1 + y*z as the weight of the 2-term, which then
        # absorbs the 7-term and decides the comparison.
        cond = parse_expr("[min{(x + y*z)(x)2 + w(x)7} <= 5]")
        assert alg.substitute(cond, "x", 1) == Const(1)
        assert alg.substitute(parse_expr("max{(x + y)(x)2 + w(x)7}"), "x", 1) == parse_expr(
            "max{w(x)7 + 2}"
        )
        sum_term = parse_expr("sum{(x + y)(x)2}")
        assert alg.substitute(sum_term, "x", 1) == Scaled(
            MonoidKind.SUM, Add([Const(1), Var("y")]), 2
        )


class TestHashConsing:
    """Every constructor returns the one live node built from equal
    arguments, so structural equality is identity."""

    def test_commuted_sums_and_products_are_one_node(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert alg.make_sum([a, b]) is alg.make_sum([b, a])
        assert Add([a, b]) is alg.make_sum([b, a])
        nested = alg.make_product([a, alg.make_product([c, b])])
        assert nested is alg.make_product([b, a, c])
        assert nested is Mul([c, a, b])
        term, seven = Scaled(MonoidKind.MIN, a, 3), MConst(MonoidKind.MIN, 7)
        assert alg.make_msum(MonoidKind.MIN, [term, seven]) is MSum(MonoidKind.MIN, [seven, term])
        assert alg.make_sum([a, b]).key() == alg.make_sum([b, a]).key()
        assert alg.make_sum([a, b]) is not alg.make_product([a, b])
        assert Cmp(a, "<=", b) is not Cmp(b, "<=", a)

    @pytest.mark.parametrize(
        "text",
        [
            "x1*y11*(z1 + z5)",
            "[min{x(x)5 + y(x)10} <= 15]",
            "[max{a*b(x)10 + 4} >= min{c(x)2}]*[d != 0]",
            "sum{z1(x)4 + z2(x)8 + 3}",
            "count{2*a(x)1}",
        ],
    )
    def test_parse_of_print_is_the_same_node(self, text):
        e = parse_expr(text)
        assert parse_expr(format_expr(e)) is e

    def test_constant_comparisons_print_their_monoid(self):
        for left, right in [
            (MConst(MonoidKind.MIN, 0), MConst(MonoidKind.MIN, 1)),
            (parse_expr("min{a(x)3}"), MConst(MonoidKind.MAX, 1)),
        ]:
            e = Cmp(left, "=", right)
            assert parse_expr(format_expr(e)) is e

    def test_substitute_interns_and_keeps_untouched_subtrees(self):
        e = parse_expr("x*y + z*w + [min{x(x)7 + u(x)2} >= 5]")
        zw = parse_expr("z*w")
        out = alg.substitute(e, "x", 1)
        assert out is parse_expr("y + z*w + [min{u(x)2 + 7} >= 5]")
        assert any(p is zw for p in out.parts)
        assert alg.substitute(e, "q", 1) is e
        assert alg.substitute(zw, "x", 0) is zw

    def test_dead_expressions_leave_the_table(self):
        gc.collect()
        size = len(alg._TABLE)
        keep = [
            alg.make_product([Var("t%d" % i), Var("u%d" % (i % 7))]) for i in range(5000)
        ]
        assert len(alg._TABLE) >= size + 10000
        peak = len(alg._VAR_NAMES)
        del keep
        gc.collect()
        assert len(alg._TABLE) == size
        # Bits of dead variables are reused, so the index does not grow.
        again = [Var("w%d" % i) for i in range(100)]
        assert len(alg._VAR_NAMES) == peak
        assert alg.variables(alg.make_sum(again)) == {"w%d" % i for i in range(100)}

    def test_occurrences_are_a_copy(self):
        e = parse_expr("x*y + x")
        counts = occurrences(e)
        counts["x"] += 10
        assert occurrences(e) == {"x": 2, "y": 1}

    def test_commuted_duplicates_print_in_the_first_built_order(self):
        # x*y and y*x are one node, which keeps the operand order it was
        # built with; the meaning is the same either way.
        assert format_expr(parse_expr("hc_x*hc_y + hc_y*hc_x")) == "hc_x*hc_y + hc_x*hc_y"
        first = parse_expr("hc_y*hc_x")
        assert format_expr(parse_expr("hc_x*hc_y + hc_y*hc_x")) == "hc_y*hc_x + hc_y*hc_x"
        assert format_expr(first) == "hc_y*hc_x"

    def test_values_equal_to_an_int_are_not_taken_for_it(self):
        # True and 1.0 hash like 1, so the table must not hand back the
        # live node of 1 in place of rejecting them.
        keep = [MConst(MonoidKind.SUM, 1), Scaled(MonoidKind.SUM, Var("hc_a"), 1), Const(1)]
        for bad in (True, 1.0):
            with pytest.raises(CarrierMismatch):
                MConst(MonoidKind.SUM, bad)
            with pytest.raises(CarrierMismatch):
                Scaled(MonoidKind.SUM, Var("hc_a"), bad)
            with pytest.raises(CarrierMismatch):
                Const(bad).eval({}, B)
            assert Const(bad) is not Const(1)
        assert MConst(MonoidKind.MIN, INF) is MConst(MonoidKind.MIN, INF)
        with pytest.raises(CarrierMismatch):
            MConst(MonoidKind.SUM, INF)
        assert keep[0].value == 1

    def test_monoid_sum_of_an_iterator_keeps_every_term(self):
        kind = MonoidKind.SUM
        a, b, c = (Scaled(kind, Var(n), v) for n, v in (("hc_a", 2), ("hc_b", 3), ("hc_c", 4)))
        inner = MSum(kind, [b, MConst(kind, 5)])
        terms = [a, MConst(kind, 1), inner, c, MSum(kind, [MConst(kind, 2), a])]
        want = alg.make_msum(kind, terms)
        assert alg.make_msum(kind, iter(terms)) is want
        assert format_expr(want) == "sum{hc_a(x)2 + hc_b(x)3 + hc_c(x)4 + hc_a(x)2 + 8}"

    def test_constants_of_either_sort_share_one_compiled_leaf(self):
        # A monoid constant and the like-valued semiring constant are
        # different nodes (a comparison needs its sides' sort), but both
        # are just the value 1 to the compiler, which gives them one leaf.
        assert MConst(MonoidKind.MIN, 1) is not Const(1)
        assert MConst(MonoidKind.MIN, 1) is not MConst(MonoidKind.MAX, 1)
        tree = dtree.compile_joint([Const(1), MConst(MonoidKind.MIN, 1)], {})
        first, second = tree.parts
        assert first is second
        assert dtree.node_count(tree) == 2

    def test_compilation_does_not_depend_on_the_hash_seed(self):
        script = (
            "from pvcdb import cli, dtree\n"
            "p = cli.GenParams(terms_left=30, clauses=3, literals=3, num_vars=25,"
            " maxv=100, c=40, seed=11)\n"
            "e, d = cli.gen_expression(p), cli.gen_var_dists(p, 0.5)\n"
            "t = dtree.compile(dtree.prune_all(e, var_dists=d), d)\n"
            "print(dtree.node_count(t), dtree.mutex_count(t), dtree.distribution(t).entries)\n"
        )
        outs = []
        for seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=str(pathlib.Path(pvcdb.__file__).parents[1]),
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert int(outs[0].split()[1]) > 0


NAMES = ("a", "b", "c")


@st.composite
def _expressions(draw, sk, depth=3):
    """A semiring expression over NAMES with every node type: sums,
    products and conditionals built raw or through the smart
    constructors, conditionals on semiring and on monoid sides, and
    scaled terms and monoid sums over all five monoids."""
    consts = (0, 1) if sk is B else (0, 1, 2)

    def semiring(depth):
        shape = draw(st.integers(0, 4 if depth else 1))
        if shape == 0:
            return Var(draw(st.sampled_from(NAMES)))
        if shape == 1:
            return Const(draw(st.sampled_from(consts)))
        if shape in (2, 3):
            parts = [semiring(depth - 1) for _ in range(draw(st.integers(2, 3)))]
            raw, smart = (Add, alg.make_sum) if shape == 2 else (Mul, alg.make_product)
            return (raw if draw(st.booleans()) else smart)(parts)
        if draw(st.booleans()):
            left, right = semiring(depth - 1), semiring(depth - 1)
        else:
            left, right = monoid(depth - 1), monoid(depth - 1)
        build = Cmp if draw(st.booleans()) else alg.make_cmp
        return build(left, draw(st.sampled_from(alg.THETAS)), right)

    def monoid(depth):
        kind = draw(st.sampled_from(list(MonoidKind)))
        values = st.integers(0, 1 if kind is MonoidKind.PROD else 9)
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.integers(0, 3)):
                build = Scaled if draw(st.booleans()) else alg.make_scaled
                terms.append(build(kind, semiring(max(depth - 1, 0)), draw(values)))
            else:
                terms.append(MConst(kind, draw(values)))
        if len(terms) == 1:
            return terms[0]
        return (MSum if draw(st.booleans()) else alg.make_msum)(kind, terms)

    return semiring(depth)


def _subexpressions(expr):
    return list(alg.fold((expr,), lambda e: e, {}))


class TestSubstitution:
    """``substitute`` against evaluation, over both semirings and
    0/1/2-valued NATURAL variables."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_substitute_evaluates_like_the_binding(self, data):
        sk = data.draw(st.sampled_from([B, N]))
        values = (0, 1) if sk is B else (0, 1, 2)
        exprs = data.draw(st.lists(_expressions(sk), min_size=1, max_size=3))
        x, v = data.draw(st.sampled_from(NAMES)), data.draw(st.sampled_from(values))
        nus = [
            dict(zip(NAMES, combo), **{x: v})
            for combo in itertools.product(values, repeat=len(NAMES))
            if combo[NAMES.index(x)] == v
        ]
        shared = {}
        for expr in exprs:
            out = alg.substitute(expr, x, v, shared)
            assert out is alg.substitute(expr, x, v)  # a fresh memo agrees
            assert x not in out.vars()
            try:
                want = alg.eval_under((expr,), nus, sk)
            except ArithmeticOverflow:
                continue
            assert alg.eval_under((out,), nus, sk) == want, (expr, out)
            for sub in _subexpressions(expr):
                if x not in sub.vars():
                    assert alg.substitute(sub, x, v, shared) is sub


class TestConditionalFlag:
    """``has_cmp`` against a fold kept here: a conditional has one below
    it, any other node where one of its children does."""

    @staticmethod
    def _reference(expr):
        flags = {}
        alg.fold(
            (expr,), lambda e: type(e) is Cmp or any(flags[c] for c in e.children()), flags
        )
        return flags

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_a_reference_fold(self, data):
        expr = data.draw(_expressions(data.draw(st.sampled_from([B, N]))))
        for sub, flag in self._reference(expr).items():
            assert sub.has_cmp is flag, sub

    @pytest.mark.parametrize(
        "text",
        [
            "x",
            "2",
            "x*y + z",
            "min{x(x)3 + 4}",
            "sum{x*[y = 0](x)2}",
            "[x + y != 0]",
            "x*[y <= z]",
        ],
    )
    def test_parsed_and_raw_nodes(self, text):
        expr = parse_expr(text)
        if isinstance(expr, alg.MExpr):
            raw = [Cmp(expr, "<=", MConst(expr.kind, 5))]
        else:
            raw = [Add([expr, Var("w")]), Mul([Const(1), expr])]
        for e in [expr, *raw]:
            for sub, flag in self._reference(e).items():
                assert sub.has_cmp is flag, sub
