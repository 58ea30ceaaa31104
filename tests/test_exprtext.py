import random

import pytest

from pvcdb import algebra as alg
from pvcdb import exprtext
from pvcdb.algebra import MonoidKind, Var
from pvcdb.errors import ParseError
from pvcdb.exprtext import format_expr, parse_expr


class TestParsing:
    def test_product_of_sum(self):
        e = parse_expr("x1*y11*(z1 + z5)")
        assert alg.variables(e) == {"x1", "y11", "z1", "z5"}
        assert format_expr(e) == "x1*y11*(z1 + z5)"

    def test_suffix_monoid_tag(self):
        # the compact conditional form with the tag after the bracket
        e = parse_expr("[ x (x) 5 <= 15 ] min")
        assert format_expr(e) == "[min{x(x)5} <= 15]"

    def test_braced_monoid_sum(self):
        e = parse_expr("max{a*b(x)10 + c(x)20 + 7}")
        assert isinstance(e, alg.MSum)
        assert e.kind is MonoidKind.MAX

    def test_bare_bound_coerced_to_monoid_constant(self):
        e = parse_expr("[min{x(x)5} <= 15]")
        assert isinstance(e.right, alg.MConst)

    def test_infinities(self):
        e = parse_expr("[min{x(x)5} != +inf]")
        assert e.right.value == alg.INF
        assert format_expr(e) == "[min{x(x)5} != +inf]"

    def test_semiring_comparison(self):
        e = parse_expr("[x + y >= 2]")
        assert isinstance(e.left, alg.Add)
        assert isinstance(e.right, alg.Const)

    def test_conditional_as_factor(self):
        e = parse_expr("[a != 0]*[min{b(x)3} <= 4]*c")
        assert isinstance(e, alg.Mul)
        assert len(e.parts) == 3

    def test_mixed_monoids_in_one_comparison(self):
        e = parse_expr("[min{a(x)4} <= max{b(x)9}]")
        assert e.left.kind is MonoidKind.MIN
        assert e.right.kind is MonoidKind.MAX

    def test_scaled_sum_needs_tag(self):
        with pytest.raises(ParseError):
            parse_expr("a(x)5 + b(x)10")

    def test_garbage_rejected(self):
        for text in ("x + ", "min{x}", "[x <=]", "x ? y", "(x + y"):
            with pytest.raises(ParseError):
                parse_expr(text)

    @pytest.mark.parametrize("text", ["x0", "_y", "min", "inf", "count"])
    def test_bare_identifier_is_the_variable_the_grammar_reads(self, text):
        assert parse_expr(text).key() == exprtext._Parser(text).parse_expr().key()


def _rand_expr(rng, depth=3):
    names = ["a", "b", "c", "x4", "z1"]
    if rng.random() < 0.25:
        kind = rng.choice(list(MonoidKind))
        terms = []
        for _ in range(rng.randint(1, 3)):
            weight = _rand_plain(rng, names, depth - 1)
            terms.append(alg.make_scaled(kind, weight, rng.randint(0, 30)))
        return alg.make_msum(kind, terms)
    return _rand_plain(rng, names, depth)


def _rand_plain(rng, names, depth):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return alg.Const(rng.randint(0, 3))
        return Var(rng.choice(names))
    roll = rng.random()
    parts = [_rand_plain(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    if roll < 0.4:
        return alg.make_sum(parts)
    if roll < 0.8:
        return alg.make_product(parts)
    kind = rng.choice(list(MonoidKind))
    left = alg.make_scaled(kind, parts[0], rng.randint(0, 9))
    right = alg.MConst(kind, rng.randint(0, 9))
    return alg.Cmp(left, rng.choice(alg.THETAS), right)


class TestRoundTrip:
    def test_parse_after_print_is_identity(self):
        rng = random.Random(5)
        for _ in range(300):
            expr = _rand_expr(rng)
            text = format_expr(expr)
            again = parse_expr(text)
            assert again == expr, text
            assert format_expr(again) == text

    def test_fixture_round_trips(self):
        texts = [
            "x1*y11*(z1 + z5)",
            "[min{x(x)5 + y(x)10} <= 15]",
            "sum{z1(x)4 + z2(x)8 + z3(x)7 + z4(x)6}",
            "[max{a*b(x)10} >= min{c(x)2}]*[d != 0]",
        ]
        for text in texts:
            assert format_expr(parse_expr(text)) == text
