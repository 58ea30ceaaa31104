import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcdb import algebra as alg
from pvcdb import cli, exprtext
from pvcdb.algebra import INF, NEG_INF, MonoidKind, Var
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
        assert parse_expr(text).key() == exprtext._parse(text).key()

    def test_suffix_tag_after_a_scaled_sum_or_an_infinity(self):
        assert parse_expr("x(x)5 + y(x)3 max") is parse_expr("max{x(x)5 + y(x)3}")
        assert parse_expr("3 + +inf min") is alg.MConst(MonoidKind.MIN, 3)
        assert parse_expr("-inf max") is alg.MConst(MonoidKind.MAX, NEG_INF)
        assert parse_expr("[+inf > y(x)3] max") is parse_expr("[max{+inf} > max{y(x)3}]")


# Each malformed input with the message and position that the recursive
# descent parser reported; the one-scan parser must report the same.
ERRORS = [
    ("x + ", "expected a variable, number, '(' or '['", -1),
    ("(x + y", "expected ')', found None", -1),
    ("[x]", "expected a comparison operator, found ']'", 2),
    ("min{}", "expected a variable, number, '(' or '['", 4),
    ("min{x(x)3", "expected '}', found None", -1),
    ("x ? y", "unexpected character '?'", 1),
    ("*x", "expected a variable, number, '(' or '['", 0),
    ("(x)", "expected a variable, number, '(' or '['", 0),
    ("1x", "trailing input 'x'", 1),
    ("", "expected a variable, number, '(' or '['", -1),
    ("x y", "trailing input 'y'", 2),
    ("xé", "unexpected character 'é'", 1),
    # scaled sums
    ("a(x)5 + b(x)10", "scaled sum needs a monoid tag", -1),
    ("[a(x)5 <= 3]", "scaled sum needs a monoid tag", 7),
    ("[a(x)5 + b <= 3] min", "plain semiring summand inside a scaled sum", 11),
    ("min{x}", "expected '(x)', found '}'", 5),
    ("min{+inf(x)3}", "expected '}', found '(x)'", 8),
    # comparison operators
    ("[x + y]", "expected a comparison operator, found ']'", 6),
    ("[x 5]", "expected a comparison operator, found 5", 3),
    ("[x +inf]", "expected a comparison operator, found inf", 3),
    ("[x <= y", "expected ']', found None", -1),
    ("[x <=]", "expected a variable, number, '(' or '['", 5),
    ("[min{x(x)3} <= y]", "cannot compare a semiring expression with an aggregate", 12),
    ("[y > max{x(x)3}]", "cannot compare a semiring expression with an aggregate", 3),
    # aggregation values
    ("min{x(x)y}", "expected an aggregation value, found 'y'", 8),
    ("x(x)", "expected an aggregation value, found None", -1),
    ("[x(x)+ <= 3] min", "expected an aggregation value, found '+'", 5),
    # a stray character is reported before an error met earlier
    ("sum{x(x)+inf} ?", "unexpected character '?'", 13),
    ("[a(x)5 <= 3] ?", "unexpected character '?'", 12),
]


class TestErrors:
    @pytest.mark.parametrize("text,message,pos", ERRORS)
    def test_message_and_position(self, text, message, pos):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert str(info.value) == "%s (at position %d)" % (message, pos)
        assert info.value.pos == pos

    @pytest.mark.parametrize(
        "text,pos", [("x + +inf", -1), ("[x + +inf != 0]", 10), ("[2 + -inf = y]", 10)]
    )
    def test_infinity_in_a_plain_sum(self, text, pos):
        # An infinity is a monoid value: the sum it is in needs a tag.
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert str(info.value) == "scaled sum needs a monoid tag (at position %d)" % pos

    def test_infinity_in_a_plain_sum_is_one_error_line(self, tmp_path, capsys):
        probs = tmp_path / "p.tsv"
        probs.write_text("x\t0\t0.5\nx\t1\t0.5\n")
        code = cli.run(["prob", "--expr", "x + +inf", "--probs", str(probs)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scaled sum needs a monoid tag (at position -1)\n"
        )

    @pytest.mark.parametrize(
        "text,tag,pos",
        [
            ("min{x(x)3} max", "max", 11),
            ("x min", "min", 2),
            ("[x != 0] max", "max", 9),
            ("[min{x(x)3} <= 2] sum", "sum", 18),
            ("x*[y(x)3 <= 2] min count", "count", 19),
        ],
    )
    def test_tag_with_nothing_to_tag_is_trailing_input(self, text, tag, pos):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert str(info.value) == "trailing input %r (at position %d)" % (tag, pos)


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


NAMES = st.sampled_from(["a", "b", "x4", "z1", "min", "inf"])
KINDS = st.sampled_from(list(MonoidKind))


def _mvals(kind):
    values = st.integers(0, 30)
    if kind in (MonoidKind.MIN, MonoidKind.MAX):
        values = values | st.sampled_from([INF, NEG_INF])
    return values


def _monoid_side(kind, semiring):
    """A monoid constant, or a monoid sum of scaled terms and constants."""
    const = _mvals(kind).map(functools.partial(alg.MConst, kind))
    scaled = st.builds(functools.partial(alg.make_scaled, kind), semiring, _mvals(kind))
    terms = st.lists(scaled | const, min_size=1, max_size=3)
    return const | terms.map(functools.partial(alg.make_msum, kind))


def _compound(inner):
    monoid = KINDS.flatmap(lambda kind: _monoid_side(kind, inner))
    thetas = st.sampled_from(alg.THETAS)
    parts = st.lists(inner, min_size=2, max_size=3)
    return st.one_of(
        parts.map(alg.make_sum),
        parts.map(alg.make_product),
        st.builds(alg.Cmp, inner, thetas, inner),
        st.builds(alg.Cmp, monoid, thetas, monoid),
    )


# Constants cover both semirings: Boolean 0/1 and larger naturals.
SEMIRING = st.recursive(
    NAMES.map(Var) | st.integers(0, 5).map(alg.Const), _compound, max_leaves=10
)
EXPRESSIONS = SEMIRING | KINDS.flatmap(lambda kind: _monoid_side(kind, SEMIRING))
SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def _nest(levels, wrap, inner):
    for k in range(levels - 1, -1, -1):
        inner = wrap(k, inner)
    return inner


class TestRoundTrip:
    @SETTINGS
    @given(EXPRESSIONS)
    def test_print_then_parse_is_the_node(self, expr):
        text = format_expr(expr)
        assert parse_expr(text) is expr
        assert format_expr(parse_expr(text)) == text

    @SETTINGS
    @given(
        KINDS.flatmap(lambda kind: st.tuples(
            st.just(kind),
            st.lists(st.builds(functools.partial(alg.make_scaled, kind), SEMIRING,
                               _mvals(kind)), min_size=1, max_size=3),
            _mvals(kind),
        )),
        st.sampled_from(alg.THETAS),
    )
    def test_suffix_tag_reads_as_the_braced_form(self, case, theta):
        kind, terms, bound = case
        left = alg.make_msum(kind, terms)
        if type(left) is alg.MConst:
            return  # no scaled term is left to take the tag
        braced = format_expr(left)
        inner = braced[len(kind.value) + 1:-1]
        assert parse_expr("%s %s" % (inner, kind.value)) is left
        cond = alg.Cmp(left, theta, alg.MConst(kind, bound))
        text = format_expr(cond)
        suffix = "[ %s %s %s ] %s" % (inner, theta, text.rsplit(" ", 1)[1][:-1], kind.value)
        assert parse_expr(suffix) is cond
        assert format_expr(parse_expr(suffix)) == text

    @pytest.mark.parametrize(
        "wrap",
        [
            # x0*(x1 + x2*(x3 + ...)), alternating '*' and '+' levels
            lambda k, inner: ("x%d*(%s)" if k % 2 == 0 else "x%d + %s") % (k, inner),
            lambda k, inner: "[%s != 0]" % inner,
        ],
        ids=["alternating", "conditionals"],
    )
    def test_3000_levels_under_the_default_recursion_limit(self, wrap):
        text = _nest(3000, wrap, "x3000")
        expr = parse_expr(text)
        assert format_expr(expr) == text
        assert parse_expr(format_expr(expr)) is expr

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
