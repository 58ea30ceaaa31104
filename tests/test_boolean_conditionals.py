"""Boolean MIN/MAX conditionals as disjunctions of their kept clauses.

Under the Boolean semiring, ``dtree.prune`` rewrites a conditional
``[min{Φ_i (x) v_i} θ c]`` (or MAX) whose kept terms all lie in one
outcome class as ``[Σ clauses != 0]`` where that class makes the
comparison true, as ``[Σ clauses = 0]`` where it makes it false, and as
a constant where the class has the empty sum's truth.  The compiler
gives a Boolean sum with a non-zero constant part the shared leaf of 1,
and splits first on a variable that is a clause of a Boolean sum."""

import random

import pytest

from pvcdb import algebra as alg
from pvcdb import cli, dtree
from pvcdb.algebra import Add, Cmp, Const, MConst, MExpr, MonoidKind, Scaled, SemiringKind, Var
from pvcdb.dtree import ConstLeaf, MutexNode, choose_branch_variable, distribution, prune
from pvcdb.engine import answer_distributions
from pvcdb.exprtext import parse_expr
from pvcdb.oracle import brute_distribution, brute_query
from pvcdb.prob import Distribution
from pvcdb.pvc import CONST, PvcDatabase, PvcTable

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL
TOL = 1e-9

#: The thetas whose kept terms make the comparison true when one fires.
FIRES_TRUE = {MonoidKind.MIN: ("<", "<="), MonoidKind.MAX: (">", ">=")}


def coin(p):
    return Distribution([(0, 1 - p), (1, p)])


def _monoid_terms(expr):
    """Whether a monoid term is left anywhere in ``expr``."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, MExpr) and not isinstance(e, MConst):
            return True
        stack += e.children()
    return False


def _random_conditional(rng, kind, theta):
    """``[kind{…} θ c]``, the bound on either side, over 2 to 6 coins:
    1 to 6 terms whose weights are sums of 1 to 3 clauses of 1 or 2
    variables, values and bound in 0..10, sometimes a constant part.
    Returns the conditional, its distributions, its theta as read with
    the sum on the left, and whether the sum has a constant part."""
    names = ["v%d" % i for i in range(rng.randint(2, 6))]
    dists = {n: coin(rng.uniform(0.1, 0.9)) for n in names}
    terms = []
    for _ in range(rng.randint(1, 6)):
        clauses = [
            alg.make_product([Var(rng.choice(names)) for _ in range(rng.randint(1, 2))])
            for _ in range(rng.randint(1, 3))
        ]
        terms.append(Scaled(kind, alg.make_sum(clauses), rng.randint(0, 10)))
    if rng.random() < 0.2:
        terms.append(MConst(kind, rng.randint(0, 10)))
    body, bound = alg.make_msum(kind, terms), MConst(kind, rng.randint(0, 10))
    constant = any(type(t) is MConst for t in alg.sum_parts(body))
    if rng.random() < 0.7:
        return Cmp(body, theta, bound), dists, theta, constant
    return Cmp(bound, theta, body), dists, dtree._MIRROR[theta], constant


class TestDisjunctions:
    @pytest.mark.parametrize("kind", [MonoidKind.MIN, MonoidKind.MAX])
    @pytest.mark.parametrize("theta", alg.THETAS)
    def test_matches_brute_force(self, kind, theta):
        rng = random.Random("%s/%s" % (kind.value, theta))
        forms = set()
        for case in range(150):
            cond, dists, read, constant = _random_conditional(rng, kind, theta)
            out = prune(cond, B, dists)
            if type(out) is Cmp and isinstance(out.left, MExpr):
                # Kept terms in two classes, or a constant part among them.
                assert theta in ("=", "!=") or constant, out
                forms.add("monoid")
            elif type(out) is Cmp:
                assert type(out.right) is Const and out.right.value == 0, out
                fires_true = read in FIRES_TRUE[kind] or read == "="
                assert out.theta == ("!=" if fires_true else "="), (cond, out)
                forms.add(out.theta)
            wrapped = alg.make_product([Var("v0"), cond])
            for source, original in ((out, cond), (dtree.prune_all(wrapped, B, dists), wrapped)):
                got = distribution(dtree.compile(source, dists, B), B)
                want = brute_distribution(original, dists, B)
                assert got.close_to(want, TOL), (case, original, source)
        if theta in ("=", "!="):
            # One class kept is rewritten; two are not.
            assert forms == {"!=" if theta == "=" else "=", "monoid"}, forms
        else:
            # With the bound on either side, the kept class fires
            # towards true and towards false.
            assert {"!=", "="} <= forms, forms

    @pytest.mark.parametrize(
        "text,want",
        [
            ("[min{x*y(x)2 + z(x)4 + w(x)9} <= 5]", "[x*y + z != 0]"),
            ("[min{x*y(x)2 + z(x)4 + w(x)9} > 5]", "[x*y + z = 0]"),
            ("[5 < max{(x + y*z)(x)7 + w(x)3}]", "[x + y*z != 0]"),
            ("[max{(x + y*z)(x)7 + w(x)3} <= 5]", "[x + y*z = 0]"),
            ("[min{x(x)5 + y*z(x)5 + w(x)9} = 5]", "[x + y*z != 0]"),
            ("[min{x(x)5 + y*z(x)5 + w(x)9} != 5]", "[x + y*z = 0]"),
            ("[min{x(x)1 + y(x)2} = 5]", "0"),
            ("[max{x(x)9 + y(x)7} != 5]", "1"),
        ],
    )
    def test_fires_towards_true_and_false(self, text, want):
        cond = parse_expr(text)
        out = prune(cond, B)
        assert out is parse_expr(want)
        assert prune(out, B) is out
        dists = {n: coin(0.2 + 0.15 * i) for i, n in enumerate("wxyz")}
        got = distribution(dtree.compile(out, dists, B), B)
        assert got.close_to(brute_distribution(cond, dists, B), TOL)

    def test_two_classes_keep_the_min_form(self):
        # Terms below and at the bound decide = differently, so which
        # one fires first matters.
        cond = parse_expr("[min{x(x)2 + y(x)5 + z(x)9} = 5]")
        assert prune(cond, B) is parse_expr("[min{x(x)2 + y(x)5} = 5]")

    @pytest.mark.parametrize("kind", ["min", "max"])
    @pytest.mark.parametrize("theta", alg.THETAS)
    def test_natural_keeps_the_min_form(self, kind, theta):
        # Where B makes the conditional a disjunction, N keeps the MIN or
        # MAX form: the sum of the clauses would count the firing ones.
        cond = parse_expr("[%s{x*y(x)3 + z(x)5 + (w + x)(x)7} %s 5]" % (kind, theta))
        dists = {
            "w": coin(0.3),
            "x": Distribution([(0, 0.2), (1, 0.5), (2, 0.3)]),
            "y": coin(0.6),
            "z": Distribution([(0, 0.5), (3, 0.5)]),
        }
        boolean, natural = prune(cond, B), prune(cond, N, dists)
        if type(boolean) is Const:
            assert natural is boolean
        elif isinstance(boolean.left, MExpr):  # kept terms in two classes
            assert natural is boolean
        else:
            assert type(natural) is Cmp and isinstance(natural.left, MExpr), natural
        wrapped = alg.make_product([Var("y"), cond])
        got = distribution(dtree.compile(dtree.prune_all(wrapped, N, dists), dists, N), N)
        assert got.close_to(brute_distribution(wrapped, dists, N), TOL)


def _shared_db(seed, rows=7, names=4):
    """R(g, v) under B whose rows are annotated with products of one or
    two of a few shared coins, so a group's conditional is a DNF."""
    rng = random.Random(seed)
    r = PvcTable("R", ("g", "v"), (CONST, CONST))
    pool = ["x%d" % i for i in range(names)]
    for _ in range(rows):
        phi = alg.make_product([Var(n) for n in rng.sample(pool, rng.randint(1, 2))])
        r.add_row((rng.randrange(2), rng.randint(0, 6)), phi)
    dists = {n: coin(rng.uniform(0.2, 0.8)) for n in pool}
    return PvcDatabase([r], dists, B)


def _outcomes(dist):
    """Joint outcomes with every absent one, annotation 0, as (0, 0)."""
    out = {}
    for value, p in dist:
        value = value if value[0] else (0, 0)
        out[value] = out.get(value, 0.0) + p
    return out


class TestJoints:
    @pytest.mark.parametrize("agg", ["min", "max"])
    @pytest.mark.parametrize("theta", alg.THETAS)
    def test_selection_on_shared_rows_matches_brute_query(self, agg, theta):
        order = theta not in ("=", "!=")
        for seed in range(4):
            db = _shared_db(seed)
            plan = cli.parse_query("select[m%s3](agg[g; m<-%s(v)](R))" % (theta, agg))
            _, answers = answer_distributions(plan, db)
            brute = brute_query(plan, db)
            assert set(brute.keys()) <= {(row.values[0],) for row in answers}
            for row in answers:
                if order:  # every conditional became a disjunction or a constant
                    assert not _monoid_terms(dtree.prune_all(row.phi, B, db.var_dists))
                want = _outcomes(brute.dists.get((row.values[0],), [((0, 0), 1.0)]))
                got = _outcomes(row.joint)
                for key in set(got) | set(want):
                    assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= TOL, (seed, key)
                marginal = {}
                for (present, _), p in want.items():
                    marginal[present] = marginal.get(present, 0.0) + p
                for key in set(marginal) | set(row.annotation.support):
                    assert abs(row.annotation[key] - marginal.get(key, 0.0)) <= TOL


class TestCompilerRules:
    def test_absorbed_sum_compiles_to_the_shared_leaf_of_one(self):
        dists = {n: coin(0.5) for n in "xyz"}
        compiler = dtree._Compiler(dists, B)
        one = compiler.compile(Const(1))
        assert isinstance(one, ConstLeaf) and one.value == 1
        assert compiler.compile(Add([Const(1), Var("x")])) is one
        xz = alg.make_product([Var("x"), Var("z")])
        assert compiler.compile(alg.make_sum([Var("y"), Const(1), xz])) is one
        assert compiler.compile(MConst(MonoidKind.MIN, 1)) is one
        # Under N, 1 + x is 1 or 2.
        tree = dtree.compile(Add([Const(1), Var("x")]), dists, N)
        assert distribution(tree, N).support == (1, 2)

    def test_case_splits_share_the_leaf_of_one(self):
        # Setting y to 1 leaves 1 + z, and setting x to 1 leaves 1 + y*z
        # and the like: all of them are the one leaf of 1.
        expr = parse_expr("x*y + y*z + z*x + x*w")
        dists = {n: coin(0.3 + 0.1 * i) for i, n in enumerate("wxyz")}
        tree = dtree.compile(expr, dists, B)
        ones = [n for n in dtree._post_order(tree) if isinstance(n, ConstLeaf) and n.value == 1]
        assert len(ones) == 1
        assert distribution(tree, B).close_to(brute_distribution(expr, dists, B), TOL)
        dtree.validate(tree, dists)

    def test_unit_rule_on_sums_only_under_boolean(self):
        # a occurs most, but z alone decides the Boolean sum where it is 1.
        expr = parse_expr("a*b + a*c + a*d + z + z*b")
        assert choose_branch_variable(expr, sk=B) == "z"
        assert choose_branch_variable(expr, sk=N) == "a"
        dists = {n: coin(0.25 + 0.1 * i) for i, n in enumerate("abcdz")}
        for sk, root in ((B, "z"), (N, "a")):
            tree = dtree.compile(expr, dists, sk)
            assert isinstance(tree, MutexNode) and tree.var == root
            assert distribution(tree, sk).close_to(brute_distribution(expr, dists, sk), TOL)

    def test_min_units_go_before_sum_units(self):
        # In a joint, a MIN term's one-variable clause keeps its place
        # ahead of a Boolean sum's.
        exprs = (parse_expr("a*b + c"), parse_expr("min{a(x)3 + b*c(x)1}"))
        assert choose_branch_variable(*exprs, sk=B) == "a"
        assert choose_branch_variable(parse_expr("a*b + c + c*a"), sk=B) == "c"
