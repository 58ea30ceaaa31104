import random

import pytest

from pvcdb import algebra as alg
from pvcdb import cli, dtree
from pvcdb.algebra import Cmp, Const, SemiringKind, Var
from pvcdb.engine import (
    Base,
    answer_distributions,
    describe,
    evaluate,
    validate_query,
)
from pvcdb.errors import IllegalAggregate, SchemaMismatch, UnorderedCarrier
from pvcdb.exprtext import parse_expr
from pvcdb.oracle import brute_distribution, brute_query
from pvcdb.prob import Distribution
from pvcdb.pvc import AGG, CONST, PvcDatabase, PvcTable

from normal_form import equivalent, occurrences

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL


def coin(p=0.5):
    return Distribution([(0, 1 - p), (1, p)])


def small_db(sk=B):
    r = PvcTable("R", ("a", "b"), (CONST, CONST))
    r.add_row((1, 10), Var("r1"))
    r.add_row((1, 20), Var("r2"))
    r.add_row((2, 30), Var("r3"))
    s = PvcTable("T", ("c", "d"), (CONST, CONST))
    s.add_row((1, 5), Var("s1"))
    s.add_row((2, 7), Var("s2"))
    dists = {v: coin() for v in ("r1", "r2", "r3", "s1", "s2")}
    return PvcDatabase([r, s], dists, sk)


class TestValidate:
    def test_union_with_aggregate_attribute_rejected(self, shops_db):
        q = cli.parse_query("union(project[sid](S), agg[sid; m<-min(price)](PS))")
        problems = validate_query(q, shops_db)
        assert problems and any("union" in p.lower() or "schema" in p.lower() for p in problems)

    def test_having_style_query_accepted(self, shops_db):
        q = cli.parse_query(
            "union(project[sid](S), project[sid](select[m>=5](agg[sid; m<-min(price)](PS))))"
        )
        assert validate_query(q, shops_db) == []

    def test_bare_relation(self, shops_db):
        assert validate_query(Base("S"), shops_db) == []

    def test_unknown_relation(self, shops_db):
        problems = validate_query(Base("missing"), shops_db)
        assert problems
        with pytest.raises(SchemaMismatch):
            evaluate(Base("missing"), shops_db)

    def test_projection_on_aggregate_attribute_rejected(self, shops_db):
        q = cli.parse_query("project[m](agg[sid; m<-min(price)](PS))")
        assert validate_query(q, shops_db)

    def test_grouping_on_aggregate_attribute_rejected(self, shops_db):
        q = cli.parse_query(
            "agg[m; n<-min(price)](agg[sid, price; m<-min(price)](PS))"
        )
        assert validate_query(q, shops_db)


class TestEvaluate:
    def test_ungrouped_aggregate_over_parts(self, shops_db):
        q = cli.parse_query("agg[; alpha<-min(weight)](P1)")
        out = evaluate(q, shops_db)
        assert out.columns == ("alpha",)
        assert len(out.rows) == 1
        values, phi = out.rows[0]
        assert phi == Const(1)
        assert equivalent(
            values[0], parse_expr("min{z1(x)4 + z2(x)8 + z3(x)7 + z4(x)6}")
        )

    def test_selection_on_aggregate_multiplies_condition(self, shops_db):
        q = cli.parse_query(
            "project[](select[5<=alpha](agg[; alpha<-min(weight)](P1)))"
        )
        out = evaluate(q, shops_db)
        assert len(out.rows) == 1
        values, phi = out.rows[0]
        assert values == ()
        expected = parse_expr("[5 <= min{z1(x)4 + z2(x)8 + z3(x)7 + z4(x)6}]")
        assert equivalent(phi, expected)

    def test_projection_keeps_singleton_annotation(self, small_db=None):
        db = small_db or globals()["small_db"]()
        out = evaluate(cli.parse_query("project[a](select[a=2](R))"), db)
        assert out.rows == [((2,), Var("r3"))]

    def test_projection_merges_duplicates(self):
        db = small_db()
        out = evaluate(cli.parse_query("project[a](R)"), db)
        assert len(out.rows) == 2
        merged = dict(out.rows)
        assert equivalent(merged[(1,)], parse_expr("r1 + r2"))

    def test_product_multiplies_annotations(self):
        db = small_db()
        out = evaluate(cli.parse_query("product(R,T)"), db)
        assert len(out.rows) == 6
        assert out.columns == ("a", "b", "c", "d")
        values, phi = out.rows[0]
        assert equivalent(phi, parse_expr("r1*s1"))

    def test_union_merges_by_value(self):
        db = small_db()
        out = evaluate(
            cli.parse_query("union(project[a](R), project[a](rename[a<-c](T)))"), db
        )
        merged = dict(out.rows)
        assert equivalent(merged[(2,)], parse_expr("r3 + s2"))

    def test_grouped_aggregate_carries_nonempty_factor(self):
        db = small_db()
        out = evaluate(cli.parse_query("agg[a; t<-min(b)](R)"), db)
        assert out.roles == (CONST, AGG)
        by_key = {values[0]: (values, phi) for values, phi in out.rows}
        values, phi = by_key[1]
        assert isinstance(phi, Cmp) and phi.theta == "!="
        assert equivalent(phi, parse_expr("[r1 + r2 != 0]"))
        assert equivalent(values[1], parse_expr("min{r1(x)10 + r2(x)20}"))

    def test_ungrouped_aggregate_carries_one(self):
        db = small_db()
        out = evaluate(cli.parse_query("agg[; t<-max(b)](R)"), db)
        (values, phi), = out.rows
        assert phi == Const(1)

    def test_ungrouped_aggregate_on_empty_input(self):
        db = small_db()
        out = evaluate(
            cli.parse_query("agg[; t<-min(b)](select[a=9](R))"), db
        )
        (values, phi), = out.rows
        assert values[0].value == alg.INF
        assert phi == Const(1)

    def test_count_aggregates_ones_in_sum(self):
        db = small_db(N)
        out = evaluate(cli.parse_query("agg[a; n<-count(b)](R)"), db)
        by_key = {values[0]: values for values, _ in out.rows}
        assert equivalent(by_key[1][1], parse_expr("sum{r1(x)1 + r2(x)1}"))

    def test_sum_under_set_semantics_rejected(self):
        db = small_db(B)
        with pytest.raises(IllegalAggregate):
            evaluate(cli.parse_query("agg[a; t<-sum(b)](R)"), db)

    def test_selection_comparing_aggregate_with_attribute(self):
        db = small_db()
        out = evaluate(
            cli.parse_query("select[t<=d](product(agg[a; t<-min(b)](R), T))"), db
        )
        by_key = {(values[0], values[2]): phi for values, phi in out.rows}
        # group a=1 (min over 10, 20) against T's d=5 via row (1, 5)
        phi = by_key[(1, 1)]
        expected = alg.make_product(
            [
                parse_expr("[r1 + r2 != 0]"),
                Var("s1"),
                parse_expr("[min{r1(x)10 + r2(x)20} <= 5]"),
            ]
        )
        assert equivalent(phi, expected)

    def test_worked_query_annotations(self, shops_db, q2_plan):
        out = evaluate(q2_plan, shops_db)
        by_shop = dict(out.rows)
        alpha_gap = (
            "max{x4*y41*(z1 + z5)(x)15 + x4*y43*z3(x)60 + x5*y51*(z1 + z5)(x)10}"
        )
        psi2 = "[x4*y41*(z1 + z5) + x4*y43*z3 + x5*y51*(z1 + z5) != 0]"
        expected = alg.make_product(
            [parse_expr(psi2), parse_expr("[%s <= 50]" % alpha_gap)]
        )
        assert equivalent(by_shop[("Gap",)], expected)


class TestAnswerDistributions:
    def test_join_tuple_probability(self, shops_db):
        q = cli.parse_query(
            "project[shop,price](select[sid=sid2]"
            "(product(S,rename[sid2<-sid](select[pid=1](PS)))))"
        )
        table, answers = answer_distributions(q, shops_db)
        by_tuple = {row.values: row for row in answers}
        p = 0.5
        want = p * p * (1 - (1 - p) ** 2)
        # annotation x1*y11*(z1+z5) needs the product row; join to parts
        q_full = cli.parse_query(
            "project[shop,price](select[pid=pid2](product("
            "select[sid=sid2](product(S,rename[sid2<-sid](PS))),"
            "rename[pid2<-pid](union(P1,P2)))))"
        )
        table, answers = answer_distributions(q_full, shops_db)
        by_tuple = {row.values: row for row in answers}
        assert by_tuple[("M&S", 10)].annotation[1] == pytest.approx(want, abs=1e-12)

    def test_constant_annotation(self, shops_db):
        q = cli.parse_query("agg[; alpha<-min(weight)](P1)")
        _, answers = answer_distributions(q, shops_db, want_joint=False)
        assert answers[0].annotation.entries == ((1, 1.0),)

    def test_grouped_aggregate_matches_brute_force(self, shops_db, q2_plan):
        _, answers = answer_distributions(q2_plan, shops_db, want_joint=False)
        by_shop = {row.values: row for row in answers}
        gap = by_shop[("Gap",)]
        want = brute_distribution(gap.phi, shops_db.var_dists, B)
        assert gap.annotation.close_to(want, 1e-9)

    def test_multiple_aggregates_in_one_grouping(self):
        db = small_db()
        q = cli.parse_query("agg[a; lo<-min(b), hi<-max(b)](R)")
        table, answers = answer_distributions(q, db)
        assert table.columns == ("a", "lo", "hi")
        row = {r.values[0]: r for r in answers}[1]
        # joint over (presence, min, max): r1 only, r2 only, both, none
        assert row.joint[(1, 10, 10)] == pytest.approx(0.25, abs=1e-12)
        assert row.joint[(1, 20, 20)] == pytest.approx(0.25, abs=1e-12)
        assert row.joint[(1, 10, 20)] == pytest.approx(0.25, abs=1e-12)
        assert row.joint[(0, alg.INF, alg.NEG_INF)] == pytest.approx(0.25, abs=1e-12)

    def test_joint_distribution_over_cells(self):
        db = small_db()
        q = cli.parse_query("agg[a; t<-min(b)](R)")
        _, answers = answer_distributions(q, db)
        row = {r.values[0]: r for r in answers}[1]
        # (annotation, min-value) outcomes: both of r1, r2 present
        assert row.joint[(1, 10)] == pytest.approx(0.5, abs=1e-12)
        assert row.joint[(1, 20)] == pytest.approx(0.25, abs=1e-12)
        assert row.joint[(0, alg.INF)] == pytest.approx(0.25, abs=1e-12)

    def test_duplicate_value_rows_merge_in_answers(self):
        # two base rows with identical values are one tuple under the
        # possible-worlds semantics; their annotations sum
        t = PvcTable("R", ("a",), (CONST, ))
        t.add_row((7,), Var("u"))
        t.add_row((7,), Var("v"))
        db = PvcDatabase([t], {"u": coin(0.5), "v": coin(0.5)}, B)
        table, answers = answer_distributions(cli.parse_query("R"), db)
        assert len(answers) == 1
        assert answers[0].annotation[1] == pytest.approx(0.75)
        # the same via a product against duplicate-valued partners,
        # with an aggregate cell in the result
        r = PvcTable("R", ("a", "b"), (CONST, CONST))
        r.add_row((1, 3), Var("u"))
        s = PvcTable("T", ("c",), (CONST,))
        s.add_row((9,), Var("v"))
        s.add_row((9,), Var("w"))
        db = PvcDatabase(
            [r, s],
            {"u": coin(0.5), "v": coin(0.5), "w": coin(0.5)},
            B,
        )
        q = cli.parse_query("product(agg[a; m<-min(b)](R), T)")
        table, answers = answer_distributions(q, db)
        assert len(answers) == 1
        # present iff u and (v or w)
        assert answers[0].annotation[1] == pytest.approx(0.5 * 0.75)

    @pytest.mark.parametrize("sk", [B, N], ids=["bool", "nat"])
    @pytest.mark.parametrize(
        "text", ["agg[g; m<-min(v)](R)", "select[m<=3](agg[g; m<-min(v)](R))"]
    )
    def test_one_compile_per_answer_row(self, monkeypatch, sk, text):
        # The annotation of a joint row is the joint's marginal, not a
        # second tree.
        calls = {"compile": 0, "compile_joint": 0}
        for name in calls:
            honest = getattr(dtree, name)

            def counted(*args, _name=name, _honest=honest, **kwargs):
                calls[_name] += 1
                return _honest(*args, **kwargs)

            monkeypatch.setattr(dtree, name, counted)
        db = _grouped_db(0, sk, 10)
        _, answers = answer_distributions(cli.parse_query(text), db)
        assert answers and all(row.joint is not None for row in answers)
        assert calls == {"compile": len(answers), "compile_joint": 0}

    def test_polynomial_result_growth(self):
        rows = []
        atoms = []
        for n in (4, 8, 16, 32):
            t = PvcTable("R", ("a", "b"), (CONST, CONST))
            for i in range(n):
                t.add_row((i % 2, i), Var("u%d" % i))
            db = PvcDatabase(
                [t], {"u%d" % i: coin() for i in range(n)}, B
            )
            out = evaluate(cli.parse_query("agg[a; t<-min(b)](R)"), db)
            rows.append(len(out.rows))
            total = 0
            for values, phi in out.rows:
                total += sum(occurrences(phi).values())
                total += sum(occurrences(values[1]).values())
            atoms.append(total)
        assert rows == [2, 2, 2, 2]
        # expression material grows linearly with the input
        assert atoms == [2 * n for n in (4, 8, 16, 32)]


def _grouped_db(seed, sk, rows, groups=3, ternary=False):
    """R(g, v) over one independent variable per row; under nat every
    other variable, or with ``ternary`` every variable, takes the values
    0, 1 and 2."""
    rng = random.Random(seed)
    r = PvcTable("R", ("g", "v"), (CONST, CONST))
    dists = {}
    for i in range(rows):
        name = "x%d" % i
        r.add_row((rng.randrange(groups), rng.randint(0, 6)), Var(name))
        if sk is N and (ternary or i % 2):
            w = [rng.uniform(0.1, 1.0) for _ in range(3)]
            dists[name] = Distribution([(k, w[k] / sum(w)) for k in range(3)])
        else:
            dists[name] = coin(rng.uniform(0.2, 0.8))
    return PvcDatabase([r], dists, sk)


def _outcomes(dist, width):
    """Outcome tuples with every absent outcome written as all zeros."""
    out = {}
    for value, p in dist:
        if not isinstance(value, tuple):
            value = (value,)
        if value[0] == 0:
            value = (0,) * width
        out[value] = out.get(value, 0.0) + p
    return out


def _assert_close(got, want, context, tol=1e-9):
    for v in set(got) | set(want):
        assert abs(got.get(v, 0.0) - want.get(v, 0.0)) <= tol, (context, v)


class TestGroupedJointSweep:
    """Joints and annotations of grouped aggregates over tuple-independent
    data, against possible-worlds enumeration."""

    @pytest.mark.parametrize(
        "sk,aggs,rows,ternary",
        [
            (B, ("min", "max"), 10, False),
            (N, ("min", "max", "count", "sum"), 7, False),
            (N, ("min", "max", "count", "sum"), 6, True),
        ],
        ids=["bool", "nat", "nat012"],
    )
    def test_joint_and_annotation_match_brute_force(self, sk, aggs, rows, ternary):
        for seed in range(3):
            db = _grouped_db(seed, sk, rows, ternary=ternary)
            for agg in aggs:
                base = "agg[g; m<-%s(v)](R)" % agg
                texts = [base] + [
                    "select[m%s%d](%s)" % (theta, 2 + seed, base) for theta in alg.THETAS
                ]
                for text in texts:
                    plan = cli.parse_query(text)
                    _, answers = answer_distributions(plan, db)
                    _, alone = answer_distributions(plan, db, want_joint=False)
                    brute = brute_query(plan, db)
                    assert set(brute.keys()) <= {(row.values[0],) for row in answers}
                    for row in answers:
                        key = (row.values[0],)
                        context = (seed, text, key)
                        want = _outcomes(brute.dists.get(key, [((0, 0), 1.0)]), 2)
                        _assert_close(_outcomes(row.joint, 2), want, context)
                        marginal = {}
                        for value, p in want.items():
                            marginal[value[0]] = marginal.get(value[0], 0.0) + p
                        _assert_close(dict(row.annotation.entries), marginal, context)
                    # The joint's marginal is the annotation compiled alone.
                    assert [row.values for row in alone] == [row.values for row in answers]
                    for row, single in zip(answers, alone):
                        _assert_close(
                            dict(row.annotation.entries),
                            dict(single.annotation.entries),
                            (seed, text, row.values),
                            tol=1e-12,
                        )

    @staticmethod
    def _single_group(agg, n, sk=B):
        """One group of n coin-flip rows with values 0..50, and the
        grouped ``agg`` query over it."""
        rng = random.Random(64)
        r = PvcTable("R", ("g", "v"), (CONST, CONST))
        probs = [rng.uniform(0.05, 0.3) for _ in range(n)]
        values = [rng.randint(0, 50) for _ in range(n)]
        for i in range(n):
            r.add_row((0, values[i]), Var("x%d" % i))
        dists = {"x%d" % i: coin(probs[i]) for i in range(n)}
        db = PvcDatabase([r], dists, sk)
        return db, probs, values, cli.parse_query("agg[g; m<-%s(v)](R)" % agg)

    @pytest.mark.parametrize("n", [64, 400, 1000])
    @pytest.mark.parametrize("agg", ["min", "max"])
    def test_single_group_joint_fits_the_budget(self, agg, n):
        # A thousand rows: neither compilation nor the distribution walk
        # may meet the default recursion limit.
        db, probs, values, plan = self._single_group(agg, n)
        dists = db.var_dists
        _, answers = answer_distributions(plan, db, node_budget=10000)
        # Closed form: the extreme value is v when no row beyond v and
        # some row at v is present; an empty group is absent.
        want = {}
        none_before = 1.0
        for v in sorted(set(values), reverse=agg == "max"):
            none_at = 1.0
            for i in range(n):
                if values[i] == v:
                    none_at *= 1 - probs[i]
            want[(1, v)] = none_before * (1 - none_at)
            none_before *= none_at
        want[(0, 0)] = none_before
        _assert_close(_outcomes(answers[0].joint, 2), want, agg)
        table = evaluate(plan, db)
        (cells, phi), = table.rows
        jtree = dtree.compile_joint([phi, cells[1]], dists, B, node_budget=10000)
        # Bounds of the case-split chain this joint once compiled to,
        # one mutex node per row; the joint-sum node stays well within
        # them (``test_single_group_joint_is_one_joint_sum``).
        assert dtree.mutex_count(jtree) <= n
        assert dtree.node_count(jtree) <= n + 2 * len(set(values)) + 3

    @pytest.mark.parametrize("n", [64, 400, 1000])
    @pytest.mark.parametrize("agg", ["min", "max", "count"])
    def test_single_group_joint_is_one_joint_sum(self, agg, n):
        # Every row's variable is a component of the annotation's sum
        # and the cell's on its own: one joint-sum node over one leaf per
        # row, and no case split.
        sk = N if agg == "count" else B
        db, _, _, plan = self._single_group(agg, n, sk)
        (cells, phi), = evaluate(plan, db).rows
        jtree = dtree.compile_joint([phi, cells[1]], db.var_dists, sk)
        assert isinstance(jtree, dtree.JointSumNode)
        assert dtree.mutex_count(jtree) == 0
        assert dtree.node_count(jtree) == n + 1

    def test_deep_joint_validates_and_reads_back(self):
        # A joint over 1,000 rows, checked and evaluated under the
        # default recursion limit: one joint-sum node with a leaf per
        # row, and the walks over it keep their own stacks.
        n = 1000
        db, _, _, plan = self._single_group("min", n)
        (cells, phi), = evaluate(plan, db).rows
        jtree = dtree.compile_joint([phi, cells[1]], db.var_dists, B, node_budget=10000)
        assert dtree.validate(jtree, db.var_dists)
        leaves = [node for node in dtree._post_order(jtree) if isinstance(node, dtree.VarLeaf)]
        assert len({leaf.name for leaf in leaves}) == n
        assert dtree.mutex_count(jtree) == 0
        rng = random.Random(7)
        for nu in (
            {"x%d" % i: 0 for i in range(n)},
            {"x%d" % i: 1 for i in range(n)},
            *({"x%d" % i: int(rng.random() < 0.01) for i in range(n)} for _ in range(5)),
        ):
            want = (phi.eval(nu, B), cells[1].eval(nu, B))
            assert dtree.eval_dtree(jtree, nu, B) == want


def _join_db(seed, sk=B, rows=6):
    """R(a, b) and T(c, d) over one coin per row, with small values so
    that many pairs match."""
    rng = random.Random(seed)
    tables, dists = [], {}
    for name, columns in (("R", ("a", "b")), ("T", ("c", "d"))):
        t = PvcTable(name, columns, (CONST, CONST))
        for i in range(rows):
            var = "%s%d" % (name.lower(), i)
            t.add_row((rng.randint(0, 2), rng.randint(0, 2)), Var(var))
            dists[var] = coin(rng.uniform(0.2, 0.8))
        tables.append(t)
    return PvcDatabase(tables, dists, sk)


def _nested_loop_join(db, atoms):
    """select[atoms](product(R, T)) pair by pair, for atoms of
    attr THETA attr."""
    r, t = db.tables["R"], db.tables["T"]
    columns = r.columns + t.columns
    out = []
    for lv, lphi in r.rows:
        for rv, rphi in t.rows:
            row = dict(zip(columns, lv + rv))
            if all(alg.compare(row[x], row[y], theta) for x, theta, y in atoms):
                out.append((lv + rv, alg.make_product([lphi, rphi]).key()))
    return out


def _assert_matches_brute_force(plan, db):
    """Each answer's annotation, and joint when it has aggregate cells,
    against possible-worlds enumeration."""
    table, answers = answer_distributions(plan, db)
    brute = brute_query(plan, db)
    key_idx = [i for i, role in enumerate(table.roles) if role != AGG]
    width = 1 + len(table.roles) - len(key_idx)
    by_key = {tuple(row.values[i] for i in key_idx): row for row in answers}
    assert set(brute.dists) <= set(by_key)
    for key, row in by_key.items():
        context = (describe(plan), key)
        want = _outcomes(brute.dists.get(key, [((0,) * width, 1.0)]), width)
        if row.joint is not None:
            _assert_close(_outcomes(row.joint, width), want, context)
        marginal = {}
        for value, p in want.items():
            marginal[value[0]] = marginal.get(value[0], 0.0) + p
        _assert_close(dict(row.annotation.entries), marginal, context)


class TestHashJoin:
    """Selections over products are evaluated as hash joins on their
    leading equality atoms; rows, order, annotations and errors must be
    those of the nested loop over all pairs."""

    @pytest.mark.parametrize(
        "text,atoms",
        [
            ("select[b=c](product(R,T))", [("b", "=", "c")]),
            ("select[a=c,b=d](product(R,T))", [("a", "=", "c"), ("b", "=", "d")]),
            ("select[d=a,b<=c](product(R,T))", [("d", "=", "a"), ("b", "<=", "c")]),
            ("select[a=b,c=b](product(R,T))", [("a", "=", "b"), ("c", "=", "b")]),
            ("product(R,T)", []),
        ],
    )
    def test_rows_in_nested_loop_order(self, text, atoms):
        for seed in range(5):
            db = _join_db(seed)
            out = evaluate(cli.parse_query(text), db)
            got = [(values, phi.key()) for values, phi in out.rows]
            assert got == _nested_loop_join(db, atoms), (seed, text)

    def test_multi_key_join_matches_brute_force(self):
        for seed in range(3):
            db = _join_db(seed, N, rows=5)
            for text in (
                "select[a=c,b=d](product(R,T))",
                "project[a](select[b=d,a=c](product(R,T)))",
                "select[a=c,b!=d](product(R,T))",
            ):
                _assert_matches_brute_force(cli.parse_query(text), db)

    def test_leading_constant_atom_matches_brute_force(self, shops_db):
        plan = cli.parse_query(
            "select[shop='M&S',sid=sid2](product(S,rename[sid2<-sid](PS)))"
        )
        table = evaluate(plan, shops_db)
        assert {values[1] for values, _ in table.rows} == {"M&S"}
        assert all(values[0] == values[2] for values, _ in table.rows)
        _assert_matches_brute_force(plan, shops_db)

    def test_int_and_string_that_print_alike_never_match(self):
        r = PvcTable("R", ("a",), (CONST,))
        r.add_row((1,), Var("u"))
        r.add_row(("1",), Var("v"))
        t = PvcTable("T", ("c",), (CONST,))
        t.add_row(("1",), Var("w"))
        t.add_row((1,), Var("x"))
        db = PvcDatabase([r, t], {n: coin() for n in "uvwx"}, B)
        plan = cli.parse_query("select[a=c](product(R,T))")
        out = evaluate(plan, db)
        assert [values for values, _ in out.rows] == [(1, 1), ("1", "1")]
        assert [phi for _, phi in out.rows] == [
            alg.make_product([Var("u"), Var("x")]),
            alg.make_product([Var("v"), Var("w")]),
        ]
        _assert_matches_brute_force(plan, db)

    def test_aggregate_column_stays_a_symbolic_factor(self):
        db = _join_db(0, rows=4)
        plan = cli.parse_query("select[m=d](product(agg[a; m<-min(b)](R),T))")
        groups = evaluate(cli.parse_query("agg[a; m<-min(b)](R)"), db).rows
        out = evaluate(plan, db)
        t = db.tables["T"]
        assert len(out.rows) == len(groups) * len(t.rows)
        for (values, phi), ((gv, gphi), (tv, tphi)) in zip(
            out.rows, [(g, r) for g in groups for r in t.rows]
        ):
            assert values == gv + tv
            cmp = Cmp(gv[1], "=", alg.MConst(gv[1].kind, tv[1]))
            assert phi.key() == alg.make_product([gphi, tphi, cmp]).key()
        _assert_matches_brute_force(plan, db)
        _assert_matches_brute_force(
            cli.parse_query("select[a=c,m=d](product(agg[a; m<-min(b)](R),T))"), db
        )

    def test_order_comparison_with_a_string_still_raises(self):
        r = PvcTable("R", ("a",), (CONST,))
        r.add_row((1,), Var("u"))
        s = PvcTable("S", ("s",), (CONST,))
        s.add_row(("x",), Var("v"))
        db = PvcDatabase([r, s], {"u": coin(), "v": coin()}, B)
        for text in ("select[s<=a](product(R,S))", "select[s<=a,a=s](product(R,S))"):
            with pytest.raises(UnorderedCarrier):
                evaluate(cli.parse_query(text), db)
        # No pair passes a=s, so the nested loop never reaches s<=a.
        out = evaluate(cli.parse_query("select[a=s,s<=a](product(R,S))"), db)
        assert out.rows == []
