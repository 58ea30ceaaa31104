import pytest

from pvcdb import cli
from pvcdb.algebra import SemiringKind, Var
from pvcdb.dtree import compile as compile_tree
from pvcdb.dtree import distribution, mutex_count
from pvcdb.errors import RepeatedRelation
from pvcdb.exprtext import parse_expr
from pvcdb.oracle import brute_distribution
from pvcdb.prob import Distribution
from pvcdb.pvc import CONST, PvcDatabase, PvcTable
from pvcdb.tractability import (
    Q_HIE,
    Q_IND,
    UNKNOWN,
    classify,
    conditional_group_shortcut,
    flatten_block,
    is_hierarchical,
    root_attributes,
    tuple_independent,
)

B = SemiringKind.BOOLEAN


def coin(p=0.5):
    return Distribution([(0, 1 - p), (1, p)])


def chain_db():
    """R(a) -- S(a2,b) -- T(b2): the classic non-hierarchical join."""
    r = PvcTable("R", ("a",), (CONST,))
    r.add_row((1,), Var("r1"))
    r.add_row((2,), Var("r2"))
    s = PvcTable("S", ("a2", "b"), (CONST, CONST))
    s.add_row((1, 1), Var("s1"))
    s.add_row((2, 2), Var("s2"))
    t = PvcTable("T", ("b2",), (CONST,))
    t.add_row((1,), Var("t1"))
    t.add_row((2,), Var("t2"))
    dists = {v: coin() for v in ("r1", "r2", "s1", "s2", "t1", "t2")}
    return PvcDatabase([r, s, t], dists, B)


EXAMPLE_QUERY = (
    "agg[; total<-sum(price)]"
    "(select[shop='M&S',sid=sid2](product(S,rename[sid2<-sid](PS))))"
)


@pytest.fixture(scope="module")
def shops_nat_db():
    import pathlib

    shops = pathlib.Path(__file__).parent / "data" / "shops"
    tables = [shops / name for name in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")]
    return cli.load_database(tables, shops / "probs.tsv", "nat")


class TestHierarchy:
    def test_worked_join_is_hierarchical(self, shops_nat_db):
        plan = cli.parse_query(
            "project[](select[shop='M&S',sid=sid2](product(S,rename[sid2<-sid](PS))))"
        )
        block = flatten_block(plan, shops_nat_db)
        assert is_hierarchical(block)

    def test_single_relation_block(self, shops_nat_db):
        block = flatten_block(cli.parse_query("project[](S)"), shops_nat_db)
        assert is_hierarchical(block)

    def test_chain_join_is_not_hierarchical(self):
        db = chain_db()
        plan = cli.parse_query(
            "project[](select[a=a2,b=b2](product(product(R,S),T)))"
        )
        block = flatten_block(plan, db)
        assert not is_hierarchical(block)

    def test_repeated_relation_declines(self):
        db = chain_db()
        plan = cli.parse_query("project[](product(R,rename[a3<-a](R)))")
        block = flatten_block(plan, db)
        with pytest.raises(RepeatedRelation):
            is_hierarchical(block)


class TestRootAttributes:
    def test_join_attribute_is_root(self, shops_nat_db):
        plan = cli.parse_query(
            "project[](select[sid=sid2](product(S,rename[sid2<-sid](PS))))"
        )
        block = flatten_block(plan, shops_nat_db)
        roots = root_attributes(block)
        assert {"sid", "sid2"} <= roots
        assert "price" not in roots

    def test_single_relation_all_roots(self, shops_nat_db):
        block = flatten_block(cli.parse_query("project[](S)"), shops_nat_db)
        assert root_attributes(block) == {"sid", "shop"}

    def test_cross_product_without_equalities(self):
        db = chain_db()
        block = flatten_block(cli.parse_query("project[](product(R,T))"), db)
        assert root_attributes(block) == set()


class TestClassify:
    def test_tuple_independent_base(self, shops_nat_db):
        assert tuple_independent(cli.parse_query("S"), shops_nat_db)
        assert classify(cli.parse_query("S"), shops_nat_db) == Q_IND

    def test_worked_aggregate_query_is_hierarchical_class(self, shops_nat_db):
        assert classify(cli.parse_query(EXAMPLE_QUERY), shops_nat_db) == Q_HIE

    def test_repeated_relation_unknown(self, shops_nat_db):
        plan = cli.parse_query("product(S,rename[sid2<-sid,shop2<-shop](S))")
        assert classify(plan, shops_nat_db) == UNKNOWN

    def test_hierarchical_projection_with_root_head_is_independent(self, shops_nat_db):
        plan = cli.parse_query(
            "project[sid](select[sid=sid2](product(S,rename[sid2<-sid](PS))))"
        )
        assert classify(plan, shops_nat_db) == Q_IND

    def test_non_root_head_is_not_independent(self):
        db = chain_db()
        plan = cli.parse_query("project[a](product(R,T))")
        label = classify(plan, db)
        assert label != Q_IND
        # and indeed two result tuples share the T variables
        out_rows = {}
        from pvcdb.engine import evaluate

        table = evaluate(plan, db)
        assert len(table.rows) == 2

    def test_neutral_element_in_data_downgrades(self):
        r = PvcTable("R", ("a", "b"), (CONST, CONST))
        r.add_row((1, 0), Var("u"))
        r.add_row((1, 3), Var("v"))
        db = PvcDatabase([r], {"u": coin(), "v": coin()}, SemiringKind.NATURAL)
        plan = cli.parse_query("agg[; t<-sum(b)](R)")
        assert classify(plan, db) == UNKNOWN
        plan_min = cli.parse_query("agg[; t<-min(b)](R)")
        assert classify(plan_min, db) == Q_HIE

    def test_prod_aggregation_unknown(self, shops_nat_db):
        plan = cli.parse_query("agg[; t<-prod(weight)](P1)")
        assert classify(plan, shops_nat_db) == UNKNOWN

    def test_independent_results_factorize(self):
        db = chain_db()
        plan = cli.parse_query("project[a](R)")
        assert classify(plan, db) == Q_IND
        from pvcdb.engine import evaluate

        table = evaluate(plan, db)
        (k1, phi1), (k2, phi2) = table.rows
        dists = db.var_dists
        joint = 0.0
        names = sorted(set(["r1", "r2"]))
        for v1 in (0, 1):
            for v2 in (0, 1):
                nu = {"r1": v1, "r2": v2}
                if phi1.eval(nu, B) and phi2.eval(nu, B):
                    joint += dists["r1"][v1] * dists["r2"][v2]
        p1 = brute_distribution(phi1, dists, B)[1]
        p2 = brute_distribution(phi2, dists, B)[1]
        assert joint == pytest.approx(p1 * p2, abs=1e-9)


class TestHierarchicalScaling:
    def _db(self, rows):
        r = PvcTable("R", ("g", "k"), (CONST, CONST))
        s = PvcTable("S", ("k2", "w"), (CONST, CONST))
        dists = {}
        for i in range(rows):
            r.add_row((i % 4, i), Var("a%d" % i))
            s.add_row((i, (i * 7) % 23 + 1), Var("b%d" % i))
            dists["a%d" % i] = coin(0.6)
            dists["b%d" % i] = coin(0.7)
        return PvcDatabase([r, s], dists, B)

    def test_answer_time_grows_polynomially(self):
        import time

        import numpy as np

        from pvcdb.engine import answer_distributions

        plan = cli.parse_query(
            "agg[g; m<-min(w)](select[k=k2](product(R,S)))"
        )
        sizes = [16, 32, 64, 128]
        times = []
        for n in sizes:
            db = self._db(n)
            assert classify(plan, db) == Q_HIE
            # Best of three: one slow spell of the machine must not pass
            # for growth.
            best = None
            for _ in range(3):
                start = time.perf_counter()
                _, answers = answer_distributions(plan, db, want_joint=False)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            times.append(best)
            for row in answers:
                tree = compile_tree(row.values[1], db.var_dists, B)
                assert mutex_count(tree) == 0
        coeffs = np.polyfit(sizes, times, 2)
        fitted = np.polyval(coeffs, sizes)
        residual = float(np.sum((np.array(times) - fitted) ** 2))
        total = float(np.sum((np.array(times) - np.mean(times)) ** 2))
        assert 1.0 - residual / total >= 0.9, times


class TestGroupShortcut:
    def _phi(self, theta, bound):
        presence = parse_expr("[x1 + x2 + x3 != 0]")
        cond = parse_expr("[min{x1(x)3 + x2(x)8 + x3(x)5} %s %d]" % (theta, bound))
        from pvcdb.algebra import make_product

        return make_product([presence, cond])

    @pytest.mark.parametrize("theta", ["<=", ">="])
    @pytest.mark.parametrize("bound", [2, 5, 9])
    def test_matches_brute_force(self, theta, bound):
        phi = self._phi(theta, bound)
        dists = {"x1": coin(0.3), "x2": coin(0.6), "x3": coin(0.8)}
        got = conditional_group_shortcut(phi, B, dists)
        assert got is not None
        want = brute_distribution(phi, dists, B)
        assert got.close_to(want, 1e-9)

    def test_declines_other_shapes(self):
        dists = {"x1": coin(), "x2": coin(), "x3": coin()}
        assert conditional_group_shortcut(parse_expr("x1*x2"), B, dists) is None
        sum_phi = self._phi("<=", 5)
        assert (
            conditional_group_shortcut(sum_phi, SemiringKind.NATURAL, dists) is None
        )
