import pytest

from pvcdb import algebra as alg
from pvcdb.algebra import SemiringKind, Var
from pvcdb.errors import (
    IllegalAggregate,
    MissingDistribution,
    SchemaMismatch,
    WorldLimitExceeded,
)
from pvcdb.exprtext import parse_expr
from pvcdb.prob import Distribution
from pvcdb.pvc import (
    AGG,
    CONST,
    PvcDatabase,
    PvcTable,
    enumerate_worlds,
    instantiate,
    semantics_mode,
    world_count,
)

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL


def coin(p=0.5):
    return Distribution([(0, 1 - p), (1, p)])


def suppliers(sk=B):
    t = PvcTable("S", ("sid", "shop"), (CONST, CONST))
    rows = [
        (1, "M&S", "x1"),
        (2, "M&S", "x2"),
        (3, "M&S", "x3"),
        (4, "Gap", "x4"),
        (5, "Gap", "x5"),
    ]
    for sid, shop, var in rows:
        t.add_row((sid, shop), Var(var))
    dists = {"x%d" % i: coin() for i in range(1, 6)}
    return PvcDatabase([t], dists, sk)


class TestValidation:
    @pytest.mark.parametrize("columns", [("a", "a"), ("a", "b", "a"), ("b", "a", "b", "a")])
    def test_repeated_column_rejected(self, columns):
        repeated = "a" if columns[0] == "a" else "b"
        with pytest.raises(SchemaMismatch, match="^D: column %s is repeated$" % repeated):
            PvcTable("D", columns, (CONST,) * len(columns))

    def test_missing_distribution(self):
        t = PvcTable("R", ("a",), (CONST,))
        t.add_row((1,), Var("u"))
        with pytest.raises(MissingDistribution):
            PvcDatabase([t], {}, B)

    def test_missing_distribution_names_table_and_variable(self):
        # The variable may sit in an annotation or in an aggregate cell
        # of any row; the error names the table and the variable.
        s = PvcTable("S", ("a",), (CONST,))
        s.add_row((1,), Var("u"))
        r = PvcTable("R", ("low",), (AGG,))
        r.add_row((parse_expr("min{u(x)5}"),), Var("u"))
        r.add_row((parse_expr("min{u*w(x)7}"),), Var("u"))
        with pytest.raises(MissingDistribution, match="^R uses variable w without"):
            PvcDatabase([s, r], {"u": coin()}, B)
        db = PvcDatabase([s, r], {"u": coin(), "w": coin()}, B)
        assert db.variables_of(["R"]) == {"u", "w"}
        assert db.variables_of() == {"u", "w"}

    def test_sum_cells_rejected_under_set_semantics(self):
        t = PvcTable("R", ("total",), (AGG,))
        t.add_row((parse_expr("sum{u(x)5}"),), Var("u"))
        with pytest.raises(IllegalAggregate):
            PvcDatabase([t], {"u": coin()}, B)
        # the same database is fine under bag semantics
        PvcDatabase([t], {"u": coin()}, N)

    def test_min_cells_allowed_under_both(self):
        for sk in (B, N):
            t = PvcTable("R", ("low",), (AGG,))
            t.add_row((parse_expr("min{u(x)5}"),), Var("u"))
            PvcDatabase([t], {"u": coin()}, sk)


class TestEnumerateWorlds:
    def test_world_count_is_two_to_the_five(self):
        db = suppliers()
        worlds = list(enumerate_worlds(db))
        assert len(worlds) == 32
        assert world_count(db) == 32

    def test_single_world_probability(self):
        db = suppliers()
        nu = {"x1": 0, "x2": 1, "x3": 0, "x4": 0, "x5": 1}
        world = instantiate(db, nu)
        assert world["S"] == (((2, "M&S"), 1), ((5, "Gap"), 1))
        for valuation, w, prob in enumerate_worlds(db):
            if valuation == nu:
                assert prob == pytest.approx(0.5**5)
                assert w == world
                break
        else:
            pytest.fail("world not enumerated")

    def test_empty_database(self):
        db = PvcDatabase([], {}, B)
        worlds = list(enumerate_worlds(db))
        assert worlds == [({}, {}, 1.0)]

    def test_mass_sums_to_one(self):
        db = suppliers()
        assert sum(p for _, _, p in enumerate_worlds(db)) == pytest.approx(1.0)

    def test_limit(self):
        db = suppliers()
        with pytest.raises(WorldLimitExceeded):
            list(enumerate_worlds(db, limit=16))

    def test_bag_multiplicities_merge(self):
        t = PvcTable("R", ("a",), (CONST,))
        t.add_row((7,), Var("u"))
        t.add_row((7,), Var("v"))
        db = PvcDatabase(
            [t],
            {
                "u": Distribution([(0, 0.5), (2, 0.5)]),
                "v": Distribution([(1, 1.0)]),
            },
            N,
        )
        world = instantiate(db, {"u": 2, "v": 1})
        assert world["R"] == (((7,), 3),)

    def test_set_collapse_under_booleans(self):
        t = PvcTable("R", ("a",), (CONST,))
        t.add_row((7,), Var("u"))
        t.add_row((7,), Var("v"))
        db = PvcDatabase([t], {"u": coin(), "v": coin()}, B)
        world = instantiate(db, {"u": 1, "v": 1})
        assert world["R"] == (((7,), 1),)

    def test_set_semantics_is_special_case_of_bag(self):
        bool_db = suppliers(B)
        nat_db = suppliers(N)
        for (nu, wb, pb), (nu2, wn, pn) in zip(
            enumerate_worlds(bool_db), enumerate_worlds(nat_db)
        ):
            assert nu == nu2 and pb == pytest.approx(pn)
            assert {v for v, _ in wb["S"]} == {v for v, _ in wn["S"]}


class TestConditionalAnnotations:
    def test_input_table_with_conditional_annotation(self):
        # annotations in input tables may already hold conditionals;
        # world semantics is unchanged
        t = PvcTable("R", ("a",), (CONST,))
        t.add_row((1,), parse_expr("[min{u(x)3} <= 5]*v"))
        db = PvcDatabase([t], {"u": coin(), "v": coin()}, B)
        masses = {}
        for nu, world, p in enumerate_worlds(db):
            present = bool(world["R"])
            masses[present] = masses.get(present, 0.0) + p
        # the row exists when u fires (min 3 <= 5) and v holds
        assert masses[True] == pytest.approx(0.25)


class TestSemanticsMode:
    def test_matrix(self):
        point = Distribution([(1, 1.0)])
        cases = [
            (B, point, "deterministic-set"),
            (N, Distribution([(3, 1.0)]), "deterministic-bag"),
            (B, coin(), "probabilistic-set"),
            (N, Distribution([(0, 0.5), (2, 0.5)]), "probabilistic-bag"),
        ]
        for sk, dist, expected in cases:
            t = PvcTable("R", ("a",), (CONST,))
            t.add_row((1,), Var("u"))
            db = PvcDatabase([t], {"u": dist}, sk)
            assert semantics_mode(db) == expected
