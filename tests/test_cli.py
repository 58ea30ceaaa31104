import io
import os
import pathlib
import subprocess
import sys

import pytest

import pvcdb
from pvcdb import algebra as alg
from pvcdb import cli, dtree
from pvcdb.algebra import MonoidKind
from pvcdb.engine import Aggregate, Project, Select, answer_distributions, validate_query
from pvcdb.errors import (
    CarrierMismatch,
    DuplicateVariable,
    InvalidParams,
    MissingDistribution,
    ParseError,
    RepeatedRelation,
    SchemaMismatch,
    WeightSumOutOfTolerance,
)
from pvcdb.exprtext import format_expr, parse_expr
from pvcdb.oracle import brute_query

SHOPS = pathlib.Path(__file__).parent / "data" / "shops"


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


class TestQueryDsl:
    def test_nested_query(self):
        plan = cli.parse_query(
            "project[shop](select[P<=50](agg[shop; P<-max(price)](Q1)))"
        )
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Select)
        assert isinstance(plan.child.child, Aggregate)
        assert plan.child.child.aggs == (("P", "max", "price"),)

    def test_describe_round_trip(self):
        text = "project[shop](select[P<=50,shop='M&S'](agg[shop; P<-max(price)](Q1)))"
        plan = cli.parse_query(text)
        assert cli.parse_query(cli.describe(plan)) == plan

    def test_empty_attr_lists(self):
        plan = cli.parse_query("project[](agg[; t<-count(*)](R))")
        assert plan.attrs == ()
        assert plan.child.group_attrs == ()

    @pytest.mark.parametrize(
        "text",
        [
            "project[a b](R)",
            "project[a,](R)",
            "project[a,,b](R)",
            "project[,a](R)",
            "agg[a b; m<-min(c)](R)",
            "agg[a,; m<-min(c)](R)",
        ],
    )
    def test_malformed_attr_lists_rejected(self, text):
        with pytest.raises(ParseError):
            cli.parse_query(text)

    def test_negative_constants(self):
        plan = cli.parse_query("select[a=-3,a < -3,-1<=b](R)")
        assert plan.atoms == (
            (("attr", "a"), "=", ("const", -3)),
            (("attr", "a"), "<", ("const", -3)),
            (("const", -1), "<=", ("attr", "b")),
        )
        assert cli.parse_query(cli.describe(plan)) == plan

    def test_less_than_minus_is_the_rename_arrow(self):
        with pytest.raises(ParseError):
            cli.parse_query("select[a<-3](R)")


class TestTableIo:
    def test_load_shops(self, shops_db):
        assert set(shops_db.tables) == {"S", "PS", "P1", "P2"}
        assert len(shops_db.var_dists) == 19
        s = shops_db.tables["S"]
        assert s.columns == ("sid", "shop")
        assert s.rows[0] == ((1, "M&S"), alg.Var("x1"))

    def test_round_trip(self, shops_db, tmp_path):
        for table in shops_db.tables.values():
            text = cli.format_table(table)
            tmp = tmp_path / "roundtrip.tsv"
            tmp.write_text(text)
            again = cli.load_table(tmp)
            assert again.columns == table.columns
            assert again.roles == table.roles
            assert again.rows == table.rows
        probs_text = cli.format_probabilities(shops_db.var_dists)
        tmp = tmp_path / "probs.tsv"
        tmp.write_text(probs_text)
        again = cli.load_probabilities(tmp)
        for name, dist in shops_db.var_dists.items():
            assert again[name].close_to(dist, 1e-12)

    def test_aggregation_columns_detected(self, tmp_path):
        path = tmp_path / "agg.tsv"
        path.write_text("a\ttotal\tphi\n1\tsum{u(x)5}\tu\n")
        table = cli.load_table(path)
        assert table.roles == ("const", "agg")

    def test_missing_distribution_named(self, tmp_path):
        probs = tmp_path / "probs.tsv"
        lines = [
            ln
            for ln in (SHOPS / "probs.tsv").read_text().splitlines()
            if not ln.startswith("z5\t")
        ]
        probs.write_text("\n".join(lines) + "\n")
        tables = [SHOPS / n for n in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")]
        with pytest.raises(MissingDistribution, match="z5"):
            cli.load_database(tables, probs, "bool")

    def test_database_semiring_names(self):
        # "bool", "nat" or a SemiringKind; any other name is an error, not
        # bag semantics.
        tables = [SHOPS / n for n in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")]
        probs = SHOPS / "probs.tsv"
        for semiring, sk in [("bool", alg.SemiringKind.BOOLEAN), ("nat", alg.SemiringKind.NATURAL)]:
            assert cli.load_database(tables, probs, semiring).sk is sk
            assert cli.load_database(tables, probs, sk).sk is sk
        for semiring in ("Bool", "boolean", "natural", None):
            with pytest.raises(InvalidParams, match="unknown semiring %r" % (semiring,)):
                cli.load_database(tables, probs, semiring)

    def test_duplicate_variable(self, tmp_path):
        probs = tmp_path / "probs.tsv"
        probs.write_text("u\t0\t0.5\nu\t0\t0.5\n")
        with pytest.raises(DuplicateVariable):
            cli.load_probabilities(probs)

    def test_two_tables_of_one_name_are_rejected(self, tmp_path, capsys):
        for side, source in (("a", "S.tsv"), ("b", "P1.tsv")):
            (tmp_path / side).mkdir()
            (tmp_path / side / "R.tsv").write_text((SHOPS / source).read_text())
        paths = [str(tmp_path / "a" / "R.tsv"), str(tmp_path / "b" / "R.tsv")]
        probs = str(SHOPS / "probs.tsv")
        message = "relation R is in both %s and %s" % tuple(paths)
        with pytest.raises(RepeatedRelation) as exc:
            cli.load_database(paths, probs, "bool")
        assert str(exc.value) == message
        for command in ("query", "oracle"):
            code, out = run_cli(command, "--tables", *paths, "--probs", probs, "--query", "R")
            assert (code, out) == (1, "")
            assert capsys.readouterr().err == "error: %s\n" % message
        tables = [cli.load_table(p) for p in paths]
        with pytest.raises(RepeatedRelation, match="relation R is given twice"):
            pvcdb.PvcDatabase(tables, cli.load_probabilities(probs), alg.SemiringKind.BOOLEAN)

    def test_zero_probability_lines_are_dropped(self, tmp_path):
        probs = tmp_path / "probs.tsv"
        probs.write_text("x\t0\t1.0\nx\t1\t0.0\ny\t0\t0.25\ny\t2\t0\ny\t1\t0.75\n")
        dists = cli.load_probabilities(probs)
        assert dists["x"].entries == ((0, 1.0),)
        assert dists["y"].entries == ((0, 0.25), (1, 0.75))
        code, out = run_cli("prob", "--expr", "x + y", "--probs", str(probs))
        assert code == 0
        assert out == "0\t0.25\n1\t0.75\n"

    @pytest.mark.parametrize("prob", ["-0.5", "inf", "-inf", "nan", "half"])
    def test_bad_probability_names_file_and_line(self, tmp_path, prob):
        probs = tmp_path / "probs.tsv"
        probs.write_text("x\t0\t0.5\n\nx\t1\t%s\n" % prob)
        with pytest.raises(ParseError, match=r"probs\.tsv line 3"):
            cli.load_probabilities(probs)

    @pytest.mark.parametrize("text", ["x\t0\t0.2\nx\t1\t0.4\n", "x\t0\t0.7\nx\t1\t0.7\n",
                                      "x\t0\t0\n"])
    def test_mass_off_one_names_the_variable(self, tmp_path, text):
        probs = tmp_path / "probs.tsv"
        probs.write_text("y\t1\t1.0\n" + text)
        with pytest.raises(WeightSumOutOfTolerance, match="distribution of x "):
            cli.load_probabilities(probs)
        code, _ = run_cli("prob", "--expr", "x", "--probs", str(probs))
        assert code == 1

    def test_mass_within_tolerance_accepted(self, tmp_path):
        probs = tmp_path / "probs.tsv"
        probs.write_text("x\t0\t0.1\nx\t1\t0.2\nx\t2\t0.7\n")
        assert cli.load_probabilities(probs)["x"].support == (0, 1, 2)

    @pytest.mark.parametrize("cell", ["x0", "_y", "min", "inf", "x1 * x2", "[a + b != 0]"])
    def test_annotation_cells_parse_as_the_expression_syntax(self, tmp_path, cell):
        path = tmp_path / "r.tsv"
        path.write_text("a\tphi\n1\t%s\n" % cell)
        (_, phi), = cli.load_table(path).rows
        assert phi.key() == parse_expr(cell).key()

    @pytest.mark.parametrize("cell", ["x0 +", "1x", "x y", ""])
    def test_malformed_annotation_cells_raise_the_parse_error(self, tmp_path, cell):
        with pytest.raises(ParseError) as want:
            parse_expr(cell)
        path = tmp_path / "r.tsv"
        path.write_text("a\tphi\n1\t%s\n" % cell)
        with pytest.raises(ParseError) as got:
            cli.load_table(path)
        assert str(got.value) == str(want.value)

    def test_repeated_column_names_the_file_and_the_column(self, tmp_path, capsys):
        # Read as it was, the second ``a`` hid the first from every
        # query: project[a] gave 2 and select[a=1] nothing.
        table = tmp_path / "D.tsv"
        table.write_text("a\ta\tphi\n1\t2\tx\n")
        probs = tmp_path / "probs.tsv"
        probs.write_text("x\t0\t0.5\nx\t1\t0.5\n")
        message = "%s: column a is repeated" % table
        with pytest.raises(SchemaMismatch) as exc:
            cli.load_table(table)
        assert str(exc.value) == message
        for command in ("query", "oracle"):
            for query in ("project[a](D)", "select[a=1](D)"):
                code, out = run_cli(command, "--tables", str(table), "--probs", str(probs),
                                    "--query", query)
                assert (code, out) == (1, "")
                assert capsys.readouterr().err == "error: %s\n" % message

    def test_projection_that_repeats_an_attribute_is_rejected(self, shops_db, capsys):
        plan = cli.parse_query("project[shop, shop](S)")
        assert validate_query(plan, shops_db) == [
            "Project: projection repeats attribute shop"
        ]
        tables = [str(SHOPS / n) for n in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")]
        for command in ("query", "oracle"):
            code, _ = run_cli(command, "--tables", *tables, "--probs", str(SHOPS / "probs.tsv"),
                              "--query", "project[shop, shop](S)")
            assert code == 1
            assert "projection repeats attribute shop" in capsys.readouterr().err

    def test_aggregation_column_holding_a_constant_is_rejected(self, tmp_path):
        path = tmp_path / "agg.tsv"
        path.write_text("a\ttotal\tphi\n1\tmin{u(x)5}\tu\n2\t7\tu\n")
        with pytest.raises(CarrierMismatch, match="^agg: aggregation column holds 7$"):
            cli.load_table(path)

    def test_header_only_table(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("a\tb\tphi\n")
        table = cli.load_table(path)
        assert table.rows == []
        assert table.columns == ("a", "b")


class TestGenerator:
    def test_shape(self):
        params = cli.GenParams(
            terms_left=200,
            terms_right=0,
            num_vars=25,
            clauses=3,
            literals=3,
            maxv=200,
            c=100,
            seed=42,
        )
        expr = cli.gen_expression(params)
        assert isinstance(expr, alg.Cmp)
        terms = alg.sum_parts(expr.left)
        assert len(terms) == 200
        for term in terms:
            clauses = alg.sum_parts(term.weight)
            assert len(clauses) == 3
            for clause in clauses:
                assert len(alg.product_factors(clause)) == 3
            assert 0 <= term.value <= 200
        assert len(alg.variables(expr)) <= 25

    def test_minimal_shape(self):
        params = cli.GenParams(
            terms_left=1, terms_right=0, num_vars=1, clauses=1, literals=1, c=3
        )
        expr = cli.gen_expression(params)
        assert isinstance(expr.left, alg.Scaled)
        assert isinstance(expr.left.weight, alg.Var)

    def test_two_sided_shape(self):
        params = cli.GenParams(
            terms_left=3,
            terms_right=2,
            agg_left=MonoidKind.MAX,
            agg_right=MonoidKind.SUM,
            num_vars=6,
            clauses=2,
            literals=2,
        )
        expr = cli.gen_expression(params)
        assert expr.left.kind is MonoidKind.MAX
        assert expr.right.kind is MonoidKind.SUM
        assert len(alg.sum_parts(expr.right)) == 2

    def test_seed_determinism(self):
        params = cli.GenParams(seed=7, num_vars=8)
        a = format_expr(cli.gen_expression(params))
        b = format_expr(cli.gen_expression(params))
        assert a == b
        c = format_expr(cli.gen_expression(cli.GenParams(seed=8, num_vars=8)))
        assert a != c

    def test_count_uses_unit_values(self):
        params = cli.GenParams(
            terms_left=4, agg_left=MonoidKind.COUNT, num_vars=5, maxv=50
        )
        expr = cli.gen_expression(params)
        assert all(t.value == 1 for t in alg.sum_parts(expr.left))

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            cli.GenParams(literals=5, num_vars=3).validate()
        with pytest.raises(InvalidParams):
            cli.GenParams(terms_left=0).validate()


class TestBenchmark:
    def test_trimming_with_three_runs(self):
        params = cli.GenParams(
            terms_left=4, num_vars=5, clauses=1, literals=2, maxv=10, c=5, runs=3
        )
        rows = cli.run_benchmark(params, "c", [5])
        assert len(rows) == 1
        assert rows[0]["stddev_ms"] == 0.0  # one surviving sample

    def test_structural_columns_deterministic(self):
        params = cli.GenParams(
            terms_left=5, num_vars=6, clauses=2, literals=2, maxv=10, c=5, runs=4
        )
        a = cli.run_benchmark(params, "c", [3, 8])
        b = cli.run_benchmark(params, "c", [3, 8])
        for ra, rb in zip(a, b):
            assert ra["nodes"] == rb["nodes"]
            assert ra["dist_size"] == rb["dist_size"]

    def test_empty_sweep_rejected(self):
        with pytest.raises(InvalidParams):
            cli.run_benchmark(cli.GenParams(), "c", [])

    def test_oracle_mode_for_diffing(self):
        params = cli.GenParams(
            terms_left=3, num_vars=4, clauses=1, literals=2, maxv=8, runs=3
        )
        compiled = cli.run_benchmark(params, "c", [4])
        brute = cli.run_benchmark(params, "c", [4], mode="oracle")
        assert compiled[0]["dist_size"] == brute[0]["dist_size"]
        assert brute[0]["nodes"] == 0

    def test_csv_format(self):
        params = cli.GenParams(terms_left=3, num_vars=4, clauses=1, literals=1, runs=3)
        text = cli.format_bench_rows(cli.run_benchmark(params, "c", [2]))
        lines = text.strip().splitlines()
        assert lines[0] == cli.BENCH_HEADER
        assert lines[1].startswith("c,2,")


class TestSubcommands:
    def test_parse_expr(self):
        code, out = run_cli("parse", "--expr", "[ x (x) 5 <= 15 ] min")
        assert code == 0
        assert out.strip() == "[min{x(x)5} <= 15]"

    def test_parse_query(self):
        code, out = run_cli("parse", "--query", "project[a](select[a=1](R))")
        assert code == 0
        assert out.strip() == "project[a](select[a=1](R))"

    def test_prob_and_oracle_agree(self, tmp_path):
        probs = tmp_path / "p.tsv"
        probs.write_text("x\t0\t0.4\nx\t1\t0.6\ny\t0\t0.3\ny\t1\t0.7\n")
        expr = "[min{x(x)5 + y(x)9} <= 6]"
        code1, out1 = run_cli("prob", "--expr", expr, "--probs", str(probs))
        code2, out2 = run_cli("oracle", "--expr", expr, "--probs", str(probs))
        assert code1 == code2 == 0
        assert out1 == out2

    def test_query_subcommand(self):
        code, out = run_cli(
            "query",
            "--tables",
            *[str(SHOPS / n) for n in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")],
            "--probs",
            str(SHOPS / "probs.tsv"),
            "--query",
            "agg[; low<-min(weight)](P1)",
            "--joint",
        )
        assert code == 0
        assert "# tuple:" in out and "# joint" in out

    def test_classify_subcommand(self):
        code, out = run_cli(
            "classify",
            "--tables",
            *[str(SHOPS / n) for n in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")],
            "--probs",
            str(SHOPS / "probs.tsv"),
            "--semiring",
            "nat",
            "--query",
            "agg[; total<-sum(price)](select[shop='M&S',sid=sid2]"
            "(product(S,rename[sid2<-sid](PS))))",
        )
        assert code == 0
        assert out.splitlines()[0] == "Q_hie"

    def test_gen_subcommand_deterministic(self):
        argv = ["gen", "--num-vars", "6", "--terms-left", "4", "--seed", "9"]
        assert run_cli(*argv) == run_cli(*argv)

    def test_dtree_dump(self, tmp_path):
        probs = tmp_path / "p.tsv"
        probs.write_text(
            "a\t1\t0.6\na\t2\t0.4\nb\t1\t0.3\nb\t2\t0.7\nc\t1\t0.8\nc\t2\t0.2\n"
        )
        code, out = run_cli(
            "dtree",
            "dump",
            "--expr",
            "sum{a*(b + c)(x)10 + c(x)20}",
            "--probs",
            str(probs),
            "--semiring",
            "nat",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n0 = a"
        assert lines[-1].startswith("n%d = |_|c: " % (len(lines) - 1))
        assert " <- 1 (p=0.8), " in lines[-1]
        code, out = run_cli(
            "dtree",
            "dump",
            "--dot",
            "--expr",
            "sum{a*(b + c)(x)10 + c(x)20}",
            "--probs",
            str(probs),
            "--semiring",
            "nat",
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_oracle_query_mode(self):
        code, out = run_cli(
            "oracle",
            "--tables",
            *[str(SHOPS / n) for n in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")],
            "--probs",
            str(SHOPS / "probs.tsv"),
            "--query",
            "agg[; low<-min(weight)](P1)",
        )
        assert code == 0
        assert out.startswith("# tuple:")

    def test_oracle_without_an_input_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("oracle", "--probs", "p.tsv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "one of the arguments --expr --expr-file --query --query-file is required" in err
        assert "Traceback" not in err

    def test_bench_subcommand(self):
        code, out = run_cli(
            "bench",
            "--sweep",
            "c",
            "--values",
            "2,4",
            "--terms-left",
            "3",
            "--num-vars",
            "4",
            "--clauses",
            "1",
            "--literals",
            "1",
            "--runs",
            "3",
            "--maxv",
            "6",
        )
        assert code == 0
        assert out.splitlines()[0] == cli.BENCH_HEADER
        assert len(out.strip().splitlines()) == 3

    def test_error_exit_code(self, tmp_path):
        probs = tmp_path / "p.tsv"
        probs.write_text("x\t0\t0.5\nx\t1\t0.5\n")
        code, _ = run_cli("prob", "--expr", "x + y", "--probs", str(probs))
        assert code == 1

    @pytest.mark.parametrize("flag", ["--probs", "--tables", "--expr-file", "--query-file"])
    @pytest.mark.parametrize("problem", ["missing", "directory", "not utf-8"])
    def test_unreadable_input_file_is_one_error_line(self, tmp_path, capsys, flag, problem):
        probs = tmp_path / "p.tsv"
        probs.write_text("x\t0\t0.5\nx\t1\t0.5\n")
        bad = tmp_path / "bad.tsv"
        if problem == "directory":
            bad.mkdir()
        elif problem == "not utf-8":
            bad.write_bytes(b"x\t0\t\xff\n")
        argv = {
            "--probs": ["prob", "--expr", "x", "--probs", str(bad)],
            "--tables": ["query", "--tables", str(bad), "--probs", str(probs), "--query", "bad"],
            "--expr-file": ["prob", "--expr-file", str(bad), "--probs", str(probs)],
            "--query-file": ["query", "--tables", str(SHOPS / "S.tsv"), "--probs",
                             str(SHOPS / "probs.tsv"), "--query-file", str(bad)],
        }[flag]
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("error: %s: " % bad)
        assert err.count("\n") == 1

    def test_node_budget_flag(self, tmp_path):
        probs = tmp_path / "p.tsv"
        lines = []
        for v in ("a", "b", "c"):
            lines += ["%s\t0\t0.5" % v, "%s\t1\t0.5" % v]
        probs.write_text("\n".join(lines) + "\n")
        expr = "min{a*b(x)1 + b*c(x)2 + c*a(x)3}"
        code, _ = run_cli(
            "prob", "--expr", expr, "--probs", str(probs), "--node-budget", "2"
        )
        assert code == 1
        code, _ = run_cli("prob", "--expr", expr, "--probs", str(probs))
        assert code == 0

    def test_recursion_limit_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def too_deep(*args, **kwargs):
            raise RecursionError

        monkeypatch.setattr(dtree, "compile", too_deep)
        probs = tmp_path / "p.tsv"
        probs.write_text("a\t0\t0.5\na\t1\t0.5\n")
        code = cli.run(["prob", "--expr", "a", "--probs", str(probs)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: exceeded the interpreter's recursion limit (")
        assert err.count("\n") == 1

    @staticmethod
    def _chain(tmp_path, levels):
        """A MIN over a path of rows: ``x_i (x) i`` for each row and
        ``x_i*x_i+1 (x) n`` for each pair of neighbours.  The pairs keep
        the rows one group, and the unit rule splits on the rows in order
        of value: where x_i is 1 the sum is i, where it is 0 the path
        loses one row.  So the case splits form one chain, a level per
        row but the last."""
        n = levels + 1
        probs = tmp_path / "p.tsv"
        probs.write_text("".join("x%d\t0\t0.5\nx%d\t1\t0.5\n" % (i, i) for i in range(n)))
        expr = "min{%s + %s}" % (
            " + ".join("x%d*x%d(x)%d" % (i, i + 1, n) for i in range(n - 1)),
            " + ".join("x%d(x)%d" % (i, i) for i in range(n)),
        )
        return expr, str(probs)

    def test_deep_case_split_chain_fits_the_default_recursion_limit(self, tmp_path):
        # A chain of case splits one variable deep each, a thousand
        # levels: compilation and the distribution walk keep their own
        # stacks.
        expr, probs = self._chain(tmp_path, 1000)
        out = io.StringIO()
        assert cli.main(["prob", "--expr", expr, "--probs", probs], out=out) == 0
        # The sum is i when rows 0..i-1 are absent and row i is present;
        # masses from i = 50 on are at most PRUNE_EPS.
        assert out.getvalue() == "".join("%d\t%.12g\n" % (i, 0.5 ** (i + 1)) for i in range(49))

    def test_deep_tree_dump_fits_the_default_recursion_limit(self, tmp_path):
        # The same thousand-level chain, dumped whole in both formats:
        # the walk keeps its own stack, and each distinct node is one
        # line, or one node statement, however many parents it has.
        expr, probs = self._chain(tmp_path, 1000)
        dists = cli.load_probabilities(probs)
        pruned = dtree.prune_all(parse_expr(expr), alg.SemiringKind.BOOLEAN, dists)
        nodes = dtree.node_count(dtree.compile(pruned, dists))
        assert nodes > 2000  # at least two per level
        code, text = run_cli("dtree", "dump", "--expr", expr, "--probs", probs)
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == nodes
        assert [ln.split(" = ")[0] for ln in lines] == ["n%d" % i for i in range(nodes)]
        assert lines[-1].startswith("n%d = |_|x0: " % (nodes - 1))
        code, dot = run_cli("dtree", "dump", "--dot", "--expr", expr, "--probs", probs)
        assert code == 0
        declared = [ln for ln in dot.splitlines() if " [label=" in ln and "->" not in ln]
        assert len(declared) == nodes

    def test_deep_alternating_expression_fits_the_default_recursion_limit(self, tmp_path):
        # x0*(x1 + x2*(x3 + …x3000)) over fair coins: parsing, pruning,
        # compilation and every reading of the tree keep their own stacks.
        n = 3000
        text, p = "x%d" % n, 0.5
        for i in range(n - 1, -1, -1):
            if i % 2:
                text, p = "x%d + %s" % (i, text), 1 - 0.5 * (1 - p)
            else:
                text, p = "x%d*(%s)" % (i, text), 0.5 * p
        expr = tmp_path / "e.txt"
        expr.write_text(text + "\n")
        probs = tmp_path / "p.tsv"
        probs.write_text("".join("x%d\t0\t0.5\nx%d\t1\t0.5\n" % (i, i) for i in range(n + 1)))
        code, out = run_cli("prob", "--expr-file", str(expr), "--probs", str(probs))
        assert code == 0
        got = dict(line.split("\t") for line in out.splitlines())
        assert float(got["1"]) == pytest.approx(p, abs=1e-9)
        assert float(got["0"]) == pytest.approx(1 - p, abs=1e-9)
        code, dump = run_cli("dtree", "dump", "--expr-file", str(expr), "--probs", str(probs))
        assert code == 0
        # A leaf per variable and a node per level.
        assert len(dump.splitlines()) == 2 * n + 1

    @pytest.mark.parametrize("shape", ["[%s != 0]", "x*(1 + %s)"])
    def test_deep_one_variable_expression_fits_the_default_recursion_limit(
        self, tmp_path, shape
    ):
        # Three thousand levels over one variable: prob compiles them to
        # one leaf, tabulated by one walk with its own stack, and the
        # oracle evaluates them on the same walk.  Both are x under bool.
        text = "x"
        for _ in range(3000):
            text = shape % text
        expr = tmp_path / "e.txt"
        expr.write_text(text + "\n")
        probs = tmp_path / "p.tsv"
        probs.write_text("x\t0\t0.5\nx\t1\t0.5\n")
        for command in ("prob", "oracle"):
            code, out = run_cli(command, "--expr-file", str(expr), "--probs", str(probs))
            assert (code, out) == (0, "0\t0.5\n1\t0.5\n"), command
        code, dump = run_cli("dtree", "dump", "--expr-file", str(expr), "--probs", str(probs))
        assert (code, dump) == (0, "n0 = x{0:0 1:1}\n")

    @staticmethod
    def _shared_tail(tmp_path, levels, shape):
        """``shape`` around ``x0*(x1 + x2*(… x<levels>)) + x<levels>*y``
        over fair coins.  The last variable is in both summands, so no
        independence split applies: the compiler counts occurrences,
        splits a case on it and substitutes it all the way down."""
        text = "x%d" % levels
        for i in range(levels - 1, -1, -1):
            text = ("x%d + %s" if i % 2 else "x%d*(%s)") % (i, text)
        expr = tmp_path / "e.txt"
        expr.write_text(shape % ("%s + x%d*y" % (text, levels)) + "\n")
        names = ["x%d" % i for i in range(levels + 1)] + ["y"]
        probs = tmp_path / "p.tsv"
        probs.write_text("".join("%s\t0\t0.5\n%s\t1\t0.5\n" % (n, n) for n in names))
        return str(expr), str(probs)

    @pytest.mark.parametrize("semiring", ["bool", "nat"])
    @pytest.mark.parametrize("shape", ["%s", "[sum{(%s)(x)3} <= 2]"])
    def test_deep_case_split_fits_the_default_recursion_limit(self, tmp_path, semiring, shape):
        # Three thousand levels that need a case split: occurrence
        # counts, substitution and, in the SUM conditional, the bounds
        # of the weight are folds with their own stack.  Fourteen levels
        # agree with the oracle.
        for levels in (14, 3000):
            expr, probs = self._shared_tail(tmp_path, levels, shape)
            argv = ["--expr-file", expr, "--probs", probs, "--semiring", semiring]
            code, out = run_cli("prob", *argv)
            assert code == 0
            got = {int(v): float(p) for v, p in (ln.split("\t") for ln in out.splitlines())}
            assert sum(got.values()) == pytest.approx(1, abs=1e-9)
            if levels == 14:
                code, want = run_cli("oracle", *argv)
                assert code == 0
                want = dict(ln.split("\t") for ln in want.splitlines())
                assert got == pytest.approx({int(v): float(p) for v, p in want.items()})

    @pytest.mark.parametrize("command", [["prob"], ["oracle"], ["dtree", "dump"]])
    @pytest.mark.parametrize(
        "semiring, probs, expr",
        [
            pytest.param("bool", "x\t0\t0.5\nx\t2\t0.5\n", "x", id="bool-x"),
            pytest.param("bool", "x\t0\t0.5\nx\t2\t0.5\n", "x*x", id="bool-x*x"),
            pytest.param("nat", "x\t-1\t0.5\nx\t1\t0.5\n", "sum{x(x)3}", id="nat-sum"),
        ],
    )
    def test_values_outside_the_semiring_are_rejected(
        self, tmp_path, capsys, command, semiring, probs, expr
    ):
        # Every expression command checks the variables' values against
        # the semiring, as loading a database does; read without a
        # semiring, the file loads as it is.
        path = tmp_path / "p.tsv"
        path.write_text(probs)
        argv = [*command, "--expr", expr, "--probs", str(path), "--semiring", semiring]
        assert run_cli(*argv) == (1, "")
        assert capsys.readouterr().err.startswith("error: value of x: ")
        with pytest.raises(CarrierMismatch, match="value of x"):
            cli.load_probabilities(path, alg.SemiringKind(semiring))
        assert len(cli.load_probabilities(path)["x"]) == 2

    def test_dump_prints_the_tree_that_prob_reads(self, tmp_path):
        # Pruning rewrites a MIN conditional before it compiles; the dump
        # shows the pruned tree, whose distribution prob prints.
        probs = tmp_path / "p.tsv"
        probs.write_text("".join("%s\t0\t0.5\n%s\t1\t0.5\n" % (v, v) for v in "abcd"))
        expr = "[min{a*b(x)3 + b*c(x)4 + c*d(x)9 + a*d(x)12} <= 5]"
        dists = cli.load_probabilities(probs)
        sk = alg.SemiringKind.BOOLEAN
        pruned = dtree.compile(dtree.prune_all(parse_expr(expr), sk, dists), dists)
        unpruned = dtree.compile(parse_expr(expr), dists)
        assert dtree.node_count(pruned) != dtree.node_count(unpruned)
        code, text = run_cli("dtree", "dump", "--expr", expr, "--probs", str(probs))
        assert code == 0
        assert len(text.splitlines()) == dtree.node_count(pruned)

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(dtree, "compile", exhausted)
        probs = tmp_path / "p.tsv"
        probs.write_text("a\t0\t0.5\na\t1\t0.5\n")
        code = cli.run(["prob", "--expr", "a", "--probs", str(probs)])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_main_lets_interpreter_limits_through(self, tmp_path, monkeypatch):
        # In-process callers of main, such as perfbench's run loop, see
        # the exception itself.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(dtree, "compile", exhausted)
        probs = tmp_path / "p.tsv"
        probs.write_text("a\t0\t0.5\na\t1\t0.5\n")
        with pytest.raises(MemoryError):
            run_cli("prob", "--expr", "a", "--probs", str(probs))

    def test_python_dash_m(self):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pvcdb.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "pvcdb", "--help"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: pvcdb")


class TestParserReuse:
    """``main`` builds its argument parser once per process; successive
    calls must not see each other's subcommands, flags or defaults."""

    TABLES = [str(SHOPS / n) for n in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")]

    def _argvs(self, tmp_path):
        probs = tmp_path / "p.tsv"
        probs.write_text("x\t0\t0.4\nx\t1\t0.6\ny\t0\t0.3\ny\t1\t0.7\n")
        query = ["query", "--tables", *self.TABLES, "--probs", str(SHOPS / "probs.tsv"),
                 "--query", "agg[; low<-min(weight)](P1)"]
        return [
            query + ["--joint"],
            query,
            ["prob", "--expr", "[min{x(x)5 + y(x)9} <= 6]", "--probs", str(probs)],
            query + ["--joint", "--semiring", "nat"],
        ]

    def test_successive_calls_print_what_fresh_processes_print(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pvcdb.__file__).parents[1]))
        argvs = self._argvs(tmp_path)
        in_process = [run_cli(*argv) for argv in argvs]
        for argv, (code, out) in zip(argvs, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "pvcdb", *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
        assert "# joint" in in_process[0][1]
        assert "# joint" not in in_process[1][1]

    def test_usage_error_still_exits_2(self, tmp_path, capsys):
        run_cli(*self._argvs(tmp_path)[0])
        with pytest.raises(SystemExit) as exc:
            run_cli("query", "--joint")
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        code, out = run_cli(*self._argvs(tmp_path)[2])
        assert code == 0 and out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["prob", "--expr", "x", "--probs", "p.tsv"], "--node-budget"),
            (["dtree", "dump", "--expr", "x", "--probs", "p.tsv"], "--node-budget"),
            (["query", "--tables", "S.tsv", "--probs", "p.tsv", "--query", "S"], "--node-budget"),
            (["oracle", "--expr", "x", "--probs", "p.tsv"], "--world-limit"),
        ],
    )
    def test_negative_limits_are_usage_errors(self, capsys, argv, flag):
        for value in ("-1", "-5000"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [flag, value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument %s: expected an int of 0 or more, not '%s'" % (flag, value) in err
            assert "Traceback" not in err
        args = cli.build_parser().parse_args(argv + [flag, "0"])
        assert getattr(args, flag[2:].replace("-", "_")) == 0

    def test_zero_limits_still_run(self, tmp_path):
        probs = tmp_path / "p.tsv"
        probs.write_text("x\t0\t0.5\nx\t1\t0.5\n")
        assert run_cli("prob", "--expr", "x", "--probs", str(probs), "--node-budget", "0")[0] == 1
        assert run_cli("oracle", "--expr", "1", "--probs", str(probs), "--world-limit", "0")[0] == 1
        assert run_cli("oracle", "--expr", "x", "--probs", str(probs), "--world-limit", "2")[0] == 0

    def test_build_parser_returns_a_working_parser(self):
        args = cli.build_parser().parse_args(["prob", "--expr", "x", "--probs", "p.tsv"])
        assert args.command == "prob" and args.expr == "x" and args.node_budget is None


#: A value for each shared flag, and the flags each subcommand reads.
FLAG_VALUES = {"--semiring": ["nat"], "--seed": ["3"], "--world-limit": ["10"],
               "--node-budget": ["10"], "--joint": []}
FLAGS_READ = {
    "parse": (),
    "prob": ("--semiring", "--node-budget"),
    "dtree": ("--semiring", "--node-budget"),
    "oracle": ("--semiring", "--world-limit"),
    "query": ("--semiring", "--node-budget", "--joint"),
    "classify": ("--semiring",),
    "gen": ("--seed",),
    "bench": ("--seed",),
}


class TestSharedFlags:
    """Each shared flag is registered only on the subcommands that read
    it; elsewhere argparse rejects it as a usage error."""

    def _base(self, command):
        expr = ["--expr", "x", "--probs", "p.tsv"]
        db = ["--tables", "S.tsv", "--probs", "p.tsv", "--query", "S"]
        return {
            "parse": ["parse", "--expr", "x"],
            "prob": ["prob", *expr],
            "dtree": ["dtree", "dump", *expr],
            "oracle": ["oracle", *expr],
            "query": ["query", *db],
            "classify": ["classify", *db],
            "gen": ["gen"],
            "bench": ["bench", "--sweep", "num_vars", "--values", "4"],
        }[command]

    def test_twelve_flags_are_read(self):
        assert sum(map(len, FLAGS_READ.values())) == 12
        parser = cli.build_parser()
        for command, flags in FLAGS_READ.items():
            argv = self._base(command)
            for flag in flags:
                argv += [flag, *FLAG_VALUES[flag]]
            args = parser.parse_args(argv)
            for flag in flags:
                assert getattr(args, flag[2:].replace("-", "_")) not in (None, False), flag

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, read in FLAGS_READ.items() for f in FLAG_VALUES if f not in read],
    )
    def test_a_flag_that_is_not_read_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(self._base(command) + [flag, *FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


class TestHugeNumerals:
    """A numeral with more digits than Python converts to an int is a
    ParseError at the numeral, one ``error:`` line from each entry point."""

    @pytest.fixture(autouse=True)
    def digit_limit(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no limit on integer string conversion")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(old)

    BIG = "1" + "0" * 640

    def test_in_an_expression(self, capsys):
        assert cli.run(["parse", "--expr", "x * [sum{y(x)%s} >= 1]" % self.BIG]) == 1
        err = capsys.readouterr().err
        assert err == "error: numeral of 641 digits is too long (at position 13)\n"

    def test_in_a_query(self, capsys):
        assert cli.run(["parse", "--query", "select[a = %s](R)" % self.BIG]) == 1
        err = capsys.readouterr().err
        assert err == "error: numeral of 641 digits is too long (at position 10)\n"

    def test_in_a_table_cell(self, tmp_path, capsys):
        table = tmp_path / "R.tsv"
        table.write_text("a\tphi\n%s\tx\n" % self.BIG)
        probs = tmp_path / "p.tsv"
        probs.write_text("x\t0\t0.5\nx\t1\t0.5\n")
        argv = ["query", "--tables", str(table), "--probs", str(probs), "--query", "R"]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: %s line 2: numeral of 641 digits is too long\n" % table


class TestNegativeConstants:
    @pytest.fixture
    def db(self, tmp_path):
        table = tmp_path / "R.tsv"
        table.write_text(
            "g\tv\tphi\n0\t-3\tx0\n0\t2\tx1\n1\t-1\tx2\n1\t-3\tx3\n1\t0\tx4\n"
        )
        probs = tmp_path / "p.tsv"
        probs.write_text(
            "".join("x%d\t0\t0.5\nx%d\t1\t0.5\n" % (i, i) for i in range(5))
        )
        return cli.load_database([table], probs, "bool")

    @pytest.mark.parametrize(
        "text",
        [
            "select[v=-3](R)",
            "select[v < -1](R)",
            "select[-3>=v](R)",
            "project[g](select[v!=-3](R))",
        ],
    )
    def test_selection_matches_brute_force(self, db, text):
        plan = cli.parse_query(text)
        _, answers = answer_distributions(plan, db)
        brute = brute_query(plan, db)
        assert {row.values for row in answers} == set(brute.dists)
        for row in answers:
            want = {value: p for (value,), p in brute.dists[row.values]}
            assert dict(row.annotation.entries) == pytest.approx(want, abs=1e-9)

    def test_negative_bound_on_an_aggregate_is_rejected(self, db):
        plan = cli.parse_query("select[m<=-1](agg[g; m<-min(v)](R))")
        with pytest.raises(CarrierMismatch):
            answer_distributions(plan, db)
