"""Command-line surface: data and query ingestion, random-expression
generation, benchmarking, and machine-readable output.

File formats
------------

Tables are TSV: a header row of attribute names whose final column is
``phi`` (the annotation), then one row per tuple.  Cells that look like
integers are integers, cells starting with a monoid tag
(``min{``, ``sum{``, ...) are semimodule expressions, everything else is
a string constant.  The probability file has ``variable<TAB>value<TAB>
probability`` lines.  Distributions print as sorted
``value<TAB>probability`` lines with infinities spelled ``+inf``/``-inf``.

Queries use a small DSL mirroring the algebra::

    project[shop](select[P<=50](agg[shop; P<-max(price)](Q1)))

with operators rename[new<-old,...], select[pred,...], project[attrs],
product(q1,q2), union(q1,q2) and agg[group; out<-AGG(col),...]; string
constants in predicates are single-quoted.
"""

from __future__ import annotations

import argparse
import functools
import math
import pathlib
import random
import re
import sys
import time
from dataclasses import dataclass, replace

from . import algebra as alg
from . import dtree, oracle, pvc, tractability
from .algebra import MonoidKind, SemiringKind
from .engine import (
    AGG_NAMES,
    Aggregate,
    Base,
    Product,
    Project,
    Rename,
    Select,
    Union,
    answer_distributions,
    describe,
)
from .errors import (
    DuplicateVariable,
    InvalidParams,
    ParseError,
    PvcError,
    RepeatedRelation,
    SchemaMismatch,
)
from .exprtext import format_expr, parse_expr
from .prob import Distribution, format_distribution

# ---------------------------------------------------------------------------
# Query DSL
# ---------------------------------------------------------------------------

_QTOKEN_RE = re.compile(
    r"\s*(?:(?P<num>-?\d+)"
    r"|(?P<str>'[^']*')"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><-|<=|>=|!=|=|<|>|\(|\)|\[|\]|,|;|\*))"
)

_OPERATORS = ("rename", "select", "project", "product", "union", "agg")


class _QueryParser:
    def __init__(self, text):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _QTOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise ParseError("unexpected character %r" % rest[0], pos)
            num = m.group("num")
            if num is not None:
                try:
                    self.tokens.append(("num", int(num)))
                except ValueError:  # more digits than Python converts to an int
                    digits = len(num.lstrip("-"))
                    raise ParseError("numeral of %d digits is too long" % digits, pos) from None
            elif m.group("str") is not None:
                self.tokens.append(("str", m.group("str")[1:-1]))
            elif m.group("ident") is not None:
                self.tokens.append(("ident", m.group("ident")))
            else:
                self.tokens.append(("op", m.group("op")))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, op):
        kind, value = self.next()
        if kind != "op" or value != op:
            raise ParseError("expected %r, found %r" % (op, value))

    def at(self, op):
        kind, value = self.peek()
        return kind == "op" and value == op

    def parse(self):
        plan = self.parse_query()
        if self.peek()[0] != "eof":
            raise ParseError("trailing input %r" % (self.peek()[1],))
        return plan

    def parse_query(self):
        kind, value = self.next()
        if kind != "ident":
            raise ParseError("expected a relation or operator, found %r" % (value,))
        if value not in _OPERATORS:
            return Base(value)
        if value == "product" or value == "union":
            self.expect("(")
            left = self.parse_query()
            self.expect(",")
            right = self.parse_query()
            self.expect(")")
            return Product(left, right) if value == "product" else Union(left, right)
        self.expect("[")
        if value == "rename":
            mapping = [self.parse_rename()]
            while self.at(","):
                self.next()
                mapping.append(self.parse_rename())
            self.expect("]")
            return Rename(self.parse_child(), tuple(mapping))
        if value == "select":
            atoms = [self.parse_pred()]
            while self.at(","):
                self.next()
                atoms.append(self.parse_pred())
            self.expect("]")
            return Select(self.parse_child(), tuple(atoms))
        if value == "project":
            attrs = self.parse_attr_list()
            self.expect("]")
            return Project(self.parse_child(), tuple(attrs))
        group = self.parse_attr_list()
        self.expect(";")
        aggs = [self.parse_agg_spec()]
        while self.at(","):
            self.next()
            aggs.append(self.parse_agg_spec())
        self.expect("]")
        return Aggregate(self.parse_child(), tuple(group), tuple(aggs))

    def parse_child(self):
        self.expect("(")
        child = self.parse_query()
        self.expect(")")
        return child

    def parse_attr_list(self):
        """Comma-separated attribute names, possibly none."""
        if self.peek()[0] != "ident":
            return []
        attrs = [self.next()[1]]
        while self.at(","):
            self.next()
            kind, name = self.next()
            if kind != "ident":
                raise ParseError("expected an attribute name, found %r" % (name,))
            attrs.append(name)
        return attrs

    def parse_rename(self):
        kind, new = self.next()
        if kind != "ident":
            raise ParseError("expected an attribute name, found %r" % (new,))
        self.expect("<-")
        kind, old = self.next()
        if kind != "ident":
            raise ParseError("expected an attribute name, found %r" % (old,))
        return (new, old)

    def parse_pred(self):
        left = self.parse_operand()
        kind, theta = self.next()
        if kind != "op" or theta not in alg.THETAS:
            raise ParseError("expected a comparison, found %r" % (theta,))
        right = self.parse_operand()
        return (left, theta, right)

    def parse_operand(self):
        kind, value = self.next()
        if kind == "ident":
            return ("attr", value)
        if kind in ("num", "str"):
            return ("const", value)
        raise ParseError("expected an attribute or constant, found %r" % (value,))

    def parse_agg_spec(self):
        kind, out = self.next()
        if kind != "ident":
            raise ParseError("expected an output attribute, found %r" % (out,))
        self.expect("<-")
        kind, agg_name = self.next()
        if kind != "ident" or agg_name not in AGG_NAMES:
            raise ParseError("expected an aggregation name, found %r" % (agg_name,))
        self.expect("(")
        kind, src = self.next()
        if kind == "op" and src == "*":
            src = "*"
        elif kind != "ident":
            raise ParseError("expected a column, found %r" % (src,))
        self.expect(")")
        return (out, agg_name, src)


def parse_query(text):
    return _QueryParser(text).parse()


# ---------------------------------------------------------------------------
# TSV ingestion
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"-?\d+$")
_MTAG_RE = re.compile(r"(min|max|sum|count|prod)\{")


def _parse_cell(text, path, n, expressions, i):
    """The value of cell ``i`` on line ``n``: an integer, a semimodule
    expression, counted in ``expressions[i]``, or a string."""
    if _INT_RE.match(text):
        try:
            return int(text)
        except ValueError:  # more digits than Python converts to an int
            digits = len(text.lstrip("-"))
            raise ParseError(
                "%s line %d: numeral of %d digits is too long" % (path, n, digits)
            ) from None
    if _MTAG_RE.match(text):
        expr = parse_expr(text)
        if not isinstance(expr, alg.MExpr):
            raise ParseError("%s line %d: expected a semimodule expression" % (path, n))
        expressions[i] += 1
        return expr
    return text


def load_table(path):
    """Read a TSV table in one pass over its lines.  A column is an
    aggregation column when it holds a semimodule expression, and then
    every cell of it must be one; the rows go into the table as read,
    since the pass has checked what :meth:`pvcdb.pvc.PvcTable.add_row`
    checks."""
    path = pathlib.Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("%s: missing header row" % path)
    header = lines[0].split("\t")
    if header[-1] != "phi":
        raise ParseError("%s: last column must be phi" % path)
    columns = tuple(header[:-1])
    for i, column in enumerate(columns):
        if column in columns[:i]:
            raise SchemaMismatch("%s: column %s is repeated" % (path, column))
    width = len(header)
    expressions = [0] * len(columns)
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != width:
            raise ParseError("%s line %d: expected %d cells" % (path, n, width))
        values = tuple([_parse_cell(c, path, n, expressions, i) for i, c in enumerate(cells[:-1])])
        phi = parse_expr(cells[-1])
        if not isinstance(phi, alg.Expr):
            raise ParseError("%s line %d: phi must be a semiring expression" % (path, n))
        rows.append((values, phi))
    roles = tuple(pvc.AGG if k else pvc.CONST for k in expressions)
    table = pvc.PvcTable(path.stem, columns, roles)
    if any(0 < k < len(rows) for k in expressions):
        for values, phi in rows:  # raises on the first cell add_row rejects
            table.add_row(values, phi)
    table.rows = rows
    return table


def load_probabilities(path, sk=None):
    """Read a probability file into one distribution per variable.

    Zero-probability lines are dropped, since such a value is outside the
    support; each variable's probabilities must sum to 1 within
    ``prob.MASS_TOL``, and with a semiring ``sk`` its values must lie in
    that semiring (:func:`pvcdb.pvc.check_values`).
    """
    path = pathlib.Path(path)
    dists = {}
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != 3:
            raise ParseError("%s line %d: expected var, value, prob" % (path, n))
        try:
            var, value, prob = cells[0], int(cells[1]), float(cells[2])
        except ValueError:
            raise ParseError("%s line %d: malformed value or probability" % (path, n)) from None
        if not (0.0 <= prob < math.inf):
            raise ParseError("%s line %d: probability %r is not a finite non-negative number"
                             % (path, n, cells[2]))
        probs = dists.get(var)
        if probs is None:
            dists[var] = {value: prob}
        elif value in probs:
            raise DuplicateVariable(
                "%s declared twice for value %d (%s line %d)" % (var, value, path, n)
            )
        else:
            probs[value] = prob
    for var, probs in dists.items():
        # Unique values, probabilities checked finite and non-negative.
        entries = sorted(probs.items())
        if 0.0 in probs.values():
            entries = [item for item in entries if item[1] > 0]
        dist = Distribution._sorted(entries)
        if not dist.is_normalized():
            dist.check_normalized(what="distribution of %s in %s" % (var, path))
        dists[var] = dist
    return dists if sk is None else pvc.check_values(dists, sk)


def load_database(table_paths, prob_path, semiring):
    """The database of the tables and the probability file, under
    ``semiring``: a :class:`SemiringKind`, ``"bool"`` or ``"nat"``."""
    try:
        sk = SemiringKind(semiring)
    except ValueError:
        raise InvalidParams("unknown semiring %r, not 'bool' or 'nat'" % (semiring,)) from None
    names = [pathlib.Path(p).stem for p in table_paths]
    for i, name in enumerate(names):
        if name in names[:i]:
            first = table_paths[names.index(name)]
            raise RepeatedRelation("relation %s is in both %s and %s" % (name, first, table_paths[i]))
    tables = [load_table(p) for p in table_paths]
    var_dists = load_probabilities(prob_path)
    return pvc.PvcDatabase(tables, var_dists, sk)


def _format_cell(value):
    if isinstance(value, alg.MExpr):
        return format_expr(value)
    return str(value)


def format_table(table):
    lines = ["\t".join(table.columns + ("phi",))]
    for values, phi in table.rows:
        lines.append(
            "\t".join([_format_cell(v) for v in values] + [format_expr(phi)])
        )
    return "\n".join(lines) + "\n"


def format_probabilities(var_dists):
    lines = []
    for var in sorted(var_dists):
        for value, p in var_dists[var].entries:
            lines.append("%s\t%d\t%.12g" % (var, value, p))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random expression generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    """Shape parameters for random conditional expressions.

    ``terms_left``/``terms_right`` count the scaled terms on each side
    of the comparison (``terms_right`` 0 compares against the constant
    ``c``); each term's condition has ``clauses`` clauses of
    ``literals`` distinct positive literals drawn from ``num_vars``
    Boolean variables; values are uniform over [0, maxv].
    """

    terms_left: int = 10
    terms_right: int = 0
    agg_left: MonoidKind = MonoidKind.MIN
    agg_right: MonoidKind = MonoidKind.MIN
    num_vars: int = 10
    clauses: int = 3
    literals: int = 3
    maxv: int = 100
    c: int = 50
    theta: str = "<="
    runs: int = 5
    seed: int = 1

    def validate(self):
        if self.terms_left < 1 or self.terms_right < 0:
            raise InvalidParams("need at least one term on the left")
        if self.num_vars < 1 or self.clauses < 1 or self.literals < 1:
            raise InvalidParams("num_vars, clauses and literals must be positive")
        if self.literals > self.num_vars:
            raise InvalidParams("cannot draw %d distinct literals from %d variables"
                                % (self.literals, self.num_vars))
        if self.maxv < 0 or self.c < 0 or self.runs < 1:
            raise InvalidParams("maxv, c and runs must be non-negative")
        if self.theta not in alg.THETAS:
            raise InvalidParams("unknown comparison %r" % self.theta)
        return self


def _gen_side(rng, params, count, kind):
    names = ["x%d" % (i + 1) for i in range(params.num_vars)]
    terms = []
    for _ in range(count):
        clauses = []
        for _ in range(params.clauses):
            picked = sorted(rng.sample(range(params.num_vars), params.literals))
            clauses.append(alg.make_product([alg.Var(names[i]) for i in picked]))
        weight = alg.make_sum(clauses)
        value = 1 if kind is MonoidKind.COUNT else rng.randint(0, params.maxv)
        terms.append(alg.make_scaled(kind, weight, value))
    return alg.make_msum(kind, terms)


def gen_expression(params):
    """A random conditional expression of the configured shape;
    deterministic for a fixed seed."""
    params.validate()
    rng = random.Random(params.seed)
    left = _gen_side(rng, params, params.terms_left, params.agg_left)
    if params.terms_right == 0:
        right = alg.MConst(params.agg_left, params.c)
    else:
        right = _gen_side(rng, params, params.terms_right, params.agg_right)
    return alg.Cmp(left, params.theta, right)


def gen_var_dists(params, prob_true=0.5):
    """Boolean distributions for the generator's variable pool."""
    entries = []
    if 1.0 - prob_true > 0:
        entries.append((0, 1.0 - prob_true))
    if prob_true > 0:
        entries.append((1, prob_true))
    dist = Distribution(entries)
    return {"x%d" % (i + 1): dist for i in range(params.num_vars)}


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

BENCH_HEADER = "sweep_var,value,mean_ms,stddev_ms,nodes,dist_size"

_SWEEPABLE = (
    "terms_left",
    "terms_right",
    "num_vars",
    "clauses",
    "literals",
    "maxv",
    "c",
)


def run_benchmark(base_params, sweep_param, values, mode="compile", var_prob=0.5):
    """Time prune+compile+distribute+node count over a parameter sweep.

    Each sweep point runs ``runs`` freshly generated expressions; the
    slowest and fastest run are dropped before averaging.  Node counts
    and distribution sizes are averaged over all runs and depend only on
    the seed.
    """
    if sweep_param not in _SWEEPABLE:
        raise InvalidParams("cannot sweep %r" % sweep_param)
    if not values:
        raise InvalidParams("empty sweep")
    rows = []
    for value in values:
        params = replace(base_params, **{sweep_param: value})
        params.validate()
        times = []
        nodes = []
        sizes = []
        for run in range(params.runs):
            run_params = replace(params, seed=params.seed + run)
            expr = gen_expression(run_params)
            var_dists = gen_var_dists(run_params, var_prob)
            start = time.perf_counter()
            if mode == "oracle":
                dist = oracle.brute_distribution(expr, var_dists, SemiringKind.BOOLEAN)
                count = 0
            else:
                pruned = dtree.prune_all(expr, SemiringKind.BOOLEAN, var_dists)
                tree = dtree.compile(pruned, var_dists, SemiringKind.BOOLEAN)
                dist = dtree.distribution(tree, SemiringKind.BOOLEAN)
                count = dtree.node_count(tree)
            times.append((time.perf_counter() - start) * 1000.0)
            nodes.append(count)
            sizes.append(len(dist))
        kept = sorted(times)
        if len(kept) > 2:
            kept = kept[1:-1]
        mean = sum(kept) / len(kept)
        if len(kept) > 1:
            var = sum((t - mean) ** 2 for t in kept) / (len(kept) - 1)
        else:
            var = 0.0
        rows.append(
            {
                "sweep_var": sweep_param,
                "value": value,
                "mean_ms": mean,
                "stddev_ms": math.sqrt(var),
                "nodes": sum(nodes) / len(nodes),
                "dist_size": sum(sizes) / len(sizes),
            }
        )
    return rows


def format_bench_rows(rows):
    lines = [BENCH_HEADER]
    for r in rows:
        lines.append(
            "%s,%s,%.3f,%.3f,%.1f,%.1f"
            % (
                r["sweep_var"],
                r["value"],
                r["mean_ms"],
                r["stddev_ms"],
                r["nodes"],
                r["dist_size"],
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _read_expr(args):
    if args.expr is not None:
        return parse_expr(args.expr)
    return parse_expr(pathlib.Path(args.expr_file).read_text().strip())


def _read_query(args):
    if args.query is not None:
        return parse_query(args.query)
    return parse_query(pathlib.Path(args.query_file).read_text().strip())


def _semiring(args):
    return SemiringKind.BOOLEAN if args.semiring == "bool" else SemiringKind.NATURAL


def _add_expr_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="expression text")
    group.add_argument("--expr-file", help="file holding one expression")
    sub.add_argument("--probs", required=True, help="variable probability file")


def _add_db_args(sub, query_required=True):
    sub.add_argument("--tables", nargs="+", required=True, help="table TSV files")
    sub.add_argument("--probs", required=True, help="variable probability file")
    group = sub.add_mutually_exclusive_group(required=query_required)
    group.add_argument("--query", help="query text")
    group.add_argument("--query-file", help="file holding one query")


def _limit(text):
    """A limit flag's value: an int of 0 or more."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected an int of 0 or more, not %r" % text)
    return int(text)


#: The flags that several subcommands share, each registered only on
#: the subcommands that read it.
_FLAGS = {
    "--semiring": dict(choices=("bool", "nat"), default="bool"),
    "--seed": dict(type=int, default=1),
    "--world-limit": dict(type=_limit, default=pvc.DEFAULT_WORLD_LIMIT),
    "--node-budget": dict(type=_limit, default=None),
    "--joint": dict(action="store_true"),
}


def _add_flags(sub, *flags):
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def _add_gen_args(sub):
    sub.add_argument("--terms-left", type=int, default=10)
    sub.add_argument("--terms-right", type=int, default=0)
    sub.add_argument("--agg-left", choices=[k.value for k in MonoidKind], default="min")
    sub.add_argument("--agg-right", choices=[k.value for k in MonoidKind], default="min")
    sub.add_argument("--num-vars", type=int, default=10)
    sub.add_argument("--clauses", type=int, default=3)
    sub.add_argument("--literals", type=int, default=3)
    sub.add_argument("--maxv", type=int, default=100)
    sub.add_argument("--const-c", type=int, default=50)
    sub.add_argument("--theta", choices=alg.THETAS, default="<=")
    sub.add_argument("--runs", type=int, default=5)
    sub.add_argument("--var-prob", type=float, default=0.5)


def _params_from_args(args):
    return GenParams(
        terms_left=args.terms_left,
        terms_right=args.terms_right,
        agg_left=MonoidKind(args.agg_left),
        agg_right=MonoidKind(args.agg_right),
        num_vars=args.num_vars,
        clauses=args.clauses,
        literals=args.literals,
        maxv=args.maxv,
        c=args.const_c,
        theta=args.theta,
        runs=args.runs,
        seed=args.seed,
    ).validate()


def _cmd_parse(args, out):
    if args.query is not None or args.query_file is not None:
        out.write(describe(_read_query(args)) + "\n")
    else:
        out.write(format_expr(_read_expr(args)) + "\n")
    return 0


def _expr_tree(args):
    """The semiring and the tree of the expression, pruned, then
    compiled: what ``prob`` reads and ``dtree dump`` prints."""
    expr = _read_expr(args)
    sk = _semiring(args)
    var_dists = load_probabilities(args.probs, sk)
    pruned = dtree.prune_all(expr, sk, var_dists)
    return sk, dtree.compile(pruned, var_dists, sk, args.node_budget)


def _cmd_prob(args, out):
    sk, tree = _expr_tree(args)
    out.write(format_distribution(dtree.distribution(tree, sk)))
    return 0


def _cmd_oracle(args, out):
    sk = _semiring(args)
    if args.expr is not None or args.expr_file is not None:
        expr = _read_expr(args)
        var_dists = load_probabilities(args.probs, sk)
        out.write(
            format_distribution(
                oracle.brute_distribution(expr, var_dists, sk, args.world_limit)
            )
        )
        return 0
    db = load_database(args.tables, args.probs, sk)
    plan = _read_query(args)
    answers = oracle.brute_query(plan, db, args.world_limit)
    for key in sorted(answers.keys(), key=repr):
        out.write("# tuple: %s\n" % "\t".join(str(v) for v in key))
        out.write(format_distribution(answers[key]))
    return 0


def _cmd_query(args, out):
    db = load_database(args.tables, args.probs, _semiring(args))
    plan = _read_query(args)
    table, answers = answer_distributions(
        plan, db, node_budget=args.node_budget, want_joint=args.joint
    )
    for row in answers:
        cells = "\t".join(_format_cell(v) for v in row.values)
        out.write("# tuple: %s\tphi: %s\n" % (cells, format_expr(row.phi)))
        out.write(format_distribution(row.annotation))
        if row.joint is not None:
            out.write("# joint\n")
            out.write(format_distribution(row.joint))
    return 0


def _cmd_classify(args, out):
    db = load_database(args.tables, args.probs, _semiring(args))
    plan = _read_query(args)
    label = tractability.classify(plan, db)
    out.write("%s\n" % label)
    try:
        block = tractability.flatten_block(plan, db)
        roots = sorted(tractability.root_attributes(block))
        out.write("root attributes: %s\n" % (", ".join(roots) or "(none)"))
        for i, child in enumerate(block.children):
            out.write("child %d: %s\n" % (i, describe(child)))
    except PvcError:
        pass
    return 0


def _cmd_gen(args, out):
    params = _params_from_args(args)
    expr = gen_expression(params)
    out.write(format_expr(expr) + "\n")
    if args.emit_probs:
        out.write(format_probabilities(gen_var_dists(params, args.var_prob)))
    return 0


def _cmd_bench(args, out):
    params = _params_from_args(args)
    values = [int(v) for v in args.values.split(",")]
    rows = run_benchmark(params, args.sweep, values, args.mode, args.var_prob)
    out.write(format_bench_rows(rows))
    return 0


def _cmd_dtree(args, out):
    if args.action != "dump":
        raise InvalidParams("unknown dtree action %r" % args.action)
    _, tree = _expr_tree(args)
    for line in dtree.dot_lines(tree) if args.dot else dtree.tree_lines(tree):
        out.write(line + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pvcdb",
        description="Exact query evaluation on probabilistic value-conditioned tables",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="check and echo an expression or query")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr")
    group.add_argument("--expr-file")
    group.add_argument("--query")
    group.add_argument("--query-file")
    p.set_defaults(func=_cmd_parse)

    p = subs.add_parser("prob", help="distribution of an expression")
    _add_expr_args(p)
    _add_flags(p, "--semiring", "--node-budget")
    p.set_defaults(func=_cmd_prob)

    p = subs.add_parser("oracle", help="brute-force distribution for diffing")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr")
    group.add_argument("--expr-file")
    group.add_argument("--query")
    group.add_argument("--query-file")
    p.add_argument("--probs", required=True)
    p.add_argument("--tables", nargs="*", default=[])
    _add_flags(p, "--semiring", "--world-limit")
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("query", help="evaluate a query with per-tuple distributions")
    _add_db_args(p)
    _add_flags(p, "--semiring", "--node-budget", "--joint")
    p.set_defaults(func=_cmd_query)

    p = subs.add_parser("classify", help="tractability class of a query")
    _add_db_args(p)
    _add_flags(p, "--semiring")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("gen", help="generate a random conditional expression")
    _add_gen_args(p)
    p.add_argument("--emit-probs", action="store_true")
    _add_flags(p, "--seed")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("bench", help="sweep a generator parameter and time compilation")
    _add_gen_args(p)
    p.add_argument("--sweep", required=True, choices=_SWEEPABLE)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--mode", choices=("compile", "oracle"), default="compile")
    _add_flags(p, "--seed")
    p.set_defaults(func=_cmd_bench)

    p = subs.add_parser("dtree", help="dump a compiled decomposition tree")
    p.add_argument("action", choices=("dump",))
    _add_expr_args(p)
    p.add_argument("--dot", action="store_true")
    _add_flags(p, "--semiring", "--node-budget")
    p.set_defaults(func=_cmd_dtree)

    return parser


# Built once per process: building it takes milliseconds, which
# in-process callers of main would otherwise pay on every call.
_parser = functools.cache(build_parser)


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    try:
        return args.func(args, out)
    except PvcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def run(argv=None):
    """The command-line entry point: :func:`main`, with the interpreter's
    recursion limit and memory exhaustion reported as one error line.

    In-process callers of :func:`main` see those exceptions themselves.
    """
    try:
        return main(argv)
    except RecursionError:
        print("error: exceeded the interpreter's recursion limit (%d)"
              % sys.getrecursionlimit(), file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(run())
