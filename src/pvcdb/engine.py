"""Positive relational algebra with aggregation on pvc-tables.

Queries are ASTs over rename, selection, projection, product, union and
the grouping/aggregation operator.  Evaluation materialises one
pvc-table per operator and constructs annotations symbolically: joint
use of data multiplies annotations, alternative use sums them, and
aggregation builds scaled monoid sums from the group's annotations and
values.  A grouped aggregate additionally carries the conditional
"this group is non-empty" as its annotation; an ungrouped aggregate is
annotated with the semiring's 1 since the (single) answer tuple exists
in every world.

Selections over aggregation attributes do not filter rows; they
multiply the row annotation with the comparison, keeping the result a
single polynomial-size pvc-table for any query and database.

A selection over a product is evaluated as a hash join on its leading
equality atoms between a column of each side; it yields the rows, row
order, annotations and errors of the nested loop over all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from . import dtree
from .algebra import (
    Cmp,
    Const,
    Expr,
    MConst,
    MExpr,
    MonoidKind,
    SemiringKind,
)
from .errors import (
    CarrierMismatch,
    IllegalAggregate,
    SchemaMismatch,
    UnknownRelation,
    UnorderedCarrier,
)
from .prob import Distribution
from .pvc import AGG, CONST, PvcTable

AGG_NAMES = {
    "min": MonoidKind.MIN,
    "max": MonoidKind.MAX,
    "sum": MonoidKind.SUM,
    "count": MonoidKind.COUNT,
    "prod": MonoidKind.PROD,
}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Base:
    relation: str


@dataclass(frozen=True)
class Rename:
    child: object
    mapping: tuple  # of (new, old)


@dataclass(frozen=True)
class Select:
    child: object
    atoms: tuple  # of (operand, theta, operand); operand = ('attr', name) | ('const', value)


@dataclass(frozen=True)
class Project:
    child: object
    attrs: tuple


@dataclass(frozen=True)
class Product:
    left: object
    right: object


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Aggregate:
    child: object
    group_attrs: tuple
    aggs: tuple  # of (out_name, agg_name, source_attr)


def base_relations(plan):
    if isinstance(plan, Base):
        return [plan.relation]
    out = []
    for child in _children(plan):
        out.extend(base_relations(child))
    return out


def _children(plan):
    if isinstance(plan, Base):
        return ()
    if isinstance(plan, (Rename, Select, Project, Aggregate)):
        return (plan.child,)
    return (plan.left, plan.right)


def describe(plan):
    if isinstance(plan, Base):
        return plan.relation
    if isinstance(plan, Rename):
        inner = ",".join("%s<-%s" % (n, o) for n, o in plan.mapping)
        return "rename[%s](%s)" % (inner, describe(plan.child))
    if isinstance(plan, Select):
        inner = ",".join(_describe_atom(*atom) for atom in plan.atoms)
        return "select[%s](%s)" % (inner, describe(plan.child))
    if isinstance(plan, Project):
        return "project[%s](%s)" % (",".join(plan.attrs), describe(plan.child))
    if isinstance(plan, Product):
        return "product(%s, %s)" % (describe(plan.left), describe(plan.right))
    if isinstance(plan, Union):
        return "union(%s, %s)" % (describe(plan.left), describe(plan.right))
    if isinstance(plan, Aggregate):
        aggs = ",".join("%s<-%s(%s)" % spec for spec in plan.aggs)
        return "agg[%s; %s](%s)" % (
            ",".join(plan.group_attrs),
            aggs,
            describe(plan.child),
        )
    raise TypeError("not a query plan: %r" % (plan,))


def _describe_atom(a, theta, b):
    # The space keeps "a < -3" from reading as the rename arrow "a<-3".
    right = _describe_operand(b)
    return "%s%s%s%s" % (_describe_operand(a), theta, " " * right.startswith("-"), right)


def _describe_operand(op):
    tag, value = op
    if tag == "attr":
        return value
    if isinstance(value, str):
        return "'%s'" % value
    return str(value)


# ---------------------------------------------------------------------------
# Schema inference and validation
# ---------------------------------------------------------------------------


def infer_schema(plan, db):
    """Output (columns, roles) of a plan; raises on schema errors."""
    if isinstance(plan, Base):
        table = db.tables.get(plan.relation)
        if table is None:
            raise UnknownRelation("unknown relation %s" % plan.relation)
        return table.columns, table.roles
    if isinstance(plan, Rename):
        columns, roles = infer_schema(plan.child, db)
        olds = [o for _, o in plan.mapping]
        for o in olds:
            if o not in columns:
                raise SchemaMismatch("rename of unknown attribute %s" % o)
        lookup = {o: n for n, o in plan.mapping}
        renamed = tuple(lookup.get(c, c) for c in columns)
        if len(set(renamed)) != len(renamed):
            raise SchemaMismatch("rename creates duplicate attributes")
        return renamed, roles
    if isinstance(plan, Select):
        columns, roles = infer_schema(plan.child, db)
        for a, _, b in plan.atoms:
            for op in (a, b):
                if op[0] == "attr" and op[1] not in columns:
                    raise SchemaMismatch("selection on unknown attribute %s" % op[1])
        return columns, roles
    if isinstance(plan, Project):
        columns, roles = infer_schema(plan.child, db)
        role_of = dict(zip(columns, roles))
        for i, a in enumerate(plan.attrs):
            if a in plan.attrs[:i]:
                raise SchemaMismatch("projection repeats attribute %s" % a)
            if a not in role_of:
                raise SchemaMismatch("projection on unknown attribute %s" % a)
            if role_of[a] == AGG:
                raise SchemaMismatch("projection on aggregation attribute %s" % a)
        return tuple(plan.attrs), tuple(CONST for _ in plan.attrs)
    if isinstance(plan, Product):
        lc, lr = infer_schema(plan.left, db)
        rc, rr = infer_schema(plan.right, db)
        if set(lc) & set(rc):
            raise SchemaMismatch(
                "product operands share attributes %s" % (set(lc) & set(rc),)
            )
        return lc + rc, lr + rr
    if isinstance(plan, Union):
        lc, lr = infer_schema(plan.left, db)
        rc, rr = infer_schema(plan.right, db)
        if lc != rc:
            raise SchemaMismatch("union operands have different schemas")
        if AGG in lr or AGG in rr:
            raise SchemaMismatch("union over aggregation attributes")
        return lc, lr
    if isinstance(plan, Aggregate):
        columns, roles = infer_schema(plan.child, db)
        role_of = dict(zip(columns, roles))
        for a in plan.group_attrs:
            if a not in role_of:
                raise SchemaMismatch("grouping on unknown attribute %s" % a)
            if role_of[a] == AGG:
                raise SchemaMismatch("grouping on aggregation attribute %s" % a)
        out_names = list(plan.group_attrs)
        for out, agg_name, src in plan.aggs:
            if agg_name not in AGG_NAMES:
                raise SchemaMismatch("unknown aggregation %s" % agg_name)
            if src != "*":
                if src not in role_of:
                    raise SchemaMismatch("aggregation over unknown attribute %s" % src)
                if role_of[src] == AGG:
                    raise SchemaMismatch(
                        "aggregation over aggregation attribute %s" % src
                    )
            elif agg_name != "count":
                raise SchemaMismatch("only count may aggregate *")
            if out in out_names:
                raise SchemaMismatch("duplicate output attribute %s" % out)
            out_names.append(out)
        return tuple(out_names), tuple(
            [CONST] * len(plan.group_attrs) + [AGG] * len(plan.aggs)
        )
    raise TypeError("not a query plan: %r" % (plan,))


def validate_query(plan, db):
    """All language constraints and schema resolution; returns a list of
    violation messages, empty when the query is valid."""
    violations = []
    try:
        infer_schema(plan, db)
    except (SchemaMismatch, UnknownRelation) as exc:
        violations.append("%s: %s" % (type(plan).__name__, exc))
    for child in _children(plan):
        for v in validate_query(child, db):
            if v not in violations:
                violations.append(v)
    return violations


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(plan, db, name="result"):
    """Evaluate a query to a pvc-table with constructed annotations."""
    problems = validate_query(plan, db)
    if problems:
        raise SchemaMismatch("; ".join(problems))
    table = _evaluate(plan, db)
    table.name = name
    return table


def _evaluate(plan, db):
    if isinstance(plan, Base):
        table = db.tables[plan.relation]
        out = PvcTable(plan.relation, table.columns, table.roles)
        out.rows = list(table.rows)
        return out
    if isinstance(plan, Rename):
        child = _evaluate(plan.child, db)
        lookup = {o: n for n, o in plan.mapping}
        columns = tuple(lookup.get(c, c) for c in child.columns)
        out = PvcTable("rename", columns, child.roles)
        out.rows = list(child.rows)
        return out
    if isinstance(plan, Select):
        return _eval_select(plan, db)
    if isinstance(plan, Project):
        return _eval_project(plan, db)
    if isinstance(plan, Product):
        return _eval_product(plan, db, ())
    if isinstance(plan, Union):
        left = _evaluate(plan.left, db)
        right = _evaluate(plan.right, db)
        out = PvcTable("union", left.columns, left.roles)
        out.rows = _merge_duplicates(left.rows + right.rows)
        return out
    if isinstance(plan, Aggregate):
        return _eval_aggregate(plan, db)
    raise TypeError("not a query plan: %r" % (plan,))


def _merge_duplicates(rows):
    merged = {}
    order = []
    for values, phi in rows:
        if values in merged:
            merged[values].append(phi)
        else:
            merged[values] = [phi]
            order.append(values)
    return [(values, alg.make_sum(merged[values])) for values in order]


def _eval_select(plan, db):
    if isinstance(plan.child, Product):
        return _eval_product(plan.child, db, plan.atoms)
    child = _evaluate(plan.child, db)
    index_of = {c: i for i, c in enumerate(child.columns)}
    out = PvcTable("select", child.columns, child.roles)
    for values, phi in child.rows:
        factors = _check_atoms(plan.atoms, values, index_of)
        if factors is not None:
            out.rows.append((values, alg.make_product([phi] + factors)))
    return out


def _eval_product(plan, db, atoms):
    """``select[atoms]`` over the product ``plan``, as a hash join.

    The leading ``attr = attr`` atoms between the two sides are the keys;
    the other atoms are checked on each matching pair, in order.  Keys end
    at the first atom that could raise or build a factor, so the rows,
    their order, annotations and errors are those of the nested loop.
    """
    left = _evaluate(plan.left, db)
    right = _evaluate(plan.right, db)
    columns = left.columns + right.columns
    roles = left.roles + right.roles
    index_of = {c: i for i, c in enumerate(columns)}
    agg_operands = {("attr", c) for c, role in zip(columns, roles) if role == AGG}
    n = len(left.columns)
    lkeys, rkeys, rest = [], [], []
    for pos, (a, theta, b) in enumerate(atoms):
        if theta != "=" or a in agg_operands or b in agg_operands:
            rest.extend(atoms[pos:])
            break
        if a[0] == b[0] == "attr" and (index_of[a[1]] < n) != (index_of[b[1]] < n):
            i, j = sorted((index_of[a[1]], index_of[b[1]]))
            lkeys.append(i)
            rkeys.append(j - n)
        else:
            rest.append((a, theta, b))
    buckets = {}
    for rv, rphi in right.rows:
        buckets.setdefault(tuple(rv[i] for i in rkeys), []).append((rv, rphi))
    out = PvcTable("select" if atoms else "product", columns, roles)
    for lv, lphi in left.rows:
        for rv, rphi in buckets.get(tuple(lv[i] for i in lkeys), ()):
            values = lv + rv
            factors = _check_atoms(rest, values, index_of)
            if factors is not None:
                out.rows.append((values, alg.make_product([lphi, rphi] + factors)))
    return out


def _check_atoms(atoms, values, index_of):
    """The symbolic factors a row takes from ``atoms``, or None when a
    comparison of plain values drops it."""
    factors = []
    for a, theta, b in atoms:
        left = _operand_value(a, values, index_of)
        right = _operand_value(b, values, index_of)
        if isinstance(left, MExpr) or isinstance(right, MExpr):
            factors.append(_symbolic_compare(left, theta, right))
            continue
        if theta in ("<=", ">=", "<", ">") and (
            isinstance(left, str) or isinstance(right, str)
        ):
            raise UnorderedCarrier("order comparison on string attribute")
        if not alg.compare(left, right, theta):
            return None
    return factors


def _operand_value(op, values, index_of):
    tag, payload = op
    if tag == "const":
        return payload
    return values[index_of[payload]]


def _symbolic_compare(left, theta, right):
    if isinstance(left, MExpr) and not isinstance(right, MExpr):
        right = _as_monoid_const(right, left.kind)
    elif isinstance(right, MExpr) and not isinstance(left, MExpr):
        left = _as_monoid_const(left, right.kind)
    return Cmp(left, theta, right)


def _as_monoid_const(value, kind):
    if isinstance(value, str):
        raise CarrierMismatch("cannot compare an aggregate with a string")
    return MConst(kind, value)


def _eval_project(plan, db):
    child = _evaluate(plan.child, db)
    index_of = {c: i for i, c in enumerate(child.columns)}
    keep = [index_of[a] for a in plan.attrs]
    out = PvcTable("project", tuple(plan.attrs), tuple(CONST for _ in plan.attrs))
    rows = [(tuple(values[i] for i in keep), phi) for values, phi in child.rows]
    out.rows = _merge_duplicates(rows)
    return out


def _eval_aggregate(plan, db):
    child = _evaluate(plan.child, db)
    index_of = {c: i for i, c in enumerate(child.columns)}
    for _, agg_name, _ in plan.aggs:
        kind = AGG_NAMES[agg_name]
        if db.sk is SemiringKind.BOOLEAN and kind in (
            MonoidKind.SUM,
            MonoidKind.COUNT,
            MonoidKind.PROD,
        ):
            raise IllegalAggregate(
                "%s aggregation requires bag semantics" % kind.name
            )
    group_idx = [index_of[a] for a in plan.group_attrs]
    groups = {}
    order = []
    for values, phi in child.rows:
        key = tuple(values[i] for i in group_idx)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((values, phi))
    columns = tuple(plan.group_attrs) + tuple(out for out, _, _ in plan.aggs)
    roles = tuple([CONST] * len(plan.group_attrs) + [AGG] * len(plan.aggs))
    out = PvcTable("agg", columns, roles)
    if not plan.group_attrs and not order:
        # An ungrouped aggregate exists in every world, over an empty
        # input it reports the neutral elements.
        values = tuple(_gamma([], index_of, spec) for spec in plan.aggs)
        out.rows.append((values, Const(1)))
        return out
    for key in order:
        members = groups[key]
        gammas = tuple(_gamma(members, index_of, spec) for spec in plan.aggs)
        if plan.group_attrs:
            presence = Cmp(
                alg.make_sum([phi for _, phi in members]), "!=", Const(0)
            )
            out.rows.append((key + gammas, presence))
        else:
            out.rows.append((key + gammas, Const(1)))
    return out


def _gamma(members, index_of, spec):
    """The scaled monoid sum for one aggregate over one group.

    Counting aggregates the constant 1 in the SUM monoid.
    """
    _, agg_name, src = spec
    if agg_name == "count":
        kind = MonoidKind.SUM
        terms = [alg.make_scaled(kind, phi, 1) for _, phi in members]
        return alg.make_msum(kind, terms)
    kind = AGG_NAMES[agg_name]
    terms = []
    for values, phi in members:
        value = values[index_of[src]]
        if isinstance(value, str):
            raise CarrierMismatch("aggregation over string attribute %s" % src)
        terms.append(alg.make_scaled(kind, phi, value))
    return alg.make_msum(kind, terms)


# ---------------------------------------------------------------------------
# Per-tuple probability distributions
# ---------------------------------------------------------------------------


@dataclass
class AnswerRow:
    values: tuple
    phi: Expr
    annotation: Distribution
    joint: Distribution | None


def answer_distributions(plan, db, node_budget=None, want_joint=True):
    """Evaluate a query and compute each result tuple's distributions.

    Returns the result table and one :class:`AnswerRow` per tuple: the
    annotation's distribution over the semiring, plus a joint
    distribution over (annotation, cell values) when the tuple carries
    semimodule cells and ``want_joint`` is set; the annotation's is then
    the joint's marginal, as each row compiles one tree.  Rows whose
    values coincide (structurally, for semimodule cells) merge by summing
    annotations first, so tuple identity matches the possible-worlds view.
    """
    table = evaluate(plan, db)
    agg_positions = [i for i, role in enumerate(table.roles) if role == AGG]
    table.rows = _merge_duplicates(table.rows)
    answers = []
    for values, phi in table.rows:
        item = dtree.prune_all(phi, db.sk, db.var_dists)
        if agg_positions and want_joint:
            item = (item, *(dtree.prune_all(values[i], db.sk, db.var_dists)
                            for i in agg_positions))
        dist = dtree.distribution(
            dtree.compile(item, db.var_dists, db.sk, node_budget), db.sk
        )
        if type(item) is tuple:
            marginal = Distribution.from_pairs((v[0], p) for v, p in dist.entries)
            answers.append(AnswerRow(values, phi, marginal, dist))
        else:
            answers.append(AnswerRow(values, phi, dist, None))
    return table, answers
