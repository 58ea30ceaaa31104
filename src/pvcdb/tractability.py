"""Syntactic tractability analysis for aggregate queries.

Two query classes admit polynomial-time probability computation on
tuple-independent inputs: queries whose result tuples are pairwise
independent, and hierarchical aggregate queries whose annotations
factor into read-once form.  The classifier here is sound but
incomplete: it recognises queries by shape and answers "unknown"
otherwise.  The class is a report: evaluation never consults it.

A flat select-project-join block is *hierarchical* when, for every two
attributes that are neither in the head nor equated with a constant,
the sets of child relations touched by their equality closures are
disjoint or nested.  A *root attribute* is one whose closure touches
every child.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra as alg
from . import dtree
from .algebra import (
    Cmp,
    Const,
    MConst,
    MonoidKind,
    MSum,
    Mul,
    Scaled,
    SemiringKind,
    Var,
)
from .engine import (
    AGG,
    AGG_NAMES,
    Aggregate,
    Base,
    Product,
    Project,
    Rename,
    Select,
    Union,
    base_relations,
    infer_schema,
)
from .errors import RepeatedRelation
from .prob import Distribution

Q_IND = "Q_ind"
Q_HIE = "Q_hie"
UNKNOWN = "unknown"

#: Aggregations with tractable distributions on tuple-independent data:
#: MIN/MAX always, SUM/COUNT when values are bounded (any database gives
#: a finite bound).  PROD is excluded.
_TRACTABLE_AGGS = ("min", "max", "sum", "count")


# ---------------------------------------------------------------------------
# Flat blocks, closures, hierarchy
# ---------------------------------------------------------------------------


@dataclass
class FlatBlock:
    """A select-project-join block seen flat: head attributes, equality
    atoms, constant-equated attributes, and the product operands."""

    head: tuple
    children: list
    child_columns: list
    equalities: list
    const_attrs: set


def flatten_block(plan, db, head=None):
    """View a plan region as a flat block.

    Peels one optional projection, then gathers selection atoms across
    nested selections and products.  Any other node becomes a child.
    """
    if head is None:
        if isinstance(plan, Project):
            head = tuple(plan.attrs)
            plan = plan.child
        else:
            head = ()
    children = []
    equalities = []
    const_attrs = set()

    def walk(node):
        if isinstance(node, Select):
            for a, theta, b in node.atoms:
                if theta == "=" and a[0] == "attr" and b[0] == "attr":
                    equalities.append((a[1], b[1]))
                elif theta == "=" and a[0] == "attr" and b[0] == "const":
                    const_attrs.add(a[1])
                elif theta == "=" and b[0] == "attr" and a[0] == "const":
                    const_attrs.add(b[1])
            walk(node.child)
        elif isinstance(node, Product):
            walk(node.left)
            walk(node.right)
        else:
            children.append(node)

    walk(plan)
    child_columns = [infer_schema(c, db)[0] for c in children]
    return FlatBlock(head, children, child_columns, equalities, const_attrs)


def _closures(block):
    """Equality closure of each child attribute under the block's
    equalities."""
    columns = {attr for cols in block.child_columns for attr in cols}
    bit = {attr: 1 << i for i, attr in enumerate(columns.union(*block.equalities))}
    keyed = [((attr,), bit[attr]) for attr in columns]
    keyed += [(eq, bit[eq[0]] | bit[eq[1]]) for eq in block.equalities]
    closures = {}
    for group in dtree.connected_groups(keyed):
        cls = {attr for item in group for attr in item if attr in columns}
        closures.update(dict.fromkeys(cls, cls))
    return closures


def _at(closure, block):
    """Indices of children containing an attribute of the closure."""
    return frozenset(
        i
        for i, columns in enumerate(block.child_columns)
        if closure & set(columns)
    )


def is_hierarchical(block):
    """Disjoint-or-nested test over all qualifying attribute pairs.

    Declines (raises RepeatedRelation) when a base relation repeats.
    """
    names = []
    for child in block.children:
        names.extend(base_relations(child))
    if len(names) != len(set(names)):
        raise RepeatedRelation("repeated base relation in %s" % sorted(names))
    closures = _closures(block)
    const_closed = {
        attr
        for attr in closures
        if closures[attr] & block.const_attrs
    }
    qualifying = [
        attr
        for attr in closures
        if attr not in block.head and attr not in const_closed
    ]
    ats = {attr: _at(closures[attr], block) for attr in qualifying}
    for i, a in enumerate(qualifying):
        for b in qualifying[i + 1 :]:
            sa, sb = ats[a], ats[b]
            if sa & sb and not (sa <= sb or sb <= sa):
                return False
    return True


def root_attributes(block):
    """Attributes whose equality closure touches every child."""
    closures = _closures(block)
    n = len(block.children)
    return {attr for attr in closures if len(_at(closures[attr], block)) == n}


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def tuple_independent(plan, db):
    """True for a (possibly renamed) base relation without semimodule
    cells whose rows are annotated with distinct bare variables."""
    while isinstance(plan, Rename):
        plan = plan.child
    if not isinstance(plan, Base):
        return False
    table = db.tables.get(plan.relation)
    if table is None or AGG in table.roles:
        return False
    seen = set()
    for _, phi in table.rows:
        if not isinstance(phi, Var) or phi.name in seen:
            return False
        seen.add(phi.name)
    return True


def _annotation_vars(plan, db):
    tables = [db.tables[n] for n in base_relations(plan) if n in db.tables]
    return alg.variables(*[e for t in tables for e in t.expressions()])


def classify(plan, db):
    """The most specific tractable class derivable for a query, or
    "unknown" when no rule applies."""
    names = base_relations(plan)
    if len(names) != len(set(names)):
        return UNKNOWN
    if _is_ind(plan, db):
        return Q_IND
    if _is_hie(plan, db):
        return Q_HIE
    return UNKNOWN


def _children_independent(children, db):
    """All children in the independent class, over disjoint variables."""
    seen = set()
    for child in children:
        if not _is_ind(child, db):
            return False
        vs = _annotation_vars(child, db)
        if vs & seen:
            return False
        seen |= vs
    return True


def _is_ind(plan, db):
    if tuple_independent(plan, db):
        return True
    if isinstance(plan, Project):
        inner = plan.child
        atoms = ()
        if isinstance(inner, Select):
            atoms = inner.atoms
            inner = inner.child
        if isinstance(inner, Aggregate):
            # Projection over a selection of one aggregate subquery; the
            # aggregation attribute cannot be projected, so the result
            # tuples stay pairwise independent.
            return (
                len(inner.aggs) == 1
                and _agg_allowed(inner, db)
                and _is_ind(inner.child, db)
            )
        if _hierarchical_block(plan, db, rooted=True):
            return True
        if (
            not plan.attrs
            and isinstance(plan.child, Select)
            and len(plan.child.atoms) == 1
            and isinstance(plan.child.child, Product)
        ):
            prod = plan.child.child
            parts = (prod.left, prod.right)
            if all(
                isinstance(p, Aggregate) and not p.group_attrs and len(p.aggs) == 1
                for p in parts
            ):
                (a, theta, b) = plan.child.atoms[0]
                agg_names = {p.aggs[0][0] for p in parts}
                if (
                    a[0] == "attr"
                    and b[0] == "attr"
                    and {a[1], b[1]} <= agg_names
                    and all(_agg_allowed(p, db) for p in parts)
                    and _children_independent([p.child for p in parts], db)
                ):
                    return True
    return False


def _is_hie(plan, db):
    if _is_ind(plan, db):
        return True
    outer_head = None
    if isinstance(plan, Project):
        outer_head = tuple(plan.attrs)
        plan = plan.child
    if isinstance(plan, Aggregate):
        if outer_head is not None and set(outer_head) != set(plan.group_attrs):
            return False
        if len(plan.aggs) != 1 or not _agg_allowed(plan, db):
            return False
        return _hierarchical_block(plan.child, db, tuple(plan.group_attrs))
    if outer_head is not None:
        return _hierarchical_block(plan, db, outer_head)
    return False


def _hierarchical_block(plan, db, head=None, rooted=False):
    """True when the flat block of ``plan`` (:func:`flatten_block`) is
    hierarchical over independent children, none an aggregate or a
    union; with ``rooted``, its head must also lie in its root
    attributes.  A repeated base relation reads as False."""
    block = flatten_block(plan, db, head)
    if any(isinstance(c, (Aggregate, Union)) for c in block.children):
        return False
    try:
        if not is_hierarchical(block):
            return False
    except RepeatedRelation:
        return False
    if rooted and not set(block.head) <= root_attributes(block):
        return False
    return _children_independent(block.children, db)


def _agg_allowed(agg_plan, db):
    """MIN/MAX/SUM/COUNT with the monoid's neutral element absent from
    the aggregated column; violations downgrade to unknown."""
    for _, agg_name, src in agg_plan.aggs:
        if agg_name not in _TRACTABLE_AGGS:
            return False
        if agg_name == "count":
            continue
        kind = AGG_NAMES[agg_name]
        values = _column_values(agg_plan.child, db, src)
        if values is None:
            return False
        if any(v == kind.neutral for v in values):
            return False
    return True


def _column_values(plan, db, attr):
    """Constants a column can draw from, resolved down to base tables;
    None when the column cannot be traced."""
    if isinstance(plan, Base):
        table = db.tables.get(plan.relation)
        if table is None or attr not in table.columns:
            return None
        i = table.columns.index(attr)
        if table.roles[i] == AGG:
            return None
        return [values[i] for values, _ in table.rows]
    if isinstance(plan, Rename):
        reverse = {n: o for n, o in plan.mapping}
        return _column_values(plan.child, db, reverse.get(attr, attr))
    if isinstance(plan, (Select, Project)):
        return _column_values(plan.child, db, attr)
    if isinstance(plan, Product):
        left = _column_values(plan.left, db, attr)
        if left is not None:
            return left
        return _column_values(plan.right, db, attr)
    if isinstance(plan, Union):
        left = _column_values(plan.left, db, attr)
        right = _column_values(plan.right, db, attr)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(plan, Aggregate):
        if attr in plan.group_attrs:
            return _column_values(plan.child, db, attr)
        return None
    return None


# ---------------------------------------------------------------------------
# Closed form for selections over grouped MIN aggregates
#
# Nothing in evaluation calls it: pruning first turns every Boolean
# conditional it matches into a disjunction or a constant.  It stays
# while perfbench's tracer wraps it by name.
# ---------------------------------------------------------------------------


def conditional_group_shortcut(phi, sk, var_dists):
    """Closed-form distribution for annotations of the shape
    ``[sum-of-group-variables != 0] * [min-aggregate theta bound]``.

    For a grouped MIN aggregate filtered by ``<=`` or ``>=`` against a
    finite constant, the non-emptiness factor and the comparison are
    perfectly correlated (the aggregate is at its neutral element
    exactly when the group is empty), so the conditional's distribution
    determines the product's.  Only the Boolean semiring case is
    implemented; anything else returns None and compiles normally.
    """
    if sk is not SemiringKind.BOOLEAN or not isinstance(phi, Mul):
        return None
    if len(phi.parts) != 2:
        return None
    presence = cond = None
    for part in phi.parts:
        if not isinstance(part, Cmp):
            return None
        if (
            part.theta == "!="
            and isinstance(part.right, Const)
            and part.right.value == 0
        ):
            presence = part
        elif part.theta in ("<=", ">="):
            cond = part
    if presence is None or cond is None:
        return None
    sum_vars = _bare_var_sum(presence.left)
    if sum_vars is None:
        return None
    if not isinstance(cond.left, (MSum, Scaled)) or not isinstance(cond.right, MConst):
        return None
    gamma = cond.left
    if gamma.kind is not MonoidKind.MIN:
        return None
    bound = cond.right.value
    if bound == alg.INF or bound == alg.NEG_INF:
        return None
    term_vars = []
    for term in alg.sum_parts(gamma):
        if not isinstance(term, Scaled) or not isinstance(term.weight, Var):
            return None
        if term.value == gamma.kind.neutral:
            return None
        term_vars.append(term.weight.name)
    if sorted(term_vars) != sorted(sum_vars) or len(set(term_vars)) != len(term_vars):
        return None
    if any(v not in var_dists for v in term_vars):
        return None
    cond_dist = dtree.distribution(dtree.compile(cond, var_dists, sk), sk)
    if cond.theta == "<=":
        return cond_dist
    phi_zero = 1.0
    for v in term_vars:
        phi_zero *= var_dists[v][0]
    p_false = min(1.0, phi_zero + cond_dist[0])
    entries = []
    if p_false > 0:
        entries.append((0, p_false))
    if 1.0 - p_false > 0:
        entries.append((1, 1.0 - p_false))
    return Distribution(entries)


def _bare_var_sum(expr):
    """Variable names of a sum of distinct bare variables, else None."""
    parts = alg.sum_parts(expr)
    names = []
    for p in parts:
        if not isinstance(p, Var):
            return None
        names.append(p.name)
    if len(set(names)) != len(names):
        return None
    return names
