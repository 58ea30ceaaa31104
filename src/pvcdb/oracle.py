"""Brute-force ground truth by exhaustive enumeration.

Distributions of expressions come from evaluating them under every
valuation of their variables; distributions of query answers come from
evaluating the query deterministically in every possible world.  The
query evaluator here works on plain bag relations with one weight per
tuple and never touches the compilation or convolution machinery, so
agreement with the engine is an end-to-end check of both.
"""

from __future__ import annotations

from . import algebra as alg
from .algebra import MonoidKind, scale
from .engine import AGG, AGG_NAMES, Aggregate, Base, Product, Project, Rename, Select, Union
from .engine import base_relations, infer_schema, validate_query
from .errors import SchemaMismatch, UnorderedCarrier
from .prob import Distribution
from .pvc import DEFAULT_WORLD_LIMIT, enumerate_worlds, valuation_batches


def brute_distribution(expr, var_dists, sk, limit=DEFAULT_WORLD_LIMIT):
    """Exact distribution of an expression by full enumeration.

    Valuations are visited in lexicographic order of the sorted variable
    supports, so runs are reproducible.
    """
    acc = {}
    for nus, probs in valuation_batches(var_dists, sorted(alg.variables(expr)), limit):
        (outcomes,) = alg.eval_under((expr,), nus, sk)
        for outcome, prob in zip(outcomes, probs):
            acc[outcome] = acc.get(outcome, 0.0) + prob
    return Distribution((v, p) for v, p in acc.items() if p > 0)


# ---------------------------------------------------------------------------
# Deterministic query evaluation inside one world
# ---------------------------------------------------------------------------
#
# A world relation is (columns, rows) with rows of (values, weight); the
# weight is the tuple's annotation value in that world (membership under
# the Boolean semiring, multiplicity under the naturals).


def _eval_world(plan, world, schemas, sk):
    if isinstance(plan, Base):
        return schemas[plan.relation], list(world[plan.relation])
    if isinstance(plan, Rename):
        columns, rows = _eval_world(plan.child, world, schemas, sk)
        lookup = {o: n for n, o in plan.mapping}
        return tuple(lookup.get(c, c) for c in columns), rows
    if isinstance(plan, Select):
        columns, rows = _eval_world(plan.child, world, schemas, sk)
        index_of = {c: i for i, c in enumerate(columns)}
        kept = []
        for values, weight in rows:
            ok = True
            for a, theta, b in plan.atoms:
                left = values[index_of[a[1]]] if a[0] == "attr" else a[1]
                right = values[index_of[b[1]]] if b[0] == "attr" else b[1]
                if theta in ("<=", ">=", "<", ">") and (
                    isinstance(left, str) or isinstance(right, str)
                ):
                    raise UnorderedCarrier("order comparison on string attribute")
                if not alg.compare(left, right, theta):
                    ok = False
                    break
            if ok:
                kept.append((values, weight))
        return columns, kept
    if isinstance(plan, Project):
        columns, rows = _eval_world(plan.child, world, schemas, sk)
        index_of = {c: i for i, c in enumerate(columns)}
        keep = [index_of[a] for a in plan.attrs]
        return tuple(plan.attrs), _merge(
            [(tuple(values[i] for i in keep), w) for values, w in rows], sk
        )
    if isinstance(plan, Product):
        lc, lrows = _eval_world(plan.left, world, schemas, sk)
        rc, rrows = _eval_world(plan.right, world, schemas, sk)
        rows = [
            (lv + rv, sk.mul(lw, rw))
            for lv, lw in lrows
            for rv, rw in rrows
        ]
        return lc + rc, [r for r in rows if r[1] != 0]
    if isinstance(plan, Union):
        lc, lrows = _eval_world(plan.left, world, schemas, sk)
        _, rrows = _eval_world(plan.right, world, schemas, sk)
        return lc, _merge(lrows + rrows, sk)
    if isinstance(plan, Aggregate):
        return _eval_world_aggregate(plan, world, schemas, sk)
    raise TypeError("not a query plan: %r" % (plan,))


def _merge(rows, sk):
    acc = {}
    order = []
    for values, weight in rows:
        if values in acc:
            acc[values] = sk.add(acc[values], weight)
        else:
            acc[values] = weight
            order.append(values)
    return [(values, acc[values]) for values in order if acc[values] != 0]


def _eval_world_aggregate(plan, world, schemas, sk):
    columns, rows = _eval_world(plan.child, world, schemas, sk)
    index_of = {c: i for i, c in enumerate(columns)}
    group_idx = [index_of[a] for a in plan.group_attrs]
    groups = {}
    order = []
    for values, weight in rows:
        key = tuple(values[i] for i in group_idx)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((values, weight))
    out_columns = tuple(plan.group_attrs) + tuple(out for out, _, _ in plan.aggs)
    if not plan.group_attrs and not order:
        order.append(())
        groups[()] = []
    out_rows = []
    for key in order:
        members = groups[key]
        gammas = []
        for _, agg_name, src in plan.aggs:
            if agg_name == "count":
                kind = MonoidKind.SUM
                acc = kind.neutral
                for _, weight in members:
                    acc = kind.plus(acc, scale(weight, 1, kind))
            else:
                kind = AGG_NAMES[agg_name]
                acc = kind.neutral
                for values, weight in members:
                    acc = kind.plus(acc, scale(weight, values[index_of[src]], kind))
            gammas.append(acc)
        out_rows.append((key + tuple(gammas), 1))
    return out_columns, out_rows


class BruteAnswers:
    """Per-tuple outcome distributions from world enumeration.

    Tuples are keyed by their constant attributes; each outcome is the
    tuple (annotation value, aggregate values...), with the all-zero
    outcome standing for "absent".
    """

    def __init__(self, columns, roles, dists):
        self.columns = columns
        self.roles = roles
        self.dists = dists

    def keys(self):
        return self.dists.keys()

    def __getitem__(self, key):
        return self.dists[key]


def brute_query(plan, db, limit=DEFAULT_WORLD_LIMIT):
    """Distribution of every answer tuple by possible-worlds enumeration.

    Only the variables of the relations the query references are
    enumerated; the rest marginalise out.
    """
    problems = validate_query(plan, db)
    if problems:
        raise SchemaMismatch("; ".join(problems))
    columns, roles = infer_schema(plan, db)
    referenced = sorted(set(base_relations(plan)))
    variables = db.variables_of(referenced)
    schemas = {name: db.tables[name].columns for name in referenced}
    key_idx = [i for i, r in enumerate(roles) if r != AGG]
    agg_idx = [i for i, r in enumerate(roles) if r == AGG]
    acc = {}
    total_mass = 0.0
    for _, world, prob in enumerate_worlds(db, limit, variables, referenced):
        total_mass += prob
        _, rows = _eval_world(plan, world, schemas, db.sk)
        seen = set()
        for values, weight in rows:
            key = tuple(values[i] for i in key_idx)
            if key in seen:
                raise RuntimeError(
                    "two answer tuples share constant attributes %r" % (key,)
                )
            seen.add(key)
            outcome = (weight,) + tuple(values[i] for i in agg_idx)
            per_key = acc.setdefault(key, {})
            per_key[outcome] = per_key.get(outcome, 0.0) + prob
    dists = {}
    absent = (0,) + tuple(0 for _ in agg_idx)
    for key, outcomes in acc.items():
        present = sum(outcomes.values())
        rest = total_mass - present
        if rest > 0:
            outcomes[absent] = outcomes.get(absent, 0.0) + rest
        dists[key] = Distribution(
            (value, p) for value, p in outcomes.items() if p > 0
        )
    return BruteAnswers(columns, roles, dists)
