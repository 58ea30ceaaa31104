"""Probabilistic value-conditioned tables and their possible worlds.

A pvc-table is a relation whose annotation column holds semiring
expressions over random variables and whose aggregation columns hold
semimodule expressions; the remaining columns hold constants.  A
database bundles tables over one shared probability space: every
variable has a finite distribution, and a valuation of all variables
defines a deterministic possible world whose probability is the product
of the chosen value probabilities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import algebra as alg
from .algebra import Expr, MExpr, MonoidKind, SemiringKind
from .errors import (
    CarrierMismatch,
    IllegalAggregate,
    MissingDistribution,
    RepeatedRelation,
    SchemaMismatch,
    WorldLimitExceeded,
)

CONST = "const"
AGG = "agg"

#: Default cap on exhaustive world enumeration.
DEFAULT_WORLD_LIMIT = 2**20

#: Valuations evaluated together, in one walk of each expression.
BATCH = 1024


def check_values(var_dists, sk):
    """``var_dists``, once the variables' values are checked against
    semiring ``sk``: CarrierMismatch names a variable with a value
    outside it.  Supports are sorted ints, so the least and the greatest
    of their ends decide."""
    ends = [(dist.entries[k][0], name) for name, dist in var_dists.items() for k in (0, -1)]
    for value, name in (min(ends), max(ends)) if ends else ():
        try:
            sk.check_constant(value)
        except CarrierMismatch as exc:
            raise CarrierMismatch("value of %s: %s" % (name, exc)) from None
    return var_dists


def valuation_batches(var_dists, names, limit=DEFAULT_WORLD_LIMIT):
    """Every valuation of ``names``, in lexicographic order of the sorted
    supports, as lists of at most ``BATCH`` valuations, each for one walk
    (:func:`pvcdb.algebra.eval_under`), and of their probabilities;
    WorldLimitExceeded beyond ``limit``."""
    total = math.prod(len(var_dists[v]) for v in names)
    if total > limit:
        raise WorldLimitExceeded("%d worlds exceed the limit of %d" % (total, limit))
    combos = itertools.product(*[var_dists[v].entries for v in names])
    while batch := list(itertools.islice(combos, BATCH)):
        nus = [dict(zip(names, [v for v, _ in c])) for c in batch]
        yield nus, [math.prod([p for _, p in c], start=1.0) for c in batch]


@dataclass
class PvcTable:
    """A named relation of (values, annotation) rows.

    ``roles[i]`` says whether column i holds constants or semimodule
    expressions.
    """

    name: str
    columns: tuple
    roles: tuple
    rows: list = field(default_factory=list)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        self.roles = tuple(self.roles)
        if len(self.columns) != len(self.roles):
            raise ValueError("need one role per column")
        if len(set(self.columns)) != len(self.columns):
            repeated = next(c for i, c in enumerate(self.columns) if c in self.columns[:i])
            raise SchemaMismatch("%s: column %s is repeated" % (self.name, repeated))

    def add_row(self, values, phi):
        values = tuple(values)
        if len(values) != len(self.columns):
            raise ValueError(
                "%s: row width %d, schema width %d"
                % (self.name, len(values), len(self.columns))
            )
        for value, role in zip(values, self.roles):
            if role == AGG and not isinstance(value, MExpr):
                raise CarrierMismatch(
                    "%s: aggregation column holds %r" % (self.name, value)
                )
            if role == CONST and isinstance(value, (Expr, MExpr)):
                raise CarrierMismatch(
                    "%s: constant column holds an expression" % self.name
                )
        if not isinstance(phi, Expr):
            raise CarrierMismatch("%s: annotation must be a semiring expression" % self.name)
        self.rows.append((values, phi))

    def expressions(self):
        for values, phi in self.rows:
            yield phi
            for value, role in zip(values, self.roles):
                if role == AGG:
                    yield value


class PvcDatabase:
    """Named tables over one probability space."""

    def __init__(self, tables, var_dists, sk):
        self.tables = {}
        for table in tables:
            if self.tables.setdefault(table.name, table) is not table:
                raise RepeatedRelation("relation %s is given twice" % table.name)
        self.var_dists = dict(var_dists)
        self.sk = sk
        self.validate()

    def validate(self):
        for name, dist in self.var_dists.items():
            if not dist.is_normalized():
                dist.check_normalized(what="distribution of %s" % name)
        check_values(self.var_dists, self.sk)
        for table in self.tables.values():
            exprs = list(table.expressions())
            missing = alg.variables(*exprs) - self.var_dists.keys()
            if missing:
                raise MissingDistribution(
                    "%s uses variable %s without a distribution"
                    % (table.name, min(missing))
                )
            for expr in exprs:
                if isinstance(expr, MExpr):
                    self._check_aggregate_kind(expr.kind, table.name)

    def _check_aggregate_kind(self, kind, where):
        if self.sk is SemiringKind.BOOLEAN and kind in (
            MonoidKind.SUM,
            MonoidKind.COUNT,
            MonoidKind.PROD,
        ):
            raise IllegalAggregate(
                "%s aggregation requires bag semantics (%s)" % (kind.name, where)
            )

    def variables_of(self, table_names=None):
        names = table_names if table_names is not None else self.tables.keys()
        return alg.variables(*[e for n in names for e in self.tables[n].expressions()])


def world_count(db, variables=None):
    names = db.var_dists if variables is None else variables
    return math.prod(len(db.var_dists[v]) for v in names)


def enumerate_worlds(db, limit=DEFAULT_WORLD_LIMIT, variables=None, tables=None):
    """Yield (valuation, world, probability) triples for every possible
    world, in lexicographic order of the sorted variable supports.

    A world maps each table name to a tuple of (values, weight) rows:
    cell expressions are evaluated to constants, rows whose annotation
    evaluates to the semiring's 0 are dropped, and duplicate value rows
    merge by the semiring sum of their annotations (set collapse under
    the Boolean semiring, multiplicity addition under the naturals).

    ``variables`` and ``tables`` restrict the enumeration to a subset of
    the probability space; variables outside the subset marginalise out.
    """
    names = sorted(variables if variables is not None else db.var_dists.keys())
    for nus, probs in valuation_batches(db.var_dists, names, limit):
        yield from zip(nus, _instantiate(db, nus, tables), probs)


def instantiate(db, nu, tables=None):
    """The deterministic world defined by one valuation."""
    return _instantiate(db, [nu], tables)[0]


def _instantiate(db, nus, tables):
    """The worlds of several valuations: each annotation is evaluated
    under all of them at once, each aggregate cell under those where its
    row is present."""
    worlds = [{} for _ in nus]  # table -> row values -> weight, per world
    wanted = db.tables if tables is None else {n: db.tables[n] for n in tables}
    for name, table in wanted.items():
        merged = [world.setdefault(name, {}) for world in worlds]
        for values, phi in table.rows:
            (weights,) = alg.eval_under((phi,), nus, db.sk)
            present = [i for i, weight in enumerate(weights) if weight != 0]
            there = [nus[i] for i in present]
            cells = [
                alg.eval_under((v,), there, db.sk)[0] if isinstance(v, MExpr) else [v] * len(there)
                for v in values
            ]
            for i, concrete in zip(present, zip(*cells) if cells else [()] * len(present)):
                rows, w = merged[i], weights[i]
                rows[concrete] = db.sk.add(rows[concrete], w) if concrete in rows else w
    return [{name: tuple(rows.items()) for name, rows in world.items()} for world in worlds]


def semantics_mode(db):
    """Classify the database per its semiring and distribution shapes."""
    deterministic = all(len(d) == 1 for d in db.var_dists.values())
    base = "deterministic" if deterministic else "probabilistic"
    flavor = "set" if db.sk is SemiringKind.BOOLEAN else "bag"
    return "%s-%s" % (base, flavor)
