"""Compilation of expressions into decomposition trees.

A decomposition tree is a normal form in which every independence node
combines sub-expressions with pairwise *disjoint* variable sets (hence
independent as random variables) and every mutex node splits on the
possible values of one variable (hence mutually exclusive cases).  Once
an expression is in this form, its exact probability distribution
follows bottom-up: convolution at independent nodes, weighted mixture at
mutex nodes.

The compiler applies rules in a fixed order: constant folding, then the
one-variable rule, then an independent-sum split, an independent-product
split, an independent scaling split, an independent comparison split, a
joint-sum split, and finally a mutex expansion.  An expression, or a
joint of them, over one variable is one leaf that holds its value at
each value of the variable (:class:`VarLeaf`), so it costs no split and
no convolution: its distribution pools the variable's.  The leaf of a
variable, of a term ``x (x) v`` or of a joint of them is read off the
support without a walk of the expression, and a table that rises or
falls strictly with the support pools nothing, so its distribution is
the table beside the variable's probabilities.  Case splits
take the variable with most
occurrences, except in a MIN or MAX sum, or a Boolean semiring sum, with
a clause of one variable, where that variable goes first (the unit rule,
:func:`choose_branch_variable`).  The independence
splits work on the flattened source form and decide from the parts'
variable bitmasks: parts of which no two share a variable are the
components as they stand, parts that all share one are one component,
and only the sums in between, and products, are grouped by connected
components (:func:`connected_groups`).  A sum of products is factored
by the factors common to all its summands, sought among the first
summand's constants and factors with variables in every summand.  This
recognises read-once expressions, such as the annotations of
hierarchical queries, without any mutex node; everything else falls
back to mutex expansion, which is always applicable but can be
exponential.  Expressions are interned (:mod:`pvcdb.algebra`), so the
compile memo, the matching of common factors and the substitutions
made under one binding are all keyed on node identity.

In the Boolean semiring a variable, a product of distinct variables and
a sum of such clauses compile in their *clause form* (:class:`_Clauses`),
the sorted bitmasks of their clauses, which is also their memo key, so
they share nodes as their interned expressions would.  The same rules
read off the masks, and a case split drops the clauses that hold its
variable where it is 0 and clears its bit where it is 1, with no
substitution.  A dump lists the children of such an independence node
in variable-index order.

Sum and product nodes are n-ary: one split yields every connected
component, so an aggregate over n independent tuples is one node with n
children, compiled in linear time and folded in one loop with a kernel
picked once per node (:func:`_fold`).  Boolean sums and products carry
the mass at 0 and the mass at 1 through one loop over the children
(:func:`pvcdb.prob.boolean_fold`).  Integer addition (SUM, COUNT and the
NATURAL semiring's sum) takes the children in ascending order of span,
which keeps the partial sums narrowest, and accumulates them in one
dense list (:func:`pvcdb.prob.sum_fold`) when their supports are
integral and the list is no wider than the pairwise work warrants;
otherwise it adds pairwise, unchecked when the largest values cannot
overflow 64 bits.  MIN and MAX fold in one sweep over the sorted values
of all children (:func:`pvcdb.prob.extreme_fold`); PROD and the NATURAL
product convolve pairwise.

One compiler (:class:`_Compiler`) builds every tree, and
:func:`compile` is its one entry point.  It takes an expression or a
tuple of expressions, their joint, such as a row's annotation and its
aggregate cells, which compiles like one expression, through the same
memo and case splits; the annotation's distribution is then the
joint's marginal on its first coordinate.

Before it splits a case, the compiler reads a joint, or a product of
comparisons, as sums (:meth:`_Compiler._joint_sum`): a sum is a *slot*,
a comparison of a sum with a constant compares a slot, and a product of
such comparisons multiplies them; in a joint, an expression of any
other shape is a slot of its own, whole.  The terms of all slots are
grouped by shared variables.  Two or more groups make one
:class:`JointSumNode`, the paper's independent sum taken over a tuple
of semiring and semimodule sums, with a child per group: the group's
partial sum, or tuple of partial sums (one leaf where the group has one
variable), compiled by the same
compiler.  Its distribution folds the children slot by slot, each slot
with its own sum, and applies the comparisons at the end.  A compared
slot whose outcome classes are closed under its sum (MIN and MAX against
any bound, the other sums against 0) carries the class instead of the
value (:func:`_side`), so its support stays at most three values.  The
joint of a grouped aggregate over independent tuples,
``([phi_1 + ... != 0], min{phi_1 (x) v_1 + ...})``, with or without a
selection on it, is one such node with a leaf per row, compiled and
folded in linear time.  Variable-disjoint whole expressions are the
case of one slot per expression; so is a joint of one expression, or
one with constant expressions, whose terms form one group: its other
expressions compile as one scalar or a smaller joint.

A joint whose terms form one group splits into cases on the variable
that :func:`choose_branch_variable` picks over all its expressions, so
the unit rule steers joints too.  A mutex branch substitutes one value
for its variable, and substitution folds every comparison that the
remaining values already decide (:func:`pvcdb.algebra.make_cmp`), so no
branch splits on a variable that can no longer change its result; the
sums left may then fall apart into groups.

Every inner node holds its children in ``parts``.  The compiler builds
each node once, by its class, with its inputs there, and replaces them
in place by their trees; an input that recurs, as in sibling mutex
branches, compiles once, so its node has several parents.  Everything
that reads the DAG (:func:`distribution`, :func:`eval_dtree`,
:func:`validate`, the counts and the dumps) takes each distinct node
once, after its ``parts``, from one generator (:func:`_post_order`).
That walk, like the compiler's, keeps its own stack, so a deep
case-split chain does not meet Python's recursion limit.  Substitution,
pruning, weight bounds and the Boolean reduction walk expressions with
:func:`pvcdb.algebra.fold`.

Pruning (:func:`prune`) prepares a MIN or MAX conditional against a
constant for this: it keeps the terms that can decide the comparison,
gives all terms of one outcome class one value and makes a term whose
condition is a sum of clauses one term per clause.  Where the kept
terms lie in one class, the conditional only asks whether a kept clause
fires, and in the Boolean semiring it becomes their disjunction, a
comparison of a clause sum with 0, built from the clauses at once; a
Boolean sum with a non-zero constant part compiles to the one leaf of
1.  Where kept terms lie in two classes, case splits that differ only
in which term of a class fired reach equal sub-expressions and share
one compiled subtree, and substitution collapses the sum, deciding the
comparison, as soon as one term's weight is known to be non-zero
(:func:`pvcdb.algebra.make_scaled`).
The unit rule steers case splits in both forms: a clause left with one
variable decides the sum where that variable is non-zero, and where it
is zero every clause that contains it vanishes.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter

from . import algebra as alg
from .algebra import (
    Add,
    Cmp,
    Const,
    Expr,
    MConst,
    MExpr,
    MonoidKind,
    MSum,
    Mul,
    Scaled,
    SemiringKind,
    U64_MAX,
    Var,
    scale,
)
from .errors import (
    BudgetExceeded,
    CarrierMismatch,
    MissingDistribution,
    NoVariables,
    WrongMonoid,
)
from .prob import (
    PRUNE_EPS,
    Distribution,
    boolean_fold,
    compare_convolve,
    convolve,
    extreme_fold,
    format_value,
    mix,
    sum_fold,
)
from .pvc import check_values

# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class DNode:
    """A node of a decomposition tree: an inner node holds its children
    in ``parts``, a leaf none."""

    __slots__ = ()
    parts = ()

    def children(self):
        return self.parts

    def label(self):
        raise NotImplementedError


class VarLeaf(DNode):
    """A variable, or an expression of one variable: ``table[i]`` is its
    value at the variable's i-th value, None for the variable itself.
    Its distribution is the variable's probabilities at the table's
    values, pooled only where the table is not strictly monotone
    (:func:`_leaf_distribution`)."""

    __slots__ = ("name", "dist", "table")

    def __init__(self, name, dist, table=None):
        self.name = name
        self.dist = dist
        self.table = table

    def label(self):
        """The name, then ``{value:result ...}`` for a table."""
        if self.table is None:
            return self.name
        cases = zip(map(format_value, self.dist.support), map(format_value, self.table))
        return "%s{%s}" % (self.name, " ".join("%s:%s" % case for case in cases))


class ConstLeaf(DNode):
    """A constant, of the semiring or of a monoid."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def label(self):
        return str(self.value)


class SumNode(DNode):
    """Independent sum of pairwise variable-disjoint children; semiring
    when kind is None, monoid otherwise."""

    __slots__ = ("parts", "kind")

    def __init__(self, parts, kind=None):
        self.parts = tuple(parts)
        self.kind = kind

    def label(self):
        return "(+)" if self.kind is None else "(+)%s" % self.kind.value


class ProdNode(DNode):
    """Independent semiring product of pairwise variable-disjoint children."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def label(self):
        return "(.)"


class ScaleNode(DNode):
    """Independent scaling of a semimodule part by a semiring part: the
    pair ``parts`` is (semiring part, semimodule part)."""

    __slots__ = ("parts", "kind")

    def __init__(self, parts, kind):
        self.parts = tuple(parts)
        self.kind = kind

    def label(self):
        return "(x)%s" % self.kind.value


class CmpNode(DNode):
    """Independent comparison of the pair ``parts``, yielding a semiring
    0/1."""

    __slots__ = ("parts", "theta")

    def __init__(self, parts, theta):
        self.parts = tuple(parts)
        self.theta = theta

    def label(self):
        return "[%s]" % self.theta


class MutexNode(DNode):
    """Case split on the values of one variable: ``cases`` holds its
    ``(value, probability)`` entries, as handed in, and ``parts[i]`` the
    child of case i, the sub-expression (or, in a joint tree, the tuple
    of them) with that value substituted."""

    __slots__ = ("var", "cases", "parts")

    def __init__(self, var, cases, parts):
        self.var = var
        self.cases = cases
        self.parts = parts

    def label(self):
        return "|_|%s" % self.var


class JointSumNode(DNode):
    """Independent sum, slot by slot, of the partial sums of one or more
    expressions; the node's value is one expression's value, or the tuple
    of several's.

    The expressions read *slots*: sums, each folded with its own
    ``pluses[k]`` from ``start[k]``.  ``outputs[j]`` gives expression j as
    a product of factors ``(k, theta, against)``, each ``[slot k theta
    against]``, or one factor ``(k, None, None)`` for slot k's value.
    Child i adds its partial sums to the slots ``places[i]``: its value
    is a tuple for several places, a scalar for one.  A slot
    with a bound in ``bounds`` carries the outcome class of its value
    against that bound instead of the value; ``idle[k]`` is what adds
    nothing to slot k.  A slot of ``plus`` None holds one whole
    expression, which one child or ``start`` sets.
    """

    __slots__ = ("parts", "places", "pluses", "bounds", "idle", "start", "outputs", "scalar")

    def __init__(self, parts, places, pluses, bounds, idle, start, outputs, scalar):
        self.parts = tuple(parts)
        self.places = places
        self.pluses = pluses
        self.bounds = bounds
        self.idle = idle
        self.start = start
        self.outputs = outputs
        self.scalar = scalar

    def partials(self, i, value):
        """What child i adds to its places when its value is ``value``:
        the outcome class (:func:`_side`) where a slot has a bound."""
        places, bounds = self.places[i], self.bounds
        values = value if len(places) > 1 else (value,)
        return tuple(
            [v if bounds[k] is None else _side(v, bounds[k]) for k, v in zip(places, values)]
        )

    def add(self, slots, places, partials):
        new = list(slots)
        for k, v in zip(places, partials):
            plus = self.pluses[k]
            new[k] = v if plus is None else plus(new[k], v)
        return tuple(new)

    def read(self, slots):
        """The node's value once every child has added to ``slots``."""
        out = [
            slots[factors[0][0]]
            if factors[0][1] is None
            else 1 if all(alg.compare(slots[k], c, theta) for k, theta, c in factors) else 0
            for factors in self.outputs
        ]
        return out[0] if self.scalar else tuple(out)

    def label(self):
        """``(+)<...>`` with each expression read off slots s0, s1, ..."""
        return "(+)<%s>" % ", ".join(
            "*".join(
                "s%d" % k
                if theta is None
                else "[s%d %s %s]" % (k, theta, c if self.bounds[k] is None else self.bounds[k])
                for k, theta, c in factors
            )
            for factors in self.outputs
        )


def _post_order(d, inputs=None):
    """Every distinct node of the tree under ``d`` once, each after its
    inputs: its ``parts``, or ``inputs(node)`` for a caller that reads
    fewer.  The walk keeps its own stack, so a deep tree does not meet
    Python's recursion limit."""
    seen = set()
    stack = [d]
    while stack:
        node = stack.pop()
        if node is None:  # the inputs of the node below are out
            node = stack.pop()
        elif id(node) in seen:
            continue
        else:
            below = node.parts if inputs is None else inputs(node)
            if below:
                stack.append(node)
                stack.append(None)
                stack += below[::-1]
                continue
        seen.add(id(node))
        yield node


def node_count(d):
    """Number of distinct nodes (shared subtrees count once)."""
    return sum(1 for _ in _post_order(d))


def mutex_count(d):
    return sum(isinstance(n, MutexNode) for n in _post_order(d))


# ---------------------------------------------------------------------------
# Independence splits
# ---------------------------------------------------------------------------


def connected_groups(keyed, pool_keyless=False):
    """Group items whose keys overlap, directly or through other items.

    ``keyed`` is a sequence of (item, mask) pairs, where the set bits of
    the int ``mask`` are the item's keys.  Groups are lists of items, in
    first-occurrence order.  Items without keys each form a group of
    their own, or with ``pool_keyless`` one group, placed last.  Linear
    in the keys: each key's first holder is looked up in a map, and
    groups are joined by union-find, rooted at their first item.
    """
    seen = 0
    for _, mask in keyed:
        if mask & seen:
            break
        seen |= mask
    else:  # no key repeats: every item is a group of its own
        if not pool_keyless:
            return [[item] for item, _ in keyed]
        out = [[item] for item, mask in keyed if mask]
        pooled = [item for item, mask in keyed if not mask]
        return out + [pooled] if pooled else out
    # Union-find over item indices; a group's root is its first item,
    # and every link points to an earlier item.
    root = list(range(len(keyed)))
    holder = {}  # key bit -> index of its first item
    for i, (_, mask) in enumerate(keyed):
        r = i
        while mask:
            bit = mask & -mask
            mask ^= bit
            j = holder.setdefault(bit, i)
            if j == i:
                continue
            while root[j] != j:
                root[j] = j = root[root[j]]
            if j < r:
                root[r] = r = j
            elif j > r:
                root[j] = r
    groups = {}
    pooled = []
    for i, (item, mask) in enumerate(keyed):
        r = root[i] = root[root[i]]  # roots of earlier items are final
        if mask or not pool_keyless:
            groups.setdefault(r, []).append(item)
        else:
            pooled.append(item)
    out = list(groups.values())
    if pooled:
        out.append(pooled)
    return out


def _components(items):
    """Items grouped by overlap of their variable sets; variable-free
    items pool into one group."""
    return connected_groups([(item, item.mask) for item in items], pool_keyless=True)


def split_sum(expr):
    """Split a sum into all its variable-disjoint components, or None:
    the parts when no two share a variable, None when a variable is in
    every part (by the AND of their masks), else by union-find."""
    parts = alg.sum_parts(expr)
    if len(parts) < 2:
        return None
    masks = [p.mask for p in parts]
    if _disjoint(masks):
        return parts
    if functools.reduce(operator.and_, masks):
        return None
    groups = _components(parts)
    if len(groups) < 2:
        return None
    return [alg.rebuild(expr, g) for g in groups]


def _disjoint(masks):
    """True when no part of these variable masks is constant and no two
    share a variable, so that each is a component of its own."""
    seen = 0
    for mask in masks:
        if not mask or mask & seen:
            return False
        seen |= mask
    return True


def _is_column(e):
    """True for a variable or a term ``x (x) v``, whose column in a
    one-variable leaf :meth:`_Compiler._tabulated` builds without a walk."""
    return type(e) is Var or type(e) is Scaled and type(e.weight) is Var


def _common_factors(factor_lists, shared):
    """Multiset intersection of factor lists, in first-occurrence order of
    the first list.  A common factor has no variable outside ``shared``,
    the AND of the lists' masks; interned factors match by identity."""
    first = factor_lists[0]
    common = []
    for i, f in enumerate(first):
        if f.mask & ~shared or first.index(f) != i:
            continue
        common += [f] * min(fl.count(f) for fl in factor_lists)
    return common


def _remove_factors(factors, removed):
    kept = list(factors)
    for f in removed:
        kept.remove(f)
    return kept


def split_product(expr):
    """Split a semiring expression as an independent product into a list
    of factors, or None.

    A product splits into all connected components of its factors; a
    sum of products splits in two by dividing out the factors common to
    all summands (:func:`_common_factors`).
    """
    if isinstance(expr, Mul):
        if _disjoint([p.mask for p in expr.parts]):
            return list(expr.parts)
        groups = _components(expr.parts)
        if len(groups) < 2:
            return None
        return [alg.make_product(g) for g in groups]
    if isinstance(expr, Add):
        # Without a variable in every summand, a common factor is a
        # constant, which the first summand must hold.
        shared = functools.reduce(operator.and_, [p.mask for p in expr.parts])
        if not shared and all(f.mask for f in alg.product_factors(expr.parts[0])):
            return None
        factor_lists = [alg.product_factors(p) for p in expr.parts]
        common = _common_factors(factor_lists, shared)
        if not common:
            return None
        psi = alg.make_product(common)
        rest = alg.make_sum(
            [alg.make_product(_remove_factors(fl, common)) for fl in factor_lists]
        )
        if psi.mask & rest.mask:
            return None
        return [psi, rest]
    return None


def split_scale(expr):
    """Factor a common semiring condition out of a scaled sum, or None.
    Of one scaled term that is its whole condition, less its constant
    factors, which stay with the value."""
    if type(expr) is not MSum and type(expr) is not Scaled:
        return None
    terms = alg.sum_parts(expr)
    shared = -1
    for t in terms:
        if type(t) is not Scaled:
            return None
        shared &= t.mask
    if not shared:  # no variable is in every term, so no factor is
        return None
    kind = expr.kind
    factor_lists = [alg.product_factors(t.weight) for t in terms]
    common = [f for f in _common_factors(factor_lists, shared) if f.mask]
    if not common:
        return None
    psi = alg.make_product(common)
    rest = alg.make_msum(
        kind,
        [
            alg.make_scaled(kind, alg.make_product(_remove_factors(fl, common)), t.value)
            for fl, t in zip(factor_lists, terms)
        ],
    )
    if psi.mask & rest.mask:
        return None
    return psi, rest


def split_compare(expr):
    if not isinstance(expr, Cmp):
        return None
    if expr.left.mask & expr.right.mask:
        return None
    return expr.left, expr.right


def choose_branch_variable(*exprs, sk=SemiringKind.BOOLEAN):
    """The variable to split a case on, in one expression or in the
    joint of several, in semiring ``sk``.

    A MIN or MAX sum, or a conditional on one, whose term has a clause
    that is one variable goes first, and so, in the Boolean semiring,
    does a variable that is a clause of a semiring sum
    (:func:`_unit_variable`).  Otherwise the variable with most
    occurrences in the expressions as written; ties break towards the
    lexicographically smallest name.
    """
    counts = Counter()
    for expr in exprs:
        counts.update(expr.occ())
    if not counts:
        raise NoVariables("expression has no variables")
    unit = _unit_variable(exprs, counts, sk is SemiringKind.BOOLEAN)
    return unit or min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def _unit_variable(exprs, counts, boolean):
    """The variable of a one-variable clause in a MIN or MAX sum, or with
    ``boolean`` in a semiring sum (in an expression or either side of a
    conditional) among ``exprs``, or None.

    Where the variable is non-zero its term fires, and for the best value
    that decides a MIN or MAX sum; in the Boolean semiring, where it is 1
    it decides the semiring sum.  Where it is zero every clause that
    contains it vanishes.  Case splits on a sum of products meet such
    clauses again and again, as they set the other variables of a
    clause.  The best value (smallest for MIN, largest for MAX) goes
    first, the clauses of semiring sums after every value, then most
    occurrences, then the smallest name.
    """
    best = None
    for expr in exprs:
        for side in (expr.left, expr.right) if type(expr) is Cmp else (expr,):
            t = type(side)
            if t is Add:
                if not boolean:
                    continue
                units = [(alg.INF, [c.name for c in side.parts if type(c) is Var])]
            elif (t is Scaled or t is MSum) and side.kind in _EXTREMES:
                sign = 1 if side.kind is MonoidKind.MIN else -1
                units = [
                    (sign * s.value, [c.name for c in alg.sum_parts(s.weight) if type(c) is Var])
                    for s in alg.sum_parts(side)
                    if type(s) is Scaled
                ]
            else:
                continue
            for value, names in units:
                for name in names:
                    rank = (value, -counts[name], name)
                    if best is None or rank < best:
                        best = rank
    return None if best is None else best[2]


class _Clauses(tuple):
    """A Boolean sum of clauses, each a product of distinct variables, as
    their sorted masks.  Masks hold while the variables live, so one
    lasts no longer than the compile that reads it."""

    __slots__ = ()


def _clause_form(expr):
    """The clause form (:class:`_Clauses`) of a Var, a Mul of distinct
    Vars or an Add of such parts, else None."""
    masks = []
    for p in expr.parts if type(expr) is Add else (expr,):
        t = type(p)
        if t is not Var and not (
            t is Mul
            and all(type(v) is Var for v in p.parts)
            and p.mask.bit_count() == len(p.parts)
        ):
            return None
        masks.append(p.mask)
    return _clause_sum(masks)


def _clause_sum(masks):
    """The clause form of these masks, the constant 0 without a clause
    and 1 with an empty one."""
    masks.sort()
    if not masks:
        return Const(0)
    return _Clauses(masks) if masks[0] else Const(1)


def _branch_bit(clauses, mask):
    """The bit of the variable to split ``clauses`` (over ``mask``) on, as
    :func:`choose_branch_variable` picks it.  ``levels[i]`` holds the
    variables whose count has bit i set; from the top level down, the pool
    (units, else all) keeps those with the level's bit if any has it."""
    units, levels = 0, []
    for c in clauses:
        if not c & (c - 1):
            units |= c
        for i, level in enumerate(levels):
            levels[i], c = level ^ c, c & level
            if not c:
                break
        else:
            levels.append(c)
    pool = units or mask
    for level in reversed(levels):
        if pool & level:
            pool &= level
    return pool if not pool & (pool - 1) else min(alg.bits(pool), key=alg.variable_of)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, var_dists, sk, node_budget=None):
        self.var_dists = var_dists
        self.sk = sk
        self.budget = node_budget
        self.memo = {}
        # (variable, value) -> the substitutions made under that binding
        self.substitutions = {}

    def dist_of(self, name):
        """The variable's distribution, the ends of its support checked
        against the semiring (:func:`pvcdb.pvc.check_values` names a misfit)."""
        try:
            dist = self.var_dists[name]
        except KeyError:
            raise MissingDistribution("no distribution for variable %s" % name) from None
        lo, hi = dist.entries[0][0], dist.entries[-1][0]
        boolean = self.sk is SemiringKind.BOOLEAN
        if not (type(lo) is type(hi) is int and lo >= 0 and (hi <= 1 or not boolean)):
            check_values({name: dist}, self.sk)
        return dist

    def substitute(self, item, x, value):
        """An expression, or each of a joint's, with ``value`` for ``x``."""
        done = self.substitutions.setdefault((x, value), {})
        if type(item) is tuple:
            return tuple(alg.substitute(e, x, value, done) for e in item)
        return alg.substitute(item, x, value, done)

    def compile(self, item):
        """The tree of an expression, or the joint tree of a tuple of
        expressions.

        Equal inputs recur across mutex branches; compiling each once
        turns the tree into a DAG without changing any distribution.
        Expressions are interned, so the memo is keyed on identity, and a
        tuple of them is its own key, as is a clause form; a semiring and a
        monoid constant of one value share a leaf, and so, in the Boolean
        semiring, does a sum with a non-zero constant part, which is 1
        under every valuation.  The walk keeps its own post-order stack:
        an input is expanded when first seen into its node, whose
        ``parts`` hold the inputs to compile next; once their trees lie on
        top of ``done``, they replace the inputs in place.
        """
        memo, budget = self.memo, self.budget
        boolean = self.sk is SemiringKind.BOOLEAN
        done = []
        stack = [item]
        while stack:
            item = stack.pop()
            t = type(item)
            if t is list:  # [key, node]: the trees of its parts are on top of done
                key, node = item
                n = len(done) - len(node.parts)
                node.parts = tuple(done[n:])
                del done[n:]
                memo[key] = node
                done.append(node)
                continue
            if t is VarLeaf:  # built by its parent (:meth:`_part`)
                done.append(item)
                continue
            if boolean and (t is Var or t is Mul or t is Add):
                form = _clause_form(item)
                if form is not None:
                    item = form
                elif t is Add and any(type(p) is Const and p.value for p in item.parts):
                    item = Const(1)
                t = type(item)
            key = ("k", item.value) if t is Const or t is MConst else item
            node = memo.get(key)
            if node is None:
                if budget is not None and len(memo) >= budget:  # the memo holds the finished nodes
                    raise BudgetExceeded("node budget exhausted")
                node = self._expand(item)
                if node.parts:
                    stack.append([key, node])
                    stack += node.parts[::-1]
                    continue
                memo[key] = node
            done.append(node)
        if budget is not None and len(memo) > budget:  # with leaves their parents made last
            raise BudgetExceeded("node budget exhausted")
        return done[0]

    def _expand(self, item):
        """The node of an input, built by its class: a leaf, or an inner
        node whose ``parts`` hold the inputs that :meth:`compile` turns
        into its children.

        An input over one variable is one leaf (:meth:`_tabulated`).  A
        joint, and a product of comparisons of sums, whose sums fall
        apart term by term is a :class:`JointSumNode`
        (:meth:`_joint_sum`); a joint that does not, like an expression
        that no independence split applies to, splits into cases.
        """
        if type(item) is _Clauses:
            return self._clause_node(item)
        if type(item) is tuple:
            mask = functools.reduce(operator.or_, [e.mask for e in item])
            if mask and not mask & (mask - 1):  # one variable
                return self._tabulated(item, mask)
            node = self._joint_sum(item)
            if node is not None:
                return node
            exprs = item
        else:
            semiring = isinstance(item, Expr)
            if not semiring and not isinstance(item, MExpr):
                raise TypeError("not an expression: %r" % (item,))
            if not item.mask:
                return ConstLeaf(item.eval({}, self.sk))
            if not item.mask & (item.mask - 1):  # one variable
                return self._tabulated(item, item.mask)
            parts = split_sum(item)
            if parts is not None:
                return SumNode(parts, None if semiring else item.kind)
            if semiring:
                parts = split_product(item)
                if parts is not None:
                    return ProdNode(parts)
                if type(item) is Cmp:
                    pair = split_compare(item)
                    if pair is not None:
                        return CmpNode(pair, item.theta)
            else:
                pair = split_scale(item)
                if pair is not None:
                    return ScaleNode(pair, item.kind)
            node = self._joint_sum(item)
            if node is not None:
                return node
            exprs = (item,)
        x = choose_branch_variable(*exprs, sk=self.sk)
        entries = self.dist_of(x).entries
        return MutexNode(x, entries, [self.substitute(item, x, v) for v, _ in entries])

    def _clause_node(self, clauses):
        """The node of a clause form, by the rules, in the order, that its
        expression meets: a leaf or a product of leaves, the independence
        splits (:func:`split_sum`, :func:`split_product`), a case split."""
        mask = clauses[0] if len(clauses) == 1 else functools.reduce(operator.or_, clauses)
        if not mask & (mask - 1):  # one variable
            name = alg.variable_of(mask)
            dist = self.dist_of(name)
            return VarLeaf(name, dist, None if len(clauses) == 1 else dist.support)
        if len(clauses) == 1:
            return ProdNode([self._part(bit) for bit in alg.bits(mask)])
        if _disjoint(clauses):
            return SumNode([self._part(c) for c in clauses])
        shared = functools.reduce(operator.and_, clauses)
        if shared:
            return ProdNode([self._part(shared), _clause_sum([c & ~shared for c in clauses])])
        groups = connected_groups([(c, c) for c in clauses])
        if len(groups) > 1:
            return SumNode([_Clauses(g) for g in groups])
        bit = _branch_bit(clauses, mask)
        x = alg.variable_of(bit)
        entries = self.dist_of(x).entries
        kept = _clause_sum([c for c in clauses if not c & bit])
        cleared = _clause_sum([c & ~bit for c in clauses])
        return MutexNode(x, entries, [cleared if v else kept for v, _ in entries])

    def _part(self, c):
        """The clause form of the one clause ``c``, or for one variable its
        memo entry, a :class:`VarLeaf` made once per compile."""
        key = _Clauses((c,))
        if c & (c - 1):
            return key
        node = self.memo.get(key)
        if node is None:
            name = alg.variable_of(c)
            node = self.memo[key] = VarLeaf(name, self.dist_of(name))
        return node

    def _tabulated(self, item, mask):
        """The leaf of an expression, or a joint of them, over the one
        variable of ``mask``: its values at each value of the variable.

        The variable's column is its support, and a term ``x (x) v``'s
        is each support value scaled by v (:func:`pvcdb.algebra.scale`);
        a joint of only these takes its columns right to left, so the
        term that raises is the one :func:`pvcdb.algebra.eval_under`
        would meet first.  Any other input is walked once by that."""
        name = alg.variable_of(mask)
        dist = self.dist_of(name)
        t = type(item)
        if t is Var:
            return VarLeaf(name, dist)
        if t is Scaled and type(item.weight) is Var:
            value, kind = item.value, item.kind
            return VarLeaf(name, dist, tuple([scale(a, value, kind) for a, _ in dist.entries]))
        if t is tuple and all(map(_is_column, item)):
            support = [a for a, _ in dist.entries]
            columns = [
                support if type(e) is Var else [scale(a, e.value, e.kind) for a in support]
                for e in reversed(item)
            ]
            return VarLeaf(name, dist, tuple(zip(*reversed(columns))))
        nus = [{name: v} for v, _ in dist.entries]
        if t is tuple:
            return VarLeaf(name, dist, tuple(zip(*alg.eval_under(item, nus, self.sk))))
        return VarLeaf(name, dist, tuple(alg.eval_under((item,), nus, self.sk)[0]))

    def _joint_sum(self, item):
        """A :class:`JointSumNode` for a joint, or for a product of
        comparisons of sums, with the inputs of its children in
        ``parts``, or None.

        The terms of every sum are grouped by shared variables.  Two or
        more groups make the node, with one child per group.  Otherwise a
        joint of one expression, or one with constant expressions, makes
        the node of its whole expressions, as the scalar or smaller joint
        of the others.
        """
        if type(item) is tuple:
            node = self._sum_node(item, [_factors(e) for e in item], False)
            if node is None and (len(item) == 1 or not all(e.mask for e in item)):
                node = self._sum_node(item, [None] * len(item), False, True)
            return node
        if type(item) is Mul:
            factors = _factors(item)
            if factors is not None:
                return self._sum_node((item,), [factors], True)
        return None

    def _sum_node(self, exprs, forms, scalar, always=False):
        """The node over ``exprs``, read as ``forms`` (:func:`_factors`,
        or None for a whole expression), if the terms of their sums fall
        into two or more groups with variables, else None, unless
        ``always``.  Terms without variables add to the sums' start; a
        whole expression without variables is a leaf of its own."""
        sk = self.sk
        sums, pluses, bounds, idle, start, outputs, keyed = [], [], [], [], [], [], []
        for expr, factors in zip(exprs, forms):
            out = []
            for s, theta, bound in factors or ((expr, None, None),):
                k = len(pluses)
                kind = s.kind if isinstance(s, MExpr) else None
                lift = factors is not None and theta is not None and (
                    kind in _EXTREMES or bound == 0
                )
                if factors is None:  # one term, set once
                    plus, first, terms = None, None, (s,)
                else:
                    first = 0 if kind is None else kind.neutral
                    if lift:
                        plus, first = _CLASS_PLUS.get(kind, max), _side(first, bound)
                    else:
                        plus = sk.add if kind is None else _SLOT_PLUS[kind]
                    terms = alg.sum_parts(s)
                idle.append(first)
                for t in terms:
                    if t.mask or plus is None:
                        keyed.append(((k, t), t.mask))
                    else:
                        v = t.eval({}, sk)
                        first = plus(first, _side(v, bound) if lift else v)
                sums.append(functools.partial(alg.make_msum, kind) if kind else alg.make_sum)
                pluses.append(plus)
                bounds.append(bound if lift else None)
                start.append(first)
                out.append((k, theta, 0 if lift else bound))
            outputs.append(tuple(out))
        groups = connected_groups(keyed)
        if not always and sum(any(t.mask for _, t in g) for g in groups) < 2:
            return None
        children, places = [], []
        for group in groups:
            by_slot = {}
            for k, t in group:
                by_slot.setdefault(k, []).append(t)
            ks = tuple(sorted(by_slot))
            partial = [
                by_slot[k][0] if pluses[k] is None else sums[k](by_slot[k])
                for k in ks
            ]
            places.append(ks)
            children.append(partial[0] if len(ks) == 1 else tuple(partial))
        return JointSumNode(children, places, pluses, bounds, idle, tuple(start), outputs, scalar)


#: The sum of a slot's partial values, by monoid; the semiring's is its own.
_SLOT_PLUS = {
    MonoidKind.MIN: min,
    MonoidKind.MAX: max,
    MonoidKind.SUM: alg.checked_add,
    MonoidKind.COUNT: alg.checked_add,
    MonoidKind.PROD: MonoidKind.PROD.plus,
}

#: The sum of outcome classes (:func:`_side`), by monoid: the class of a
#: MIN or MAX against any bound is the least or greatest of the classes
#: of its parts.  A semiring sum, SUM, COUNT or PROD has classes closed
#: under the sum only against 0, where PROD is 0 when a part is and the
#: others are 0 when all parts are (``max``, the default).
_CLASS_PLUS = {MonoidKind.MIN: min, MonoidKind.MAX: max, MonoidKind.PROD: min}

_EXTREMES = (MonoidKind.MIN, MonoidKind.MAX)

_SUMS = (Var, Add, Scaled, MSum)
_CONSTS = (Const, MConst)


def _factors(expr):
    """An expression as factors ``(sum, theta, bound)``, of which it is
    the product: a sum is one factor of theta None, a comparison of a
    sum with a constant one factor, a product of such comparisons one
    each.  None for any other expression."""
    t = type(expr)
    if t in _SUMS:
        return [(expr, None, None)]
    out = []
    for f in expr.parts if t is Mul else (expr,):
        if type(f) is not Cmp:
            return None
        left, theta, right = f.left, f.theta, f.right
        if type(left) in _CONSTS:
            left, theta, right = right, _MIRROR[theta], left
        if type(left) not in _SUMS or type(right) not in _CONSTS:
            return None
        out.append((left, theta, right.value))
    return out


def compile(item, var_dists, sk=SemiringKind.BOOLEAN, node_budget=None):
    """Compile an expression, or a tuple of expressions into the one tree
    of their joint, whose distribution ranges over value tuples.

    Every variable must have a finite distribution in ``var_dists``.  The
    optional node budget bounds the nodes of this one tree, a guard
    against exponential blowup on adversarial inputs.
    """
    return _Compiler(var_dists, sk, node_budget).compile(item)


def compile_joint(exprs, var_dists, sk=SemiringKind.BOOLEAN, node_budget=None):
    """:func:`compile` of ``tuple(exprs)``: the joint tree of several
    expressions over one variable universe."""
    return compile(tuple(exprs), var_dists, sk, node_budget)


# ---------------------------------------------------------------------------
# Bottom-up distribution computation
# ---------------------------------------------------------------------------


def distribution(d, sk=SemiringKind.BOOLEAN):
    """The exact probability distribution represented by a tree,
    computed bottom-up with one result per distinct node
    (:func:`_post_order`)."""
    memo = {}
    for node in _post_order(d):
        memo[id(node)] = _distribution(node, sk, memo)
    return memo[id(d)]


def _leaf_distribution(table, entries):
    """The distribution of a one-variable leaf's ``table`` under the
    variable's ``entries``.  A strictly increasing table pools no two
    values, so it zips with the probabilities as it stands, and a
    strictly decreasing one (MIN's ``(+inf, v)``) reversed; the entries
    at most ``PRUNE_EPS`` are dropped, as
    :meth:`~pvcdb.prob.Distribution.from_pairs` drops them, and any
    other table is pooled by that."""
    rest = table[1:]
    if all(map(operator.lt, table, rest)):
        pairs = zip(table, entries)
    elif all(map(operator.gt, table, rest)):
        pairs = zip(reversed(table), reversed(entries))
    else:
        return Distribution.from_pairs(zip(table, [p for _, p in entries]))
    return Distribution._sorted([(a, p) for a, (_, p) in pairs if p > PRUNE_EPS])


def _distribution(d, sk, memo):
    """The distribution of one node, whose children's are in ``memo``."""
    if isinstance(d, VarLeaf):
        if d.table is None:
            return d.dist
        return _leaf_distribution(d.table, d.dist.entries)
    if isinstance(d, MutexNode):
        return mix([p for _, p in d.cases], [memo[id(c)] for c in d.parts])
    if isinstance(d, (SumNode, ProdNode)):
        return _fold(d, sk, memo)
    if isinstance(d, ScaleNode):
        return convolve(*[memo[id(c)] for c in d.parts], lambda s, m: alg.scale(s, m, d.kind))
    if isinstance(d, ConstLeaf):
        return Distribution.point(d.value)
    if isinstance(d, CmpNode):
        return compare_convolve(*[memo[id(c)] for c in d.parts], d.theta)
    if isinstance(d, JointSumNode):
        return _joint_sum_dist(d, memo)
    raise TypeError("not a d-tree node: %r" % (d,))


def _add_pair(p, q):
    # Unchecked when the two largest values, hence all pairs, fit in 64
    # bits; otherwise the checked ``plus`` raises on the first overflow.
    top = p.entries[-1][0] + q.entries[-1][0]
    return convolve(p, q, operator.add if top <= U64_MAX else MonoidKind.SUM.plus)


#: The convolution of two children of a sum node: of a monoid sum, or
#: (``None``) of the NATURAL semiring's sum.
_PAIR_KERNELS = {
    None: _add_pair,
    MonoidKind.SUM: _add_pair,
    MonoidKind.COUNT: _add_pair,
    MonoidKind.PROD: lambda p, q: convolve(p, q, MonoidKind.PROD.plus),
}


def _span(d):
    return d.entries[-1][0] - d.entries[0][0]


def _fold(d, sk, memo):
    """Combine the children of an n-ary node in one pass.

    Boolean sums and products fold all children in one loop
    (:func:`pvcdb.prob.boolean_fold`).  Integer addition (SUM, COUNT and
    the NATURAL semiring's sum) takes the children in ascending order of
    span (a stable sort, so ties keep the source order): each step of the
    sum is as wide as the spans so far added up, so this order keeps the
    intermediate supports narrowest.  In that order the sum runs in one
    dense list (:func:`pvcdb.prob.sum_fold`) when it pays, else pairwise.
    MIN and MAX fold in one sweep over the sorted values of all children
    (:func:`pvcdb.prob.extreme_fold`).  Every other node convolves its
    children pairwise from the last to the first, in the order of a
    right-nested binary chain.
    """
    parts = [memo[id(c)] for c in d.parts]
    if sk is SemiringKind.BOOLEAN and (isinstance(d, ProdNode) or d.kind is None):
        return boolean_fold(parts, isinstance(d, SumNode))
    if isinstance(d, SumNode) and d.kind in (MonoidKind.MIN, MonoidKind.MAX):
        return extreme_fold(parts, d.kind is MonoidKind.MAX)
    pair = (
        _PAIR_KERNELS[d.kind] if isinstance(d, SumNode) else lambda p, q: convolve(p, q, sk.mul)
    )
    if pair is _add_pair:
        parts.sort(key=_span)
        dense = sum_fold(parts)
        if dense is not None:
            return dense
    else:
        parts.reverse()
    acc = parts[0]
    for p in parts[1:]:
        acc = pair(p, acc)
    return acc


def _joint_sum_dist(d, memo):
    """Fold the children of a joint-sum node slot by slot into one
    distribution over the slots, then read the node's values off it.
    A child's values that add only the sums' neutral elements keep every
    entry as it is, with their mass pooled."""
    acc = {d.start: 1.0}
    for i, (child, places) in enumerate(zip(d.parts, d.places)):
        idle = tuple(d.idle[k] for k in places)
        rows, still = [], 0.0
        for v, q in memo[id(child)].entries:
            partials = d.partials(i, v)
            if partials == idle:
                still += q
            else:
                rows.append((partials, q))
        nxt = {slots: p * still for slots, p in acc.items()} if still else {}
        for slots, p in acc.items():
            for partials, q in rows:
                key = d.add(slots, places, partials)
                nxt[key] = nxt.get(key, 0.0) + p * q
        acc = {key: m for key, m in nxt.items() if m > PRUNE_EPS}
    return Distribution.from_pairs((d.read(slots), p) for slots, p in acc.items())


def eval_dtree(d, nu, sk=SemiringKind.BOOLEAN):
    """Evaluate the expression a tree represents under a valuation.

    This is the structural read-back: it never touches probabilities,
    so agreement with the source expression on every valuation verifies
    the compilation.  A mutex node reads only the branch of its
    variable's value, and each node read has one value
    (:func:`_post_order`).
    """
    inputs = functools.partial(_eval_inputs, nu=nu)
    memo = {}
    for node in _post_order(d, inputs):
        memo[id(node)] = _eval_node(node, nu, sk, [memo[id(c)] for c in inputs(node)])
    return memo[id(d)]


def _eval_inputs(d, nu):
    """The children whose values ``d``'s value depends on under ``nu``."""
    if isinstance(d, MutexNode):
        x = nu[d.var]
        for (value, _), child in zip(d.cases, d.parts):
            if value == x:
                return (child,)
        raise ValueError("value %r of %s has probability zero" % (x, d.var))
    return d.parts


def _eval_node(d, nu, sk, values):
    """The value of one node from the values of its inputs."""
    if isinstance(d, VarLeaf):
        value = nu[d.name]
        return value if d.table is None else d.table[d.dist.support.index(value)]
    if isinstance(d, ConstLeaf):
        return d.value
    if isinstance(d, (SumNode, ProdNode)):
        op = sk.mul if isinstance(d, ProdNode) else sk.add if d.kind is None else d.kind.plus
        return functools.reduce(op, values)
    if isinstance(d, ScaleNode):
        return alg.scale(values[0], values[1], d.kind)
    if isinstance(d, CmpNode):
        return 1 if alg.compare(values[0], values[1], d.theta) else 0
    if isinstance(d, MutexNode):
        return values[0]
    if isinstance(d, JointSumNode):
        slots = d.start
        for i, value in enumerate(values):
            slots = d.add(slots, d.places[i], d.partials(i, value))
        return d.read(slots)
    raise TypeError("not a d-tree node: %r" % (d,))


def validate(d, var_dists=None):
    """Check the structural discipline of a tree.

    Combination nodes must have pairwise variable-disjoint children, and
    below a mutex node its variable must not occur; a tabulated leaf
    holds one value per value of its variable, and when distributions
    are supplied, mutex branches must enumerate exactly the non-zero
    support.  Raises ValueError on the first violation.  One pass takes
    each subtree's variables, as a bitmask, from its children's.
    """
    bits = {}  # variable -> its bit in the masks
    masks = {}  # id(node) -> the variables of its subtree
    for node in _post_order(d):
        disjoint = not isinstance(node, MutexNode)
        mask = 0
        for child in node.parts:
            below = masks[id(child)]
            if disjoint and mask & below:
                shared = sorted(x for x, bit in bits.items() if bit & mask & below)
                raise ValueError("children of %s share variables %s" % (node.label(), shared))
            mask |= below
        if isinstance(node, VarLeaf):
            mask |= bits.setdefault(node.name, 1 << len(bits))
            if node.table is not None and len(node.table) != len(node.dist):
                message = "leaf of %s has %d values for %d cases"
                raise ValueError(message % (node.name, len(node.table), len(node.dist)))
        elif isinstance(node, MutexNode):
            bit = bits.setdefault(node.var, 1 << len(bits))
            if mask & bit:
                raise ValueError("%s occurs below its own mutex node" % node.var)
            mask |= bit
            if var_dists is not None and node.var in var_dists:
                expected = var_dists[node.var].support
                got = tuple(value for value, _ in node.cases)
                if sorted(got) != sorted(expected):
                    message = "mutex on %s covers %r, support is %r"
                    raise ValueError(message % (node.var, got, expected))
        masks[id(node)] = mask
    return True


def _named(d):
    """Each distinct node under ``d`` after its children, as ``(name,
    node, edges)``: ``name`` is ``n`` and its place in that order, and
    ``edges`` pairs each child's name with its mutex branch, ``value
    (p=...)``, or with None under any other node."""
    names = {}
    for node in _post_order(d):
        if isinstance(node, MutexNode):
            cases = zip(node.cases, node.parts)
            edges = [(names[id(c)], "%s (p=%.6g)" % case) for case, c in cases]
        else:
            edges = [(names[id(c)], None) for c in node.parts]
        name = names[id(node)] = "n%d" % len(names)
        yield name, node, edges


def tree_lines(d):
    """Textual rendering, one line per distinct node, yielded as it is
    made: ``name = label``, then, after a colon, the names of its
    children, each mutex branch as ``name <- value (p=...)``.  Every
    child comes before its parents, so the root is the last line."""
    for name, node, edges in _named(d):
        line = "%s = %s" % (name, node.label())
        if edges:
            line += ": " + ", ".join(c if b is None else "%s <- %s" % (c, b) for c, b in edges)
        yield line


def dot_lines(d):
    """Graph description (DOT digraph) for external rendering, yielded
    line by line: each distinct node declared once, after its children,
    with one edge to each of its children, labelled with the branch
    under a mutex node."""
    yield "digraph dtree {"
    yield "  node [shape=box];"
    for name, node, edges in _named(d):
        yield '  %s [label="%s"];' % (name, node.label().replace('"', "'"))
        for child, branch in edges:
            label = "" if branch is None else ' [label="%s"]' % branch
            yield "  %s -> %s%s;" % (name, child, label)
    yield "}"


# ---------------------------------------------------------------------------
# MIN/MAX reduction to Boolean variables
# ---------------------------------------------------------------------------


def reduce_to_boolean(expr, var_dists):
    """Rewrite a MIN or MAX expression over natural-valued variables to
    an equivalent one over Boolean variables.

    MIN and MAX only care whether a condition fires, so each variable
    keeps its probability of being 0 and pools the rest on 1.  The
    returned pair (expression, distributions) yields the same
    distribution under the Boolean semiring as the input under the
    natural semiring.
    """
    if not isinstance(expr, MExpr) or expr.kind not in (MonoidKind.MIN, MonoidKind.MAX):
        raise WrongMonoid("reduction applies to MIN and MAX expressions only")
    booleanized = {}

    def visit(e):  # the Boolean form of e, over its children's
        t = type(e)
        if t is Cmp:
            raise CarrierMismatch("reduction requires condition-free semiring parts")
        if t is Const:
            return Const(0 if e.value == 0 else 1)
        if t is Var or t is MConst:
            return e
        return alg.rebuild(e, [booleanized[c] for c in e.children()])

    out = alg.fold((expr,), visit, booleanized)[expr]
    reduced = dict(var_dists)
    for name in alg.variables(expr):
        dist = var_dists.get(name)
        if dist is None:
            raise MissingDistribution("no distribution for variable %s" % name)
        if dist.support[-1] > 1:
            reduced[name] = Distribution.from_pairs((min(v, 1), p) for v, p in dist.entries)
    return out, reduced


# ---------------------------------------------------------------------------
# Pruning of conditional expressions
# ---------------------------------------------------------------------------

_MIRROR = {"<=": ">=", ">=": "<=", "<": ">", ">": "<", "=": "=", "!=": "!="}


def prune(cond, sk=SemiringKind.BOOLEAN, var_dists=None):
    """Drop redundant terms from a conditional against a constant bound.

    For MIN and MAX the comparison outcome only depends on which outcome
    class (:func:`_outcome_class`) the extreme fired value falls in, so
    only terms outside the class of the empty sum (the monoid's neutral
    value) are kept, and their values are mapped to one representative
    per class (:func:`_class_representatives`).  A kept term whose weight
    is a sum of clauses then becomes one term per clause at the same
    value, ``(Φ + Ψ) (x) v = Φ (x) v + Ψ (x) v``, which holds for MIN and
    MAX in both semirings as ``k1 + k2`` is non-zero exactly when ``k1``
    or ``k2`` is; repeated terms are dropped, as MIN and MAX are
    idempotent.  When every kept term then lies in one class, which is
    always so for ``<``, ``<=``, ``>`` and ``>=``, the comparison only
    asks whether any kept clause fires: it is a constant where that class
    has the truth of the empty sum's, and otherwise, in the Boolean
    semiring, the disjunction of the kept clauses, ``[Σ clauses != 0]``
    where the class is true and ``[Σ clauses = 0]`` where it is false.
    The NATURAL semiring keeps the MIN or MAX form, whose sum the
    compiler folds in at most three outcome values where a sum of
    clauses would grow with them.  A bound that decides the
    comparison, such as ``+inf`` for MIN ``<=``, keeps no term, and the
    conditional folds to a constant.  For SUM,
    value bounds can force the comparison outright, in which case the
    semiring constant 1 or 0 is returned.  Unrecognised shapes, and
    conditionals with nothing to drop or map, come back unchanged.
    """
    if not isinstance(cond, Cmp):
        return cond
    left, theta, right = cond.left, cond.theta, cond.right
    if isinstance(right, MExpr) and isinstance(left, MConst) and not isinstance(right, MConst):
        left, right, theta = right, left, _MIRROR[theta]
    if not isinstance(left, (MSum, Scaled)) or not isinstance(right, MConst):
        return cond
    bound = right.value
    kind = left.kind
    terms = alg.sum_parts(left)
    if kind in (MonoidKind.MIN, MonoidKind.MAX):
        forced = alg.make_cmp(left, theta, right)
        if type(forced) is Const:
            return forced
        # A term in the outcome class of the empty sum can neither
        # satisfy nor break the comparison.
        idle = _outcome_class(kind.neutral, theta, bound)
        kept = [t for t in terms if _outcome_class(t.value, theta, bound) != idle]
        if not kept:
            # No remaining term can decide the comparison, so its truth
            # is that of the empty sum against the bound.
            return Const(1 if alg.compare(kind.neutral, bound, theta) else 0)
        lean = sk is SemiringKind.BOOLEAN and _disjunction(kept, kind, theta, bound)
        if lean:
            return lean
        # (Φ + Ψ) ⊗ v = Φ ⊗ v + Ψ ⊗ v under MIN and MAX in both
        # semirings: one term per clause, repeats dropped (idempotence).
        split = []
        for t in _class_representatives(kept, kind, theta, bound):
            if type(t) is Scaled and type(t.weight) is Add:
                split += [alg.make_scaled(kind, c, t.value) for c in t.weight.parts]
            else:
                split.append(t)
        kept = list(dict.fromkeys(split))
        # Representatives make one class one value: when every kept term
        # has it, the outcome is that class's where any term fires, and
        # the empty sum's where none does.
        value = kept[0].value
        if all(type(t) is Scaled and t.value == value for t in kept):
            fires = alg.compare(value, bound, theta)
            if fires == alg.compare(kind.neutral, bound, theta):
                return Const(1 if fires else 0)
            if sk is SemiringKind.BOOLEAN:
                weights = alg.make_sum([t.weight for t in kept])
                return alg.make_cmp(weights, "!=" if fires else "=", Const(0))
        if len(kept) == len(terms) and all(map(operator.is_, kept, terms)):
            return cond
        return alg.make_cmp(alg.make_msum(kind, kept), theta, right)
    if kind in (MonoidKind.SUM, MonoidKind.COUNT):
        kept = [t for t in terms if not (isinstance(t, Scaled) and t.value == 0)]
        forced = _sum_forced(theta, kept, bound, sk, var_dists)
        if forced is not None:
            return forced
        if len(kept) == len(terms):
            return cond
        if not kept:
            return Cmp(MConst(kind, 0), theta, right)
        return Cmp(alg.make_msum(kind, kept), theta, right)
    return cond


def _disjunction(kept, kind, theta, bound):
    """The Boolean form of a MIN or MAX conditional whose kept terms are
    scaled and lie in one class, built from their weights' clauses as
    :func:`prune` would build it through the class representatives and a
    term per clause; None for other terms or a constant clause."""
    clauses, classes = [], set()
    for t in kept:
        if type(t) is not Scaled:
            return None
        classes.add(_outcome_class(t.value, theta, bound))
        clauses += alg.sum_parts(t.weight)
    if len(classes) > 1 or any(type(c) is Const or type(c) is Add for c in clauses):
        return None
    fires = alg.compare(kept[0].value, bound, theta)
    if fires == alg.compare(kind.neutral, bound, theta):
        return Const(1 if fires else 0)
    weights = alg.make_sum(list(dict.fromkeys(clauses)))
    return alg.make_cmp(weights, "!=" if fires else "=", Const(0))


def _outcome_class(value, theta, bound):
    """The side of the bound that decides ``[m theta bound]`` when the
    extreme fired value m is ``value``: the truth of the comparison, or
    below/equal/above for ``=`` and ``!=``."""
    if theta in ("=", "!="):
        return _side(value, bound)
    return alg.compare(value, bound, theta)


def _side(value, bound):
    """-1, 0 or 1 as ``value`` lies below, at or above ``bound``: the
    classes that decide ``[value theta bound]`` for every theta, as
    ``[_side(value, bound) theta 0]``."""
    return (value > bound) - (value < bound)


def _class_representatives(terms, kind, theta, bound):
    """Rewrite every scaled term's value to the smallest value of its
    outcome class for MIN, the largest for MAX.

    Classes are intervals, so the order between classes and against the
    sum's constant part is kept, and with it the comparison's outcome
    under every valuation.  Unchanged terms are returned as they are.
    """
    pick = min if kind is MonoidKind.MIN else max
    reps = {}
    for t in terms:
        if type(t) is Scaled:
            cls = _outcome_class(t.value, theta, bound)
            reps[cls] = pick(reps.get(cls, t.value), t.value)
    out = []
    for t in terms:
        if type(t) is Scaled:
            rep = reps[_outcome_class(t.value, theta, bound)]
            if rep != t.value:
                t = Scaled(kind, t.weight, rep)
        out.append(t)
    return out


class _Bounds(dict):
    """Weight bounds by sub-expression, a :func:`pvcdb.algebra.fold` memo
    that holds every conditional: 0 or 1, so its sides are not entered."""

    def __contains__(self, e):
        return type(e) is Cmp or dict.__contains__(self, e)

    def __missing__(self, e):
        if type(e) is not Cmp:
            raise KeyError(e)
        return 0, 1


def _weight_bounds(expr, bounds, sk, var_dists):
    """Smallest and largest semiring value an expression can take, from
    its children's in ``bounds``, or None when the supports needed are
    unavailable."""
    t = type(expr)
    if t is Const:
        return expr.value, expr.value
    if t is Var:
        if sk is SemiringKind.BOOLEAN:
            return 0, 1
        if var_dists is None or expr.name not in var_dists:
            return None
        support = var_dists[expr.name].support
        return min(support), max(support)
    if t is Add or t is Mul:
        parts = [bounds[p] for p in expr.parts]
        if None in parts:
            return None
        combine = sum if t is Add else math.prod
        lo, hi = map(combine, zip(*parts))
        if t is Add and sk is SemiringKind.BOOLEAN:
            lo, hi = min(lo, 1), min(hi, 1)
        return lo, hi
    return None


def _sum_forced(theta, terms, bound, sk, var_dists):
    """The constant a SUM or COUNT conditional over ``terms`` folds to
    when the bounds of their weights decide it, else None."""
    bounds = _Bounds()
    visit = functools.partial(_weight_bounds, bounds=bounds, sk=sk, var_dists=var_dists)
    alg.fold([t.weight for t in terms if type(t) is Scaled], visit, bounds)
    lo, hi = 0, 0
    for t in terms:
        if type(t) is MConst:
            lo += t.value
            hi += t.value
            continue
        b = bounds[t.weight]
        if b is None:
            return None
        lo += b[0] * t.value
        hi += b[1] * t.value
    decided = alg.compare_ranges((lo, hi), theta, (bound, bound))
    if decided is None:
        return None
    return Const(1 if decided else 0)


class _Pruned(dict):
    """Pruned forms by sub-expression, a :func:`pvcdb.algebra.fold` memo
    that holds each conditional-free one as itself, so it is not entered."""

    def __contains__(self, e):
        return not e.has_cmp or dict.__contains__(self, e)

    def __missing__(self, e):
        if e.has_cmp:
            raise KeyError(e)
        return e


def prune_all(expr, sk=SemiringKind.BOOLEAN, var_dists=None):
    """Apply :func:`prune` to every conditional inside an expression.

    Subtrees in which nothing changes, such as those without a
    conditional, are returned as they are and not entered.  Each other
    distinct sub-expression is pruned once, after its children
    (:func:`pvcdb.algebra.fold`).
    """
    if not expr.has_cmp:
        return expr
    pruned = _Pruned()

    def visit(e):
        if type(e) is Cmp:
            return prune(Cmp(pruned[e.left], e.theta, pruned[e.right]), sk, var_dists)
        for c in e.children():
            if pruned[c] is not c:
                return alg.rebuild(e, list(map(pruned.__getitem__, e.children())))
        return e

    return alg.fold((expr,), visit, pruned)[expr]
