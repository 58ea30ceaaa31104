"""Symbolic expression language over random variables.

Two sorts of expressions live here.  Semiring expressions (:class:`Expr`)
are built from variables, constants, sums, products and conditional
comparisons; they annotate tuples.  Semimodule expressions
(:class:`MExpr`) pair a semiring condition with an aggregation value via
the scaling operator ``(x)`` and are summed inside one aggregation
monoid; they represent aggregate results symbolically.

A valuation (a total mapping from variable names to semiring values)
evaluates both sorts homomorphically: ``+`` and ``*`` map to the target
semiring's operations, monoid sums fold with the monoid's operation, and
a conditional ``[a theta b]`` yields the semiring's 1 when the comparison
holds and its 0 otherwise.

Expressions are hash-consed: every constructor returns the one live
node built from equal arguments, so structurally equal expressions (up
to the order of the operands of ``+``, ``*`` and monoid sums) are one
object, compared and hashed by identity; that object keeps, and prints
in, the operand order it was first built with.  A weak unique table
finds them, and each node carries its variable set as an int bitmask
over a process-wide variable index (see the section on expression
trees).

Every walk over an expression here and in :mod:`pvcdb.dtree` is one
bottom-up fold (:func:`fold`) on its own stack, so deep expressions meet
no recursion limit; rewrites build nodes again through their smart
constructors (:func:`rebuild`).

Values are plain Python ints.  The Boolean semiring uses 0 for false and
1 for true, which makes the set semantics a special case of the bag
semantics.  Monoid carriers are non-negative 64-bit integers extended
with the float infinities ``INF`` and ``NEG_INF`` as neutral elements of
MIN and MAX.  All integer arithmetic is checked; overflow raises instead
of wrapping.
"""

from __future__ import annotations

import enum
import itertools
import operator
import weakref
from .errors import (
    ArithmeticOverflow,
    CarrierMismatch,
    UnboundVariable,
)

U64_MAX = 2**64 - 1

INF = float("inf")
NEG_INF = float("-inf")

#: Comparison operators allowed in conditional expressions.
THETAS = ("=", "!=", "<=", ">=", "<", ">")

_THETA_FUNCS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}


def checked_add(a, b):
    r = a + b
    if r > U64_MAX:
        raise ArithmeticOverflow("addition overflows 64 bits: %r + %r" % (a, b))
    return r


def checked_mul(a, b):
    r = a * b
    if r > U64_MAX:
        raise ArithmeticOverflow("multiplication overflows 64 bits: %r * %r" % (a, b))
    return r


class SemiringKind(enum.Enum):
    """The two concrete annotation semirings.

    BOOLEAN is ({0,1}, or, and, 0, 1) and yields set semantics; NATURAL
    is (N, +, *, 0, 1) and yields bag semantics.
    """

    BOOLEAN = "bool"
    NATURAL = "nat"

    def check_constant(self, value):
        if not isinstance(value, int) or isinstance(value, bool):
            raise CarrierMismatch("semiring constant must be an int: %r" % (value,))
        if value < 0:
            raise CarrierMismatch("semiring constant must be non-negative: %r" % (value,))
        if self is SemiringKind.BOOLEAN and value > 1:
            raise CarrierMismatch("constant %d is not a Boolean semiring value" % value)
        return value

    def add(self, a, b):
        if self is SemiringKind.BOOLEAN:
            return 1 if (a or b) else 0
        return checked_add(a, b)

    def mul(self, a, b):
        if self is SemiringKind.BOOLEAN:
            return 1 if (a and b) else 0
        return checked_mul(a, b)


class MonoidKind(enum.Enum):
    """Aggregation monoids over the extended naturals.

    SUM is (N, +, 0); MIN is (N u {+-inf}, min, +inf); MAX is
    (N u {+-inf}, max, -inf); PROD is (N, *, 1).  COUNT shares SUM's
    operation and neutral element; counting is realised by aggregating
    the constant 1.
    """

    MIN = "min"
    MAX = "max"
    SUM = "sum"
    COUNT = "count"
    PROD = "prod"

    @property
    def neutral(self):
        return _NEUTRAL[self]

    def plus(self, a, b):
        if self is MonoidKind.MIN:
            return a if a <= b else b
        if self is MonoidKind.MAX:
            return a if a >= b else b
        if self is MonoidKind.PROD:
            if a == INF or b == INF or a == NEG_INF or b == NEG_INF:
                raise CarrierMismatch("infinite value in PROD monoid")
            return checked_mul(a, b)
        if a == INF or b == INF or a == NEG_INF or b == NEG_INF:
            raise CarrierMismatch("infinite value in SUM monoid")
        return checked_add(a, b)

    def check_value(self, value):
        if value == INF or value == NEG_INF:
            if self in (MonoidKind.MIN, MonoidKind.MAX):
                return value
            raise CarrierMismatch("infinite value under %s" % self.name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise CarrierMismatch("monoid value must be an int: %r" % (value,))
        if value < 0:
            raise CarrierMismatch("monoid value must be non-negative: %r" % (value,))
        return value


_NEUTRAL = {
    MonoidKind.MIN: INF,
    MonoidKind.MAX: NEG_INF,
    MonoidKind.SUM: 0,
    MonoidKind.COUNT: 0,
    MonoidKind.PROD: 1,
}


def scale(s, m, kind):
    """The s-fold monoid sum of m, for a semiring value s.

    For MIN and MAX this is m whenever s is non-zero; for SUM it is
    ``s * m`` and for PROD ``m ** s``.  Scaling by the semiring's zero
    always yields the monoid's neutral element.
    """
    if s == 0:
        return kind.neutral
    if kind in (MonoidKind.MIN, MonoidKind.MAX):
        return m
    if m == INF or m == NEG_INF:
        raise CarrierMismatch("infinite value under %s" % kind.name)
    if kind is MonoidKind.PROD:
        # From s = 64 on every m >= 2 overflows, so m ** s is not built.
        r = m**s if s < 64 or m < 2 else U64_MAX + 1
        if r > U64_MAX:
            raise ArithmeticOverflow("scaling overflows 64 bits: %r ** %r" % (m, s))
        return r
    return checked_mul(s, m)


def compare(a, b, theta):
    if theta not in _THETA_FUNCS:
        raise ValueError("unknown comparison operator %r" % theta)
    return _THETA_FUNCS[theta](a, b)


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


# Every node is interned (hash-consed, after Filliâtre and Conchon,
# "Type-safe modular hash-consing", 2006): each constructor looks its
# arguments up in one unique table first and returns the live node
# already built from them, if there is one.  The table is keyed on a tag
# for the node's class, its payload and its children's uids, sorted for
# the commutative + and * and for monoid sums (a variable on its name
# alone); a uid is a creation counter.  Keys hold only strings and
# numbers, so the garbage collector does not track them.  The table
# holds its nodes weakly, so it never keeps an expression alive.
#
# A variable takes a bit in a process-wide index while its Var node
# lives and gives it back when the node dies, so every node carries its
# variable set as an int bitmask (``mask``), and no index grows past the
# variables alive at one time.  Neither the table nor the index is
# locked: build expressions from one thread at a time.

#: Unique table: intern key -> weak reference to the live node.
_TABLE = {}
#: Calling it returns None, as calling a dead reference does.
_MISSING = type(None)
_UIDS = itertools.count()
_UID = operator.attrgetter("uid")
_HAS_CMP = operator.attrgetter("has_cmp")
#: Variable names by bit; a free bit holds None and waits in _FREE_BITS.
_VAR_NAMES = []
_FREE_BITS = []


def _new(cls, key, mask, has_cmp=False):
    """A fresh node of ``cls``, entered in the unique table."""
    node = object.__new__(cls)
    node.uid = next(_UIDS)
    node.mask = mask
    node.has_cmp = has_cmp
    node._occ = None
    node._ikey = key
    _TABLE[key] = weakref.ref(node)
    return node


def _union(nodes):
    mask = 0
    for n in nodes:
        mask |= n.mask
    return mask


def variable_of(bit):
    """The name of the variable of a one-bit mask."""
    return _VAR_NAMES[bit.bit_length() - 1]


def bits(mask):
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _names(mask):
    """The variable names of the set bits of a mask."""
    return frozenset([_VAR_NAMES[bit.bit_length() - 1] for bit in bits(mask)])


class _Node:
    """An interned expression node.

    Structurally equal expressions, up to the order of the operands of
    + and * and of monoid sums, are one object, so equality is identity
    and ``key()`` is the node's uid.  ``mask`` is the node's variable set
    as a bitmask, and ``has_cmp`` tells whether a conditional lies in it
    (the node itself or below); occurrence counts are merged from the
    children's once, when first asked for.  Nodes are immutable, so
    untouched subtrees are shared across rewrites.
    """

    __slots__ = ("uid", "mask", "has_cmp", "_occ", "_ikey", "__weakref__")

    def children(self):
        return ()

    def key(self):
        """The node's uid: equal keys mean equal expressions up to
        commutativity of + and *."""
        return self.uid

    def vars(self):
        """The set of variable names occurring in the expression."""
        return _names(self.mask)

    def occ(self):
        """Occurrence counts of variables by name, counting every
        position.  The mapping is shared with the node: do not change it."""
        if self._occ is None:
            fold((self,), _merged_occ, _CACHED_OCC)
        return self._occ

    def eval(self, nu, sk):
        """The value under valuation ``nu`` in semiring ``sk`` (:func:`eval_under`)."""
        return eval_under((self,), (nu,), sk)[0][0]

    def __del__(self, _table=_TABLE):
        # Drop the table entry unless a live node has taken the key over.
        ref = _table.get(self._ikey)
        if ref is not None:
            live = ref()
            if live is None or live is self:
                del _table[self._ikey]

    def __repr__(self):
        from .exprtext import format_expr

        return format_expr(self)


class Expr(_Node):
    """A semiring expression."""

    __slots__ = ()


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        node = _TABLE.get(name, _MISSING)()
        if node is None:
            if _FREE_BITS:
                bit = _FREE_BITS.pop()
                _VAR_NAMES[bit] = name
            else:
                bit = len(_VAR_NAMES)
                _VAR_NAMES.append(name)
            node = _new(cls, name, 1 << bit)
            node.name = name
            node._occ = {name: 1}
        return node

    def __del__(self, _names=_VAR_NAMES, _free=_FREE_BITS, _forget=_Node.__del__):
        bit = self.mask.bit_length() - 1
        _names[bit] = None
        _free.append(bit)
        _forget(self)


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        # True and 1.0 hash and compare equal to 1: key them apart, so
        # that evaluation rejects them as it would without the table.
        key = ("k", value) if type(value) is int else ("k", type(value).__name__, value)
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            node = _new(cls, key, 0)
            node.value = value
        return node


class _Nary(Expr):
    """An n-ary semiring operation; always has at least two parts."""

    __slots__ = ("parts",)

    def __new__(cls, parts):
        parts = tuple(parts)
        key = (cls._tag, *sorted(map(_UID, parts)))
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            node = _new(cls, key, _union(parts), any(map(_HAS_CMP, parts)))
            node.parts = parts
        return node

    def children(self):
        return self.parts


class Add(_Nary):
    """N-ary semiring sum."""

    __slots__ = ()
    _tag = "+"


class Mul(_Nary):
    """N-ary semiring product."""

    __slots__ = ()
    _tag = "*"


class Cmp(Expr):
    """A conditional ``[left theta right]``.

    Both sides are semiring expressions, or both are semimodule
    expressions (possibly over different monoids, compared on the shared
    extended-natural carrier).  Evaluates to the semiring's 1 when the
    comparison holds and to its 0 otherwise.
    """

    __slots__ = ("theta", "left", "right")

    def __new__(cls, left, theta, right):
        key = ("c", theta, left.uid, right.uid)
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            if theta not in THETAS:
                raise ValueError("unknown comparison operator %r" % theta)
            if isinstance(left, MExpr) != isinstance(right, MExpr):
                raise CarrierMismatch("conditional sides must be of the same sort")
            node = _new(cls, key, left.mask | right.mask, True)
            node.left = left
            node.theta = theta
            node.right = right
        return node

    def children(self):
        return (self.left, self.right)


class MExpr(_Node):
    """A semimodule expression over one aggregation monoid."""

    __slots__ = ()

    kind: MonoidKind


class MConst(MExpr):
    """A monoid constant.

    A bare monoid constant is just an extended natural; its kind only
    matters once it joins a sum, so compilation gives it the leaf of
    the like-valued semiring constant (:func:`pvcdb.dtree.compile`).
    """

    __slots__ = ("kind", "value")

    def __new__(cls, kind, value):
        if type(value) is not int:  # True and 1.0 would find the node of 1
            kind.check_value(value)
        key = ("m", kind._value_, value)
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            kind.check_value(value)
            node = _new(cls, key, 0)
            node.kind = kind
            node.value = value
        return node


class Scaled(MExpr):
    """A scaled term ``weight (x) value`` with a constant monoid value."""

    __slots__ = ("kind", "weight", "value")

    def __new__(cls, kind, weight, value):
        if type(value) is not int:  # as in MConst
            kind.check_value(value)
        key = ("s", kind._value_, weight.uid, value)
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            kind.check_value(value)
            node = _new(cls, key, weight.mask, weight.has_cmp)
            node.kind = kind
            node.weight = weight
            node.value = value
        return node

    def children(self):
        return (self.weight,)


class MSum(MExpr):
    """A monoid sum of scaled terms and monoid constants.

    All children share the node's monoid kind.
    """

    __slots__ = ("kind", "terms")

    def __new__(cls, kind, terms):
        terms = tuple(terms)
        key = ("S", kind._value_, *sorted(map(_UID, terms)))
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            for t in terms:
                if t.kind is not kind:
                    raise CarrierMismatch(
                        "summand over %s inside a %s sum" % (t.kind.name, kind.name)
                    )
            node = _new(cls, key, _union(terms), any(map(_HAS_CMP, terms)))
            node.kind = kind
            node.terms = terms
        return node

    def children(self):
        return self.terms


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------
#
# These fold only identities that hold in every semiring (dropping the
# neutral element, annihilating on zero) so they can run without knowing
# the target semiring.  Sums of constants are left alone and folded at
# evaluation or compilation time.


def make_sum(parts):
    if type(parts) is not list:
        parts = list(parts)
    if len(parts) == 1:  # flattening an Add, or folding 0, gives it back
        return parts[0]
    flat = []
    for p in parts:
        if isinstance(p, Add):
            flat.extend(p.parts)
        elif isinstance(p, Const) and p.value == 0:
            continue
        else:
            flat.append(p)
    if not flat:
        return Const(0)
    if len(flat) == 1:
        return flat[0]
    return Add(flat)


def make_product(parts):
    if type(parts) is not list:
        parts = list(parts)
    if len(parts) == 1:  # flattening a Mul, or folding 0 or 1, gives it back
        return parts[0]
    flat = []
    for p in parts:
        if isinstance(p, Mul):
            flat.extend(p.parts)
        elif isinstance(p, Const):
            if p.value == 0:
                return Const(0)
            if p.value == 1:
                continue
            flat.append(p)
        else:
            flat.append(p)
    if not flat:
        return Const(1)
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def make_scaled(kind, weight, value):
    """Build ``weight (x) value``, folding it to a constant when the
    weight is a constant, or, for MIN and MAX, when the weight is
    non-zero under every valuation (scaling then yields ``value``)."""
    if isinstance(weight, Const):
        return MConst(kind, scale(weight.value, value, kind))
    if value == kind.neutral:
        return MConst(kind, kind.neutral)
    if kind in (MonoidKind.MIN, MonoidKind.MAX):
        bounds = _value_range(weight)
        if bounds is not None and bounds[0] >= 1:
            return MConst(kind, value)
    return Scaled(kind, weight, value)


def make_msum(kind, terms):
    """Build a monoid sum, merging constants and dropping dead terms.

    For MIN a constant bound absorbs every term whose value cannot lie
    below it, and symmetrically for MAX; such terms can never change the
    sum's value under any valuation.
    """
    neutral = _NEUTRAL[kind]
    const = neutral
    symbolic = []
    rest = iter(terms)
    for t in rest:
        if t.kind is not kind:
            raise CarrierMismatch(
                "summand over %s inside a %s sum" % (t.kind.name, kind.name)
            )
        tt = type(t)
        if tt is Scaled:
            if type(t.weight) is Const:
                const = kind.plus(const, scale(t.weight.value, t.value, kind))
            elif t.value != neutral:
                symbolic.append(t)
        elif tt is MConst:
            const = kind.plus(const, t.value)
        elif tt is MSum:
            # Start again with this sum's terms in its place, from what
            # the terms seen so far came to and the rest flattened.
            flat = [*symbolic, MConst(kind, const), *t.terms]
            flat.extend(u for p in rest for u in sum_parts(p))
            return make_msum(kind, flat)
        else:
            raise CarrierMismatch("monoid sum over non-flat term %r" % (t,))
    if const != neutral:
        if kind is MonoidKind.MIN:
            symbolic = [t for t in symbolic if t.value < const]
        elif kind is MonoidKind.MAX:
            symbolic = [t for t in symbolic if t.value > const]
    if not symbolic:
        return MConst(kind, const)
    if const != neutral:
        symbolic.append(MConst(kind, const))
    if len(symbolic) == 1 and type(symbolic[0]) is Scaled:
        return symbolic[0]
    return MSum(kind, symbolic)


def _value_range(expr):
    """Bounds (lo, hi) on the value of an expression that hold under
    every valuation in both semirings, or None when nothing is known."""
    t = type(expr)
    if t is Const or t is MConst:
        return expr.value, expr.value
    if t is MSum and expr.kind in (MonoidKind.MIN, MonoidKind.MAX):
        consts = [m.value for m in expr.terms if type(m) is MConst]
        if consts:
            if expr.kind is MonoidKind.MIN:
                return NEG_INF, min(consts)
            return max(consts), INF
    if t is Add and any(type(p) is Const and p.value != 0 for p in expr.parts):
        # A semiring sum with a non-zero constant summand is at least 1.
        return 1, INF
    return None


def compare_ranges(a, theta, b):
    """Truth of ``[x theta y]`` for every x in the range a = (lo, hi)
    and every y in the range b, or None when it depends on the values."""
    (alo, ahi), (blo, bhi) = a, b
    if theta in ("=", "!="):
        if ahi < blo or alo > bhi:
            return theta == "!="
        if alo == ahi == blo == bhi:
            return theta == "="
        return None
    # The pairs least and most favourable to x theta y.
    if theta[0] == "<":
        worst, best = (ahi, blo), (alo, bhi)
    else:
        worst, best = (alo, bhi), (ahi, blo)
    if compare(*worst, theta):
        return True
    if not compare(*best, theta):
        return False
    return None


def make_cmp(left, theta, right):
    """Build a conditional, folding it to Const(1) or Const(0) when the
    value ranges of its sides already decide it.

    A variable-free sum such as ``1 + 1`` is not folded to a point: its
    value depends on the semiring.
    """
    if isinstance(left, MExpr) is isinstance(right, MExpr):
        a, b = _value_range(left), _value_range(right)
        if a is not None and b is not None:
            decided = compare_ranges(a, theta, b)
            if decided is not None:
                return Const(1 if decided else 0)
    return Cmp(left, theta, right)


def rebuild(e, parts):
    """The inner node ``e`` built again, through its smart constructor,
    from ``parts`` in place of its children."""
    t = type(e)
    if t is Add:
        return make_sum(parts)
    if t is Mul:
        return make_product(parts)
    if t is Scaled:
        return make_scaled(e.kind, parts[0], e.value)
    if t is MSum:
        return make_msum(e.kind, parts)
    if t is Cmp:
        return make_cmp(parts[0], e.theta, parts[1])
    raise TypeError("not an inner expression node: %r" % (e,))


# ---------------------------------------------------------------------------
# The bottom-up walk
# ---------------------------------------------------------------------------


def fold(roots, visit, memo, mask=None):
    """Fill ``memo`` with ``memo[e] = visit(e)`` for every distinct
    sub-expression ``e`` of ``roots`` that it does not hold yet, each
    after its children, so that ``visit`` finds theirs in ``memo``.
    With a ``mask``, only children that share a variable with it are
    entered.  The walk keeps its own stack.  Returns ``memo``."""
    stack = list(roots)
    pop = stack.pop
    while stack:
        e = pop()
        if e is None:  # the children of the node below are done
            e = pop()
        elif e in memo:
            continue
        else:
            kids = e.children()
            if kids and mask is not None:
                kids = [c for c in kids if c.mask & mask and c not in memo]
            if kids:
                stack += (e, None, *kids)
                continue
        memo[e] = visit(e)
    return memo


class _CachedOcc:
    """The occurrence counts cached on the nodes, as a memo for :func:`fold`."""

    __slots__ = ()

    def __contains__(self, e):
        return e._occ is not None

    def __setitem__(self, e, occ):
        e._occ = occ


_CACHED_OCC = _CachedOcc()


def _merged_occ(e):
    """The occurrence counts of ``e``, merged from its children's."""
    occ = {}
    for child in e.children():
        for name, n in child._occ.items():
            occ[name] = occ.get(name, 0) + n
    return occ


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------


def variables(*exprs):
    """The set of distinct variable names occurring in the expressions,
    read off the OR of their masks."""
    return _names(_union(exprs))


def substitute(expr, name, value, done=None):
    """Replace every occurrence of a variable by a semiring constant.

    The result is simplified through the smart constructors, so dead
    branches (products annihilated by 0, scaled terms that can no longer
    fire, comparisons the remaining values already decide) disappear.
    Subtrees not containing the variable are returned as they are.
    ``done`` maps sub-expressions to their results under this one
    binding; a caller that substitutes the same binding into many
    expressions passes the same dict each time, so shared subtrees are
    rewritten once.
    """
    var = _TABLE.get(name, _MISSING)()
    if var is None or not expr.mask & var.mask:
        return expr
    done = {} if done is None else done
    done[var] = Const(value)

    def visit(e):  # an inner node that holds the variable
        kids = e.children()
        return rebuild(e, list(map(done.get, kids, kids)))

    return fold((expr,), visit, done, var.mask)[expr]


def eval_under(exprs, nus, sk):
    """The values of each of ``exprs`` in semiring ``sk`` under each
    valuation of the sequence ``nus``: a list per expression.

    One :func:`fold` computes each distinct sub-expression's values
    under all the valuations at once, from its children's.
    """
    n = len(nus)
    done = {}  # sub-expression -> its values

    def visit(e):
        t = type(e)
        if t is Var:
            try:
                return list(map(operator.itemgetter(e.name), nus))
            except KeyError:
                raise UnboundVariable("variable %s is not bound" % e.name) from None
        if t is Const:
            return [sk.check_constant(e.value)] * n
        if t is MConst:
            return [e.value] * n
        if t is Scaled:
            value, kind = e.value, e.kind
            return [scale(s, value, kind) for s in done[e.weight]]
        if t is Cmp:
            holds = _THETA_FUNCS[e.theta]
            return [1 if holds(a, b) else 0 for a, b in zip(done[e.left], done[e.right])]
        if t is Add or t is Mul or t is MSum:  # MSum too: neutral + x is x
            op = sk.add if t is Add else sk.mul if t is Mul else e.kind.plus
            kids = e.children()
            out = done[kids[0]]
            for c in kids[1:]:
                out = list(map(op, out, done[c]))
            return out
        raise TypeError("not an expression: %r" % (e,))

    return list(map(fold(exprs, visit, done).__getitem__, exprs))


def sum_parts(expr):
    """Top-level summands: Add parts, MSum terms, or the expression itself."""
    t = type(expr)
    if t is Add:
        return list(expr.parts)
    if t is MSum:
        return list(expr.terms)
    return [expr]


def product_factors(expr):
    """Top-level factors of a semiring expression."""
    if isinstance(expr, Mul):
        return list(expr.parts)
    return [expr]
