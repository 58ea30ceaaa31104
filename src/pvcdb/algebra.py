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

Values are plain Python ints.  The Boolean semiring uses 0 for false and
1 for true, which makes the set semantics a special case of the bag
semantics.  Monoid carriers are non-negative 64-bit integers extended
with the float infinities ``INF`` and ``NEG_INF`` as neutral elements of
MIN and MAX.  All integer arithmetic is checked; overflow raises instead
of wrapping.
"""

from __future__ import annotations

import enum
from collections import Counter

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

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

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
        r = m**s
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


class _Node:
    """Shared lazy caches; expressions are immutable, so variable sets,
    occurrence counts and structural keys are computed at most once per
    node and untouched subtrees can be shared across rewrites."""

    __slots__ = ("_vars", "_occ", "_key")

    def _compute_key(self):
        raise NotImplementedError

    def _compute_vars(self):
        raise NotImplementedError

    def _compute_occ(self):
        raise NotImplementedError

    def key(self):
        """Order-normalised structural key; equal keys mean equal ASTs
        up to commutativity of + and *."""
        try:
            return self._key
        except AttributeError:
            self._key = self._compute_key()
            return self._key

    def vars(self):
        try:
            return self._vars
        except AttributeError:
            self._vars = self._compute_vars()
            return self._vars

    def occ(self):
        try:
            return self._occ
        except AttributeError:
            self._occ = self._compute_occ()
            return self._occ

    def __eq__(self, other):
        return isinstance(other, (Expr, MExpr)) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        from .exprtext import format_expr

        return format_expr(self)


class Expr(_Node):
    """A semiring expression."""

    __slots__ = ()

    def eval(self, nu, sk):
        raise NotImplementedError


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def eval(self, nu, sk):
        try:
            return nu[self.name]
        except KeyError:
            raise UnboundVariable("variable %s is not bound" % self.name) from None

    def _compute_key(self):
        return ("v", self.name)

    def _compute_vars(self):
        return frozenset((self.name,))

    def _compute_occ(self):
        return Counter((self.name,))


_EMPTY_VARS = frozenset()
_EMPTY_OCC = Counter()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, nu, sk):
        return sk.check_constant(self.value)

    def _compute_key(self):
        return ("k", self.value)

    def _compute_vars(self):
        return _EMPTY_VARS

    def _compute_occ(self):
        return _EMPTY_OCC


def _merge_vars(parts):
    out = None
    for p in parts:
        v = p.vars()
        if not v:
            continue
        out = v if out is None else out | v
    return out if out is not None else _EMPTY_VARS


def _merge_occ(parts):
    out = Counter()
    for p in parts:
        out.update(p.occ())
    return out


class Add(Expr):
    """N-ary semiring sum; always has at least two parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def eval(self, nu, sk):
        acc = self.parts[0].eval(nu, sk)
        for p in self.parts[1:]:
            acc = sk.add(acc, p.eval(nu, sk))
        return acc

    def _compute_key(self):
        return ("+",) + tuple(sorted(p.key() for p in self.parts))

    def _compute_vars(self):
        return _merge_vars(self.parts)

    def _compute_occ(self):
        return _merge_occ(self.parts)


class Mul(Expr):
    """N-ary semiring product; always has at least two parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def eval(self, nu, sk):
        acc = self.parts[0].eval(nu, sk)
        for p in self.parts[1:]:
            acc = sk.mul(acc, p.eval(nu, sk))
        return acc

    def _compute_key(self):
        return ("*",) + tuple(sorted(p.key() for p in self.parts))

    def _compute_vars(self):
        return _merge_vars(self.parts)

    def _compute_occ(self):
        return _merge_occ(self.parts)


class Cmp(Expr):
    """A conditional ``[left theta right]``.

    Both sides are semiring expressions, or both are semimodule
    expressions (possibly over different monoids, compared on the shared
    extended-natural carrier).  Evaluates to the semiring's 1 when the
    comparison holds and to its 0 otherwise.
    """

    __slots__ = ("theta", "left", "right")

    def __init__(self, left, theta, right):
        if theta not in THETAS:
            raise ValueError("unknown comparison operator %r" % theta)
        lm, rm = isinstance(left, MExpr), isinstance(right, MExpr)
        if lm != rm:
            raise CarrierMismatch("conditional sides must be of the same sort")
        self.left = left
        self.theta = theta
        self.right = right

    def eval(self, nu, sk):
        a = self.left.eval(nu, sk)
        b = self.right.eval(nu, sk)
        return 1 if compare(a, b, self.theta) else 0

    def _compute_key(self):
        return ("c", self.theta, self.left.key(), self.right.key())

    def _compute_vars(self):
        return _merge_vars((self.left, self.right))

    def _compute_occ(self):
        return _merge_occ((self.left, self.right))


class MExpr(_Node):
    """A semimodule expression over one aggregation monoid."""

    __slots__ = ()

    kind: MonoidKind

    def eval(self, nu, sk):
        raise NotImplementedError


class MConst(MExpr):
    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = kind.check_value(value)

    def eval(self, nu, sk):
        return self.value

    def _compute_key(self):
        # A bare monoid constant is just an extended natural; its kind
        # only matters once it joins a sum, so it compares equal to the
        # like-valued semiring constant.
        return ("k", self.value)

    def _compute_vars(self):
        return _EMPTY_VARS

    def _compute_occ(self):
        return _EMPTY_OCC


class Scaled(MExpr):
    """A scaled term ``weight (x) value`` with a constant monoid value."""

    __slots__ = ("kind", "weight", "value")

    def __init__(self, kind, weight, value):
        self.kind = kind
        self.weight = weight
        self.value = kind.check_value(value)

    def eval(self, nu, sk):
        return scale(self.weight.eval(nu, sk), self.value, self.kind)

    def _compute_key(self):
        return ("s", self.kind.value, self.weight.key(), self.value)

    def _compute_vars(self):
        return self.weight.vars()

    def _compute_occ(self):
        return self.weight.occ()


class MSum(MExpr):
    """A monoid sum of scaled terms and monoid constants.

    All children share the node's monoid kind.
    """

    __slots__ = ("kind", "terms")

    def __init__(self, kind, terms):
        self.kind = kind
        self.terms = tuple(terms)
        for t in self.terms:
            if t.kind is not kind:
                raise CarrierMismatch(
                    "summand over %s inside a %s sum" % (t.kind.name, kind.name)
                )

    def eval(self, nu, sk):
        acc = self.kind.neutral
        for t in self.terms:
            acc = self.kind.plus(acc, t.eval(nu, sk))
        return acc

    def _compute_key(self):
        return ("S", self.kind.value) + tuple(sorted(t.key() for t in self.terms))

    def _compute_vars(self):
        return _merge_vars(self.terms)

    def _compute_occ(self):
        return _merge_occ(self.terms)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------
#
# These fold only identities that hold in every semiring (dropping the
# neutral element, annihilating on zero) so they can run without knowing
# the target semiring.  Sums of constants are left alone and folded at
# evaluation or compilation time.


def make_sum(parts):
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
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if type(t) is MSum:
            stack.extend(reversed(t.terms))
            continue
        if t.kind is not kind:
            raise CarrierMismatch(
                "summand over %s inside a %s sum" % (t.kind.name, kind.name)
            )
        if type(t) is MConst:
            const = kind.plus(const, t.value)
        elif type(t) is Scaled:
            if type(t.weight) is Const:
                const = kind.plus(const, scale(t.weight.value, t.value, kind))
            elif t.value != neutral:
                symbolic.append(t)
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


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------


def variables(expr):
    """The set of distinct variable names occurring in the expression."""
    return expr.vars()


def occurrences(expr):
    """Occurrence counts of variables, counting every position."""
    return expr.occ()


def substitute(expr, name, value):
    """Replace every occurrence of a variable by a semiring constant.

    The result is simplified through the smart constructors, so dead
    branches (products annihilated by 0, scaled terms that can no longer
    fire, comparisons the remaining values already decide) disappear.
    Subtrees not containing the variable are shared, not copied.
    """
    if name not in expr.vars():
        return expr
    if isinstance(expr, Var):
        return Const(value)
    if isinstance(expr, Add):
        return make_sum([substitute(p, name, value) for p in expr.parts])
    if isinstance(expr, Mul):
        return make_product([substitute(p, name, value) for p in expr.parts])
    if isinstance(expr, Cmp):
        left = substitute(expr.left, name, value)
        right = substitute(expr.right, name, value)
        return make_cmp(left, expr.theta, right)
    if isinstance(expr, Scaled):
        return make_scaled(expr.kind, substitute(expr.weight, name, value), expr.value)
    if isinstance(expr, MSum):
        return make_msum(expr.kind, [substitute(t, name, value) for t in expr.terms])
    raise TypeError("not an expression: %r" % (expr,))


def eval_semiring(expr, nu, sk):
    """Evaluate a semiring expression under a valuation."""
    if not isinstance(expr, Expr):
        raise CarrierMismatch("expected a semiring expression, got %r" % (expr,))
    return expr.eval(nu, sk)


def eval_semimodule(expr, nu, sk):
    """Evaluate a semimodule expression to a monoid value."""
    if not isinstance(expr, MExpr):
        raise CarrierMismatch("expected a semimodule expression, got %r" % (expr,))
    return expr.eval(nu, sk)


def sum_parts(expr):
    """Top-level summands: Add parts, MSum terms, or the expression itself."""
    if isinstance(expr, Add):
        return list(expr.parts)
    if isinstance(expr, MSum):
        return list(expr.terms)
    return [expr]


def product_factors(expr):
    """Top-level factors of a semiring expression."""
    if isinstance(expr, Mul):
        return list(expr.parts)
    return [expr]


def rebuild_sum(parts, kind=None):
    if kind is not None:
        return make_msum(kind, parts)
    return make_sum(parts)


# ---------------------------------------------------------------------------
# Sum-of-products normal form
# ---------------------------------------------------------------------------
#
# Used for order-insensitive comparison of expressions and for
# term-level rewrites on conditionals.  A clause is a constant
# coefficient together with a multiset of atoms (variables and
# conditionals); a semimodule term is a clause scaled by one monoid
# value.  Normalisation applies only distributivity, commutativity and
# associativity, so it preserves the value under every valuation.


def norm_semiring(expr):
    """Multiset of clause keys of the fully distributed expression."""
    return tuple(sorted(_clauses_key(expr)))


def _clauses_key(expr):
    if isinstance(expr, Var):
        return [(1, (("v", expr.name),))]
    if isinstance(expr, Const):
        return [(expr.value, ())] if expr.value != 0 else []
    if isinstance(expr, Cmp):
        return [(1, (("c", expr.theta, _side_key(expr.left), _side_key(expr.right)),))]
    if isinstance(expr, Add):
        out = []
        for p in expr.parts:
            out.extend(_clauses_key(p))
        return out
    if isinstance(expr, Mul):
        acc = [(1, ())]
        for p in expr.parts:
            nxt = []
            for coeff, atoms in acc:
                for c2, a2 in _clauses_key(p):
                    nxt.append((coeff * c2, tuple(sorted(atoms + a2))))
            acc = nxt
        return [cl for cl in acc if cl[0] != 0]
    raise CarrierMismatch("not a semiring expression: %r" % (expr,))


def _side_key(side):
    if isinstance(side, MExpr):
        return ("M", side.kind.value, norm_semimodule(side))
    return ("S", norm_semiring(side))


def norm_semimodule(expr):
    """Multiset of ``(value, coefficient, atoms)`` term keys."""
    terms = []
    for t in sum_parts(expr):
        if isinstance(t, MConst):
            if t.value != t.kind.neutral:
                terms.append((t.value, 1, ()))
        elif isinstance(t, Scaled):
            for coeff, atoms in _clauses_key(t.weight):
                terms.append((t.value, coeff, atoms))
        else:
            raise CarrierMismatch("not a semimodule expression: %r" % (t,))
    return tuple(sorted(terms))


def norm_key(expr):
    """Canonical key identifying expressions up to the semiring and
    semimodule laws (distribution into sum-of-products form)."""
    if isinstance(expr, MExpr):
        return ("M", expr.kind.value, norm_semimodule(expr))
    return ("S", norm_semiring(expr))


def equivalent(a, b):
    """True when two expressions are equal up to commutativity,
    associativity and distributivity."""
    return norm_key(a) == norm_key(b)
