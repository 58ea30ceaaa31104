"""Test helpers: equality of expressions up to the semiring and
semimodule laws, and occurrence counts as a fresh ``Counter``.

The sum-of-products normal form distributes an expression fully, so
that two expressions are equal up to commutativity, associativity and
distributivity exactly when their normal forms are.  A clause is a
constant coefficient together with a multiset of atoms (variables and
conditionals); a semimodule term is a clause scaled by one monoid value.
Normalisation applies only distributivity, commutativity and
associativity, so it preserves the value under every valuation.
"""

from collections import Counter

from pvcdb.algebra import Add, Cmp, Const, MConst, MExpr, Mul, Scaled, Var, sum_parts
from pvcdb.errors import CarrierMismatch


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


def occurrences(expr):
    """Occurrence counts of variables, counting every position."""
    return Counter(expr.occ())
