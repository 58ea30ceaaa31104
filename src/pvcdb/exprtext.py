"""Textual syntax for semiring and semimodule expressions.

The grammar, also documented in the README::

    expr    := msum | sum [ MONTAG ]
    sum     := term ('+' term)*
    term    := product [ '(x)' mval ]
    product := factor ('*' factor)*
    factor  := NAT | VAR | '(' sum ')' | cond
    cond    := '[' side THETA side ']' [ MONTAG ]
    side    := msum | sum-with-scaled-terms | mval
    msum    := MONTAG '{' mterm ('+' mterm)* '}'
    mterm   := product '(x)' mval | mval
    mval    := NAT | '+inf' | '-inf'
    MONTAG  := 'min' | 'max' | 'sum' | 'count' | 'prod'
    THETA   := '<=' | '>=' | '!=' | '=' | '<' | '>'

``(x)`` is the scaling operator pairing a semiring condition with an
aggregation value; it is lexed as one token, so a parenthesised variable
literally named ``x`` cannot be written as ``(x)``.  Monoid sums carry
their aggregation monoid as a brace tag, ``min{a(x)5 + b(x)10}``; for
convenience an untagged scaled sum may instead take the tag as a suffix,
``[ a(x)5 + b(x)10 <= 15 ] min``.  A bare numeral opposite a semimodule
side of a conditional is read as a monoid constant.  The printer always
emits the braced form, and writes a monoid constant bare only opposite
a monoid sum of its own kind, so printing then parsing returns the very
node printed (expressions are interned).
"""

from __future__ import annotations

import re

from . import algebra as alg
from .errors import ParseError

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<inf>[+-]inf)"
    r"|(?P<ident>" + _IDENT + r")"
    r"|(?P<op>\(x\)|<=|>=|!=|=|<|>|\+|\*|\(|\)|\[|\]|\{|\}))"
)

_MONTAGS = {k.value: k for k in alg.MonoidKind}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError("unexpected character %r" % rest[0], pos)
        if m.group("num") is not None:
            tokens.append(("num", int(m.group("num")), m.start("num")))
        elif m.group("inf") is not None:
            value = alg.INF if m.group("inf") == "+inf" else alg.NEG_INF
            tokens.append(("inf", value, m.start("inf")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, offset=0):
        j = self.i + offset
        if j < len(self.tokens):
            return self.tokens[j]
        return ("eof", None, -1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError("expected %r, found %r" % (op, value), pos)

    def at_op(self, op):
        kind, value, _ = self.peek()
        return kind == "op" and value == op

    def at_montag_brace(self):
        kind, value, _ = self.peek()
        nk, nv, _ = self.peek(1)
        return kind == "ident" and value in _MONTAGS and nk == "op" and nv == "{"

    def take_montag(self):
        kind, value, _ = self.peek()
        if kind == "ident" and value in _MONTAGS:
            self.next()
            return _MONTAGS[value]
        return None

    # -- grammar ------------------------------------------------------

    def parse_expr(self):
        side = self.parse_side()
        tag = self.take_montag()
        expr = _resolve_side(side, tag, None, self.peek()[2])
        if self.peek()[0] != "eof":
            raise ParseError("trailing input %r" % (self.peek()[1],), self.peek()[2])
        return expr

    def parse_side(self):
        """One comparison side: a tagged monoid sum, a bare monoid value,
        a semiring sum, or an untagged scaled sum awaiting its tag."""
        if self.at_montag_brace():
            return self.parse_msum()
        kind, value, _ = self.peek()
        if kind == "inf":
            self.next()
            return ("mval", value)
        chunks = [self.parse_chunk()]
        while self.at_op("+"):
            self.next()
            chunks.append(self.parse_chunk())
        if any(tag == "scaled" for tag, *_ in chunks):
            return ("proto", chunks)
        return ("sr", alg.make_sum([c[1] for c in chunks]))

    def parse_chunk(self):
        """A '+'-separated piece: a product, optionally scaled."""
        kind, value, _ = self.peek()
        if kind == "inf":
            self.next()
            return ("plainm", value)
        product = self.parse_product()
        if self.at_op("(x)"):
            self.next()
            return ("scaled", product, self.parse_mval())
        return ("plain", product)

    def parse_product(self):
        factors = [self.parse_factor()]
        while self.at_op("*"):
            self.next()
            factors.append(self.parse_factor())
        return alg.make_product(factors)

    def parse_factor(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.next()
            return alg.Const(value)
        if kind == "ident":
            self.next()
            return alg.Var(value)
        if self.at_op("("):
            self.next()
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        if self.at_op("["):
            return self.parse_cond()
        raise ParseError("expected a variable, number, '(' or '['", pos)

    def parse_sum(self):
        parts = [self.parse_product()]
        while self.at_op("+"):
            self.next()
            parts.append(self.parse_product())
        return alg.make_sum(parts)

    def parse_cond(self):
        self.expect_op("[")
        left = self.parse_side()
        kind, theta, pos = self.next()
        if kind != "op" or theta not in alg.THETAS:
            raise ParseError("expected a comparison operator, found %r" % (theta,), pos)
        right = self.parse_side()
        self.expect_op("]")
        tag = self.take_montag() if (_is_proto(left) or _is_proto(right)) else None
        lexpr = _resolve_side(left, tag, _side_kind(right), pos)
        rexpr = _resolve_side(right, tag, _side_kind(lexpr, resolved=True), pos)
        if isinstance(lexpr, alg.MExpr) and isinstance(rexpr, alg.Expr):
            rexpr = _coerce_mconst(rexpr, lexpr.kind, pos)
        elif isinstance(rexpr, alg.MExpr) and isinstance(lexpr, alg.Expr):
            lexpr = _coerce_mconst(lexpr, rexpr.kind, pos)
        return alg.Cmp(lexpr, theta, rexpr)

    def parse_msum(self):
        tag_kind, tag, _ = self.next()
        monoid = _MONTAGS[tag]
        self.expect_op("{")
        terms = [self.parse_mterm(monoid)]
        while self.at_op("+"):
            self.next()
            terms.append(self.parse_mterm(monoid))
        self.expect_op("}")
        return ("sm", alg.make_msum(monoid, terms))

    def parse_mterm(self, monoid):
        kind, value, _ = self.peek()
        if kind in ("num", "inf") and not self._num_starts_weight():
            self.next()
            return alg.MConst(monoid, value)
        weight = self.parse_product()
        self.expect_op("(x)")
        return alg.make_scaled(monoid, weight, self.parse_mval())

    def _num_starts_weight(self):
        # `5 (x) 7` scales the constant condition 5; a bare `5` is a
        # monoid constant.
        kind, _, _ = self.peek()
        nk, nv, _ = self.peek(1)
        return kind == "num" and nk == "op" and nv in ("(x)", "*")

    def parse_mval(self):
        kind, value, pos = self.next()
        if kind in ("num", "inf"):
            return value
        raise ParseError("expected an aggregation value, found %r" % (value,), pos)


def _is_proto(side):
    return side[0] in ("proto", "mval")


def _side_kind(side, resolved=False):
    if resolved:
        return side.kind if isinstance(side, alg.MExpr) else None
    if side[0] == "sm":
        return side[1].kind
    return None


def _resolve_side(side, tag, other_kind, pos):
    label = side[0]
    if label in ("sr", "sm"):
        return side[1]
    kind = tag or other_kind
    if label == "mval":
        if kind is None and side[1] not in (alg.INF, alg.NEG_INF):
            return alg.Const(side[1])
        if kind is None:
            kind = alg.MonoidKind.MIN if side[1] == alg.INF else alg.MonoidKind.MAX
        return alg.MConst(kind, side[1])
    if kind is None:
        raise ParseError("scaled sum needs a monoid tag", pos)
    terms = []
    for chunk in side[1]:
        if chunk[0] == "scaled":
            terms.append(alg.make_scaled(kind, chunk[1], chunk[2]))
        elif chunk[0] == "plainm":
            terms.append(alg.MConst(kind, chunk[1]))
        elif isinstance(chunk[1], alg.Const):
            terms.append(alg.MConst(kind, chunk[1].value))
        else:
            raise ParseError("plain semiring summand inside a scaled sum", pos)
    return alg.make_msum(kind, terms)


def _coerce_mconst(expr, kind, pos):
    if isinstance(expr, alg.Const):
        return alg.MConst(kind, expr.value)
    raise ParseError("cannot compare a semiring expression with an aggregate", pos)


def parse_expr(text):
    """Parse an expression; returns an Expr or MExpr."""
    # Most annotation cells name one variable; those skip the parser.
    if _IDENT_RE.fullmatch(text):
        return alg.Var(text)
    return _Parser(text).parse_expr()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _format_mval(value):
    if value == alg.INF:
        return "+inf"
    if value == alg.NEG_INF:
        return "-inf"
    return str(value)


def _format_factor(expr):
    if isinstance(expr, alg.Add):
        return "(" + format_expr(expr) + ")"
    return format_expr(expr)


def _format_mterm(term):
    if isinstance(term, alg.MConst):
        return _format_mval(term.value)
    weight = "*".join(_format_factor(p) for p in alg.product_factors(term.weight))
    return "%s(x)%s" % (weight, _format_mval(term.value))


def _format_side(expr, other):
    # A bare value opposite a monoid sum of its own kind reads back as
    # this monoid constant; anywhere else it would read as another node.
    if type(expr) is alg.MConst and type(other) is not alg.MConst and other.kind is expr.kind:
        return _format_mval(expr.value)
    return format_expr(expr)


def format_expr(expr):
    """Render an expression in the canonical textual syntax."""
    if isinstance(expr, alg.Var):
        return expr.name
    if isinstance(expr, alg.Const):
        return str(expr.value)
    if isinstance(expr, alg.Add):
        return " + ".join(format_expr(p) for p in expr.parts)
    if isinstance(expr, alg.Mul):
        return "*".join(_format_factor(p) for p in expr.parts)
    if isinstance(expr, alg.Cmp):
        return "[%s %s %s]" % (
            _format_side(expr.left, expr.right),
            expr.theta,
            _format_side(expr.right, expr.left),
        )
    if isinstance(expr, alg.MConst):
        return "%s{%s}" % (expr.kind.value, _format_mval(expr.value))
    if isinstance(expr, alg.Scaled):
        return "%s{%s}" % (expr.kind.value, _format_mterm(expr))
    if isinstance(expr, alg.MSum):
        return "%s{%s}" % (
            expr.kind.value,
            " + ".join(_format_mterm(t) for t in expr.terms),
        )
    raise TypeError("not an expression: %r" % (expr,))
