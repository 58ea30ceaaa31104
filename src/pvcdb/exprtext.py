"""Textual syntax for semiring and semimodule expressions.

The grammar, also documented in the README::

    expr    := side [ MONTAG ]
    sum     := term ('+' term)*
    term    := product [ '(x)' mval ]
    product := factor ('*' factor)*
    factor  := NAT | VAR | '(' sum ')' | cond
    cond    := '[' side THETA side ']' [ MONTAG ]
    side    := msum | sum | mval
    msum    := MONTAG '{' mterm ('+' mterm)* '}'
    mterm   := product '(x)' mval | mval
    mval    := NAT | '+inf' | '-inf'
    MONTAG  := 'min' | 'max' | 'sum' | 'count' | 'prod'
    THETA   := '<=' | '>=' | '!=' | '=' | '<' | '>'

``(x)`` is the scaling operator pairing a semiring condition with an
aggregation value; it is lexed as one token, so a parenthesised variable
literally named ``x`` cannot be written as ``(x)``.  Monoid sums carry
their aggregation monoid as a brace tag, ``min{a(x)5 + b(x)10}``; for
convenience an untagged sum with a scaled term or an infinite value may
instead take the tag as a suffix, ``[ a(x)5 + b(x)10 <= 15 ] min``.  A
suffix tag is read only where such a sum or a bare ``+inf``/``-inf``
stands at the top or on a side of the conditional it follows; anywhere
else it is trailing input.  A bare numeral opposite a semimodule side
of a conditional is read as a monoid constant.  The printer always
emits the braced form, and writes a monoid constant bare only opposite
a monoid sum of its own kind, so printing then parsing returns the very
node printed (expressions are interned).

Parser and printer keep explicit stacks, so nesting depth is bounded
by memory, not by Python's recursion limit.
"""

from __future__ import annotations

import re

from . import algebra as alg
from .errors import ParseError, PvcError

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_TOKEN = r"\d+|[+-]inf|" + _IDENT + r"|\(x\)|[<>!]=|[=<>+*()\[\]{}]"
_TOKEN_RE = re.compile(_TOKEN)
# One match per token, or per character that starts no token: such a
# character is reported only if parsing fails.
_SCAN_RE = re.compile(_TOKEN + r"|\S")
_INFS = {"+inf": alg.INF, "-inf": alg.NEG_INF}
_MONTAGS = {k.value: k for k in alg.MonoidKind}
#: Appended after the last token; no token is whitespace.
_END = " "

# Frames: the top, the two sides of a conditional, a parenthesised sum
# and a braced monoid sum.  A side's items are chunks, ("plain", product),
# ("scaled", product, value) or ("plainm", infinity); a finished side is
# ("sr", expr), ("sm", monoid sum), or ("proto", chunks) and ("mval",
# infinity) awaiting a monoid.  A braced sum's aux is its monoid, a right
# side's the left side, the operator and the count of tokens after it.
_TOP, _LEFT, _RIGHT, _PAREN, _MSUM = range(5)
# Where the parse loop stands: at the start of a frame's next element,
# before a factor, after a factor, after an element, after a whole side.
_ELEM, _FACTOR, _AFTER, _DONE, _SIDE = range(5)


class _Fail(Exception):
    """A syntax error at a token, given by the number of tokens after
    it; :func:`parse_expr` reports it at the token's character position."""


def _numeral(tok, after):
    """The value of a numeral token, ``after`` tokens before the end."""
    try:
        return int(tok)
    except ValueError:  # more digits than Python converts to an int
        raise _Fail(after, "numeral of %d digits is too long" % len(tok)) from None


def _shown(tok):
    """A token as error messages show it: numbers as their values, or
    their first digits where they are too long, the end of input as
    None."""
    if tok == _END:
        return None
    if tok.isdecimal():
        try:
            return int(tok)
        except ValueError:
            return tok[:20] + "..."
    return _INFS.get(tok, tok)


def _parse(text):
    """Parse ``text`` in one scan into tokens and one loop over them
    with an explicit stack of the enclosing frames."""
    # Tokens still to read, the next one last.
    toks = _SCAN_RE.findall(text)
    toks.append(_END)
    toks.reverse()
    pop = toks.pop
    tok = pop()
    stack = []
    frame, items, factors, aux = _TOP, [], None, None
    state = _ELEM
    while True:
        if state is _ELEM:
            if frame is _MSUM:
                # `5 (x) 7` scales the constant condition 5; a bare `5`
                # is a monoid constant.
                if tok in _INFS or tok.isdecimal() and toks[-1] not in ("(x)", "*"):
                    value = _INFS[tok] if tok in _INFS else _numeral(tok, len(toks))
                    items.append(alg.MConst(aux, value))
                    tok = pop()
                    state = _DONE
                    continue
            elif frame is not _PAREN:
                if tok in _INFS:
                    value = _INFS[tok]
                    tok = pop()
                    if items:
                        items.append(("plainm", value))
                        state = _DONE
                    else:
                        side = ("mval", value)
                        state = _SIDE
                    continue
                if not items and tok in _MONTAGS and toks[-1] == "{":
                    stack.append((frame, items, factors, aux))
                    frame, items, aux = _MSUM, [], _MONTAGS[tok]
                    pop()
                    tok = pop()
                    continue
            factors = []
            state = _FACTOR
        if state is _FACTOR:
            if tok[0] in _IDENT_START:
                factors.append(alg.Var(tok))
            elif tok.isdecimal():
                factors.append(alg.Const(_numeral(tok, len(toks))))
            elif tok == "(" or tok == "[":
                stack.append((frame, items, factors, aux))
                frame = _PAREN if tok == "(" else _LEFT
                items = []
                tok = pop()
                state = _ELEM
                continue
            else:
                raise _Fail(len(toks), "expected a variable, number, '(' or '['")
            tok = pop()
            state = _AFTER
        if state is _AFTER:
            if tok == "*":
                tok = pop()
                state = _FACTOR
                continue
            product = alg.make_product(factors)
            if frame is _PAREN:
                items.append(product)
            elif tok == "(x)":
                tok = pop()
                if tok.isdecimal():
                    value = _numeral(tok, len(toks))
                elif tok in _INFS:
                    value = _INFS[tok]
                else:
                    raise _Fail(len(toks), "expected an aggregation value, found %r" % (_shown(tok),))
                tok = pop()
                if frame is _MSUM:
                    items.append(alg.make_scaled(aux, product, value))
                else:
                    items.append(("scaled", product, value))
            elif frame is _MSUM:
                raise _Fail(len(toks), "expected '(x)', found %r" % (_shown(tok),))
            else:
                items.append(("plain", product))
            state = _DONE
        if state is _DONE:
            if tok == "+":
                tok = pop()
                state = _ELEM
                continue
            if frame is _PAREN:
                inner = alg.make_sum(items)
                if tok != ")":
                    raise _Fail(len(toks), "expected ')', found %r" % (_shown(tok),))
                tok = pop()
                frame, items, factors, aux = stack.pop()
                factors.append(inner)
                state = _AFTER
                continue
            if frame is _MSUM:
                if tok != "}":
                    raise _Fail(len(toks), "expected '}', found %r" % (_shown(tok),))
                tok = pop()
                side = ("sm", alg.make_msum(aux, items))
                frame, items, factors, aux = stack.pop()
            elif all(chunk[0] == "plain" for chunk in items):
                side = ("sr", alg.make_sum([chunk[1] for chunk in items]))
            else:
                side = ("proto", items)
            state = _SIDE
        # A whole side: one of a conditional, or the top.
        if frame is _LEFT:
            if tok not in alg.THETAS:
                raise _Fail(len(toks), "expected a comparison operator, found %r" % (_shown(tok),))
            aux = (side, tok, len(toks))
            frame, items = _RIGHT, []
            tok = pop()
            state = _ELEM
            continue
        if frame is _RIGHT:
            if tok != "]":
                raise _Fail(len(toks), "expected ']', found %r" % (_shown(tok),))
            tok = pop()
            left, theta, after = aux
            tag = None
            if (_is_proto(left) or _is_proto(side)) and tok in _MONTAGS:
                tag = _MONTAGS[tok]
                tok = pop()
            cond = _make_cond(left, theta, side, tag, after)
            frame, items, factors, aux = stack.pop()
            factors.append(cond)
            state = _AFTER
            continue
        tag = None
        if _is_proto(side) and tok in _MONTAGS:
            tag = _MONTAGS[tok]
            tok = pop()
        expr = _resolve_side(side, tag, None, len(toks))
        if tok != _END:
            raise _Fail(len(toks), "trailing input %r" % (_shown(tok),))
        return expr


def _is_proto(side):
    """Whether a side is a monoid sum or value still waiting for a tag."""
    return side[0] in ("proto", "mval")


def _resolve_side(side, tag, other_kind, after):
    label, body = side
    if label in ("sr", "sm"):
        return body
    kind = tag or other_kind
    if label == "mval":
        if kind is None:
            kind = alg.MonoidKind.MIN if body == alg.INF else alg.MonoidKind.MAX
        return alg.MConst(kind, body)
    if kind is None:
        raise _Fail(after, "scaled sum needs a monoid tag")
    terms = []
    for chunk in body:
        if chunk[0] == "scaled":
            terms.append(alg.make_scaled(kind, chunk[1], chunk[2]))
        elif chunk[0] == "plainm":
            terms.append(alg.MConst(kind, chunk[1]))
        elif isinstance(chunk[1], alg.Const):
            terms.append(alg.MConst(kind, chunk[1].value))
        else:
            raise _Fail(after, "plain semiring summand inside a scaled sum")
    return alg.make_msum(kind, terms)


def _make_cond(left, theta, right, tag, after):
    """The conditional of two sides; errors point at the operator."""
    lexpr = _resolve_side(left, tag, right[1].kind if right[0] == "sm" else None, after)
    lkind = lexpr.kind if isinstance(lexpr, alg.MExpr) else None
    rexpr = _resolve_side(right, tag, lkind, after)
    if lkind is not None and isinstance(rexpr, alg.Expr):
        rexpr = _coerce_mconst(rexpr, lkind, after)
    elif isinstance(rexpr, alg.MExpr) and isinstance(lexpr, alg.Expr):
        lexpr = _coerce_mconst(lexpr, rexpr.kind, after)
    return alg.Cmp(lexpr, theta, rexpr)


def _coerce_mconst(expr, kind, after):
    if isinstance(expr, alg.Const):
        return alg.MConst(kind, expr.value)
    raise _Fail(after, "cannot compare a semiring expression with an aggregate")


def _token_starts(text):
    """The character offset of each token of ``text``.  Raises the
    ParseError of the first character that starts no token, at the end
    of the token before it."""
    starts = []
    end = 0
    for m in _SCAN_RE.finditer(text):
        if not _TOKEN_RE.fullmatch(m.group()):
            raise ParseError("unexpected character %r" % m.group(), end)
        starts.append(m.start())
        end = m.end()
    return starts


def parse_expr(text):
    """Parse an expression; returns an Expr or MExpr."""
    # Most annotation cells name one variable; those skip the parser.
    if _IDENT_RE.fullmatch(text):
        return alg.Var(text)
    try:
        return _parse(text)
    except _Fail as fail:
        after, message = fail.args
        starts = _token_starts(text)
        # The end of input follows the last token and has no position.
        raise ParseError(message, starts[len(starts) - after] if after else -1) from None
    except PvcError:
        # A stray character anywhere is reported before any other error.
        _token_starts(text)
        raise


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _format_mval(value):
    if value == alg.INF:
        return "+inf"
    if value == alg.NEG_INF:
        return "-inf"
    return str(value)


def _push_product(todo, factors):
    """Push factors to print joined by '*', a sum in parentheses."""
    for k in range(len(factors) - 1, -1, -1):
        factor = factors[k]
        if type(factor) is alg.Add:
            todo += (")", factor, "(")
        else:
            todo.append(factor)
        if k:
            todo.append("*")


def _push_terms(todo, terms):
    """Push monoid-sum terms to print joined by ' + '."""
    for k in range(len(terms) - 1, -1, -1):
        term = terms[k]
        if type(term) is alg.MConst:
            todo.append(_format_mval(term.value))
        else:
            todo.append("(x)" + _format_mval(term.value))
            _push_product(todo, alg.product_factors(term.weight))
        if k:
            todo.append(" + ")


def _side(expr, other):
    # A bare value opposite a monoid sum of its own kind reads back as
    # this monoid constant; anywhere else it would read as another node.
    if type(expr) is alg.MConst and type(other) is not alg.MConst and other.kind is expr.kind:
        return _format_mval(expr.value)
    return expr


def format_expr(expr):
    """Render an expression in the canonical textual syntax."""
    if isinstance(expr, str):
        raise TypeError("not an expression: %r" % (expr,))
    out = []
    # Expressions still to print and text to emit between them, the
    # next piece on top.
    todo = [expr]
    while todo:
        e = todo.pop()
        t = type(e)
        if t is str:
            out.append(e)
        elif t is alg.Var:
            out.append(e.name)
        elif t is alg.Mul:
            _push_product(todo, e.parts)
        elif t is alg.Add:
            parts = e.parts
            for k in range(len(parts) - 1, 0, -1):
                todo.append(parts[k])
                todo.append(" + ")
            todo.append(parts[0])
        elif t is alg.Const:
            out.append(str(e.value))
        elif t is alg.Cmp:
            out.append("[")
            todo += ("]", _side(e.right, e.left), " %s " % e.theta, _side(e.left, e.right))
        elif t is alg.MConst:
            out.append("%s{%s}" % (e.kind.value, _format_mval(e.value)))
        elif t is alg.Scaled or t is alg.MSum:
            out.append(e.kind.value + "{")
            todo.append("}")
            _push_terms(todo, e.terms if t is alg.MSum else (e,))
        else:
            raise TypeError("not an expression: %r" % (e,))
    return "".join(out)
