"""Tiny expression language for ad-hoc reductions.

Grammar::

    expr      := term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := rational | generator | sum | '(' expr ')' | '-' factor
    generator := ('q'|'u'|'u*') '[' index ',' index ']'
    sum       := 'sum' '(' name ',' expr ')'
    rational  := INT ('/' INT)?

An index is either a literal id from the relation set's index universe
or a name bound by an enclosing sum, which ranges over the whole
universe.  An integer literal is an int coefficient; only a quotient
makes a Fraction.  A zero denominator or nesting too deep for the
recursive descent is an ``ExpressionError``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ncpoly import Generator, NCPoly, QKIND, UKIND, USTAR
from .relations import RelationSet


class ExpressionError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<sym>[+\-*/()\[\],]))")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExpressionError(f"bad character at position {pos}: {text[pos]!r}")
            break
        out.append(m.group(m.lastgroup))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str], rels: RelationSet):
        self.tokens = tokens
        self.pos = 0
        self.rels = rels
        #: summation variable -> the index it stands for in the body
        #: being parsed
        self.bound: dict[str, str] = {}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ExpressionError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> NCPoly:
        p = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self) -> NCPoly:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> NCPoly:
        p = self.factor()
        while self.peek() == "*":
            self.take("*")
            p = p * self.factor()
        return p

    def factor(self) -> NCPoly:
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.factor()
        if tok == "(":
            self.take("(")
            p = self.expr()
            self.take(")")
            return p
        if tok == "sum":
            return self.sum_expr()
        if tok in ("q", "u"):
            return self.generator()
        if tok is not None and tok.isdigit():
            return self.rational()
        raise ExpressionError(f"unexpected token {tok!r}")

    def rational(self) -> NCPoly:
        num = int(self.take())
        if self.peek() == "/":
            self.take("/")
            den = self.take()
            if not den.isdigit():
                raise ExpressionError("expected integer denominator")
            if int(den) == 0:
                raise ExpressionError("division by zero")
            return NCPoly.one().scale(Fraction(num, int(den)))
        return NCPoly.one().scale(num)

    def sum_expr(self) -> NCPoly:
        self.take("sum")
        self.take("(")
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ExpressionError(f"bad summation variable {name!r}")
        if name in self.bound:
            raise ExpressionError(f"summation variable {name!r} already bound")
        self.take(",")
        start = self.pos
        total = None
        for value in self.rels.universe:
            self.pos = start
            self.bound[name] = value
            body = self.expr()
            total = body if total is None else total + body
        del self.bound[name]
        self.take(")")
        return total if total is not None else NCPoly.zero()

    def generator(self) -> NCPoly:
        head = self.take()
        kind = QKIND if head == "q" else UKIND
        if head == "u" and self.peek() == "*":
            self.take("*")
            kind = USTAR
        if kind in (UKIND, USTAR) and self.rels.gen_kind != UKIND:
            raise ExpressionError("free-unitary generators need a free-unitary relation set")
        if kind == QKIND and self.rels.gen_kind != QKIND:
            raise ExpressionError("magic generators need a magic or qaut relation set")
        self.take("[")
        row = self.index()
        self.take(",")
        col = self.index()
        self.take("]")
        return NCPoly.gen(Generator(kind, row, col))

    def index(self) -> str:
        tok = self.take()
        if tok in self.bound:
            return self.bound[tok]
        if tok in self.rels.universe:
            return tok
        raise ExpressionError(
            f"index {tok!r} is neither a bound variable nor in the index set "
            f"{list(self.rels.universe)}")


def parse_expression(text: str, rels: RelationSet) -> NCPoly:
    parser = _Parser(_tokenize(text), rels)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
