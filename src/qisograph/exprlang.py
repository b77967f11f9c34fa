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

The result is an int-word -> coefficient dict over the relation set's
alphabet (``rels.alphabet``), the form the rewriter reduces; its term
order is the order in which ``ncpoly.add`` and ``ncpoly.mul`` meet the
words from left to right.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ncpoly import Generator, IntTerms, QKIND, UKIND, USTAR, add, mul
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

    def parse(self) -> IntTerms:
        p = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self) -> IntTerms:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = add(p, q, 1 if op == "+" else -1)
        return p

    def term(self) -> IntTerms:
        p = self.factor()
        while self.peek() == "*":
            self.take("*")
            p = mul(p, self.factor())
        return p

    def factor(self) -> IntTerms:
        tok = self.peek()
        if tok == "-":
            self.take()
            return {w: -c for w, c in self.factor().items()}
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

    def rational(self) -> IntTerms:
        num = int(self.take())
        if self.peek() == "/":
            self.take("/")
            den = self.take()
            if not den.isdigit():
                raise ExpressionError("expected integer denominator")
            if int(den) == 0:
                raise ExpressionError("division by zero")
            num = Fraction(num, int(den))
        return {(): num} if num else {}

    def sum_expr(self) -> IntTerms:
        self.take("sum")
        self.take("(")
        name = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ExpressionError(f"bad summation variable {name!r}")
        if name in self.bound:
            raise ExpressionError(f"summation variable {name!r} already bound")
        self.take(",")
        start = self.pos
        total: IntTerms = {}
        for value in self.rels.universe:
            self.pos = start
            self.bound[name] = value
            total = add(total, self.expr())
        del self.bound[name]
        self.take(")")
        return total

    def generator(self) -> IntTerms:
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
        return {self.rels.alphabet.encode((Generator(kind, row, col),)): 1}

    def index(self) -> str:
        tok = self.take()
        if tok in self.bound:
            return self.bound[tok]
        if tok in self.rels.universe:
            return tok
        raise ExpressionError(
            f"index {tok!r} is neither a bound variable nor in the index set "
            f"{list(self.rels.universe)}")


def parse_expression(text: str, rels: RelationSet) -> IntTerms:
    parser = _Parser(_tokenize(text), rels)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
