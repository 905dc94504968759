"""Recursive-descent parser for the XPath subset.

Grammar (precedence low to high)::

    expr        := or_expr
    or_expr     := and_expr ("or" and_expr)*
    and_expr    := union_expr ("and" union_expr)*
    union_expr  := cmp_expr ("|" cmp_expr)*
    cmp_expr    := primary (("="|"!="|"<"|">"|"<="|">=") primary)?
    primary     := number | string | function_call | location_path | "(" expr ")"
    location_path := ("/" | "//")? step (("/" | "//") step)*
    step        := ("." | ".." | "@" name | name "(" ")" (text only)
                    | name | "*") predicate*
    predicate   := "[" expr "]"
"""

from __future__ import annotations

from ...errors import XPathError
from .ast import (AttributeTest, BooleanOp, Comparison, Expr, FunctionCall,
                  LocationPath, NameTest, NumberLiteral, ParentTest, SelfTest,
                  Step, StringLiteral, TextTest, Union_)
from .lexer import Token, tokenize

_FUNCTIONS = {
    "contains", "starts-with", "count", "position", "last",
    "normalize-space", "string", "number", "name", "not", "concat",
    "string-length", "substring",
}

#: Deepest nesting of sub-expressions (parentheses, predicates, function
#: arguments); deeper expressions raise XPathError instead of exhausting
#: the stack.
MAX_EXPR_DEPTH = 64


class _Parser:
    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.tokens = tokenize(expression)
        self.index = 0
        self.depth = 0

    def error(self, message: str) -> XPathError:
        return XPathError(f"{message} in XPath {self.expression!r}")

    def peek(self) -> Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of expression")
        self.index += 1
        return token

    def accept(self, kind: str) -> Token | None:
        token = self.peek()
        if token is not None and token.kind == kind:
            self.index += 1
            return token
        return None

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise self.error(f"expected {kind}, got {token.value!r}")
        return token

    # -- expression levels ----------------------------------------------

    def parse(self) -> Expr:
        expr = self.or_expr()
        if self.peek() is not None:
            raise self.error(f"trailing tokens starting at {self.peek().value!r}")
        return expr

    def or_expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_EXPR_DEPTH}")
        left = self.and_expr()
        while self._keyword("or"):
            left = BooleanOp("or", left, self.and_expr())
        self.depth -= 1
        return left

    def and_expr(self) -> Expr:
        left = self.union_expr()
        while self._keyword("and"):
            left = BooleanOp("and", left, self.union_expr())
        return left

    def _keyword(self, word: str) -> bool:
        token = self.peek()
        if token is not None and token.kind == "name" and token.value == word:
            self.index += 1
            return True
        return False

    def union_expr(self) -> Expr:
        left = self.cmp_expr()
        while self.accept("union"):
            left = Union_(left, self.cmp_expr())
        return left

    def cmp_expr(self) -> Expr:
        left = self.primary()
        token = self.peek()
        if token is not None and token.kind in ("eq", "ne", "lt", "gt", "le", "ge"):
            self.index += 1
            operator = {"eq": "=", "ne": "!=", "lt": "<", "gt": ">",
                        "le": "<=", "ge": ">="}[token.kind]
            return Comparison(operator, left, self.primary())
        return left

    def primary(self) -> Expr:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of expression")
        if token.kind == "number":
            self.index += 1
            return NumberLiteral(float(token.value))
        if token.kind == "string":
            self.index += 1
            return StringLiteral(token.value)
        if token.kind == "lparen":
            self.index += 1
            inner = self.or_expr()
            self.expect("rparen")
            return inner
        if (token.kind == "name" and token.value in _FUNCTIONS
                and self._lookahead_is("lparen") and token.value != "text"):
            return self.function_call()
        return self.location_path()

    def _lookahead_is(self, kind: str) -> bool:
        if self.index + 1 < len(self.tokens):
            return self.tokens[self.index + 1].kind == kind
        return False

    def function_call(self) -> Expr:
        name = self.expect("name").value
        self.expect("lparen")
        arguments: list[Expr] = []
        if self.peek() is not None and self.peek().kind != "rparen":
            arguments.append(self.or_expr())
            while self.accept("comma"):
                arguments.append(self.or_expr())
        self.expect("rparen")
        return FunctionCall(name, tuple(arguments))

    # -- location paths ---------------------------------------------------

    def location_path(self) -> LocationPath:
        absolute = False
        descendant = False
        if self.accept("dslash"):
            absolute = True
            descendant = True
        elif self.accept("slash"):
            absolute = True
        steps = [self.step(descendant)]
        while True:
            if self.accept("dslash"):
                steps.append(self.step(True))
            elif self.accept("slash"):
                steps.append(self.step(False))
            else:
                break
        return LocationPath(absolute, tuple(steps))

    def step(self, descendant: bool) -> Step:
        token = self.peek()
        if token is None:
            raise self.error("expected location step")
        if token.kind == "ddot":
            self.index += 1
            test: object = ParentTest()
        elif token.kind == "dot":
            self.index += 1
            test = SelfTest()
        elif token.kind == "at":
            self.index += 1
            name_token = self.next()
            if name_token.kind not in ("name", "star"):
                raise self.error(f"expected attribute name, got {name_token.value!r}")
            test = AttributeTest(name_token.value)
        elif token.kind == "star":
            self.index += 1
            test = NameTest("*")
        elif token.kind == "name":
            if token.value == "text" and self._lookahead_is("lparen"):
                self.index += 1
                self.expect("lparen")
                self.expect("rparen")
                test = TextTest()
            else:
                self.index += 1
                test = NameTest(token.value)
        else:
            raise self.error(f"expected location step, got {token.value!r}")

        predicates: list[Expr] = []
        while self.accept("lbracket"):
            predicates.append(self.or_expr())
            self.expect("rbracket")
        return Step(test, descendant, tuple(predicates))  # type: ignore[arg-type]


def parse_xpath(expression: str) -> Expr:
    """Parse an XPath expression string into its AST."""
    if not expression or not expression.strip():
        raise XPathError("empty XPath expression")
    return _Parser(expression).parse()
