"""Recursive-descent parser for the WebL subset."""

from __future__ import annotations

from ..errors import WeblSyntaxError
from .ast import (Assign, BinaryOp, BoolLit, Call, Each, Expr, ExprStmt, If,
                  Index, ListLit, Name, NilLit, NumberLit, Program, RegexLit,
                  Return, Stmt, StringLit, UnaryOp, VarDecl, While)
from .lexer import Token, tokenize

#: Deepest nesting of sub-expressions, unary operators and statement
#: blocks; deeper programs raise WeblSyntaxError instead of exhausting
#: the stack.
MAX_NESTING_DEPTH = 50


class _Parser:
    def __init__(self, program: str) -> None:
        self.tokens = tokenize(program)
        self.index = 0
        self.depth = 0

    def error(self, message: str) -> WeblSyntaxError:
        token = self.peek()
        return WeblSyntaxError(message, line=token.line if token else None)

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise WeblSyntaxError("unexpected end of program")
        self.index += 1
        return token

    def nested(self, parse):
        """Run ``parse`` one nesting level deeper, bounded."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise self.error(f"code nested deeper than {MAX_NESTING_DEPTH}")
        node = parse()
        self.depth -= 1
        return node

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.peek()
        if token is not None and token.kind == kind and (
                value is None or token.value == value):
            self.index += 1
            return token
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.next()
        if token.kind != kind or (value is not None and token.value != value):
            expected = value or kind
            raise WeblSyntaxError(
                f"expected {expected!r}, got {token.value!r}", line=token.line)
        return token

    # -- program ----------------------------------------------------------

    def parse(self) -> Program:
        body: list[Stmt] = []
        while self.peek() is not None:
            body.append(self.statement())
        return Program(tuple(body))

    def block(self) -> tuple[Stmt, ...]:
        self.expect("lbrace")
        body: list[Stmt] = []
        while not self.accept("rbrace"):
            if self.peek() is None:
                raise WeblSyntaxError("unterminated block")
            body.append(self.nested(self.statement))
        return tuple(body)

    def statement(self) -> Stmt:
        token = self.peek()
        if token is None:
            raise WeblSyntaxError("expected statement")
        if token.kind == "keyword":
            if token.value == "var":
                self.next()
                name = self.expect("name").value
                self.expect("assign")
                value = self.expression()
                self.expect("semi")
                return VarDecl(name, value)
            if token.value == "if":
                self.next()
                self.expect("lparen")
                condition = self.expression()
                self.expect("rparen")
                then_body = self.block()
                else_body: tuple[Stmt, ...] = ()
                if self.accept("keyword", "else"):
                    if self.peek() is not None and self.peek().kind == "keyword" \
                            and self.peek().value == "if":
                        else_body = (self.nested(self.statement),)
                    else:
                        else_body = self.block()
                return If(condition, then_body, else_body)
            if token.value == "while":
                self.next()
                self.expect("lparen")
                condition = self.expression()
                self.expect("rparen")
                return While(condition, self.block())
            if token.value == "each":
                self.next()
                variable = self.expect("name").value
                self.expect("keyword", "in")
                iterable = self.expression()
                return Each(variable, iterable, self.block())
            if token.value == "return":
                self.next()
                if self.accept("semi"):
                    return Return(None)
                value = self.expression()
                self.expect("semi")
                return Return(value)
        if token.kind == "name":
            # Distinguish `x = expr;` assignment from expression statements.
            if (self.index + 1 < len(self.tokens)
                    and self.tokens[self.index + 1].kind == "assign"):
                name = self.next().value
                self.next()  # '='
                value = self.expression()
                self.expect("semi")
                return Assign(name, value)
        expression = self.expression()
        self.expect("semi")
        return ExprStmt(expression)

    # -- expressions (precedence climbing) ---------------------------------

    def expression(self) -> Expr:
        return self.nested(self.or_expr)

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept("keyword", "or"):
            left = BinaryOp("or", left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.comparison()
        while self.accept("keyword", "and"):
            left = BinaryOp("and", left, self.comparison())
        return left

    def comparison(self) -> Expr:
        left = self.additive()
        token = self.peek()
        if token is not None and token.kind in ("eq", "ne", "lt", "gt", "le", "ge"):
            self.index += 1
            operator = {"eq": "==", "ne": "!=", "lt": "<", "gt": ">",
                        "le": "<=", "ge": ">="}[token.kind]
            return BinaryOp(operator, left, self.additive())
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            if self.accept("plus"):
                left = BinaryOp("+", left, self.multiplicative())
            elif self.accept("minus"):
                left = BinaryOp("-", left, self.multiplicative())
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            if self.accept("star"):
                left = BinaryOp("*", left, self.unary())
            elif self.accept("slash"):
                left = BinaryOp("/", left, self.unary())
            elif self.accept("percent"):
                left = BinaryOp("%", left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.accept("minus"):
            return UnaryOp("-", self.nested(self.unary))
        if self.accept("keyword", "not"):
            return UnaryOp("not", self.nested(self.unary))
        return self.postfix()

    def postfix(self) -> Expr:
        expr = self.primary()
        while True:
            if self.accept("lbracket"):
                index = self.expression()
                self.expect("rbracket")
                expr = Index(expr, index)
            else:
                return expr

    def primary(self) -> Expr:
        token = self.next()
        if token.kind == "number":
            text = token.value
            return NumberLit(float(text) if "." in text else int(text))
        if token.kind == "string":
            return StringLit(token.value)
        if token.kind == "regex":
            return RegexLit(token.value)
        if token.kind == "keyword":
            if token.value == "true":
                return BoolLit(True)
            if token.value == "false":
                return BoolLit(False)
            if token.value == "nil":
                return NilLit()
            raise WeblSyntaxError(
                f"unexpected keyword {token.value!r} in expression",
                line=token.line)
        if token.kind == "lparen":
            inner = self.expression()
            self.expect("rparen")
            return inner
        if token.kind == "lbracket":
            items: list[Expr] = []
            if not self.accept("rbracket"):
                items.append(self.expression())
                while self.accept("comma"):
                    items.append(self.expression())
                self.expect("rbracket")
            return ListLit(tuple(items))
        if token.kind == "name":
            if self.accept("lparen"):
                arguments: list[Expr] = []
                if not self.accept("rparen"):
                    arguments.append(self.expression())
                    while self.accept("comma"):
                        arguments.append(self.expression())
                    self.expect("rparen")
                return Call(token.value, tuple(arguments))
            return Name(token.value)
        raise WeblSyntaxError(
            f"unexpected token {token.value!r}", line=token.line)


def parse_webl(program: str) -> Program:
    """Parse a WebL program into its AST."""
    if not program or not program.strip():
        raise WeblSyntaxError("empty WebL program")
    return _Parser(program).parse()
