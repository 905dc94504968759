"""Recursive-descent SQL parser."""

from __future__ import annotations

from ....errors import SqlSyntaxError
from .ast import (AddColumn, Aggregate, BooleanOp, ColumnDef, ColumnRef,
                  Comparison, Condition, CreateIndex, CreateTable, Delete,
                  DropTable, InList, Insert, IsNull, LiteralValue, Join, Not,
                  OrderItem, RenameColumn, Scalar, Select, SelectItem, Star,
                  Statement, TableRef, Update)
from .lexer import Token, tokenize

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

#: Deepest parenthesis/NOT nesting a WHERE condition may use; deeper
#: conditions raise SqlSyntaxError instead of exhausting the stack.
MAX_CONDITION_DEPTH = 64


class _Parser:
    def __init__(self, statement: str) -> None:
        self.statement = statement
        self.tokens = tokenize(statement)
        self.index = 0
        self.depth = 0

    # -- plumbing ---------------------------------------------------------

    def error(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(f"{message} in SQL {self.statement!r}")

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of statement")
        self.index += 1
        return token

    def accept_keyword(self, *words: str) -> str | None:
        token = self.peek()
        if token is not None and token.kind == "keyword" and token.value in words:
            self.index += 1
            return token.value
        return None

    def expect_keyword(self, word: str) -> None:
        token = self.next()
        if token.kind != "keyword" or token.value != word:
            raise self.error(f"expected {word}, got {token.value!r}")

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

    def expect_name(self) -> str:
        return self.expect("name").value

    # -- entry point --------------------------------------------------------

    def parse(self) -> Statement:
        token = self.peek()
        if token is None:
            raise self.error("empty statement")
        if token.kind != "keyword":
            raise self.error(f"expected statement keyword, got {token.value!r}")
        dispatch = {
            "SELECT": self.select,
            "INSERT": self.insert,
            "UPDATE": self.update,
            "DELETE": self.delete,
            "CREATE": self.create,
            "DROP": self.drop,
            "ALTER": self.alter,
        }.get(token.value)
        if dispatch is None:
            raise self.error(f"unsupported statement: {token.value}")
        statement = dispatch()
        self.accept("semi")
        if self.peek() is not None:
            raise self.error(f"trailing tokens at {self.peek().value!r}")
        return statement

    # -- SELECT ---------------------------------------------------------

    def select(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT") is not None
        items = [self.select_item()]
        while self.accept("comma"):
            items.append(self.select_item())
        self.expect_keyword("FROM")
        table = self.table_ref()
        joins: list[Join] = []
        while True:
            kind = self.accept_keyword("JOIN", "INNER", "LEFT")
            if kind is None:
                break
            if kind in ("INNER", "LEFT"):
                self.expect_keyword("JOIN")
            join_kind = "LEFT" if kind == "LEFT" else "INNER"
            join_table = self.table_ref()
            self.expect_keyword("ON")
            condition = self.condition()
            joins.append(Join(join_table, join_kind, condition))
        where = None
        if self.accept_keyword("WHERE"):
            where = self.condition()
        group_by: list[ColumnRef] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.column_ref())
            while self.accept("comma"):
                group_by.append(self.column_ref())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.condition()
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.order_item())
            while self.accept("comma"):
                order_by.append(self.order_item())
        limit = None
        if self.accept_keyword("LIMIT"):
            limit_token = self.expect("number")
            limit = int(limit_token.value)
        return Select(tuple(items), table, tuple(joins), where,
                      tuple(group_by), having, tuple(order_by), limit,
                      distinct)

    def select_item(self) -> SelectItem:
        token = self.peek()
        if token is not None and token.kind == "star":
            self.index += 1
            return SelectItem(Star())
        if (token is not None and token.kind == "name"
                and token.value.upper() in _AGGREGATES
                and self._lookahead("lparen")):
            function = self.next().value.upper()
            self.expect("lparen")
            if self.accept("star"):
                argument = None
            else:
                argument = self.column_ref()
            self.expect("rparen")
            alias = self._alias()
            return SelectItem(Aggregate(function, argument, alias), alias)
        column = self.column_ref()
        star = self.peek()
        if (column.table is None and star is not None and star.kind == "star"
                and self.tokens[self.index - 1].kind == "dot"):
            # (unreachable with current column_ref; kept for clarity)
            pass
        alias = self._alias()
        return SelectItem(column, alias)

    def _alias(self) -> str | None:
        if self.accept_keyword("AS"):
            return self.expect_name()
        token = self.peek()
        if token is not None and token.kind == "name":
            self.index += 1
            return token.value
        return None

    def _lookahead(self, kind: str) -> bool:
        if self.index + 1 < len(self.tokens):
            return self.tokens[self.index + 1].kind == kind
        return False

    def table_ref(self) -> TableRef:
        name = self.expect_name()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_name()
        else:
            token = self.peek()
            if token is not None and token.kind == "name":
                self.index += 1
                alias = token.value
        return TableRef(name, alias)

    def order_item(self) -> OrderItem:
        column = self.column_ref()
        if self.accept_keyword("DESC"):
            return OrderItem(column, True)
        self.accept_keyword("ASC")
        return OrderItem(column, False)

    def column_ref(self) -> ColumnRef:
        first = self.expect_name()
        if self.accept("dot"):
            token = self.peek()
            if token is not None and token.kind == "star":
                raise self.error("qualified star is only valid as t.* in "
                                 "select list (unsupported)")
            second = self.expect_name()
            return ColumnRef(second, first)
        return ColumnRef(first)

    # -- conditions --------------------------------------------------------

    def condition(self) -> Condition:
        return self.or_condition()

    def or_condition(self) -> Condition:
        left = self.and_condition()
        while self.accept_keyword("OR"):
            left = BooleanOp("OR", left, self.and_condition())
        return left

    def and_condition(self) -> Condition:
        left = self.not_condition()
        while self.accept_keyword("AND"):
            left = BooleanOp("AND", left, self.not_condition())
        return left

    def nested(self, parse):
        """Run ``parse`` one nesting level deeper, bounded."""
        self.depth += 1
        if self.depth > MAX_CONDITION_DEPTH:
            raise self.error(
                f"condition nested deeper than {MAX_CONDITION_DEPTH}")
        node = parse()
        self.depth -= 1
        return node

    def not_condition(self) -> Condition:
        if self.accept_keyword("NOT"):
            return Not(self.nested(self.not_condition))
        return self.predicate()

    def predicate(self) -> Condition:
        if self.accept("lparen"):
            inner = self.nested(self.condition)
            self.expect("rparen")
            return inner
        operand = self.scalar()
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT") is not None
            self.expect_keyword("NULL")
            return IsNull(operand, negated)
        negated = self.accept_keyword("NOT") is not None
        if self.accept_keyword("IN"):
            self.expect("lparen")
            options = [self.scalar()]
            while self.accept("comma"):
                options.append(self.scalar())
            self.expect("rparen")
            return InList(operand, tuple(options), negated)
        if self.accept_keyword("LIKE"):
            right = self.scalar()
            comparison: Condition = Comparison("LIKE", operand, right)
            return Not(comparison) if negated else comparison
        if negated:
            raise self.error("expected IN or LIKE after NOT")
        token = self.next()
        operators = {"eq": "=", "ne": "!=", "lt": "<", "gt": ">",
                     "le": "<=", "ge": ">="}
        operator = operators.get(token.kind)
        if operator is None:
            raise self.error(f"expected comparison operator, got {token.value!r}")
        return Comparison(operator, operand, self.scalar())

    def scalar(self) -> Scalar:
        token = self.peek()
        if token is None:
            raise self.error("expected value")
        if token.kind == "number":
            self.index += 1
            text = token.value
            return LiteralValue(float(text) if "." in text else int(text))
        if token.kind == "string":
            self.index += 1
            return LiteralValue(token.value)
        if token.kind == "keyword" and token.value in ("TRUE", "FALSE", "NULL"):
            self.index += 1
            return LiteralValue({"TRUE": True, "FALSE": False,
                                 "NULL": None}[token.value])
        return self.column_ref()

    # -- DML ----------------------------------------------------------------

    def insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_name()
        self.expect("lparen")
        columns = [self.expect_name()]
        while self.accept("comma"):
            columns.append(self.expect_name())
        self.expect("rparen")
        self.expect_keyword("VALUES")
        rows: list[tuple[object, ...]] = []
        while True:
            self.expect("lparen")
            values = [self.literal_value()]
            while self.accept("comma"):
                values.append(self.literal_value())
            self.expect("rparen")
            if len(values) != len(columns):
                raise self.error(
                    f"INSERT has {len(columns)} columns but {len(values)} values")
            rows.append(tuple(values))
            if not self.accept("comma"):
                break
        return Insert(table, tuple(columns), tuple(rows))

    def literal_value(self) -> object:
        scalar = self.scalar()
        if not isinstance(scalar, LiteralValue):
            raise self.error("expected literal value")
        return scalar.value

    def update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_name()
        self.expect_keyword("SET")
        assignments: list[tuple[str, object]] = []
        while True:
            column = self.expect_name()
            token = self.next()
            if token.kind != "eq":
                raise self.error(f"expected '=', got {token.value!r}")
            assignments.append((column, self.literal_value()))
            if not self.accept("comma"):
                break
        where = self.condition() if self.accept_keyword("WHERE") else None
        return Update(table, tuple(assignments), where)

    def delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_name()
        where = self.condition() if self.accept_keyword("WHERE") else None
        return Delete(table, where)

    # -- DDL ----------------------------------------------------------------

    def create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("INDEX"):
            self.expect_keyword("ON")
            table = self.expect_name()
            self.expect("lparen")
            column = self.expect_name()
            self.expect("rparen")
            return CreateIndex(table, column)
        self.expect_keyword("TABLE")
        table = self.expect_name()
        self.expect("lparen")
        columns = [self.column_def()]
        while self.accept("comma"):
            columns.append(self.column_def())
        self.expect("rparen")
        return CreateTable(table, tuple(columns))

    def column_def(self) -> ColumnDef:
        name = self.expect_name()
        type_token = self.next()
        if type_token.kind not in ("name", "keyword"):
            raise self.error(f"expected column type, got {type_token.value!r}")
        declared = type_token.value
        if self.accept("lparen"):
            self.expect("number")
            self.expect("rparen")
        not_null = False
        if self.accept_keyword("NOT"):
            self.expect_keyword("NULL")
            not_null = True
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("KEY")
            not_null = True
        return ColumnDef(name, declared, not_null)

    def drop(self) -> DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        return DropTable(self.expect_name())

    def alter(self) -> Statement:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = self.expect_name()
        if self.accept_keyword("RENAME"):
            self.expect_keyword("COLUMN")
            old = self.expect_name()
            self.expect_keyword("TO")
            new = self.expect_name()
            return RenameColumn(table, old, new)
        if self.accept_keyword("ADD"):
            self.accept_keyword("COLUMN")
            return AddColumn(table, self.column_def())
        raise self.error("expected RENAME COLUMN or ADD COLUMN")


def parse_sql(statement: str) -> Statement:
    """Parse one SQL statement into its AST."""
    if not statement or not statement.strip():
        raise SqlSyntaxError("empty SQL statement")
    return _Parser(statement).parse()
