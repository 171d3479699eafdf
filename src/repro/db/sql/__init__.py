"""A small SQL engine.

The paper implements its time-travel database by *rewriting SQL queries*
issued by the application against PostgreSQL (§4.4, §6).  This package is
the front half of the substrate that replaces PostgreSQL, for the SQL
subset the applications use: a lexer, a parser, the AST and the
compiler from expressions to Python closures (:mod:`repro.db.sql.compile`,
the one evaluator).  Statements are planned and executed one level up (:mod:`repro.db.planner`, :mod:`repro.db.executor`).

Supported statements::

    SELECT expr [AS name], ... | * FROM t [WHERE e] [ORDER BY c [DESC], ...] [LIMIT n]
    INSERT INTO t (c1, c2) VALUES (v1, v2), ...
    UPDATE t SET c1 = e1, ... [WHERE e]
    DELETE FROM t [WHERE e]

Expressions support literals, ``?`` parameters, column references,
arithmetic, string concatenation (``||``), comparisons, ``AND/OR/NOT``,
``IN``, ``LIKE``, ``BETWEEN``, ``IS [NOT] NULL`` and a handful of scalar
and aggregate functions.
"""

from repro.db.sql.ast import (
    Aggregate,
    BinaryOp,
    Between,
    ColumnRef,
    Delete,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Like,
    Literal,
    OrderItem,
    Param,
    Select,
    SelectItem,
    Statement,
    UnaryOp,
    Update,
)
from repro.db.sql.lexer import Token, tokenize
from repro.db.sql.parser import parse

__all__ = [
    "tokenize",
    "Token",
    "parse",
    "Statement",
    "Select",
    "Insert",
    "Update",
    "Delete",
    "SelectItem",
    "OrderItem",
    "Literal",
    "Param",
    "ColumnRef",
    "BinaryOp",
    "UnaryOp",
    "InList",
    "Like",
    "Between",
    "IsNull",
    "FuncCall",
    "Aggregate",
]
