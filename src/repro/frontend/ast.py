"""AST of the small C-like source language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


class SourceExpr:
    """Base class of source-language expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class SourceConst(SourceExpr):
    value: int


@dataclass(frozen=True)
class SourceVar(SourceExpr):
    name: str


@dataclass(frozen=True)
class SourceIndex(SourceExpr):
    """Array element access ``name[index]``."""

    name: str
    index: SourceExpr


@dataclass(frozen=True)
class SourceUnary(SourceExpr):
    operator: str
    operand: SourceExpr


@dataclass(frozen=True)
class SourceBinary(SourceExpr):
    operator: str
    left: SourceExpr
    right: SourceExpr


@dataclass
class VarDecl:
    """``int name;``"""

    name: str


@dataclass
class ArrayDecl:
    """``int name[size];``"""

    name: str
    size: int


@dataclass
class Assignment:
    """``target = expression;`` where target is a scalar or array element."""

    target_name: str
    target_index: SourceExpr = None
    expression: SourceExpr = None


@dataclass
class IfStatement:
    """``if (condition) { ... } [else { ... }]``."""

    condition: SourceExpr
    then_body: List["SourceStatement"] = field(default_factory=list)
    else_body: List["SourceStatement"] = field(default_factory=list)


@dataclass
class WhileStatement:
    """``while (condition) { ... }`` or ``do { ... } while (condition);``.

    ``test_first`` is ``True`` for the ``while`` form (condition checked
    before the first iteration) and ``False`` for ``do``/``while``.
    """

    condition: SourceExpr
    body: List["SourceStatement"] = field(default_factory=list)
    test_first: bool = True


#: Any statement the parser can produce.
SourceStatement = (Assignment, IfStatement, WhileStatement)


@dataclass
class SourceProgram:
    """One translation unit: declarations followed by statements.

    ``statements`` holds the top-level statement list (assignments and
    control-flow statements); ``assignments`` keeps the historical view of
    the top-level assignment statements only (the full list for the
    straight-line programs of the paper's experiments).
    """

    name: str
    scalars: List[VarDecl] = field(default_factory=list)
    arrays: List[ArrayDecl] = field(default_factory=list)
    statements: List[object] = field(default_factory=list)

    @property
    def assignments(self) -> List[Assignment]:
        return [s for s in self.statements if isinstance(s, Assignment)]

    def declared_names(self) -> Tuple[str, ...]:
        names = [decl.name for decl in self.scalars]
        names.extend(decl.name for decl in self.arrays)
        return tuple(names)
