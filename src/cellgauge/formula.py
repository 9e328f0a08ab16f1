"""Lexing and parsing of spreadsheet formulas into an abstract syntax tree.

The grammar covers numeric/string/boolean literals, A1-style cell references
with optional ``$`` markers and sheet qualifiers, ranges (``ref:ref``),
function calls, the infix operators ``+ - * / ^ &`` and the six comparisons,
unary minus, the postfix percent, and parentheses. Precedence, loosest to
tightest: comparison, concatenation (``&``), additive, multiplicative,
exponent (``^``, left-associative), unary minus, percent.

Token classification follows the operator/operand split used throughout the
metrics: function names and operator symbols are operators; literals, cell
references and ranges are operands (a range is a single operand). Parentheses
and argument commas are punctuation, not tokens. The nesting level of a token
is one plus the number of enclosing function calls; operators and grouping
parentheses do not add nesting.

Parentheses and function calls may nest at most :data:`MAX_NESTING` levels
deep (Excel's limit on nested functions), and a run of prefix minus signs
may be at most that long; deeper formulas raise :class:`FormulaSyntaxError`,
so the parser's call stack stays bounded.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import EmptyFormulaError, FormulaSyntaxError, UnbalancedParensError
from .refs import CellRef, RangeRef, letters_to_column, unquote_sheet_name


# --- AST -----------------------------------------------------------------

@dataclass(frozen=True)
class NumberLiteral:
    value: float


@dataclass(frozen=True)
class StringLiteral:
    value: str


@dataclass(frozen=True)
class BoolLiteral:
    value: bool


@dataclass(frozen=True)
class CellRefNode:
    ref: CellRef


@dataclass(frozen=True)
class RangeRefNode:
    ref: RangeRef


@dataclass(frozen=True)
class UnaryOp:
    op: str  # "-" (prefix) or "%" (postfix)
    child: "AstNode"


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "AstNode"
    right: "AstNode"


@dataclass(frozen=True)
class FunctionCall:
    name: str  # stored upper-cased
    args: tuple["AstNode", ...]


AstNode = Union[
    NumberLiteral,
    StringLiteral,
    BoolLiteral,
    CellRefNode,
    RangeRefNode,
    UnaryOp,
    BinaryOp,
    FunctionCall,
]


@dataclass(frozen=True)
class FormulaAst:
    root: AstNode
    source: str


def child_nodes(node: AstNode) -> tuple[AstNode, ...]:
    """Ordered children of a node; the index order defines AST paths."""
    if isinstance(node, UnaryOp):
        return (node.child,)
    if isinstance(node, BinaryOp):
        return (node.left, node.right)
    if isinstance(node, FunctionCall):
        return node.args
    return ()


def walk(node: AstNode) -> Iterator[AstNode]:
    """Pre-order traversal of a subtree."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(child_nodes(n)))


# --- Lexer ---------------------------------------------------------------

_WS = re.compile(r"[ \t\r\n]+")
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_REF = re.compile(
    r"(?:(?P<sheet>'(?:[^']|'')+'|[A-Za-z_][A-Za-z0-9_]*)!)?"
    r"(?P<colabs>\$?)(?P<col>[A-Za-z]{1,3})(?P<rowabs>\$?)(?P<row>[0-9]+)"
    r"(?![A-Za-z0-9_$])"
)
_OPERATORS = ("<=", ">=", "<>", "=", "<", ">", "+", "-", "*", "/", "^", "&", "%")


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER STRING REF NAME OP LPAREN RPAREN COMMA COLON EOF
    text: str
    offset: int
    value: object = None


def _lex(text: str, base_offset: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ws = _WS.match(text, i)
        if ws:
            i = ws.end()
            continue
        off = base_offset + i
        ch = text[i]
        if ch == '"':
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise FormulaSyntaxError("unterminated string literal", off)
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        parts.append('"')
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(_Token("STRING", text[i : j + 1], off, "".join(parts)))
            i = j + 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), off, float(m.group())))
            i = m.end()
            continue
        m = _REF.match(text, i)
        # A name followed by "(" is a function call even when it looks like a
        # cell reference (e.g. LOG10); names with a sheet prefix never are.
        if m and not (
            m.group("sheet") is None
            and m.end() < n
            and text[m.end()] == "("
            and not m.group("colabs")
            and not m.group("rowabs")
        ):
            row = int(m.group("row"))
            if row < 1:
                raise FormulaSyntaxError("row index must be >= 1", off)
            sheet = m.group("sheet")
            ref = CellRef(
                sheet=unquote_sheet_name(sheet) if sheet else None,
                column=letters_to_column(m.group("col")),
                row=row,
                col_absolute=m.group("colabs") == "$",
                row_absolute=m.group("rowabs") == "$",
            )
            tokens.append(_Token("REF", m.group(), off, ref))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(_Token("NAME", m.group(), off))
            i = m.end()
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, off))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, off))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("COMMA", ch, off))
            i += 1
            continue
        if ch == ":":
            tokens.append(_Token("COLON", ch, off))
            i += 1
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(_Token("OP", op, off))
                i += len(op)
                break
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", off)
    tokens.append(_Token("EOF", "", base_offset + n))
    return tokens


# --- Parser --------------------------------------------------------------

_COMPARISON = ("=", "<>", "<", "<=", ">", ">=")

MAX_NESTING = 64


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.paren_depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def at_op(self, *symbols: str) -> bool:
        return self.current.kind == "OP" and self.current.text in symbols

    def open_paren(self, tok: _Token) -> None:
        self.paren_depth += 1
        if self.paren_depth > MAX_NESTING:
            raise FormulaSyntaxError(
                f"more than {MAX_NESTING} nested parentheses or calls", tok.offset
            )

    def parse(self) -> AstNode:
        node = self.expression()
        tok = self.current
        if tok.kind == "RPAREN":
            raise UnbalancedParensError("unmatched ')'", tok.offset)
        if tok.kind != "EOF":
            raise FormulaSyntaxError(f"unexpected {tok.text!r}", tok.offset)
        return node

    def expression(self) -> AstNode:
        node = self.concat()
        while self.at_op(*_COMPARISON):
            op = self.advance().text
            node = BinaryOp(op, node, self.concat())
        return node

    def concat(self) -> AstNode:
        node = self.additive()
        while self.at_op("&"):
            self.advance()
            node = BinaryOp("&", node, self.additive())
        return node

    def additive(self) -> AstNode:
        node = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = BinaryOp(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> AstNode:
        node = self.exponent()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = BinaryOp(op, node, self.exponent())
        return node

    def exponent(self) -> AstNode:
        node = self.unary()
        while self.at_op("^"):
            self.advance()
            node = BinaryOp("^", node, self.unary())
        return node

    def unary(self) -> AstNode:
        signs = 0
        while self.at_op("-"):
            tok = self.advance()
            signs += 1
            if signs > MAX_NESTING:
                raise FormulaSyntaxError(
                    f"more than {MAX_NESTING} consecutive minus signs", tok.offset
                )
        node = self.postfix()
        for _ in range(signs):
            node = UnaryOp("-", node)
        return node

    def postfix(self) -> AstNode:
        node = self.primary()
        while self.at_op("%"):
            self.advance()
            node = UnaryOp("%", node)
        return node

    def primary(self) -> AstNode:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            return NumberLiteral(tok.value)
        if tok.kind == "STRING":
            self.advance()
            return StringLiteral(tok.value)
        if tok.kind == "REF":
            self.advance()
            return self.ref_or_range(tok)
        if tok.kind == "NAME":
            return self.name()
        if tok.kind == "LPAREN":
            self.open_paren(self.advance())
            node = self.expression()
            if self.current.kind != "RPAREN":
                raise UnbalancedParensError("missing ')'", self.current.offset)
            self.advance()
            self.paren_depth -= 1
            return node
        if tok.kind == "EOF":
            if self.paren_depth:
                raise UnbalancedParensError(
                    "unexpected end of formula inside parentheses", tok.offset
                )
            raise FormulaSyntaxError("unexpected end of formula", tok.offset)
        raise FormulaSyntaxError(f"unexpected {tok.text!r}", tok.offset)

    def ref_or_range(self, tok: _Token) -> AstNode:
        start: CellRef = tok.value
        if self.current.kind != "COLON":
            return CellRefNode(start)
        self.advance()
        end_tok = self.current
        if end_tok.kind != "REF":
            raise FormulaSyntaxError("expected cell reference after ':'", end_tok.offset)
        self.advance()
        end: CellRef = end_tok.value
        if end.sheet is not None and start.sheet is not None:
            if end.sheet.casefold() != start.sheet.casefold():
                raise FormulaSyntaxError(
                    "range endpoints on different sheets", end_tok.offset
                )
        if end.sheet is not None and start.sheet is None:
            raise FormulaSyntaxError(
                "sheet qualifier belongs on the range start", end_tok.offset
            )
        return RangeRefNode(RangeRef.normalized(start, end.with_sheet(start.sheet) if start.sheet else end))

    def name(self) -> AstNode:
        tok = self.advance()
        if self.current.kind == "LPAREN":
            self.open_paren(self.advance())
            args: list[AstNode] = []
            if self.current.kind == "RPAREN":
                self.advance()
            else:
                while True:
                    args.append(self.expression())
                    if self.current.kind == "COMMA":
                        self.advance()
                        continue
                    if self.current.kind == "RPAREN":
                        self.advance()
                        break
                    if self.current.kind == "EOF":
                        raise UnbalancedParensError(
                            "missing ')' in function call", self.current.offset
                        )
                    raise FormulaSyntaxError(
                        f"unexpected {self.current.text!r} in argument list",
                        self.current.offset,
                    )
            self.paren_depth -= 1
            return FunctionCall(tok.text.upper(), tuple(args))
        upper = tok.text.upper()
        if upper == "TRUE":
            return BoolLiteral(True)
        if upper == "FALSE":
            return BoolLiteral(False)
        raise FormulaSyntaxError(f"unexpected name {tok.text!r}", tok.offset)


def parse_formula(text: str) -> FormulaAst:
    """Parse a formula string (must begin with ``=``) into an AST."""
    if not text:
        raise EmptyFormulaError("empty formula", 0)
    if not text.startswith("="):
        raise FormulaSyntaxError("formula must start with '='", 0)
    body = text[1:]
    if not body.strip():
        raise EmptyFormulaError("formula has no expression after '='", 1)
    tokens = _lex(body, base_offset=1)
    root = _Parser(tokens).parse()
    return FormulaAst(root=root, source=text)


# --- Rendering -----------------------------------------------------------

_PREC = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}
_UNARY_PREC = 6
_PERCENT_PREC = 7
_ATOM_PREC = 100


def render_number(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _atom_text(node: AstNode) -> Optional[str]:
    """The text of a leaf node; None for an operator or a call."""
    if isinstance(node, NumberLiteral):
        return render_number(node.value)
    if isinstance(node, StringLiteral):
        return '"' + node.value.replace('"', '""') + '"'
    if isinstance(node, BoolLiteral):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, (CellRefNode, RangeRefNode)):
        return node.ref.render()
    return None


def _render(node: AstNode) -> tuple[str, int]:
    """Text and precedence of a subtree, with minimal parentheses.

    An explicit stack, so a long flat chain such as A1+A1+...+A1 needs no
    deep call stack: a node is pushed again above its children and combined
    when popped the second time, from its children's (text, precedence)
    results on ``done``.
    """
    done: list[tuple[str, int]] = []
    stack: list[tuple[AstNode, bool]] = [(node, False)]
    while stack:
        n, children_done = stack.pop()
        if not children_done:
            text = _atom_text(n)
            if text is not None:
                done.append((text, _ATOM_PREC))
                continue
            stack.append((n, True))
            if isinstance(n, UnaryOp):
                stack.append((n.child, False))
            elif isinstance(n, BinaryOp):
                stack.append((n.right, False))
                stack.append((n.left, False))
            elif isinstance(n, FunctionCall):
                stack.extend((arg, False) for arg in reversed(n.args))
            else:
                raise TypeError(f"not an AST node: {n!r}")
        elif isinstance(n, UnaryOp):
            text, prec = done.pop()
            if n.op == "%":
                if prec < _PERCENT_PREC:
                    text = f"({text})"
                done.append((text + "%", _PERCENT_PREC))
            else:
                if prec < _UNARY_PREC:
                    text = f"({text})"
                done.append(("-" + text, _UNARY_PREC))
        elif isinstance(n, BinaryOp):
            prec = _PREC[n.op]
            right, rprec = done.pop()
            left, lprec = done.pop()
            if lprec < prec:
                left = f"({left})"
            if rprec <= prec:
                right = f"({right})"
            done.append((f"{left}{n.op}{right}", prec))
        else:
            first = len(done) - len(n.args)
            args = ", ".join(text for text, _ in done[first:])
            del done[first:]
            done.append((f"{n.name}({args})", _ATOM_PREC))
    return done[0]


def render_formula(ast: FormulaAst | AstNode) -> str:
    """Formula text for an AST, with minimal parentheses and a leading ``=``."""
    node = ast.root if isinstance(ast, FormulaAst) else ast
    return "=" + _render(node)[0]


# --- Token classification ------------------------------------------------

@dataclass(frozen=True)
class ClassifiedToken:
    kind: str  # "operator" | "operand"
    nesting_level: int
    text: str


def classify_tokens(ast: FormulaAst | AstNode) -> list[ClassifiedToken]:
    """Flatten an AST into operator/operand tokens with nesting levels.

    The root expression sits at level 1; each function call argument list is
    one level deeper than the call's own name token.
    """
    node = ast.root if isinstance(ast, FormulaAst) else ast
    out: list[ClassifiedToken] = []
    # An explicit stack, so a long flat chain such as A1+A1+...+A1 (a
    # left-deep BinaryOp tree) needs no deep call stack. A token on the stack
    # is emitted when popped, after the subtree pushed above it.
    stack: list[tuple[Union[AstNode, ClassifiedToken], int]] = [(node, 1)]
    while stack:
        n, level = stack.pop()
        if isinstance(n, (NumberLiteral, StringLiteral, BoolLiteral, CellRefNode, RangeRefNode)):
            out.append(ClassifiedToken("operand", level, _atom_text(n)))
        elif isinstance(n, BinaryOp):
            out.append(ClassifiedToken("operator", level, n.op))
            stack.append((n.right, level))
            stack.append((n.left, level))
        elif isinstance(n, FunctionCall):
            out.append(ClassifiedToken("operator", level, n.name))
            stack.extend((arg, level + 1) for arg in reversed(n.args))
        elif isinstance(n, UnaryOp):
            if n.op == "%":
                stack.append((ClassifiedToken("operator", level, "%"), level))
            else:
                out.append(ClassifiedToken("operator", level, n.op))
            stack.append((n.child, level))
        elif isinstance(n, ClassifiedToken):
            out.append(n)
        else:
            raise TypeError(f"not an AST node: {n!r}")
    return out
