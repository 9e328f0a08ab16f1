"""Lexing and parsing of spreadsheet formulas into an abstract syntax tree.

The grammar covers numeric/string/boolean literals, A1-style cell references
with optional ``$`` markers and sheet qualifiers, ranges (``ref:ref``),
function calls, the infix operators ``+ - * / ^ &`` and the six comparisons,
unary minus, the postfix percent, and parentheses. Precedence, loosest to
tightest: comparison, concatenation (``&``), additive, multiplicative,
exponent (``^``, left-associative), unary minus, percent. The binary levels
are one table, ``_PREC``, which the parser and the renderer share: the
parser climbs it, and the renderer reads it to place parentheses.

Token classification follows the operator/operand split used throughout the
metrics: function names and operator symbols are operators; literals, cell
references and ranges are operands (a range is a single operand). Parentheses
and argument commas are punctuation, not tokens. The nesting level of a token
is one plus the number of enclosing function calls; operators and grouping
parentheses do not add nesting.

Parentheses and function calls may nest at most :data:`MAX_NESTING` levels
deep (Excel's limit on nested functions), and a run of prefix minus signs
may be at most that long; deeper formulas raise :class:`FormulaSyntaxError`,
so the parser's call stack stays bounded. AST nodes compare, hash and
print (``repr``) structurally, on an explicit stack, so a long flat chain
needs no deep call stack there either.

What a token is, is defined once, by the lexer's pattern ``_TOKEN``, which
embeds ``refs.REFERENCE`` for a cell reference.

A formula's *shape* is the formula up to the shift of its relative
references: ``=A1*2`` in B1 and ``=A2*2`` in B2 share one. :func:`shape_keys`
keys texts by shape a *skeleton* at a time (the text with each letter and
digit replaced by its class, which copies mostly share): one scan with
``_TOKEN`` cuts every text of a skeleton, and each key part is taken for
them all in one C-level pass. A :class:`FormulaShape` keeps what the audit
needs of the formula's structure, not the AST: counts, nesting, decisions,
the shift key split at the reference leaves, each leaf as its key's parts,
and the IF layout. A copy is then its shape plus its cell:
``FormulaShape.references`` gives its reference leaves. Texts that differ
only in their numbers and in their references' column letters and row
digits share a :func:`template_key`, and with it one parse and one walk
(:class:`Template`). Every shape is built one way: from its template, its
text's number tokens and its shape key.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, repeat
from operator import itemgetter, sub
import re
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (EmptyFormulaError, FormulaSyntaxError, UnbalancedParensError,
                     _Record, _set)
from .refs import (MAX_COLUMN, REFERENCE, CellRef, RangeRef, letters_to_column,
                   ref_from_match, unquote_sheet_name)


# --- AST -----------------------------------------------------------------

class _Node(_Record):
    """Structural ``==``, ``hash`` and ``repr`` for AST nodes, computed with an
    explicit stack, so a 2,000-term flat sum compares, hashes and prints
    without recursion."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return ast_equal(self, other)

    def __hash__(self):
        return ast_hash(self)

    def __repr__(self):
        return ast_repr(self)


class NumberLiteral(_Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class StringLiteral(_Node):
    __slots__ = ("value",)

    def __init__(self, value: str):
        _set(self, "value", value)


class BoolLiteral(_Node):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        _set(self, "value", value)


class CellRefNode(_Node):
    __slots__ = ("ref",)

    def __init__(self, ref: CellRef):
        _set(self, "ref", ref)


class RangeRefNode(_Node):
    __slots__ = ("ref",)

    def __init__(self, ref: RangeRef):
        _set(self, "ref", ref)


class UnaryOp(_Node):
    __slots__ = ("op", "child")

    def __init__(self, op: str, child: "AstNode"):
        _set(self, "op", op)  # "-" (prefix) or "%" (postfix)
        _set(self, "child", child)


class BinaryOp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "AstNode", right: "AstNode"):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class FunctionCall(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple["AstNode", ...]):
        _set(self, "name", name)  # stored upper-cased
        _set(self, "args", args)


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


class FormulaAst(NamedTuple):
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


def _label(node: AstNode) -> object:
    """What a node holds besides its children."""
    if isinstance(node, (UnaryOp, BinaryOp)):
        return node.op
    if isinstance(node, FunctionCall):
        return node.name
    if isinstance(node, (CellRefNode, RangeRefNode)):
        return node.ref
    return node.value


def _signature(node: AstNode) -> tuple:
    """Each node's type, label and child count, in pre-order. With the child
    counts the order fixes the tree's shape, so two subtrees are equal when
    their signatures are; a tuple compares its items by identity first, so
    a NaN literal equals only itself."""
    return tuple((type(n), _label(n), len(child_nodes(n))) for n in walk(node))


def ast_equal(a: AstNode, b: AstNode) -> bool:
    """Structural equality of two subtrees: equal signatures."""
    return a is b or _signature(a) == _signature(b)


def ast_hash(node: AstNode) -> int:
    """A hash consistent with :func:`ast_equal`: the signature's."""
    return hash(_signature(node))


def ast_repr(node: AstNode) -> str:
    """The text a record's ``repr`` gives for a subtree, ``Name(field=value,
    ...)`` with each field's value in turn, built on an explicit stack: a
    str on the stack is emitted as is when popped, a node is replaced by its
    pieces."""
    parts: list[str] = []
    stack: list[Union[AstNode, str]] = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            parts.append(n)
            continue
        items: list[Union[AstNode, str]] = [type(n).__qualname__ + "("]
        for i, name in enumerate(n._fields):
            value = getattr(n, name)
            items.append(f"{', ' if i else ''}{name}=")
            if isinstance(value, _Node):
                items.append(value)
            elif isinstance(value, tuple):  # FunctionCall.args
                items.append("(")
                for j, arg in enumerate(value):
                    items.extend((", ", arg) if j else (arg,))
                items.append(",)" if len(value) == 1 else ")")
            else:
                items.append(repr(value))
        items.append(")")
        stack.extend(reversed(items))
    return "".join(parts)


# --- Lexer ---------------------------------------------------------------

# One token, named by the group that matched it; alternatives are tried in
# order, so a number or a reference wins over a name. A string closes at
# the first quote run of odd length; ``""`` inside it stands for one quote.
# Its body is matched as runs of other characters joined by ``""`` pairs,
# so the engine keeps no backtracking state per character. A quote that
# opens no complete string is an unterminated one; no match means no token
# starts at that character. The lexer and the shape scan both cut with this
# one pattern.
_TOKEN = re.compile(
    r'(?P<WS>[ \t\r\n]+)|(?P<STRING>"[^"]*(?:""[^"]*)*"(?!"))|(?P<UNTERMINATED>")'
    r"|(?P<NUMBER>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    rf"|(?P<REF>{REFERENCE})|(?P<NAME>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<COLON>:)"
    r"|(?P<OP><=|>=|<>|[=<>+\-*/^&%])"
)


class _Token(NamedTuple):
    kind: str  # NUMBER STRING REF NAME OP LPAREN RPAREN COMMA COLON EOF
    text: str
    offset: int
    value: object = None


def _lex(text: str, base_offset: int) -> list[_Token]:
    tokens: list[_Token] = []
    match = _TOKEN.match
    i = 0
    n = len(text)
    while i < n:
        off = base_offset + i
        m = match(text, i)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", off)
        kind = m.lastgroup
        i = m.end()
        if kind == "WS":
            continue
        token = m.group()
        value = None
        if kind == "STRING":
            value = token[1:-1].replace('""', '"')
        elif kind == "NUMBER":
            value = float(token)
        elif kind == "REF":
            try:
                value = ref_from_match(m)
            except ValueError as exc:
                raise FormulaSyntaxError(str(exc), off) from None
        elif kind == "UNTERMINATED":
            raise FormulaSyntaxError("unterminated string literal", off)
        tokens.append(_Token(kind, token, off, value))
    tokens.append(_Token("EOF", "", base_offset + n))
    return tokens


# --- Parser --------------------------------------------------------------

# The one definition of binary precedence, loosest (1) to tightest; every
# level is left-associative. The parser climbs it and the renderer reads it
# to place the fewest parentheses.
_PREC = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}
_TIGHTEST = max(_PREC.values())

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

    def expression(self, loosest: int = 1) -> AstNode:
        """The longest expression at the front whose binary operators all
        bind at ``loosest`` or tighter, by precedence climbing over
        ``_PREC``: every level is left-associative, and an operand of the
        tightest level is a ``unary``, so a parenthesis level costs at most
        ``_TIGHTEST`` + 3 frames."""
        node = self.unary()
        while True:
            tok = self.current
            prec = _PREC.get(tok.text, 0) if tok.kind == "OP" else 0
            if prec < loosest:
                return node
            self.advance()
            right = self.unary() if prec == _TIGHTEST else self.expression(prec + 1)
            node = BinaryOp(tok.text, node, right)

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
        return RangeRefNode(_copy_range(start, end))

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
    deep call stack: a node is pushed again with a None on it, beneath its
    children, and combined when the None is popped, from its children's
    (text, precedence) results on ``done``.
    """
    done: list[tuple[str, int]] = []
    stack: list[Optional[AstNode]] = [node]
    while stack:
        n = stack.pop()
        if n is not None:
            text = _atom_text(n)
            if text is not None:
                done.append((text, _ATOM_PREC))
                continue
            stack += (n, None)
            if isinstance(n, UnaryOp):
                stack.append(n.child)
            elif isinstance(n, BinaryOp):
                stack += (n.right, n.left)
            elif isinstance(n, FunctionCall):
                stack.extend(reversed(n.args))
            else:
                raise TypeError(f"not an AST node: {n!r}")
            continue
        n = stack.pop()
        if isinstance(n, UnaryOp):
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

class ClassifiedToken(NamedTuple):
    kind: str  # "operator" | "operand"
    nesting_level: int
    text: str


def classify_tokens(ast: FormulaAst | AstNode) -> list[ClassifiedToken]:
    """Flatten an AST into operator/operand tokens with nesting levels.

    The root expression sits at level 1; each function call argument list is
    one level deeper than the call's own name token: :func:`_layout`'s tokens.
    """
    node = ast.root if isinstance(ast, FormulaAst) else ast
    return [ClassifiedToken(kind, level, text if kind == "operator" else _atom_text(text))
            for kind, level, text in _layout(node)[5]]


# --- Per-formula measures -------------------------------------------------

_COMPARISONS = frozenset(op for op, prec in _PREC.items() if prec == _PREC["="])
_LOGICAL_FUNCS = {"AND", "OR", "NOT"}


def _is_boolean_form(node: AstNode) -> bool:
    if isinstance(node, BinaryOp) and node.op in _COMPARISONS:
        return True
    return isinstance(node, FunctionCall) and node.name in _LOGICAL_FUNCS


def decision_count(ast: FormulaAst | AstNode) -> int:
    """Number of simple conditions (atomic predicates) in one formula.

    Each comparison operator is one condition; each AND/OR/NOT argument that
    is not itself a comparison or logical call is one condition; a bare
    non-boolean IF condition is one condition.
    """
    root = ast.root if isinstance(ast, FormulaAst) else ast
    return _layout(root)[3]


def _shift_key(pieces: Sequence[str], leaves: Sequence[Union[CellRef, RangeRef]],
               column: int, row: int) -> str:
    """The shift key of the formula in cell (column, row) whose text split
    at its reference leaves is ``pieces``: absolute reference parts as
    written, relative ones as offsets from the cell."""

    def enc_ref(ref: CellRef) -> str:
        sheet = f"{ref.sheet.casefold()}!" if ref.sheet else ""
        col = f"C{ref.column}" if ref.col_absolute else f"c[{ref.column - column}]"
        r = f"R{ref.row}" if ref.row_absolute else f"r[{ref.row - row}]"
        return sheet + col + r

    parts = [pieces[0]]
    for leaf, piece in zip(leaves, pieces[1:]):
        if isinstance(leaf, RangeRef):
            parts.append(enc_ref(leaf.start) + ":" + enc_ref(leaf.end))
        else:
            parts.append(enc_ref(leaf))
        parts.append(piece)
    return "".join(parts)


# --- Formula shapes ---------------------------------------------------------

# Where _scan_spans cuts a text: per reference and once for the end of the
# text, the (start, end, numbers) of the run of other tokens before it (None
# when absent), with the slice of each number token in the run, and the
# reference's (start, end, sheet or None, column "$", column letters, row "$",
# row digits), each text part as a slice.
_Span = Optional[tuple[int, int, tuple[slice, ...]]]
_RefCut = tuple[int, int, Optional[slice], bool, slice, bool, slice]
_Cuts = tuple[tuple[_Span, Optional[_RefCut]], ...]

# A text's character-class skeleton: each ASCII letter but e/E becomes "a"
# and each ASCII digit "0"; every other character stays. _TOKEN tells
# characters apart only by these classes (e/E only inside a number's
# exponent), so texts with one skeleton split into tokens, and each
# reference into its parts, at the same places.
_SKELETON = str.maketrans(
    {**{c: "a" for c in "ABCDFGHIJKLMNOPQRSTUVWXYZabcdfghijklmnopqrstuvwxyz"},
     **{c: "0" for c in "0123456789"}})
# The same map on a text's UTF-8 bytes, which code only ASCII characters
# below 128: two texts have one byte skeleton exactly when one skeleton.
_BYTE_SKELETON = bytes(range(256)).decode("latin-1").translate(_SKELETON).encode("latin-1")


def _scan_spans(text: str) -> Optional[_Cuts]:
    """The cuts of a formula text after its ``=`` at its references, found
    with ``_TOKEN`` as :func:`_lex` finds its tokens: per reference, the
    span of the run of other tokens before it (None if there is none), with
    the number tokens in the run, and its cut (see ``_Cuts``); last, the run
    after the last reference and None. None when some character starts no
    token or a string is left open; a reference's row and column are not
    checked here."""
    match = _TOKEN.match
    spans, numbers = [], []
    start = pos = 1
    while pos < len(text):
        m = match(text, pos)
        if m is None or m.lastgroup == "UNTERMINATED":
            return None
        if m.lastgroup == "REF":
            spans.append(((start, pos, tuple(numbers)) if start < pos else None, (
                pos, m.end(), m["sheet"] and slice(*m.span("sheet")), m["colabs"] == "$",
                slice(*m.span("col")), m["rowabs"] == "$", slice(*m.span("row")))))
            start, numbers = m.end(), []
        elif m.lastgroup == "NUMBER":
            numbers.append(slice(pos, m.end()))
        pos = m.end()
    spans.append(((start, pos, tuple(numbers)) if start < pos else None, None))
    return tuple(spans)


def shape_key(text: str, column: int, row: int, numbers: dict[str, int],
              sheets: dict[str, str], cuts: dict[bytes, Optional[_Cuts]]) -> Optional[tuple]:
    """The shape key of a formula text in cell (column, row), keyed by
    :func:`shape_keys` as a group of one; None when it has none."""
    return shape_keys((text,), (column,), (row,), numbers, sheets, cuts)[1].get(0)


def shape_keys(texts: Sequence[str], columns: Sequence[int], rows: Sequence[int],
               numbers: dict[str, int], sheets: dict[str, str],
               cuts: dict[bytes, Optional[_Cuts]]
               ) -> tuple[dict[int, int], dict[int, tuple], dict[int, _Cuts]]:
    """The shape keys of formula texts, ``texts[i]`` in cell (``columns[i]``,
    ``rows[i]``): for each text with a key, the index of the first text with
    its key among the texts of its skeleton, and each such first text's key
    and cuts.

    A key is the verbatim text between references and, per reference, its
    sheet and each absolute flag with the absolute value or the offset from
    the cell, so copies of one formula share it. The texts of one skeleton
    are cut once, with ``_TOKEN`` as :func:`_lex` cuts, and each key part is
    taken for all of them in one pass. A text has no key when it does not
    start with ``=``, holds a character no token starts with or an open
    string, or references row 0, past XFD or past ``int``'s digits: it fails
    to parse, at its own offset. ``numbers`` maps column letters to columns
    and row digits to rows, ``sheets`` a sheet's text to its name, and
    ``cuts`` each skeleton to its first text's cuts; all live for one load.
    """
    groups: dict[bytes, list[int]] = {}
    for i, skeleton in enumerate(map(bytes.translate, map(
            str.encode, texts, repeat("utf-8"), repeat("surrogatepass")), repeat(_BYTE_SKELETON))):
        groups.setdefault(skeleton, []).append(i)
    first_of, key_of, cuts_of = {}, {}, {}
    for skeleton, indexes in groups.items():
        group = list(map(texts.__getitem__, indexes))
        spans = cuts.get(skeleton, False)
        if spans is False:
            spans = cuts[skeleton] = _scan_spans(group[0]) if skeleton[:1] == b"=" else None
        if spans is None:
            continue
        parts = _key_parts(group, list(map(columns.__getitem__, indexes)),
                           list(map(rows.__getitem__, indexes)), spans, numbers, sheets)
        if parts is not None:
            firsts: dict[tuple, int] = {}
            first_of.update(zip(indexes, map(firsts.setdefault, zip(*parts), indexes)))
            key_of.update(zip(firsts.values(), firsts))
            cuts_of.update(zip(firsts.values(), repeat(spans)))
        elif len(indexes) > 1:  # some text has no key: key each text alone
            for i in indexes:
                key = shape_key(texts[i], columns[i], rows[i], numbers, sheets, cuts)
                if key is not None:
                    first_of[i], key_of[i], cuts_of[i] = i, key, spans
    return first_of, key_of, cuts_of


def _key_parts(texts: list[str], columns: list[int], rows: list[int], spans: _Cuts,
               numbers: dict[str, int], sheets: dict[str, str]) -> Optional[list[list]]:
    """The key parts of texts cut by ``spans``, as columns; None when a text
    references row 0, past XFD or past ``int``'s digits."""
    n, parts = len(texts), []
    for other, ref in spans:
        parts.append([None] * n if other is None else list(map(itemgetter(slice(*other[:2])), texts)))
        if ref is None:  # the end of the text
            break
        _, _, sheet, col_abs, col_text, row_abs, row_text = ref
        names = list(map(itemgetter(col_text), texts))
        digits = list(map(itemgetter(row_text), texts))
        try:
            numbers.update((t, letters_to_column(t)) for t in set(names).difference(numbers))
            numbers.update((t, int(t)) for t in set(digits).difference(numbers))
        except ValueError:  # a row past int's digit limit
            return None
        cols, ref_rows = list(map(numbers.__getitem__, names)), list(map(numbers.__getitem__, digits))
        if min(ref_rows) < 1 or max(cols) > MAX_COLUMN:
            return None
        if sheet is None:
            parts.append([None] * n)
        else:
            quoted = list(map(itemgetter(sheet), texts))
            sheets.update((q, unquote_sheet_name(q)) for q in set(quoted).difference(sheets))
            parts.append(list(map(sheets.__getitem__, quoted)))
        parts += ([col_abs] * n, cols if col_abs else list(map(sub, cols, columns)),
                  [row_abs] * n, ref_rows if row_abs else list(map(sub, ref_rows, rows)))
    return parts


def template_key(text: str, cuts: _Cuts) -> tuple[tuple, list[str]]:
    """The template key of a text that ``cuts`` cut (see :func:`_scan_spans`),
    and its number tokens in text order. The key is the text without its
    number tokens and its references' column letters and row digits, as the
    pieces between them, each cut out part named by its kind ("n", "c" or
    "r") between its two pieces. Names, strings, sheets, ``$`` markers and
    spacing stay as written. Texts of one template key split into tokens
    alike, so they parse alike, but for the values of their numbers and
    references (see :class:`Template`)."""
    holes, numbers = [], []
    for other, ref in cuts:
        if other is not None:
            holes += zip(other[2], repeat("n"))
            numbers += map(text.__getitem__, other[2])
        if ref is not None:
            holes += ((ref[4], "c"), (ref[6], "r"))
    key, start = [], 0
    for hole, kind in holes:
        key += (text[start:hole.start], kind)
        start = hole.stop
    key.append(text[start:])
    return tuple(key), numbers


# What one expression reaches without crossing an IF call: the indexes in
# its formula's IfLayout of its top-level IF calls, and the ordinals of its
# references outside any IF.
Reach = tuple[tuple[int, ...], tuple[int, ...]]
# The IF calls of one formula in path order, each as (path, reach of every
# argument).
IfLayout = tuple[tuple[tuple[int, ...], tuple[Reach, ...]], ...]


def _copy_range(start: CellRef, end: CellRef) -> RangeRef:
    """The range ``start:end`` as the parser builds it: the end takes the
    start's sheet, and the corners are normalized."""
    return RangeRef.normalized(start, end.with_sheet(start.sheet) if start.sheet else end)


def _path(link: Optional[tuple]) -> tuple[int, ...]:
    """The path a :func:`_layout` link stands for: the child indexes from
    the root."""
    indexes = []
    while link is not None:
        link, i = link
        indexes.append(i)
    return tuple(reversed(indexes))


def _layout(root: AstNode, mark: Optional[str] = None) -> tuple[
        list[Union[CellRef, RangeRef]], Reach, IfLayout, int, list[str], list[tuple]]:
    """One pre-order pass over a formula: the refs of its reference leaves,
    its own reach, its IF calls, its decision count (see
    :func:`decision_count`), its shift-key pieces and its tokens. References
    are numbered in ``walk`` order, as the dependency graph lists their
    targets; a path is the chain of child indexes from the root. Pre-order
    lists the IF calls in path order, so a reach names each IF by its index
    in that list. A stack item holds its node's path as a link, (its
    parent's link, its index) and None for the root, so a pending item
    costs the same at any depth; only an IF call's path becomes a tuple.

    The pieces are the formula's canonical text split at its reference
    leaves: the text before, between and after them. Joined with each
    leaf's parts relative to a cell (:func:`_shift_key`), they make that
    cell's shift key, which copies of one formula share. A string on the
    stack is canonical text, taken when popped. Each token is (kind,
    nesting level, operator text or operand node), in pre-order but for a
    ``%``, which waits on the stack as a 3-tuple to follow its operand.
    Given a ``mark``, the pieces hold it in place of each number's text."""
    leaves: list[Union[CellRef, RangeRef]] = []
    own: tuple[list, list] = ([], [])
    ifs: list = []
    decisions = 0
    pieces: list[str] = []
    parts: list[str] = []
    tokens: list[tuple] = []
    stack: list = [(None, root, own, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        if len(item) == 3:  # a percent, after its operand
            tokens.append(item)
            parts.append(")")
            continue
        link, node, reach, level = item
        if isinstance(node, (CellRefNode, RangeRefNode)):
            tokens.append(("operand", level, node))
            reach[1].append(len(leaves))
            leaves.append(node.ref)
            pieces.append("".join(parts))
            parts = []
            continue
        children = child_nodes(node)
        reaches = [reach] * len(children)
        inner, closing = level, ")"
        if isinstance(node, BinaryOp):
            tokens.append(("operator", level, node.op))
            if node.op in _COMPARISONS:
                decisions += 1
            opening, between = "(", node.op
        elif isinstance(node, FunctionCall):
            tokens.append(("operator", level, node.name))
            inner = level + 1
            if node.name in _LOGICAL_FUNCS:
                decisions += sum(1 for arg in children if not _is_boolean_form(arg))
            elif node.name == "IF":
                reach[0].append(len(ifs))  # that construct owns its own subtree
                reaches = [([], []) for _ in children]
                ifs.append((_path(link), reaches))
                if children and not (_is_boolean_form(children[0])
                                     or isinstance(children[0], BoolLiteral)):
                    decisions += 1
            opening, between = f"{node.name}(", ","
        elif isinstance(node, UnaryOp):
            if node.op == "%":
                closing = ("operator", level, "%")
            else:
                tokens.append(("operator", level, node.op))
            opening, between = f"u{node.op}(", ""
        else:
            text = mark if mark is not None and type(node) is NumberLiteral else _atom_text(node)
            if text is None:
                raise TypeError(f"not an AST node: {node!r}")
            tokens.append(("operand", level, node))
            parts.append(text)
            continue
        parts.append(opening)
        stack.append(closing)
        for i in range(len(children) - 1, -1, -1):
            stack.append(((link, i), children[i], reaches[i], inner))
            if i:
                stack.append(between)
    pieces.append("".join(parts))

    def frozen(reach: tuple[list, list]) -> Reach:
        return tuple(reach[0]), tuple(reach[1])

    if_layout = tuple((path, tuple(frozen(arg) for arg in args)) for path, args in ifs)
    return leaves, frozen(own), if_layout, decisions, pieces, tokens


# A reference leaf of a shape as its key's parts: one cell's, or a range's two
# in text order, each (sheet, column absolute, column or offset, row absolute,
# row or offset).
Leaf = tuple[tuple[Optional[str], bool, int, bool, int], ...]


class FormulaShape:
    """A formula up to the shift of its relative references.

    Copies of one formula share one shape, built from the first copy's
    :class:`Template`, number tokens and :func:`shape_key`. It holds what
    depends only on the formula's structure: from the template, operator
    and operand counts, nesting depth and average level, the decision count
    and the IF layout that conditional discovery reads (``if_reach``, the
    formula's own reach, and ``ifs``; see :data:`Reach` and
    :data:`IfLayout`); from the key, the reference leaves in ``walk`` order
    as their key parts (``leaves``, see :data:`Leaf`); and the range-linkage
    shift key's text split at the reference leaves.
    ``relative`` is True when every part of every reference is relative, so
    that every copy reads its cells at the same offsets from itself.
    ``shift_key`` is the copies' common shift key, or None when some range
    anchors one axis absolutely at one end and relatively at the other:
    normalizing such a range can swap its ends from one copy to the next,
    so :meth:`shift_key_at` keys each cell from its own leaves.

    A copy is its shape and its cell: :meth:`references` builds the copy's
    reference leaves from the cell's position.
    """

    __slots__ = ("n_operators", "n_operands", "depth_of_nesting",
                 "avg_nesting_level", "decision_count", "relative", "shift_key",
                 "if_reach", "ifs", "leaves", "_key_pieces")

    def __init__(self, template: Template, numbers: Iterable[str], column: int, row: int,
                 key: tuple):
        (self.n_operators, self.n_operands, self.depth_of_nesting, self.avg_nesting_level,
         self.decision_count, self.if_reach, self.ifs) = template.measures
        self._key_pieces = template.pieces(numbers)
        # The parts of the text's references in text order, which is walk order.
        parts = iter([key[i:i + 5] for i in range(1, len(key) - 1, 6)])
        self.leaves: tuple[Leaf, ...] = tuple(tuple(islice(parts, width))
                                              for width in template.widths)
        self.relative = not any(part[1] or part[3] for leaf in self.leaves for part in leaf)
        uniform = all(leaf[0][1] == leaf[-1][1] and leaf[0][3] == leaf[-1][3]
                      for leaf in self.leaves)
        self.shift_key = _shift_key(self._key_pieces, self.references(column, row),
                                    column, row) if uniform else None

    def references(self, column: int, row: int) -> list[Union[CellRef, RangeRef]]:
        """The reference leaves, in ``walk`` order, of the copy in cell
        (column, row): a ``CellRef`` per cell leaf and a normalized
        ``RangeRef`` per range leaf, as in the copy's AST."""
        out: list[Union[CellRef, RangeRef]] = []
        for leaf in self.leaves:
            cells = [CellRef(sheet, col if col_abs else column + col, r if row_abs else row + r,
                             col_abs, row_abs) for sheet, col_abs, col, row_abs, r in leaf]
            out.append(_copy_range(*cells) if len(cells) == 2 else cells[0])
        return out

    def shift_key_at(self, column: int, row: int) -> str:
        """The shift key of the copy in cell (column, row)."""
        if self.shift_key is not None:
            return self.shift_key
        return _shift_key(self._key_pieces, self.references(column, row), column, row)


class Template:
    """What the shapes of one :func:`template_key`'s texts share, from one
    walk of the first text's AST, which it does not keep.

    Such texts differ only in their numbers and in their references' column
    letters and row digits, so they parse alike but for those values:
    ``measures`` holds their shapes' counts, nesting, decisions and IF
    layout (:class:`FormulaShape`'s fields of those names, in that order),
    ``widths`` each reference leaf's number of references (two for a
    range), and :meth:`pieces` gives a text's shift-key pieces.
    """

    __slots__ = ("measures", "widths", "_fragments")

    def __init__(self, ast: FormulaAst):
        # The canonical text holds ASCII and characters of the source alone,
        # so a character that is neither marks each number in the pieces.
        source, mark = ast.source, "\uffff"
        if mark in source:  # it lacks one of the len(source) + 1 after ASCII
            mark = min(set(map(chr, range(128, 129 + len(source)))).difference(source))
        leaves, if_reach, ifs, decisions, pieces, tokens = _layout(ast.root, mark)
        kinds, levels, _ = zip(*tokens)
        operators = kinds.count("operator")
        self.measures = (operators, len(tokens) - operators, max(levels),
                         Fraction(sum(levels), len(levels)), decisions, if_reach, ifs)
        self.widths = [2 if isinstance(leaf, RangeRef) else 1 for leaf in leaves]
        self._fragments = [piece.split(mark) for piece in pieces]

    def pieces(self, numbers: Iterable[str]) -> list[str]:
        """The shift-key text, split at the reference leaves, of this
        template's text whose number tokens are ``numbers``, in text order."""
        numbers, pieces = map(render_number, map(float, numbers)), []
        for fragments in self._fragments:
            parts = [fragments[0]]
            for fragment in fragments[1:]:
                parts += (next(numbers), fragment)
            pieces.append("".join(parts))
        return pieces
