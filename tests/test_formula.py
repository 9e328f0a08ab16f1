import dataclasses
import gc
import random
import tracemalloc
from fractions import Fraction
from typing import Union

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellgauge import load_workbook_doc
from cellgauge.errors import (
    EmptyFormulaError,
    FormulaSyntaxError,
    UnbalancedParensError,
)
from cellgauge.formula import (
    _ATOM_PREC,
    _COMPARISONS,
    _LOGICAL_FUNCS,
    _PERCENT_PREC,
    _PREC,
    _UNARY_PREC,
    MAX_NESTING,
    AstNode,
    BinaryOp,
    BoolLiteral,
    CellRefNode,
    FormulaAst,
    FormulaShape,
    FunctionCall,
    IfLayout,
    NumberLiteral,
    Reach,
    RangeRefNode,
    StringLiteral,
    ClassifiedToken,
    Template,
    UnaryOp,
    _atom_text,
    _is_boolean_form,
    _label,
    _layout,
    ast_equal,
    ast_hash,
    ast_repr,
    child_nodes,
    classify_tokens,
    decision_count,
    parse_formula,
    render_formula,
    render_number,
    shape_key,
    walk,
)
from cellgauge.refs import CellRef, RangeRef

# Formulas exercising every grammar construct; reused by round-trip and
# conservation properties.
CORPUS = [
    "=1",
    "=1.5",
    "=.5",
    "=1e3",
    '="it said ""hi"""',
    "=TRUE",
    "=FALSE",
    "=A1",
    "=$A$1",
    "=Data!B7",
    "='My Data'!B7",
    "=A1:B2",
    "=SUM($A$1:A5)",
    "=A1+B1",
    "=A1-B1-C1",
    "=A1*B1/C1",
    "=2^3^2",
    "=-A1",
    "=--A1",
    "=50%",
    "=-A1%",
    "=(A1+B1)*2",
    '="a"&"b"&C1',
    "=A1<=B1",
    "=A1<>B1",
    "=NOW()",
    "=SUM(A1, MAX(B1,C1))",
    "=IF(AND(B2>0,C2<10),B2*C2,0)",
    "=LOG10(100)",
    "=T.TEST(A1:A9,B1:B9,2,1)",
    "=1+2*3^2",
    "=(1+2)*3",
    "=A1=B1",
]


def ref(col, row, ca=False, ra=False, sheet=None):
    return CellRefNode(CellRef(sheet, col, row, ca, ra))


def test_parse_minimal_binary():
    ast = parse_formula("=A1+B1")
    assert ast.root == BinaryOp("+", ref(1, 1), ref(2, 1))
    assert ast.source == "=A1+B1"


def test_parse_range_call():
    ast = parse_formula("=SUM($A$1:A5)")
    assert ast.root == FunctionCall("SUM", (
        RangeRefNode(RangeRef(CellRef(None, 1, 1, True, True), CellRef(None, 1, 5))),
    ))


def test_parse_nested_if_node_by_node():
    # Hand-parsed per the grammar: IF(AND(B2>0, C2<10), B2*C2, 0)
    ast = parse_formula("=IF(AND(B2>0,C2<10),B2*C2,0)")
    expected = FunctionCall("IF", (
        FunctionCall("AND", (
            BinaryOp(">", ref(2, 2), NumberLiteral(0.0)),
            BinaryOp("<", ref(3, 2), NumberLiteral(10.0)),
        )),
        BinaryOp("*", ref(2, 2), ref(3, 2)),
        NumberLiteral(0.0),
    ))
    assert ast.root == expected


def test_function_names_case_normalized():
    assert parse_formula("=sum(A1)").root.name == "SUM"
    assert parse_formula("=Sum(A1)").root == parse_formula("=SUM(A1)").root


def test_whitespace_insignificant():
    assert parse_formula("= A1 + B1 ").root == parse_formula("=A1+B1").root


# The binary levels, loosest first, written out here apart from _PREC.
_LADDER = (("=", "<>", "<", "<=", ">", ">="), ("&",), ("+", "-"), ("*", "/"), ("^",))


def test_precedence_ladder():
    # 1+2*3^2 = 1+(2*(3^2))
    ast = parse_formula("=1+2*3^2")
    assert ast.root == BinaryOp(
        "+",
        NumberLiteral(1.0),
        BinaryOp("*", NumberLiteral(2.0), BinaryOp("^", NumberLiteral(3.0), NumberLiteral(2.0))),
    )
    # Every ordered pair of binary operators: the tighter one takes the
    # middle operand, and within one level the left one does.
    one, two, three = (NumberLiteral(float(k)) for k in (1, 2, 3))
    level = {op: k for k, ops in enumerate(_LADDER) for op in ops}
    for a in level:
        for b in level:
            root = parse_formula(f"=1 {a} 2 {b} 3").root
            if level[a] < level[b]:
                assert root == BinaryOp(a, one, BinaryOp(b, two, three)), (a, b)
            else:
                assert root == BinaryOp(b, BinaryOp(a, one, two), three), (a, b)
    assert level.keys() == _PREC.keys()


def test_comparison_binds_loosest():
    ast = parse_formula('=A1&"x"=B1+1')
    assert isinstance(ast.root, BinaryOp) and ast.root.op == "="
    assert ast.root.left == BinaryOp("&", ref(1, 1), StringLiteral("x"))


def test_exponent_left_associative():
    ast = parse_formula("=2^3^2")
    assert ast.root == BinaryOp(
        "^", BinaryOp("^", NumberLiteral(2.0), NumberLiteral(3.0)), NumberLiteral(2.0)
    )


def test_unary_minus_binds_tighter_than_exponent():
    ast = parse_formula("=-2^2")
    assert ast.root == BinaryOp("^", UnaryOp("-", NumberLiteral(2.0)), NumberLiteral(2.0))


def test_percent_postfix():
    ast = parse_formula("=-A1%")
    assert ast.root == UnaryOp("-", UnaryOp("%", ref(1, 1)))


def test_sheet_qualified_range():
    ast = parse_formula("=SUM(Data!A1:A3)")
    rng = ast.root.args[0].ref
    assert rng.start.sheet == "Data" and rng.end.sheet == "Data"
    assert rng.height == 3


def test_range_endpoints_must_share_sheet():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=SUM(Data!A1:Other!A3)")


def test_boolean_literals_vs_function():
    assert parse_formula("=TRUE").root == BoolLiteral(True)
    assert parse_formula("=true").root == BoolLiteral(True)
    assert parse_formula("=TRUE()").root == FunctionCall("TRUE", ())


@pytest.mark.parametrize("bad,exc", [
    ("", EmptyFormulaError),
    ("=", EmptyFormulaError),
    ("=  ", EmptyFormulaError),
    ("A1+B1", FormulaSyntaxError),
    ("=SUM(", UnbalancedParensError),
    ("=SUM(A1", UnbalancedParensError),
    ("=(A1+B1", UnbalancedParensError),
    ("=A1)", UnbalancedParensError),
    ("=A1+", FormulaSyntaxError),
    ("=#REF!", FormulaSyntaxError),
    ('="unterminated', FormulaSyntaxError),
    ("=A0", FormulaSyntaxError),
    ("=FOO", FormulaSyntaxError),
    ("=1 2", FormulaSyntaxError),
])
def test_parse_errors(bad, exc):
    with pytest.raises(exc):
        parse_formula(bad)


def test_syntax_error_carries_offset():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("=A1+#")
    assert info.value.offset == 4


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip(text):
    ast = parse_formula(text)
    rendered = render_formula(ast)
    assert parse_formula(rendered).root == ast.root


@given(st.text(max_size=40))
def test_parser_total_over_arbitrary_text(text):
    # Never raises anything but a syntax error; either result is acceptable.
    try:
        parse_formula("=" + text)
    except FormulaSyntaxError:
        pass


# --- token classification ---------------------------------------------------


def levels(text):
    return [(t.text, t.kind, t.nesting_level) for t in classify_tokens(parse_formula(text))]


def test_classify_flat_expression():
    assert levels("=A1+B1") == [
        ("+", "operator", 1), ("A1", "operand", 1), ("B1", "operand", 1),
    ]


def test_classify_nested_call():
    assert levels("=SUM(A1, MAX(B1,C1))") == [
        ("SUM", "operator", 1),
        ("A1", "operand", 2),
        ("MAX", "operator", 2),
        ("B1", "operand", 3),
        ("C1", "operand", 3),
    ]
    tokens = classify_tokens(parse_formula("=SUM(A1, MAX(B1,C1))"))
    assert sum(t.kind == "operator" for t in tokens) == 2
    assert sum(t.kind == "operand" for t in tokens) == 3


def test_classify_if_with_comparison():
    # Hand count: IF@1, then condition/branches at level 2; the comparison's
    # two operands are tokens too, so six tokens in total.
    assert levels("=IF(A1>0, A1, 0)") == [
        ("IF", "operator", 1),
        (">", "operator", 2),
        ("A1", "operand", 2),
        ("0", "operand", 2),
        ("A1", "operand", 2),
        ("0", "operand", 2),
    ]


def test_classify_range_is_single_operand():
    assert levels("=SUM($A$1:A5)") == [
        ("SUM", "operator", 1),
        ("$A$1:A5", "operand", 2),
    ]


def test_classify_parens_do_not_nest():
    assert all(lvl == 1 for _, _, lvl in levels("=(A1+B1)*2"))


def test_classify_percent_position():
    assert levels("=50%") == [("50", "operand", 1), ("%", "operator", 1)]


@pytest.mark.parametrize("text", CORPUS)
def test_token_count_conservation(text):
    ast = parse_formula(text)
    tokens = classify_tokens(ast)
    n1 = sum(1 for t in tokens if t.kind == "operator")
    n2 = sum(1 for t in tokens if t.kind == "operand")
    assert n1 + n2 == len(tokens)
    leaf_count = sum(
        1 for node in walk(ast.root)
        if not isinstance(node, (BinaryOp, UnaryOp, FunctionCall))
    )
    assert n2 == leaf_count


@pytest.mark.parametrize("text", CORPUS)
def test_nesting_levels_root_one_and_monotone(text):
    tokens = classify_tokens(parse_formula(text))
    assert tokens[0].nesting_level if tokens else 1  # non-empty corpus
    assert min(t.nesting_level for t in tokens) == 1
    # Levels only grow by function-call nesting; a token can never sit at a
    # level below any enclosing call's name token. The flattened sequence
    # makes that equivalent to: levels change by limited steps around calls.
    stack = [1]
    for t in tokens:
        if t.nesting_level > stack[-1]:
            assert t.nesting_level == stack[-1] + 1
            stack.append(t.nesting_level)
        else:
            while stack and stack[-1] > t.nesting_level:
                stack.pop()
            assert stack and stack[-1] == t.nesting_level


def test_avg_nesting_level_worked_value():
    tokens = classify_tokens(parse_formula("=SUM(A1, MAX(B1,C1))"))
    total = sum(t.nesting_level for t in tokens)
    assert Fraction(total, len(tokens)) == Fraction(11, 5)


# --- nesting limits -------------------------------------------------------------


def nested_parens(depth):
    return "=" + "(" * depth + "A1" + ")" * depth


def nested_ifs(depth):
    return "=" + "IF(A1>0," * depth + "1" + ",2)" * depth


def test_nesting_cap_is_excels_function_limit():
    assert MAX_NESTING == 64


@pytest.mark.parametrize("make", [nested_parens, nested_ifs])
def test_nesting_at_the_cap_parses(make):
    ast = parse_formula(make(MAX_NESTING))
    levels = [t.nesting_level for t in classify_tokens(ast)]
    assert max(levels) == (1 if make is nested_parens else MAX_NESTING + 1)


@pytest.mark.parametrize("make", [nested_parens, nested_ifs])
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 130, 400, 3000])
def test_nesting_past_the_cap_is_a_syntax_error(make, depth):
    with pytest.raises(FormulaSyntaxError, match="nested"):
        parse_formula(make(depth))


def test_mixed_parens_and_calls_share_the_cap():
    text = "=" + "SUM((" * 32 + "A1" + "))" * 32
    parse_formula(text)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=(" + text[1:] + ")")


def test_minus_runs_parse_without_recursion():
    ast = parse_formula("=" + "-" * MAX_NESTING + "A1%")
    node, signs = ast.root, 0
    while isinstance(node, UnaryOp) and node.op == "-":
        node, signs = node.child, signs + 1
    assert signs == MAX_NESTING
    assert node == UnaryOp("%", ref(1, 1))
    with pytest.raises(FormulaSyntaxError, match="minus"):
        parse_formula("=" + "-" * 3000 + "A1")


def test_long_flat_sum_classifies_in_order():
    # A left-deep BinaryOp chain 2,000 levels deep, far past the call stack.
    terms = 2000
    ast = parse_formula("=" + "+".join(f"A{r}" for r in range(1, terms + 1)))
    tokens = classify_tokens(ast)
    assert [t.text for t in tokens] == ["+"] * (terms - 1) + [
        f"A{r}" for r in range(1, terms + 1)]
    assert {t.nesting_level for t in tokens} == {1}


def test_long_flat_sum_compares_and_hashes():
    # == and hash() walk the 2,000-level chain on an explicit stack.
    text = "=" + "+".join(f"A{r}" for r in range(1, 2001))
    a, b = parse_formula(text), parse_formula(text)
    assert a.root is not b.root
    assert a == b and a.root == b.root
    assert hash(a) == hash(b) and len({a.root, b.root}) == 1
    other = parse_formula(text[:-4] + "A2001")
    assert a.root != other.root
    assert parse_formula("=A1+B1").root != parse_formula("=A1-B1").root
    assert parse_formula("=SUM(A1)").root != parse_formula("=SUM(A1,A1)").root


# --- Rendering without recursion -------------------------------------------------


def recursive_render(node):
    """The recursive renderer that ``render_formula`` replaced, kept as the
    reference for its text and its minimal parenthesization."""
    if isinstance(node, NumberLiteral):
        return render_number(node.value), _ATOM_PREC
    if isinstance(node, StringLiteral):
        return '"' + node.value.replace('"', '""') + '"', _ATOM_PREC
    if isinstance(node, BoolLiteral):
        return ("TRUE" if node.value else "FALSE"), _ATOM_PREC
    if isinstance(node, CellRefNode):
        return node.ref.render(), _ATOM_PREC
    if isinstance(node, RangeRefNode):
        return node.ref.render(), _ATOM_PREC
    if isinstance(node, UnaryOp):
        if node.op == "%":
            text, prec = recursive_render(node.child)
            if prec < _PERCENT_PREC:
                text = f"({text})"
            return text + "%", _PERCENT_PREC
        text, prec = recursive_render(node.child)
        if prec < _UNARY_PREC:
            text = f"({text})"
        return "-" + text, _UNARY_PREC
    if isinstance(node, BinaryOp):
        prec = _PREC[node.op]
        left, lprec = recursive_render(node.left)
        right, rprec = recursive_render(node.right)
        if lprec < prec:
            left = f"({left})"
        if rprec <= prec:
            right = f"({right})"
        return f"{left}{node.op}{right}", prec
    if isinstance(node, FunctionCall):
        args = ", ".join(recursive_render(a)[0] for a in node.args)
        return f"{node.name}({args})", _ATOM_PREC
    raise TypeError(f"not an AST node: {node!r}")


def random_ast(rng, depth):
    """A random AST over every node kind and operator, up to ``depth`` deep,
    with AND/OR/NOT calls and IFs whose condition is a comparison, a logical
    call, TRUE or a bare reference: each form ``decision_count`` tells
    apart."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(6)
        if kind == 0:
            return NumberLiteral(rng.choice([0.0, 1.0, 2.5, 1e20, -3.0, 0.1]))
        if kind == 1:
            return StringLiteral(rng.choice(["", "a", 'say "hi"', "x,y"]))
        if kind == 2:
            return BoolLiteral(rng.random() < 0.5)
        if kind == 3:
            return RangeRefNode(RangeRef(CellRef(None, 1, 1), CellRef(None, 2, 3)))
        return ref(rng.randint(1, 30), rng.randint(1, 99), rng.random() < 0.3,
                   rng.random() < 0.3, rng.choice([None, "Data", "My Data"]))
    kind = rng.randrange(5)
    if kind == 0:
        return UnaryOp(rng.choice("-%"), random_ast(rng, depth - 1))
    if kind == 1:
        return FunctionCall(rng.choice(["SUM", "IF", "NOW", "MAX", "AND", "OR", "NOT"]),
                            tuple(random_ast(rng, depth - 1) for _ in range(rng.randrange(4))))
    if kind == 2:
        cond = rng.choice((
            lambda: BinaryOp(rng.choice(sorted(_COMPARISONS)), random_ast(rng, depth - 1),
                             random_ast(rng, depth - 1)),
            lambda: FunctionCall(rng.choice(["AND", "OR", "NOT"]), tuple(
                random_ast(rng, depth - 1) for _ in range(rng.randint(1, 3)))),
            lambda: BoolLiteral(True),
            lambda: ref(rng.randint(1, 30), rng.randint(1, 99)),
        ))()
        return FunctionCall("IF", (cond,) + tuple(
            random_ast(rng, depth - 1) for _ in range(rng.randrange(3))))
    return BinaryOp(rng.choice(sorted(_PREC)), random_ast(rng, depth - 1),
                    random_ast(rng, depth - 1))


def test_render_matches_recursive_reference_on_random_asts():
    rng = random.Random(2024)
    for _ in range(3000):
        node = random_ast(rng, rng.randint(1, 7))
        assert render_formula(node) == "=" + recursive_render(node)[0], node


def test_render_rejects_non_nodes():
    with pytest.raises(TypeError, match="not an AST node"):
        render_formula(BinaryOp("+", ref(1, 1), "A2"))


def test_long_flat_sum_renders_and_round_trips():
    # A left-deep BinaryOp chain 2,000 levels deep, far past the call stack.
    text = "=" + "+".join(f"A{r}" for r in range(1, 2001))
    ast = parse_formula(text)
    assert render_formula(ast) == text
    assert render_formula(parse_formula(render_formula(ast))) == text


# --- The one shape walk against the walks it replaced ----------------------------


def _shift_key_pieces(node: AstNode) -> list[str]:
    """A formula's canonical text split at its reference leaves: the text
    before, between and after them in ``walk`` order. Joined with each
    leaf's parts relative to a cell (:func:`_shift_key`), it is that cell's
    shift key, which copies of one formula share."""
    # An explicit stack, so a long flat chain such as A1+A1+...+A1 needs no
    # deep call stack; a string on the stack is emitted as is when popped.
    pieces: list[str] = []
    parts: list[str] = []
    stack: list[Union[AstNode, str]] = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            parts.append(n)
        elif isinstance(n, (CellRefNode, RangeRefNode)):
            pieces.append("".join(parts))
            parts = []
        elif isinstance(n, BinaryOp):
            stack.extend((")", n.right, n.op, n.left, "("))
        elif isinstance(n, (NumberLiteral, StringLiteral, BoolLiteral)):
            parts.append(_atom_text(n))
        elif isinstance(n, FunctionCall):
            items: list[Union[AstNode, str]] = [f"{n.name}("]
            for i, arg in enumerate(n.args):
                if i:
                    items.append(",")
                items.append(arg)
            items.append(")")
            stack.extend(reversed(items))
        elif isinstance(n, UnaryOp):
            stack.extend((")", n.child, f"u{n.op}("))
        else:
            raise TypeError(f"not an AST node: {n!r}")
    pieces.append("".join(parts))
    return pieces


def walk_decision_count(ast: FormulaAst | AstNode) -> int:
    """``decision_count`` as a walk of its own, before ``_layout`` counted
    decisions."""
    root = ast.root if isinstance(ast, FormulaAst) else ast
    count = 0
    for node in walk(root):
        if isinstance(node, BinaryOp) and node.op in _COMPARISONS:
            count += 1
        elif isinstance(node, FunctionCall):
            if node.name in _LOGICAL_FUNCS:
                count += sum(1 for arg in node.args if not _is_boolean_form(arg))
            elif node.name == "IF" and node.args:
                cond = node.args[0]
                if not _is_boolean_form(cond) and not isinstance(cond, BoolLiteral):
                    count += 1
    return count


def test_layout_matches_the_walks_it_replaced_on_random_asts():
    rng = random.Random(7)
    conditions = set()
    for _ in range(3000):
        node = random_ast(rng, rng.randint(0, 6))
        layout = _layout(node)
        assert layout == tuple_path_layout(node), node
        leaves, _, _, decisions, pieces, _ = layout
        assert pieces == _shift_key_pieces(node), node
        assert leaves == [n.ref for n in walk(node) if isinstance(n, (CellRefNode, RangeRefNode))]
        assert decision_count(node) == decisions == walk_decision_count(node), node
        conditions.update(
            n.args[0].name if isinstance(n.args[0], FunctionCall) else type(n.args[0])
            for n in walk(node) if isinstance(n, FunctionCall) and n.name == "IF" and n.args)
    # Every form of IF condition that decision counting tells apart.
    assert {BinaryOp, "AND", "OR", "NOT", BoolLiteral, CellRefNode} <= conditions


# ``_layout`` as it was, with each stack item's path a tuple, verbatim but for
# the name. Every pending item copied its path, so a long chain held paths of
# every length at once: quadratic memory.
def tuple_path_layout(root: AstNode) -> tuple[
        list[Union[CellRef, RangeRef]], Reach, IfLayout, int, list[str], list[tuple]]:
    """One pre-order pass over a formula: the refs of its reference leaves,
    its own reach, its IF calls, its decision count (see
    :func:`decision_count`), its shift-key pieces and its tokens. References
    are numbered in ``walk`` order, as the dependency graph lists their
    targets; a path is the chain of child indexes from the root. Pre-order
    lists the IF calls in path order, so a reach names each IF by its index
    in that list.

    The pieces are the formula's canonical text split at its reference
    leaves: the text before, between and after them. Joined with each
    leaf's parts relative to a cell (:func:`_shift_key`), they make that
    cell's shift key, which copies of one formula share. A string on the
    stack is canonical text, taken when popped. Each token is (kind,
    nesting level, operator text or operand node), in pre-order but for a
    ``%``, which waits on the stack as a 3-tuple to follow its operand."""
    leaves: list[Union[CellRef, RangeRef]] = []
    own: tuple[list, list] = ([], [])
    ifs: list = []
    decisions = 0
    pieces: list[str] = []
    parts: list[str] = []
    tokens: list[tuple] = []
    stack: list = [((), root, own, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        if len(item) == 3:  # a percent, after its operand
            tokens.append(item)
            parts.append(")")
            continue
        path, node, reach, level = item
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
                ifs.append((path, reaches))
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
            text = _atom_text(node)
            if text is None:
                raise TypeError(f"not an AST node: {node!r}")
            tokens.append(("operand", level, node))
            parts.append(text)
            continue
        parts.append(opening)
        stack.append(closing)
        for i in range(len(children) - 1, -1, -1):
            stack.append((path + (i,), children[i], reaches[i], inner))
            if i:
                stack.append(between)
    pieces.append("".join(parts))

    def frozen(reach: tuple[list, list]) -> Reach:
        return tuple(reach[0]), tuple(reach[1])

    if_layout = tuple((path, tuple(frozen(arg) for arg in args)) for path, args in ifs)
    return leaves, frozen(own), if_layout, decisions, pieces, tokens


def chains(op: str, n: int) -> tuple[AstNode, AstNode]:
    """A left-deep and a right-deep chain of ``n`` terms joined by ``op``;
    every third term is an IF call, so IF paths reach every depth."""
    terms = [FunctionCall("IF", (BinaryOp(">", ref(1, k), NumberLiteral(0.0)), ref(2, k)))
             if k % 3 == 0 else ref(3, k) for k in range(1, n + 1)]
    left, right = terms[0], terms[-1]
    for k in range(1, n):
        left = BinaryOp(op, left, terms[k])
        right = BinaryOp(op, terms[n - 1 - k], right)
    return left, right


@pytest.mark.parametrize("op", sorted(_PREC))
def test_layout_matches_the_tuple_path_layout_on_chains(op):
    for chain in chains(op, 200):
        assert _layout(chain) == tuple_path_layout(chain)


def _load_peak(formula: str) -> int:
    """The tracemalloc peak, in bytes, of loading one cell holding ``formula``
    beside the data cell A1."""
    doc = {"sheets": [{"name": "S", "cells": [
        {"ref": "A1", "value": 1}, {"ref": "B1", "formula": formula}]}]}
    tracemalloc.start()
    try:
        wb = load_workbook_doc(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wb.cell("S!B1").is_formula
    return peak


def test_a_long_sum_loads_in_linear_memory():
    # With tuple paths the peak grew about fourfold per doubling.
    small, large = (_load_peak("=" + "+".join(["A1"] * n)) for n in (5_000, 10_000))
    assert large <= 2.2 * small, (small, large)


def test_a_fifty_thousand_term_sum_loads_under_a_fixed_bound():
    # About 67 MB on Python 3.11; with tuple paths 8,000 terms took 258 MB.
    peak = _load_peak("=" + "+".join(["A1"] * 50_000))
    assert peak < 100_000_000, peak


def _peak(call) -> int:
    """The tracemalloc peak, in bytes, of ``call()``. A full collection
    first empties the free lists, so the peak does not depend on the heap
    that earlier tests left."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each walker of a formula's text or AST, as a call on the text, its parse
# and its shape key in cell B2, with its bound in tracemalloc bytes per term
# at 8,000 terms: about 1.5 times its peak on Python 3.11 (parse_formula
# 463, walk 8.5, ast_hash 148, classify_tokens 389, render_formula 28,
# ast_repr 727, decision_count 312, the load's shape build 538). A walk's
# nodes are consumed as they come.
WALKERS = {
    "parse_formula": (lambda text, ast, key: parse_formula(text), 700),
    "walk": (lambda text, ast, key: all(walk(ast.root)), 13),
    "ast_hash": (lambda text, ast, key: ast_hash(ast.root), 225),
    "classify_tokens": (lambda text, ast, key: classify_tokens(ast), 590),
    "render_formula": (lambda text, ast, key: render_formula(ast), 42),
    "ast_repr": (lambda text, ast, key: ast_repr(ast.root), 1_100),
    "decision_count": (lambda text, ast, key: decision_count(ast), 470),
    "shape": (lambda text, ast, key: FormulaShape(Template(ast), (), 2, 2, key), 810),
}


@pytest.mark.parametrize("walker, bytes_per_term", WALKERS.values(), ids=WALKERS)
def test_each_walker_runs_a_long_sum_in_linear_memory(walker, bytes_per_term):
    # The peak may about double when the terms double, and stays under a
    # fixed number of bytes per term. A tuple per pending node, as
    # render_formula once pushed, is linear too, about 1.0 MB against 0.22
    # MB at 8,000 terms: the ratio passes it and the bound does not.
    peaks = []
    for n in (4_000, 8_000):
        text = "=" + "+".join(["A1"] * n)
        ast, key = parse_formula(text), shape_key(text, 2, 2, {}, {}, {})
        peaks.append(_peak(lambda: walker(text, ast, key)))
    assert peaks[1] <= 2.2 * peaks[0], peaks
    assert peaks[1] <= bytes_per_term * 8_000, peaks


def walk_classify_tokens(ast: FormulaAst | AstNode) -> list[ClassifiedToken]:
    """``classify_tokens`` as a walk of its own, before it read ``_layout``'s
    tokens."""
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


def test_tokens_match_the_walk_they_replaced_on_random_asts():
    rng = random.Random(11)
    percents = 0
    for _ in range(3000):
        node = random_ast(rng, rng.randint(0, 7))
        expected = walk_classify_tokens(node)
        assert classify_tokens(node) == expected, node
        assert classify_tokens(FormulaAst(node, render_formula(node))) == expected
        # Each token in _layout's own form: an operand as its node.
        tokens = _layout(node)[5]
        assert [(kind, level) for kind, level, _ in tokens] == [
            (t.kind, t.nesting_level) for t in expected]
        assert all(isinstance(payload, AstNode) for kind, _, payload in tokens
                   if kind == "operand")
        percents += any(t.text == "%" for t in expected)
    assert percents > 100


@pytest.mark.parametrize("node", [
    "A1", BinaryOp("+", ref(1, 1), "A2"), FunctionCall("SUM", (ref(1, 1), 3)),
    UnaryOp("%", None),
])
def test_classify_rejects_non_nodes(node):
    with pytest.raises(TypeError, match="not an AST node"):
        classify_tokens(node)


# --- == and hash against the walks they replaced ---------------------------------
#
# ``ast_equal`` and ``ast_hash`` as they were, two explicit-stack walks,
# verbatim but for the names.


def walk_ast_equal(a: AstNode, b: AstNode) -> bool:
    """Structural equality of two subtrees, on an explicit stack."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        lx, ly = _label(x), _label(y)
        if lx is not ly and lx != ly:
            return False
        cx, cy = child_nodes(x), child_nodes(y)
        if len(cx) != len(cy):
            return False
        stack.extend(zip(cx, cy))
    return True


def walk_ast_hash(node: AstNode) -> int:
    """A hash consistent with :func:`walk_ast_equal`, combined in post-order on an
    explicit stack: a node is pushed again above its children and hashed
    when popped the second time, from its children's hashes on ``done``."""
    done: list[int] = []
    stack: list[tuple[AstNode, bool]] = [(node, False)]
    while stack:
        n, children_done = stack.pop()
        children = child_nodes(n)
        if children and not children_done:
            stack.append((n, True))
            stack.extend((c, False) for c in reversed(children))
            continue
        first = len(done) - len(children)
        hashes = tuple(done[first:])
        del done[first:]
        done.append(hash((type(n), _label(n), hashes)))
    return done[0]


def mutated(rng, node):
    """``node`` with one subtree, picked at random, swapped for a new random
    one (which may equal it)."""
    target = rng.choice(list(walk(node)))
    new = random_ast(rng, 2)

    def rebuild(n):
        if n is target:
            return new
        if isinstance(n, UnaryOp):
            return UnaryOp(n.op, rebuild(n.child))
        if isinstance(n, BinaryOp):
            return BinaryOp(n.op, rebuild(n.left), rebuild(n.right))
        if isinstance(n, FunctionCall):
            return FunctionCall(n.name, tuple(map(rebuild, n.args)))
        return n
    return rebuild(node)


def test_equality_and_hash_match_the_walks_they_replaced_on_random_asts():
    # Equal pairs come from two parses of a random tree's text, unequal ones
    # mostly from a tree and a mutated copy.
    rng = random.Random(2028)
    outcomes = set()
    for _ in range(2000):
        node = random_ast(rng, rng.randint(1, 7))
        text = render_formula(node)
        a, b = parse_formula(text).root, parse_formula(text).root
        for x, y in ((a, b), (node, a), (a, mutated(rng, a)), (node, mutated(rng, node))):
            equal = walk_ast_equal(x, y)
            assert ast_equal(x, y) == equal and (x == y) == equal, (x, y)
            if equal:
                assert ast_hash(x) == ast_hash(y) and walk_ast_hash(x) == walk_ast_hash(y)
            outcomes.add(equal)
    assert outcomes == {True, False}


@pytest.mark.parametrize("a,b", [
    ("=SUM(A1,SUM(B1))", "=SUM(A1,SUM(),B1)"),
    ("=MAX(SUM(A1,B1))", "=MAX(SUM(A1),B1)"),
    ("=IF(NOW(),1)", "=IF(NOW(1))"),
])
def test_calls_that_split_the_same_nodes_apart_differ(a, b):
    # Each pair lists the same nodes in pre-order; only the calls' argument
    # counts tell the trees apart.
    x, y = parse_formula(a).root, parse_formula(b).root
    assert [type(n) for n in walk(x)] == [type(n) for n in walk(y)]
    assert x != y and not walk_ast_equal(x, y) and hash(x) != hash(y)


def test_a_nan_literal_equals_only_itself():
    # As under the walks: a label compares by identity first.
    nan = NumberLiteral(float("nan"))
    same, twin = BinaryOp("+", nan, ref(1, 1)), BinaryOp("+", nan, ref(1, 1))
    assert same == twin and walk_ast_equal(same, twin) and hash(same) == hash(twin)
    other = BinaryOp("+", NumberLiteral(float("nan")), ref(1, 1))
    assert same != other and not walk_ast_equal(same, other)


# --- repr without recursion ------------------------------------------------------


def _mirror_class(cls):
    """A plain frozen dataclass with the fields of an AST node class (its
    ``__slots__``), so its ``repr`` is the one the dataclass decorator
    generates."""
    return dataclasses.make_dataclass(
        cls.__name__, [(name, object) for name in cls.__slots__], frozen=True)


_MIRRORS = {cls: _mirror_class(cls) for cls in (
    NumberLiteral, StringLiteral, BoolLiteral, CellRefNode, RangeRefNode,
    UnaryOp, BinaryOp, FunctionCall)}


def generated_repr(node):
    """The generated dataclass repr of a subtree, through mirror classes
    (recursive, so for small trees only)."""

    def mirror(value):
        if type(value) in _MIRRORS:
            fields = type(value).__slots__
            return _MIRRORS[type(value)](*(mirror(getattr(value, name)) for name in fields))
        if isinstance(value, tuple):
            return tuple(mirror(v) for v in value)
        return value

    return repr(mirror(node))


def test_repr_matches_generated_repr_on_random_asts():
    rng = random.Random(99)
    for _ in range(2000):
        node = random_ast(rng, rng.randint(0, 6))
        assert repr(node) == generated_repr(node)
    ast = parse_formula('=IF(A1>0,SUM(B1:C2),-D$3%)&"x"&TRUE+F(1)')
    assert repr(ast) == f"FormulaAst(root={generated_repr(ast.root)}, source={ast.source!r})"


def test_long_flat_sum_reprs_without_recursion():
    # The generated repr recursed once per level and raised RecursionError.
    ast = parse_formula("=" + "+".join(["A1"] * 2000))
    text = repr(ast)
    assert text.startswith("FormulaAst(root=BinaryOp(op='+', left=BinaryOp(op='+', ")
    assert text.count("CellRefNode(ref=CellRef(sheet=None, column=1, row=1, ") == 2000
    assert text.endswith(f", source={ast.source!r})")
