"""Scalar surrogate models over independent random parameters.

A model file declares each random parameter with its distribution and then
gives a single scalar expression, e.g.::

    xi1 ~ N(0, 1)
    xi4 ~ U(-0.5, 0.5)
    f = xi1 + 0.3*sqrt(2.1*abs(xi4))

`N(mu, sigma)` takes the standard deviation as its second argument.
Statements are separated by newlines or semicolons; `#` starts a comment.
Supported operators: + - * / ^ (right-associative power); functions:
exp, sin, cos, sqrt, abs.

An expression may nest at most `MAX_DEPTH` (100) levels deep: at most that
many parentheses, function calls, signs and exponents may be open at once.
The parser recurses at every such level, so deeper input is refused with a
`ModelSyntaxError` rather than left to exhaust Python's recursion limit.
Sums and products may have any number of terms: the parser and the tree
walkers loop along a chain of + - * / instead of recursing once per term.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSamplesError,
    EvaluationError,
    InvariantViolation,
    ModelSyntaxError,
)

__all__ = [
    "Distribution",
    "SurrogateModel",
    "SampleSet",
    "parse_model",
    "print_model",
    "evaluate",
    "sample",
    "load_samples",
    "save_samples",
    "SYNTHETIC_MODEL",
    "MAX_DEPTH",
]

FUNCTIONS = ("exp", "sin", "cos", "sqrt", "abs")

# Deepest nesting `parse_model` accepts (see the module docstring). At this
# depth the parser uses about 600 stack frames and the tree walkers at most
# about 400 (4 tree levels a nesting level, as in `x + x*sin(...)^x`), under
# Python's default limit of 1000.
MAX_DEPTH = 100

# Deepest tree `parse_model` can build at MAX_DEPTH, counted as the walkers
# recurse (a chain of + - * / is one level): each nesting level adds at most
# four, as in `x + x*sin(...)^x`, and the innermost `x + x*x` three.
# `SurrogateModel` refuses deeper trees, which only direct construction makes.
_MAX_TREE_DEPTH = 4 * MAX_DEPTH + 3

# Left-associative binary operators: the walkers loop down the left operands
# of a chain of these (see `_spine`) and recurse only into the right ones.
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}

# Fields after the operator in each expression node: `num` holds a value,
# `var` a variable index, `fun` a name from FUNCTIONS and an operand node,
# and the others their operand nodes.
_FIELDS = {"num": 1, "var": 1, "neg": 1, "fun": 2, "pow": 2, **dict.fromkeys(_ARITH, 2)}

# Built-in demonstration model: strongly nonlinear in all four parameters
# and non-smooth at xi4 = 0.
SYNTHETIC_MODEL = """\
xi1 ~ N(0, 1)
xi2 ~ N(0, 1)
xi3 ~ N(0, 1)
xi4 ~ U(-0.5, 0.5)
f = xi1 + 0.5*exp(0.52*xi2) + 0.3*sqrt(2.1*abs(xi4)) + sin(xi3)*cos(3.91*xi4)
"""


@dataclass(frozen=True)
class Distribution:
    """A declared input distribution: gaussian(mean, stddev) or uniform(lo, hi)."""

    kind: str
    p1: float
    p2: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise ValueError(f"{self.kind} parameters must be finite, got ({self.p1}, {self.p2})")
        if self.kind == "gaussian":
            if not self.p2 > 0:
                raise ValueError(f"gaussian stddev must be positive, got {self.p2}")
        elif not self.p1 < self.p2:
            raise ValueError(f"uniform requires lo < hi, got ({self.p1}, {self.p2})")
        elif not math.isfinite(self.p2 - self.p1):
            # numpy's uniform draws need hi - lo itself to be a finite double
            raise ValueError(f"uniform width hi - lo overflows, got ({self.p1}, {self.p2})")

    def mean(self) -> float:
        if self.kind == "gaussian":
            return self.p1
        return 0.5 * (self.p1 + self.p2)

    def variance(self) -> float:
        if self.kind == "gaussian":
            return self.p2**2
        return (self.p2 - self.p1) ** 2 / 12.0

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(self.p1, self.p2, count)
        return rng.uniform(self.p1, self.p2, count)


@dataclass(frozen=True)
class SurrogateModel:
    """Parsed scalar model: an expression tree over declared variables.

    Immutable after parsing; safe for concurrent evaluation.
    """

    names: tuple[str, ...]
    distributions: tuple[Distribution, ...]
    expr: tuple

    def __post_init__(self):
        """Raise `InvariantViolation` for a model the evaluators cannot run
        or `print_model` cannot print: names and distributions of different
        lengths, an expression node of unknown operator or shape, a function
        outside FUNCTIONS, a variable index that is not an integer in
        [0, dim), a constant that is not a real number or is nan, or a tree
        deeper than `parse_model` builds."""
        if len(self.names) != len(self.distributions):
            raise InvariantViolation(
                f"{len(self.names)} names for {len(self.distributions)} distributions"
            )
        stack = [(self.expr, 0, False)]
        while stack:
            node, depth, left = stack.pop()
            operands = _operands(node, self.dim)
            # the left operand of + - * / continues the same chain
            if not (left and node[0] in _ARITH):
                depth += 1
            if depth > _MAX_TREE_DEPTH:
                raise InvariantViolation(
                    f"expression tree is deeper than {_MAX_TREE_DEPTH} levels"
                )
            stack.extend((child, depth, k == 0 and node[0] in _ARITH)
                         for k, child in enumerate(operands))

    @property
    def dim(self) -> int:
        return len(self.names)

    # CPython compares, prints and pickles nested tuples recursively in C and
    # stops at about 1000 levels, which a sum of 1000 terms reaches; these go
    # through the tree's preorder instead, which no walk recurses over.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.names, self.distributions, _preorder(self.expr)) == (
            other.names, other.distributions, _preorder(other.expr))

    def __hash__(self):
        return hash((self.names, self.distributions, _preorder(self.expr)))

    def __repr__(self):
        return (f"{type(self).__qualname__}(names={self.names!r}, "
                f"distributions={self.distributions!r}, expr={_tree_repr(self.expr)})")

    def __reduce__(self):
        return _rebuild_model, (self.names, self.distributions, _preorder(self.expr))


# Operand nodes of each expression node kind: the last fields of its node.
_OPERANDS = {op: n - (op in ("num", "var", "fun")) for op, n in _FIELDS.items()}


def _preorder(expr) -> tuple:
    """The nodes of `expr` in preorder, each cut to its operator and the
    fields that are not operand nodes. Two trees are equal exactly when
    their preorders are, and `_rebuild_model` rebuilds a tree from one."""
    heads, stack = [], [expr]
    while stack:
        node = stack.pop()
        cut = len(node) - _OPERANDS[node[0]]
        heads.append(node[:cut])
        stack.extend(reversed(node[cut:]))
    return tuple(heads)


def _rebuild_model(names, distributions, heads) -> SurrogateModel:
    """The model `SurrogateModel.__reduce__` pickled: its tree rebuilt from
    its preorder, last node first, so every node's operands are built
    before it."""
    built = []
    for head in reversed(heads):
        operands = [built.pop() for _ in range(_OPERANDS[head[0]])]
        built.append(head + tuple(operands))
    (expr,) = built
    return SurrogateModel(names, distributions, expr)


def _tree_repr(expr) -> str:
    """`repr(expr)`, written from the tree's preorder."""
    parts, unopened = [], []  # operands not yet started, per open node
    for head in _preorder(expr):
        if unopened:
            parts.append(", ")
            unopened[-1] -= 1
        parts.append("(" + ", ".join(map(repr, head)))
        unopened.append(_OPERANDS[head[0]])
        while unopened and unopened[-1] == 0:
            parts.append(")")
            unopened.pop()
    return "".join(parts)


def _operands(node, dim: int) -> tuple:
    """The operand nodes of one expression node, after checking that the
    walkers and the printer handle it; `InvariantViolation` names it if not."""
    op = node[0] if isinstance(node, tuple) and node else None
    if op not in _FIELDS or len(node) != 1 + _FIELDS[op]:
        raise InvariantViolation(f"unknown expression node {reprlib.repr(node)}")
    if op == "var":
        index = node[1]
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise InvariantViolation(
                f"variable index {index!r} is not an integer in {reprlib.repr(node)}"
            )
        if not 0 <= index < dim:
            raise InvariantViolation(f"variable index {index} is outside [0, {dim})")
        return ()
    if op == "num":
        value = node[1]
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise InvariantViolation(f"constant {value!r} is not a real number in {reprlib.repr(node)}")
        if math.isnan(value):  # no model text yields one, and none prints
            raise InvariantViolation(f"constant nan in {reprlib.repr(node)}")
        return ()
    if op == "fun" and node[1] not in FUNCTIONS:
        raise InvariantViolation(
            f"unknown function {node[1]!r} in {reprlib.repr(node)}; "
            f"expected one of {', '.join(FUNCTIONS)}"
        )
    return node[2:] if op == "fun" else node[1:]


@dataclass(frozen=True)
class SampleSet:
    """Model outputs at `count` i.i.d. parameter draws from a single seeded stream."""

    values: np.ndarray
    count: int
    seed: int


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>   \d+\.\d*(?:[eE][+-]?\d+)? | \.\d+(?:[eE][+-]?\d+)? | \d+(?:[eE][+-]?\d+)? )
  | (?P<name>  [A-Za-z_][A-Za-z_0-9]* )
  | (?P<op>    [-+*/^()=,~;] )
  | (?P<ws>    [ \t\r]+ )
  | (?P<comment> \#[^\n]* )
  | (?P<nl>    \n )
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Return (kind, text, line, col) tokens; newlines kept as statement breaks."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ModelSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            tokens.append(("break", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind == "op" and text == ";":
                tokens.append(("break", ";", line, col))
            elif kind not in ("ws", "comment"):
                tokens.append((kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, var_index):
        self.tokens = tokens
        self.i = 0
        self.var_index = var_index
        self.open = 0  # parentheses, function calls, signs and exponents open

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message):
        _, text, line, col = self.peek()
        raise ModelSyntaxError(message, line, col)

    def expect_op(self, op):
        kind, text, _, _ = self.peek()
        if kind == "op" and text == op:
            return self.next()
        self.error(f"expected {op!r}")

    def nested(self, parse):
        """Run `parse` one nesting level deeper, refusing level MAX_DEPTH + 1."""
        if self.open == MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")
        self.open += 1
        node = parse()
        self.open -= 1
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                node = ("add" if text == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.unary()
                node = ("mul" if text == "*" else "div", node, rhs)
            else:
                return node

    def unary(self):
        kind, text, _, _ = self.peek()
        if kind == "op" and text in "+-":
            self.next()
            child = self.nested(self.unary)
            return child if text == "+" else ("neg", child)
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return ("pow", base, self.nested(self.unary))
        return base

    def atom(self):
        kind, text, line, col = self.peek()
        if kind == "num":
            self.next()
            return ("num", float(text))
        if kind == "name":
            self.next()
            nkind, ntext, _, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ModelSyntaxError(f"unknown function {text!r}", line, col)
                self.next()
                arg = self.nested(self.expr)
                self.expect_op(")")
                return ("fun", text, arg)
            if text not in self.var_index:
                raise ModelSyntaxError(f"undeclared variable {text!r}", line, col)
            return ("var", self.var_index[text])
        if kind == "op" and text == "(":
            self.next()
            node = self.nested(self.expr)
            self.expect_op(")")
            return node
        self.error("expected a number, variable, function call or '('")


def _parse_signed_number(p: _Parser) -> float:
    sign = 1.0
    kind, text, _, _ = p.peek()
    while kind == "op" and text in "+-":
        if text == "-":
            sign = -sign
        p.next()
        kind, text, _, _ = p.peek()
    if kind != "num":
        p.error("expected a number")
    p.next()
    return sign * float(text)


def parse_model(source: str) -> SurrogateModel:
    """Parse model source text; see the module docstring for the grammar.

    Raises ModelSyntaxError (with line/column) on malformed input,
    undeclared or duplicated variables, unknown functions, and an expression
    nested deeper than `MAX_DEPTH` levels.
    """
    tokens = _tokenize(source)
    # split into statements on break tokens
    statements = []
    current = []
    for tok in tokens:
        if tok[0] in ("break", "eof"):
            if current:
                statements.append(current + [("eof", "", tok[2], tok[3])])
            current = []
        else:
            current.append(tok)

    names: list[str] = []
    dists: list[Distribution] = []
    expr = None
    for stmt in statements:
        kind, text, line, col = stmt[0]
        is_decl = (
            kind == "name"
            and len(stmt) > 1
            and stmt[1][0] == "op"
            and stmt[1][1] == "~"
        )
        if is_decl:
            if text == "f":
                raise ModelSyntaxError("'f' is reserved for the model expression", line, col)
            if text in names:
                raise ModelSyntaxError(f"duplicate declaration of {text!r}", line, col)
            p = _Parser(stmt, {})
            p.next()  # name
            p.next()  # ~
            dkind, dtext, dline, dcol = p.next()
            if dkind != "name" or dtext not in ("N", "U"):
                raise ModelSyntaxError("expected distribution N(...) or U(...)", dline, dcol)
            p.expect_op("(")
            a = _parse_signed_number(p)
            p.expect_op(",")
            b = _parse_signed_number(p)
            p.expect_op(")")
            if p.peek()[0] != "eof":
                p.error("unexpected trailing input after declaration")
            try:
                dist = Distribution("gaussian" if dtext == "N" else "uniform", a, b)
            except ValueError as exc:
                raise ModelSyntaxError(str(exc), dline, dcol) from None
            names.append(text)
            dists.append(dist)
        elif kind == "name" and text == "f":
            if expr is not None:
                raise ModelSyntaxError("duplicate model expression 'f = ...'", line, col)
            p = _Parser(stmt, {n: i for i, n in enumerate(names)})
            p.next()  # f
            nkind, ntext, nline, ncol = p.next()
            if nkind != "op" or ntext != "=":
                raise ModelSyntaxError("expected '=' after 'f'", nline, ncol)
            try:
                expr = p.expr()
            except RecursionError:  # only when called from an already deep stack
                raise ModelSyntaxError("expression nests too deeply to parse", line, col) from None
            if p.peek()[0] != "eof":
                p.error("unexpected trailing input after expression")
        else:
            raise ModelSyntaxError(
                "expected a declaration 'name ~ N(...)' or 'f = <expr>'", line, col
            )
    if expr is None:
        raise ModelSyntaxError("model has no expression line 'f = ...'", 1, 1)
    return SurrogateModel(tuple(names), tuple(dists), expr)


def _spine(node) -> tuple[tuple, list[tuple]]:
    """Split `node` into its chain of + - * / nodes and the first operand.

    Returns `(first, links)`: `links` are the chain's nodes, innermost
    first, each with the one before it (or `first`) as its left operand.
    A node that is not + - * / is its own `first`, with no links.
    """
    links = []
    while node[0] in _ARITH:
        links.append(node)
        node = node[1]
    links.reverse()
    return node, links


# ---------------------------------------------------------------------------
# canonical printer (parse . print . parse == parse)
# ---------------------------------------------------------------------------

_ATOM, _POW, _NEG, _MULDIV, _ADDSUB = 5, 4, 3, 2, 1
_SIGNS = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def _number(value) -> str:
    """`value` as text `parse_model` reads back to the same double: the
    `repr` of a Python float, with inf as 1e999, which overflows to it."""
    value = float(value)
    return ("-" if math.copysign(1.0, value) < 0 else "") + (
        "1e999" if math.isinf(value) else repr(abs(value))
    )


def _fmt(node) -> tuple[str, int]:
    op = node[0]
    if op == "num":
        text = _number(node[1])
        # a negative constant prints as a negation, and binds like one
        return text, _NEG if text.startswith("-") else _ATOM
    if op == "var":
        return f"@{node[1]}", _ATOM  # placeholder, replaced by caller
    if op == "fun":
        arg, _ = _fmt(node[2])
        return f"{node[1]}({arg})", _ATOM
    if op == "neg":
        body, prec = _fmt(node[1])
        if prec <= _MULDIV:
            body = f"({body})"
        return f"-{body}", _NEG
    if op in _ARITH:
        first, links = _spine(node)
        lt, lp = _fmt(first)
        for link in links:
            rt, rp = _fmt(link[2])
            level = _ADDSUB if link[0] in ("add", "sub") else _MULDIV
            if lp < level:
                lt = f"({lt})"
            if rp <= level:
                rt = f"({rt})"
            lt, lp = f"{lt}{_SIGNS[link[0]]}{rt}", level
        return lt, lp
    if op == "pow":
        lt, lp = _fmt(node[1])
        rt, rp = _fmt(node[2])
        if lp <= _POW:
            lt = f"({lt})"
        if rp < _NEG:
            rt = f"({rt})"
        return f"{lt}^{rt}", _POW
    raise AssertionError(f"unreachable node {op!r}")


def print_model(model: SurrogateModel) -> str:
    """Render a model back to canonical source text."""
    lines = []
    for name, dist in zip(model.names, model.distributions):
        letter = "N" if dist.kind == "gaussian" else "U"
        lines.append(f"{name} ~ {letter}({_number(dist.p1)}, {_number(dist.p2)})")
    body, _ = _fmt(model.expr)
    body = re.sub(r"@(\d+)", lambda m: model.names[int(m.group(1))], body)
    lines.append(f"f = {body}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation / sampling
# ---------------------------------------------------------------------------


def _eval_tree(node, columns, slots=()):
    """Value of `node`: a `var` leaf reads `columns`, a `slot` leaf `slots`.

    Constants are `np.float64`, so a constant subexpression such as `1/0`,
    `10^400` or `(0-2)^0.5` yields inf or nan for the non-finite checks
    instead of a Python exception or a complex number.
    """
    op = node[0]
    if op == "num":
        return np.float64(node[1])
    if op == "var":
        return columns[node[1]]
    if op == "slot":
        return slots[node[1]]
    if op in _ARITH:
        first, links = _spine(node)
        acc = _eval_tree(first, columns, slots)
        for link in links:
            acc = _ARITH[link[0]](acc, _eval_tree(link[2], columns, slots))
        return acc
    if op == "neg":
        return -_eval_tree(node[1], columns, slots)
    if op == "fun":
        arg = _eval_tree(node[2], columns, slots)
        if node[1] == "sqrt":
            if np.any(np.asarray(arg) < 0):
                raise EvaluationError("sqrt of a negative argument")
            return np.sqrt(arg)
        if node[1] == "abs":
            return np.abs(arg)
        return getattr(np, node[1])(arg)
    if op == "pow":
        return _eval_tree(node[1], columns, slots) ** _eval_tree(node[2], columns, slots)
    raise AssertionError(f"unreachable node {op!r}")


def evaluate(model: SurrogateModel, point) -> float:
    """Evaluate the model at one parameter point (length = number of variables)."""
    point = np.asarray(point, dtype=float)
    if point.shape != (model.dim,):
        raise EvaluationError(
            f"point has shape {point.shape}, model expects ({model.dim},)"
        )
    with np.errstate(all="ignore"):
        value = _eval_tree(model.expr, list(point))
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(f"model evaluated to a non-finite value at {point.tolist()}")
    return value


# Rows per drawn block in `sample`: each holds 2**13 doubles (64 KB) and
# stays in cache.
_BLOCK = 1 << 13


def _plan(expr) -> dict[int, tuple[tuple, list[int]]]:
    """Split `expr` into the jobs `{var: (tree, done)}` that `sample` runs.

    Job `var` is evaluated block by block while variable `var` is drawn,
    into the sample-long slot `var`, which a parent reads through the leaf
    `("slot", var)`; `done` lists the slots it is the last to read.
    A subtree whose last-drawn variable comes before its parent's is cut
    out as the job of that variable, unless that variable would have more
    than one such subtree: then its job is its drawn column, and those
    subtrees stay in their parents, reading it. So each variable has at most
    one slot, and constant subtrees stay in place. The root is the job of
    its last variable; a constant expression has no job.
    """
    last = {}  # id(node) -> last variable in node, -1 for a constant
    cuts = {}  # variable -> number of subtrees cut out for it

    def note(node, kids):  # record `node`, whose operands' last variables are `kids`
        v = max(kids)
        for k in kids:
            if 0 <= k < v:
                cuts[k] = cuts.get(k, 0) + 1
        last[id(node)] = v
        return v

    def scan(node):  # loops along a chain of + - * / (see `_spine`)
        first, links = _spine(node)
        op = first[0]
        if op in ("num", "var"):
            v = last[id(first)] = first[1] if op == "var" else -1
        else:
            kids = []
            for c in first[1:]:
                if isinstance(c, tuple):
                    kids.append(scan(c))
            v = note(first, kids)
        for link in links:
            v = note(link, [v, scan(link[2])])
        return v

    root = scan(expr)
    columns = {v for v, n in cuts.items() if n > 1}
    jobs = {v: ("var", v) for v in columns}

    def hold(node, tree, parent):  # `tree`, the cut `node`, as `parent` reads it
        v = last[id(node)]
        if 0 <= v < last[id(parent)] and v not in columns:
            jobs[v] = tree
            return ("slot", v)
        return tree

    def cut(node):  # node with its cut subtrees and column variables as slot leaves
        first, links = _spine(node)
        op = first[0]
        if op in ("num", "var"):
            tree = ("slot", first[1]) if op == "var" and first[1] in columns else first
        else:
            kids = []
            for c in first[1:]:
                kids.append(hold(c, cut(c), first) if isinstance(c, tuple) else c)
            tree = (op, *kids)
        for below, link in zip([first, *links], links):
            tree = (link[0], hold(below, tree, link), hold(link[2], cut(link[2]), link))
        return tree

    tree = cut(expr)
    if root >= 0:
        jobs[root] = tree
    reader = {}  # slot -> last job that reads it
    for v in sorted(jobs):
        for s in _slot_leaves(jobs[v]):
            reader[s] = v
    return {v: (t, [s for s in sorted(reader) if reader[s] == v]) for v, t in jobs.items()}


def _slot_leaves(node) -> list[int]:
    slots, stack = [], [node]
    while stack:
        node = stack.pop()
        if node[0] == "slot":
            slots.append(node[1])
        else:
            stack.extend(c for c in node[1:] if isinstance(c, tuple))
    return slots


def _draws(model: SurrogateModel, count: int, rng: np.random.Generator, used):
    """Each variable in `used` as `_BLOCK`-row blocks, in stream order.

    One stream, `rng`, each variable's `count` draws in declaration order,
    up to the last used variable; the blocks of an unused variable are
    drawn only to advance the stream. Drawing `_BLOCK` rows at a time
    consumes the stream exactly as one `count`-long draw does.
    """
    for var in range(max(used, default=-1) + 1):
        draw = model.distributions[var].draw
        for start in range(0, count, _BLOCK):
            block = draw(rng, min(_BLOCK, count - start))
            if var in used:
                yield block


def sample(model: SurrogateModel, count: int, seed: int) -> SampleSet:
    """Draw `count` i.i.d. parameter vectors and evaluate the model at each.

    Deterministic for a fixed seed: one PCG64 stream, each variable's
    `count` draws in declaration order (see `_draws`). Every subtree of the
    expression is evaluated while its last variable is drawn, into a
    `count`-long slot that reuses the buffer of a slot it is the last to
    read (see `_plan`). Each variable has at most one slot, so at most `dim`
    arrays as long as the sample are alive at once, against the `dim + 1`
    of whole columns and the output: two for `SYNTHETIC_MODEL`, and one,
    the output, for a sum of one-variable terms.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 2:
        raise DegenerateSamplesError(f"need at least 2 samples, got {count}")
    jobs = _plan(model.expr)
    root = max(jobs, default=-1)
    slots = {}
    blocks = _draws(model, count, np.random.default_rng(seed), jobs)
    with np.errstate(all="ignore"):
        for var in sorted(jobs):
            tree, done = jobs[var]
            out = slots[done[0]] if done else np.empty(count)
            for start in range(0, count, _BLOCK):
                rows = slice(start, start + _BLOCK)
                views = {s: a[rows] for s, a in slots.items()}
                out[rows] = _eval_tree(tree, {var: next(blocks)}, views)
            for s in done:
                del slots[s]
            slots[var] = out
        values = slots[root] if jobs else np.full(count, _eval_tree(model.expr, ()))
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EvaluationError(f"model evaluated to a non-finite value at draw {bad}")
    return SampleSet(values=values, count=count, seed=seed)


# ---------------------------------------------------------------------------
# sample file I/O: one value per line, or CSV with a single column
# (optional header detected by a failed parse of the first line)
# ---------------------------------------------------------------------------

# Values per write in `save_samples`: bounds the text held at once to a
# few hundred kilobytes whatever the sample count. Each block is one `%`
# format with one `%.17g` line per value, the full block's format built once.
_SAVE_CHUNK = 1 << 13
_SAVE_LINE = "%.17g\n"
_SAVE_FORMAT = _SAVE_LINE * _SAVE_CHUNK


def _sample_row(path, i: int, row: str) -> float:
    """The value of one row of a sample file; `i` is its 1-based line."""
    try:
        (field,) = (f for f in row.split(",") if f.strip())
        value = float(field)
    except ValueError:  # not exactly one non-blank field, or not a number
        value = math.nan
    if not math.isfinite(value):
        raise DegenerateSamplesError(f"{path}, row {i}: expected one finite number, got {row!r}")
    return value


def _first_row(fh):
    """The next line of `fh` that is not blank, or None at the end."""
    for line in iter(fh.readline, ""):
        if line.strip():
            return line
    return None


def _load_rows(path, fh, header: bool) -> np.ndarray:
    """`load_samples` row by row in one pass from the top of the open file
    `fh`, skipping its first row that is not blank if `header`."""
    fh.seek(0)
    values = array("d")
    try:
        for i, line in enumerate(fh, 1):
            row = line.strip()
            if not row:
                continue
            if header:
                header = False
                continue
            values.append(_sample_row(path, i, row))
    except DegenerateSamplesError:
        for _ in fh:  # a line that is not UTF-8 anywhere in the file is named first
            pass
        raise
    return np.frombuffer(values)


def _undecodable_line(path) -> int:
    """The 1-based number of the first line of `path` that is not UTF-8."""
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return i
    raise AssertionError(f"{path} decodes as UTF-8")


def load_samples(path) -> np.ndarray:
    """Read a sample file written by `save_samples` or by hand.

    One value per line, or a single-column CSV (blank fields beside the
    value are ignored); an optional header line; blank lines are skipped.
    Raises `DegenerateSamplesError` for a file without values, for a row
    that is not one finite number and for a line that is not UTF-8 text,
    naming the line.

    The first line that is not blank is a header if its first field is not
    a number. The rest goes through numpy's text reader; a file it refuses
    or reads as non-finite or as several columns is read again in one pass
    of `float()` per row, which gives the same values and names the line of
    the first bad row. Neither path holds the text or a string per row.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = _first_row(fh)
            if first is None:
                raise DegenerateSamplesError(f"no samples in {path}")
            try:
                float(first.strip().split(",")[0])
            except ValueError:  # a header: the values start on the next line
                header = True
                start = fh.tell()
                if _first_row(fh) is None:
                    raise DegenerateSamplesError(f"no samples in {path}") from None
                fh.seek(start)
            else:
                header = False
                fh.seek(0)
            try:
                # the open file, not its name: numpy opens a name through its
                # `_datasource`, which imports gzip, decompresses by extension
                # and fetches URLs
                values = np.loadtxt(fh, dtype=float, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                values = None
            if values is None or values.shape[1] != 1 or not np.isfinite(values).all():
                return _load_rows(path, fh, header)
    except UnicodeDecodeError:
        raise DegenerateSamplesError(
            f"{path}, line {_undecodable_line(path)}: not UTF-8 text"
        ) from None
    return values.reshape(-1)


def save_samples(values: np.ndarray, path) -> None:
    """Write one value per line with 17 significant digits (`%.17g`), so
    `load_samples`, `np.loadtxt` and `float()` read back the same bits.

    Seventeen digits always identify a binary64 value (IEEE 754-2008
    §5.12.2) and format about a third faster than `repr`'s shortest
    round-trip text: `-0.5000461952136379` is written `-0.50004619521363791`,
    `3.0` as `3` and `-0.0` as `-0`.

    Raises `ValueError`, before the file is opened, for an array that is
    not 1-D or holds a non-finite value (`load_samples` rejects both).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"save_samples takes a 1-D array, got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"save_samples takes finite values, got {values[bad]} at index {bad}")
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(values), _SAVE_CHUNK):
            chunk = tuple(values[start : start + _SAVE_CHUNK].tolist())
            form = _SAVE_FORMAT if len(chunk) == _SAVE_CHUNK else _SAVE_LINE * len(chunk)
            fh.write(form % chunk)
