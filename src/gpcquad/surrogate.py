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

A parsed expression is a postfix program, a flat tuple of instructions with
each operand placed before the instruction that reads it (see
`SurrogateModel`): `x0 + 2*x1` is
`(("var", 0), ("num", 2.0), ("var", 1), ("mul",), ("add",))`. No walker
recurses: the parser is one operator-precedence loop that appends the
program, and every other walker is one loop over it with a stack of values.
So source text may nest parentheses, calls, signs and exponents to any
depth, and programs of any length and depth evaluate, print, compare and
pickle.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSamplesError,
    EvaluationError,
    InvariantViolation,
    ModelSyntaxError,
    integer,
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
]

FUNCTIONS = ("exp", "sin", "cos", "sqrt", "abs")

# Binary instructions: each replaces its two operands, left below right on
# the stack, with its result.
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv, "pow": operator.pow}

# Each instruction's fields after the operator (`num` holds a value, `var` a
# variable index and `fun` a name from FUNCTIONS) and the operands it reads.
_SHAPES = {"num": (1, 0), "var": (1, 0), "neg": (0, 1), "fun": (1, 1), **dict.fromkeys(_BINARY, (0, 2))}

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

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(self.p1, self.p2, count)
        return rng.uniform(self.p1, self.p2, count)


@dataclass(frozen=True)
class SurrogateModel:
    """Parsed scalar model: a postfix program over declared variables.

    `expr` is a flat tuple of instructions, each operand placed before the
    instruction that reads it. `("num", v)` pushes the constant `v` and
    `("var", i)` variable `i`; `("neg",)` and `("fun", name)` replace the
    top value; `("add",)`, `("sub",)`, `("mul",)`, `("div",)` and `("pow",)`
    replace the top two, left operand below right. A program built directly
    may have any length and depth: no walker recurses over it.

    Immutable after parsing; safe for concurrent evaluation. `==`, `hash`,
    `repr` and pickling are the dataclass defaults.
    """

    names: tuple[str, ...]
    distributions: tuple[Distribution, ...]
    expr: tuple

    def __post_init__(self):
        """Raise `InvariantViolation` for a model the evaluators cannot run
        or `print_model` cannot print: names and distributions of different
        lengths, an expression that is not a tuple, an instruction of
        unknown operator or shape, a function outside FUNCTIONS, a variable
        index that is not an integer in [0, dim), a constant that is not a
        real number or is nan, an instruction whose operands are missing,
        or a program that does not leave exactly one value."""
        if len(self.names) != len(self.distributions):
            raise InvariantViolation(
                f"{len(self.names)} names for {len(self.distributions)} distributions"
            )
        if not isinstance(self.expr, tuple):
            raise InvariantViolation(f"expression {reprlib.repr(self.expr)} is not a tuple of instructions")
        values = 0  # on the stack after each instruction
        for k, ins in enumerate(self.expr):
            reads = _operands(ins, self.dim)
            if reads > values:
                raise InvariantViolation(f"operand missing for instruction {k}, {reprlib.repr(ins)}")
            values += 1 - reads
        if values != 1:
            raise InvariantViolation(f"expression program leaves {values} values, not 1")

    @property
    def dim(self) -> int:
        return len(self.names)


def _operands(ins, dim: int) -> int:
    """The number of operands one instruction reads, after checking that the
    walkers and the printer handle it; `InvariantViolation` names it if not."""
    op = ins[0] if isinstance(ins, tuple) and ins and isinstance(ins[0], str) else None
    if op not in _SHAPES or len(ins) != 1 + _SHAPES[op][0]:
        raise InvariantViolation(f"unknown instruction {reprlib.repr(ins)}")
    if op == "var":
        index = ins[1]
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise InvariantViolation(
                f"variable index {index!r} is not an integer in {reprlib.repr(ins)}"
            )
        if not 0 <= index < dim:
            raise InvariantViolation(f"variable index {index} is outside [0, {dim})")
    elif op == "num":
        value = ins[1]
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise InvariantViolation(f"constant {value!r} is not a real number in {reprlib.repr(ins)}")
        if math.isnan(value):  # no model text yields one, and none prints
            raise InvariantViolation(f"constant nan in {reprlib.repr(ins)}")
    elif op == "fun" and ins[1] not in FUNCTIONS:
        raise InvariantViolation(
            f"unknown function {ins[1]!r} in {reprlib.repr(ins)}; "
            f"expected one of {', '.join(FUNCTIONS)}"
        )
    return _SHAPES[op][1]


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no truth value or hash
class SampleSet:
    """Model outputs at `count` i.i.d. parameter draws from a single seeded stream."""

    values: np.ndarray
    seed: int

    @property
    def count(self) -> int:
        return self.values.size


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

# re.ASCII: a number is written in the digits 0-9 alone, where `\d` would
# otherwise read any Unicode decimal digit ('\u0663', '\uff11') as its value
_TOKEN_RE = re.compile(
    r"""
    (?P<num>   \d+\.\d*(?:[eE][+-]?\d+)? | \.\d+(?:[eE][+-]?\d+)? | \d+(?:[eE][+-]?\d+)? )
  | (?P<name>  [A-Za-z_][A-Za-z_0-9]* )
  | (?P<op>    [-+*/^()=,~] )
  | (?P<break> [\n;] )
  | (?P<ws>    [ \t\r]+ )
  | (?P<comment> \#[^\n]* )
    """,
    re.VERBOSE | re.ASCII,
)


def _tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Return (kind, text, line, col) tokens; a newline or `;` is a `break`."""
    tokens = []
    line, start = 1, 0  # start: the offset of the line's first character
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ModelSyntaxError(f"unexpected character {source[pos]!r}", line, pos - start + 1)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.lastgroup, m.group(), line, pos - start + 1))
        pos = m.end()
        if m.group() == "\n":
            line, start = line + 1, pos
    tokens.append(("eof", "", line, pos - start + 1))
    return tokens


_ATOM, _POW, _NEG, _MULDIV, _ADDSUB = 5, 4, 3, 2, 1

# Each binary instruction as text: its sign, the precedence of its result,
# and the least precedence its left and its right operand keep unbracketed.
_INFIX = {
    "add": (" + ", _ADDSUB, _ADDSUB, _MULDIV),
    "sub": (" - ", _ADDSUB, _ADDSUB, _MULDIV),
    "mul": ("*", _MULDIV, _MULDIV, _NEG),
    "div": ("/", _MULDIV, _MULDIV, _NEG),
    "pow": ("^", _POW, _ATOM, _NEG),
}

# The binary instruction of each operator token.
_OPERATORS = {sign.strip(): op for op, (sign, *_) in _INFIX.items()}


class _Parser:
    """A model's tokens, read from `i` on; `expr` appends the postfix
    program of an expression to `code`, and `var_index` maps each variable
    declared so far to its index."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.var_index = {}
        self.code = []

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message):
        _, text, line, col = self.peek()
        raise ModelSyntaxError(message, line, col)

    def end(self, what):
        if self.peek()[0] not in ("break", "eof"):
            self.error(f"unexpected trailing input after {what}")

    def expect_op(self, op):
        kind, text, _, _ = self.peek()
        if kind == "op" and text == op:
            return self.next()
        self.error(f"expected {op!r}")

    def expr(self):
        """Operator precedence in one loop, up to the first token that cannot
        continue the expression.

        `pending` holds the negations, binary instructions, parentheses and
        calls still open, each with the precedence of its result; a bracket's
        is 0, and `None` or the call's instruction stands for it. A binary
        operator first appends the pending instructions its left operand
        keeps unbracketed (`_INFIX`), so a sign binds between `* /` and `^`,
        and `^` groups to the right.
        """
        pending = []
        operand = True  # an operand comes next, not an operator
        while True:
            kind, text, line, col = self.peek()
            if not operand:
                op = _OPERATORS.get(text) if kind == "op" else None
                least = _INFIX[op][2] if op else _ADDSUB
                while pending and pending[-1][0] >= least:
                    self.code.append(pending.pop()[1])
                if op:
                    pending.append((_INFIX[op][1], (op,)))
                    operand = True
                elif pending and kind == "op" and text == ")":
                    _, call = pending.pop()
                    if call:
                        self.code.append(call)
                elif pending:
                    self.error("expected ')'")
                else:
                    return
            elif kind == "op" and text in ("+", "-", "("):
                if text != "+":
                    pending.append((_NEG, ("neg",)) if text == "-" else (0, None))
            elif kind == "num":
                self.code.append(("num", float(text)))
                operand = False
            elif kind == "name" and self.tokens[self.i + 1][:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise ModelSyntaxError(f"unknown function {text!r}", line, col)
                self.next()
                pending.append((0, ("fun", text)))
            elif kind == "name":
                if text not in self.var_index:
                    raise ModelSyntaxError(f"undeclared variable {text!r}", line, col)
                self.code.append(("var", self.var_index[text]))
                operand = False
            else:
                self.error("expected a number, variable, function call or '('")
            self.next()


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
    undeclared or duplicated variables and unknown functions.
    """
    p = _Parser(_tokenize(source))
    dists: list[Distribution] = []
    expr = None
    while True:
        kind, text, line, col = p.next()
        if kind == "break":
            continue
        if kind == "eof":
            break
        if kind == "name" and p.peek()[:2] == ("op", "~"):
            if text == "f":
                raise ModelSyntaxError("'f' is reserved for the model expression", line, col)
            if text in p.var_index:
                raise ModelSyntaxError(f"duplicate declaration of {text!r}", line, col)
            p.next()  # ~
            dkind, dtext, dline, dcol = p.next()
            if dkind != "name" or dtext not in ("N", "U"):
                raise ModelSyntaxError("expected distribution N(...) or U(...)", dline, dcol)
            p.expect_op("(")
            a = _parse_signed_number(p)
            p.expect_op(",")
            b = _parse_signed_number(p)
            p.expect_op(")")
            p.end("declaration")
            try:
                dists.append(Distribution("gaussian" if dtext == "N" else "uniform", a, b))
            except ValueError as exc:
                raise ModelSyntaxError(str(exc), dline, dcol) from None
            p.var_index[text] = len(p.var_index)
        elif kind == "name" and text == "f":
            if expr is not None:
                raise ModelSyntaxError("duplicate model expression 'f = ...'", line, col)
            nkind, ntext, nline, ncol = p.next()
            if nkind != "op" or ntext != "=":
                raise ModelSyntaxError("expected '=' after 'f'", nline, ncol)
            p.expr()
            p.end("expression")
            expr = tuple(p.code)
        else:
            raise ModelSyntaxError(
                "expected a declaration 'name ~ N(...)' or 'f = <expr>'", line, col
            )
    if expr is None:
        raise ModelSyntaxError("model has no expression line 'f = ...'", 1, 1)
    return SurrogateModel(tuple(p.var_index), tuple(dists), expr)


# ---------------------------------------------------------------------------
# canonical printer (parse . print . parse == parse)
# ---------------------------------------------------------------------------

def _number(value) -> str:
    """`value` as text `parse_model` reads back to the same double: the
    `repr` of a Python float, with inf as 1e999, which overflows to it."""
    value = float(value)
    return ("-" if math.copysign(1.0, value) < 0 else "") + (
        "1e999" if math.isinf(value) else repr(abs(value))
    )


def _joined(front: deque, back: deque) -> deque:
    """`front` then `back`, made by copying the shorter into the longer, so
    that n joins building one sequence cost O(n log n) whichever way they lean."""
    if len(back) > len(front):
        back.extendleft(reversed(front))
        return back
    front.extend(back)
    return front


def _bracketed(parts: deque, prec: int, least: int) -> deque:
    if prec < least:
        parts.appendleft("(")
        parts.append(")")
    return parts


def print_model(model: SurrogateModel) -> str:
    """Render a model back to canonical source text."""
    lines = []
    for name, dist in zip(model.names, model.distributions):
        letter = "N" if dist.kind == "gaussian" else "U"
        lines.append(f"{name} ~ {letter}({_number(dist.p1)}, {_number(dist.p2)})")
    stack = []  # (pieces of text, precedence) of each value
    for ins in model.expr:
        op = ins[0]
        if op == "num":
            text = _number(ins[1])
            # a negative constant prints as a negation, and binds like one
            stack.append((deque([text]), _NEG if text.startswith("-") else _ATOM))
        elif op == "var":
            stack.append((deque([model.names[ins[1]]]), _ATOM))
        elif op == "fun":
            parts = stack[-1][0]
            parts.appendleft(ins[1] + "(")
            parts.append(")")
            stack[-1] = (parts, _ATOM)
        elif op == "neg":
            parts = _bracketed(*stack[-1], _NEG)
            parts.appendleft("-")
            stack[-1] = (parts, _NEG)
        else:
            sign, prec, left, right = _INFIX[op]
            (lt, lp), (rt, rp) = stack[-2:]
            parts = _bracketed(lt, lp, left)
            parts.append(sign)
            stack[-2:] = [(_joined(parts, _bracketed(rt, rp, right)), prec)]
    ((body, _),) = stack
    lines.append("f = " + "".join(body))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation / sampling
# ---------------------------------------------------------------------------


def _eval_program(program, columns, slots=()):
    """Value of `program`: a `var` instruction reads `columns`, a `slot`
    instruction `slots`.

    Constants are `np.float64`, so a constant subexpression such as `1/0`,
    `10^400` or `(0-2)^0.5` yields inf or nan for the non-finite checks
    instead of a Python exception or a complex number. Each instruction
    replaces its operands on the stack in place: no local name holds an
    operand, which would keep its block alive past the instruction.
    """
    stack = []
    for ins in program:
        op = ins[0]
        if op in _BINARY:
            stack[-2:] = [_BINARY[op](stack[-2], stack[-1])]
        elif op == "num":
            stack.append(np.float64(ins[1]))
        elif op == "var":
            stack.append(columns[ins[1]])
        elif op == "slot":
            stack.append(slots[ins[1]])
        elif op == "neg":
            stack[-1] = -stack[-1]
        else:
            stack[-1] = _function(ins[1], stack[-1])
    (value,) = stack
    return value


def _function(name: str, arg):
    if name == "sqrt" and np.any(np.asarray(arg) < 0):
        raise EvaluationError("sqrt of a negative argument")
    return getattr(np, name)(arg)


def evaluate(model: SurrogateModel, point) -> float:
    """Evaluate the model at one parameter point (length = number of variables)."""
    point = np.asarray(point, dtype=float)
    if point.shape != (model.dim,):
        raise EvaluationError(
            f"point has shape {point.shape}, model expects ({model.dim},)"
        )
    with np.errstate(all="ignore"):
        value = _eval_program(model.expr, list(point))
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(f"model evaluated to a non-finite value at {point.tolist()}")
    return value


# Rows per drawn block in `sample`: each holds 2**13 doubles (64 KB) and
# stays in cache.
_BLOCK = 1 << 13


def _lasts(program):
    """Each instruction of `program`, with the last variables of the operands
    it reads and of the value it leaves (-1 for a constant)."""
    stack = []
    for ins in program:
        cut = len(stack) - _SHAPES[ins[0]][1]
        kids = stack[cut:]
        del stack[cut:]
        stack.append(max(kids) if kids else ins[1] if ins[0] == "var" else -1)
        yield ins, kids, stack[-1]


def _plan(program) -> dict[int, tuple[tuple, list[int]]]:
    """Split `program` into the jobs `{var: (program, done)}` that `sample` runs.

    Job `var` is evaluated block by block while variable `var` is drawn,
    into the sample-long slot `var`, which a later job reads through the
    instruction `("slot", var)`; `done` lists the slots it is the last to
    read. An operand whose last-drawn variable comes before that of the
    instruction reading it is cut out as the job of that variable, unless
    that variable would have more than one such operand: then its job is
    its drawn column, and those operands stay in place, reading it. So each
    variable has at most one slot, and constant operands stay in place. The
    whole program is the job of its last variable; a constant expression has
    no job.

    A sum or product runs first the operand whose evaluation needs the
    deeper stack, so the block-long values held at once grow with the log
    of a program's length, however its sums lean, and every bit is kept.
    """
    cuts = {}  # variable -> number of operands cut out for it
    for _, kids, v in _lasts(program):
        for k in kids:
            if 0 <= k < v:
                cuts[k] = cuts.get(k, 0) + 1
    columns = {v for v, n in cuts.items() if n > 1}
    jobs = {v: (("var", v),) for v in columns}
    parts = []  # the instructions left in place for each value on the stack
    needs = []  # the stack depth each of them takes to run
    for ins, kids, v in _lasts(program):
        cut = len(parts) - len(kids)
        operands, depths = parts[cut:], needs[cut:]
        del parts[cut:], needs[cut:]
        for i, k in enumerate(kids):
            if 0 <= k < v and k not in columns:
                jobs[k] = tuple(operands[i])
                operands[i] = deque([("slot", k)])
                depths[i] = 1
        if ins[0] == "var" and v in columns:
            ins = ("slot", v)
        if ins[0] in ("add", "mul") and depths[1] > depths[0]:
            operands.reverse()  # IEEE + and * commute exactly
            depths.reverse()
        part = operands[0] if operands else deque()
        for operand in operands[1:]:
            part = _joined(part, operand)
        part.append(ins)
        parts.append(part)
        needs.append(max([1] + [d + i for i, d in enumerate(depths)]))
    if v >= 0:
        jobs[v] = tuple(part)
    reader = {}  # slot -> last job that reads it
    for v in sorted(jobs):
        for ins in jobs[v]:
            if ins[0] == "slot":
                reader[ins[1]] = v
    return {v: (p, [s for s in sorted(reader) if reader[s] == v]) for v, p in jobs.items()}


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
    `count` draws in declaration order (see `_draws`). Every operand of the
    expression is evaluated while its last variable is drawn, into a
    `count`-long slot that reuses the buffer of a slot it is the last to
    read (see `_plan`). Each variable has at most one slot, so at most `dim`
    arrays as long as the sample are alive at once, against the `dim + 1`
    of whole columns and the output: two for `SYNTHETIC_MODEL`, and one,
    the output, for a sum of one-variable terms.

    A `count` or `seed` that is not a non-negative integer raises
    ValueError, and a `count` under 2 `DegenerateSamplesError`.
    """
    count = integer(count, "count", 0)
    seed = integer(seed, "seed", 0)
    if count < 2:
        raise DegenerateSamplesError(f"need at least 2 samples, got {count}")
    jobs = _plan(model.expr)
    root = max(jobs, default=-1)
    slots = {}
    blocks = _draws(model, count, np.random.default_rng(seed), jobs)
    with np.errstate(all="ignore"):
        for var in sorted(jobs):
            program, done = jobs[var]
            out = slots[done[0]] if done else np.empty(count)
            for start in range(0, count, _BLOCK):
                rows = slice(start, start + _BLOCK)
                views = {s: a[rows] for s, a in slots.items()}
                out[rows] = _eval_program(program, {var: next(blocks)}, views)
            for s in done:
                del slots[s]
            slots[var] = out
        values = slots[root] if jobs else np.full(count, _eval_program(model.expr, ()))
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EvaluationError(f"model evaluated to a non-finite value at draw {bad}")
    return SampleSet(values=values, seed=seed)



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
# Characters per batch of lines in `load_samples` (`readlines`' size hint):
# a few thousand rows, whose strings stay small beside the values.
_LOAD_BATCH = 1 << 16


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
    a number. Every row is read by `float()`, in batches of lines: a batch
    of plain numbers is converted by one `np.array` call, which calls
    `float()` on each line, and a batch holding a blank line, a CSV field or
    a row that is bad or not finite is read row by row, naming the line of
    the first bad row. Only the values are held whole, never the file's text.
    """
    values = array("d")
    head = True  # no line that is not blank read yet
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                end = 0  # lines read so far
                for lines in iter(lambda: fh.readlines(_LOAD_BATCH), []):
                    start, end = end + 1, end + len(lines)  # `start`: the first line's number
                    if head:  # drop the blank lines before the first row, and a header
                        skip = next((j for j, line in enumerate(lines) if line.strip()), len(lines))
                        if skip < len(lines):
                            head = False
                            try:
                                float(lines[skip].strip().split(",")[0])
                            except ValueError:  # a header: the values start on the next line
                                skip += 1
                        start += skip
                        del lines[:skip]
                    try:
                        batch = np.array(lines, dtype=float)
                    except ValueError:  # a blank line, a CSV field or a bad row
                        batch = None
                    if batch is not None and np.isfinite(batch).all():
                        values.frombytes(batch.tobytes())
                        continue
                    for i, line in enumerate(lines, start):
                        row = line.strip()
                        if row:
                            values.append(_sample_row(path, i, row))
            except DegenerateSamplesError:
                for _ in fh:  # a line that is not UTF-8 anywhere in the file is named first
                    pass
                raise
    except UnicodeDecodeError:
        raise DegenerateSamplesError(
            f"{path}, line {_undecodable_line(path)}: not UTF-8 text"
        ) from None
    if not values:
        raise DegenerateSamplesError(f"no samples in {path}")
    return np.frombuffer(values)


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
