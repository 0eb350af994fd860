import copy
import hashlib
import math
import pickle
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpcquad import (
    SYNTHETIC_MODEL,
    DegenerateSamplesError,
    Distribution,
    EvaluationError,
    InvariantViolation,
    ModelSyntaxError,
    SampleSet,
    evaluate,
    load_samples,
    parse_model,
    print_model,
    sample,
    save_samples,
)
from gpcquad import files
from gpcquad.surrogate import _BLOCK, SurrogateModel, _plan
from test_memory import PRODUCTS, SUM_OF_TERMS

IDENTITY_UNIFORM = "u ~ U(0, 1)\nf = u\n"


# Expression trees as nested tuples, for the strategies and references here:
# `(op, *fields, *operands)`, where `num` holds a value, `var` a variable
# index and `fun` a function name before its operand.
def program(tree):
    """The postfix program `SurrogateModel.expr` holds for `tree`: each
    node's operands, left to right, then the node without them."""
    out, stack = [], [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        head = node[:2] if node[0] in ("num", "var", "fun") else node[:1]
        operands = node[len(head):]
        if expanded or not operands:
            out.append(head)
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(operands))
    return tuple(out)


def tree_of(code):
    """The expression tree of a postfix program: the inverse of `program`."""
    stack = []
    for ins in code:
        reads = {"num": 0, "var": 0, "neg": 1, "fun": 1}.get(ins[0], 2)
        operands = tuple(stack[len(stack) - reads:])
        del stack[len(stack) - reads:]
        stack.append(ins + operands)
    (tree,) = stack
    return tree


def test_parse_builds_the_postfix_program():
    model = parse_model("a ~ N(0, 1)\nb ~ U(0, 1)\nf = -a^2 - exp(b/a)\n")
    tree = ("sub", ("neg", ("pow", ("var", 0), ("num", 2.0))),
            ("fun", "exp", ("div", ("var", 1), ("var", 0))))
    code = (("var", 0), ("num", 2.0), ("pow",), ("neg",), ("var", 1), ("var", 0),
            ("div",), ("fun", "exp"), ("sub",))
    assert model.expr == code == program(tree) and tree_of(code) == tree


def test_parse_identity_gaussian():
    model = parse_model("xi1 ~ N(0,1); f = xi1")
    assert model.names == ("xi1",)
    assert model.distributions[0].kind == "gaussian"
    assert model.expr == (("var", 0),)


def test_parse_synthetic_model():
    model = parse_model(SYNTHETIC_MODEL)
    assert model.dim == 4
    kinds = [d.kind for d in model.distributions]
    assert kinds == ["gaussian"] * 3 + ["uniform"]
    assert model.distributions[3].p1 == -0.5 and model.distributions[3].p2 == 0.5


@pytest.mark.parametrize(
    "source",
    [
        "f = xi1 + ",           # dangling operator
        "x ~ N(0,1)",            # no expression
        "x ~ N(0,1); f = y",     # undeclared variable
        "x ~ N(0,1); f = foo(x)",  # unknown function
        "x ~ N(0,1); x ~ N(0,1); f = x",  # duplicate declaration
        "x ~ N(0,1); f = x; f = x",       # duplicate expression
        "x ~ N(0,-1); f = x",    # bad stddev
        "x ~ U(2,1); f = x",     # bad uniform bounds
        "x ~ N(0,1); f = x +* x",
        "f ~ N(0,1); f = f",     # reserved name
    ],
)
def test_parse_errors(source):
    with pytest.raises(ModelSyntaxError):
        parse_model(source)


def test_parse_windows_line_endings():
    model = parse_model("x ~ N(0, 1)\r\nf = 2e3*x\r\n")
    assert model.dim == 1
    assert evaluate(model, [1.0]) == 2000.0


def test_syntax_error_carries_position():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("x ~ N(0,1)\nf = x + $")
    assert err.value.line == 2
    assert err.value.column == 9


@pytest.mark.parametrize(
    "source, message, line, column",
    [
        ("x ~ N(0,\n", "expected a number", 1, 9),
        ("x ~ N(0, 1) y\nf = x", "unexpected trailing input after declaration", 1, 13),
        ("x ~ N(0,1); f = x +", "expected a number, variable, function call or '('", 1, 20),
        ("x ~ N(0,1)\r\nf = (x # c\n", "expected ')'", 2, 11),
        ("x ~ N(0,1);;\tf = x ) ; y ~ U(0,1)", "unexpected trailing input after expression", 1, 20),
        ("x ~ N(0,1); f = y; y ~ U(0, 1)", "undeclared variable 'y'", 1, 17),
        ("x ~ N(0,1)\n\n  f x", "expected '=' after 'f'", 3, 5),
    ],
)
def test_syntax_error_positions_at_statement_ends(source, message, line, column):
    # a statement ends at a newline, a ';' or the end of the text, and an
    # error there is placed on that break
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(source)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "source, message, line, column",
    [
        ("x ~ N 0, 1)\nf = x", "expected '('", 1, 7),
        ("x ~ G(0, 1)\nf = x", "expected distribution N(...) or U(...)", 1, 5),
        ("x ~ N(0, 1)\ng = x", "expected a declaration 'name ~ N(...)' or 'f = <expr>'", 2, 1),
    ],
    ids=["no-bracket", "unknown-distribution", "unknown-statement"],
)
def test_syntax_error_names_what_was_expected(source, message, line, column):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(source)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "source, line, column",
    [("x ~ N(\u0663, \uff11)\nf = x + \u0967\u0966", 1, 7), ("x ~ N(0, 1)\nf = x + \u0663", 2, 9)],
    ids=["arabic-indic-and-fullwidth", "arabic-indic"],
)
def test_numbers_are_ascii_digits(source, line, column):
    # formerly any Unicode decimal digit read as its value: the first source
    # parsed as N(3, 1) with f = x + 10
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(source)
    assert str(err.value) == f"unexpected character {source.splitlines()[line - 1][column - 1]!r} (line {line}, column {column})"
    # outside a number, in a comment, such a digit is still read past
    assert parse_model("x ~ N(0, 1)  # \u0663\nf = x") == parse_model("x ~ N(0, 1)\nf = x")


# Nesting: each kind opens one level, and text may nest to any depth. Past
# 100 levels the recursive parser this loop replaced refused text, and 400
# nested parentheses once ended in a bare RecursionError.
DEEP = 100000
# Each kind: its text n levels deep, and the value of one level at x around
# the value v inside it.
NESTINGS = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, lambda x, v: v),
    "function calls": (lambda n: "sin(" * n + "x" + ")" * n, lambda x, v: np.sin(v)),
    "signs": (lambda n: "-" * n + "x", lambda x, v: -v),
    "exponents": (lambda n: "x^" * n + "x", lambda x, v: x**v),  # x^(x^(...))
}


@pytest.mark.parametrize("nest, level", list(NESTINGS.values()), ids=list(NESTINGS))
def test_parse_nests_to_any_depth(nest, level):
    model = parse_model(f"x ~ N(0, 1)\nf = {nest(DEEP)}\n")
    x = value = np.float64(0.5)
    for _ in range(DEEP):
        value = level(x, value)
    assert evaluate(model, [0.5]) == value
    assert parse_model(print_model(model)) == model


# A sum at 100 levels of parentheses, the deepest text the recursive parser
# this loop replaced accepted.
AT_LIMIT_SOURCE = (
    "x ~ N(0, 1)\nf = " + "(" * 100 + "x" + ")" * 100 + " + x" * 99 + "\n"
)


def test_parse_accepts_the_depth_limit():
    model = parse_model(AT_LIMIT_SOURCE)
    assert evaluate(model, [0.5]) == 0.5 * 100
    assert parse_model(print_model(model)) == model
    draws = sample(model, 3 * _BLOCK, seed=5)
    x = np.random.default_rng(5).normal(0.0, 1.0, 3 * _BLOCK)
    acc = x
    for _ in range(100 - 1):  # the parsed order of additions
        acc = acc + x
    assert draws.values.tobytes() == acc.tobytes()


@pytest.mark.parametrize("terms", [900, 1200, 20000])
def test_long_sums_are_not_limited(terms):
    # the walkers loop over a program; 900 and 1200 terms used to end in a
    # bare RecursionError when they recursed over a tree
    source = "x ~ N(0, 1)\nf = " + " + ".join(["x"] * terms) + "\n"
    model = parse_model(source)
    assert evaluate(model, [0.5]) == 0.5 * terms
    assert print_model(model) == source.replace("N(0, 1)", "N(0.0, 1.0)")
    assert parse_model(print_model(model)) == model
    draws = sample(model, _BLOCK + 7, seed=5)
    x = np.random.default_rng(5).normal(0.0, 1.0, _BLOCK + 7)
    acc = x
    for _ in range(terms - 1):
        acc = acc + x
    assert draws.values.tobytes() == acc.tobytes()


@pytest.mark.parametrize("terms", [1200, 5000])
def test_long_sum_models_compare_print_and_pickle(terms):
    # a sum of 1200 terms used to raise RecursionError in all three as a
    # tree of nested tuples, which CPython walks recursively in C
    source = "x ~ N(0, 1)\nf = " + " + ".join(["x"] * terms) + "\n"
    model, again = parse_model(source), parse_model(source)
    assert model == again and hash(model) == hash(again)
    other = parse_model(source.replace("x\n", "2*x\n"))
    assert model != other and other != model
    assert model != parse_model(source.replace("N(0, 1)", "N(0, 2)"))
    code = (("var", 0),) + (("var", 0), ("add",)) * (terms - 1)
    assert model.expr == code
    assert repr(model) == (
        "SurrogateModel(names=('x',), distributions=(Distribution(kind='gaussian', "
        f"p1=0.0, p2=1.0),), expr={code!r})"
    )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(model, protocol))
        assert copied == model and hash(copied) == hash(model)
        assert print_model(copied) == print_model(model)
    assert copy.deepcopy(model) == model


def test_models_compare_print_and_pickle_as_dataclasses():
    model = parse_model(SYNTHETIC_MODEL)
    # the text the dataclass would print, and its field-wise `==` and hash
    assert repr(model) == (
        f"SurrogateModel(names={model.names!r}, "
        f"distributions={model.distributions!r}, expr={model.expr!r})"
    )
    fields = (model.names, model.distributions, model.expr)
    same = SurrogateModel(*fields)
    assert same == model and hash(same) == hash(model)
    # 2 == 2.0 in the program, as in the tuples it is made of
    x = ("var", 0)
    ints = SurrogateModel(("x",), model.distributions[:1], program(("mul", ("num", 2), x)))
    floats = SurrogateModel(("x",), model.distributions[:1], program(("mul", ("num", 2.0), x)))
    assert ints == floats and hash(ints) == hash(floats)
    swapped = SurrogateModel(("x",), model.distributions[:1], program(("mul", x, ("num", 2.0))))
    assert swapped != floats
    assert model != fields and model.__eq__(fields) is NotImplemented
    copied = pickle.loads(pickle.dumps(model))
    assert copied == model and copied.expr == model.expr
    assert {model: 1}[copied] == 1


# A 200-term sum of two-variable products, deeper than 100 levels as a tree
# of nested tuples
SUM_OF_PRODUCTS = (
    "x0 ~ U(-1, 1)\nx1 ~ N(0, 1)\nf = "
    + " + ".join(["x0*x1"] + [f"x0^{k}*x1" for k in range(2, 201)])
    + "\n"
)


def test_sum_of_200_products_keeps_its_bits():
    model = parse_model(SUM_OF_PRODUCTS)
    assert parse_model(print_model(model)) == model
    # the value and draws of this model before the walkers looped along sums
    assert evaluate(model, [-0.9, 1.5]) == -0.7105263152881919
    values = sample(model, 3 * _BLOCK + 5, seed=11).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "dd03a57419eb1d91f87646a9a5e92154ba2b26a1ec811ab0e7caa63bc732df55"
    )


# Source text 100 levels deep, the recursive parser's limit: each call to
# cos opens one level, inside a sum, a product and a power.
DEEPEST_SOURCE = "x + x*x"
for _ in range(100):
    DEEPEST_SOURCE = f"x + x*cos({DEEPEST_SOURCE})^2"
DEEPEST_SOURCE = f"x ~ N(0, 1)\nf = {DEEPEST_SOURCE}\n"


def test_the_deepest_parsed_model_constructs():
    model = parse_model(DEEPEST_SOURCE)
    assert parse_model(print_model(model)) == model
    assert np.isfinite(sample(model, 100, seed=3).values).all()


def test_a_1200_deep_program_constructs_evaluates_pickles_and_samples():
    # 1200 nested negations: formerly refused as a tree deeper than the
    # parser builds, since the walkers recursed over trees
    model = SurrogateModel(("x",), (Distribution("gaussian", 0.0, 1.0),), (("var", 0),) + (("neg",),) * 1200)
    assert evaluate(model, [0.3]) == 0.3
    assert print_model(model).endswith("\nf = " + "-" * 1200 + "x\n")
    copied = pickle.loads(pickle.dumps(model))
    assert copied == model and hash(copied) == hash(model)
    x = np.random.default_rng(5).normal(0.0, 1.0, _BLOCK + 7)
    assert sample(copied, _BLOCK + 7, seed=5).values.tobytes() == x.tobytes()


def test_a_right_leaning_20000_term_sum_samples():
    # x + (x + (... + x)): each sum's right operand is the longer one
    terms = 20000
    model = SurrogateModel(("x",), (Distribution("gaussian", 0.0, 1.0),),
                           (("var", 0),) * terms + (("add",),) * (terms - 1))
    assert evaluate(model, [0.5]) == 0.5 * terms
    x = np.random.default_rng(5).normal(0.0, 1.0, _BLOCK + 7)
    acc = x
    for _ in range(terms - 1):  # x + acc, as acc + x: addition commutes
        acc = acc + x
    assert sample(model, _BLOCK + 7, seed=5).values.tobytes() == acc.tobytes()


BAD_MODELS = {
    "names-and-distributions": (("x", "y"), (("var", 0),), "2 names for 1 distributions"),
    "variable-index": (("x",), program(("add", ("var", 0), ("var", 1))), r"variable index 1 is outside \[0, 1\)"),
    # formerly a bare AssertionError from `evaluate`
    "unknown-operator": (("x",), (("var", 0), ("foo",)), r"unknown instruction \('foo',\)"),
    # formerly evaluated through numpy, then printed as text `parse_model` rejects
    "unknown-function": (("x",), (("var", 0), ("fun", "tan")), r"unknown function 'tan' in \('fun', 'tan'\)"),
    # formerly a bare TypeError from the constructor itself
    "non-integer-index": (("x",), (("var", "x"),), r"variable index 'x' is not an integer in \('var', 'x'\)"),
    "missing-operand": (("x",), (("var", 0), ("add",)), r"operand missing for instruction 1, \('add',\)"),
    "two-values-left": (("x",), (("var", 0), ("var", 0)), "program leaves 2 values, not 1"),
    "empty-program": (("x",), (), "program leaves 0 values, not 1"),
    "nested-tree": (("x",), ("add", ("var", 0), ("var", 0)), "unknown instruction 'add'"),
    "not-a-tuple": (("x",), [("var", 0)], r"expression \[\('var', 0\)\] is not a tuple of instructions"),
}


@pytest.mark.parametrize("names, expr, message", list(BAD_MODELS.values()), ids=list(BAD_MODELS))
def test_model_checks_itself(names, expr, message):
    with pytest.raises(InvariantViolation, match=message):
        SurrogateModel(names, (Distribution("gaussian", 0.0, 1.0),), expr)


def _at_stack_depth(frames, call):
    return call() if frames == 0 else _at_stack_depth(frames - 1, call)


def test_parse_from_a_deep_stack():
    # called 25 frames under the recursion limit: the parser needs a few
    # frames whatever the text, where the recursive one it replaced took
    # about 600 for this text and failed when called 900 deep
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    free = sys.getrecursionlimit() - depth - 25
    model = _at_stack_depth(free, lambda: parse_model(AT_LIMIT_SOURCE))
    assert model == parse_model(AT_LIMIT_SOURCE)


def test_evaluate_synthetic_points():
    model = parse_model(SYNTHETIC_MODEL)
    # all-zero point kills every non-constant term
    assert evaluate(model, [0, 0, 0, 0]) == pytest.approx(0.5, abs=1e-15)
    assert evaluate(model, [1, 0, 0, 0]) == pytest.approx(1.5, abs=1e-15)
    # hand evaluation: 0.5 + 0.3*sqrt(2.1*0.5), sin(0)cos(...) = 0
    assert evaluate(model, [0, 0, 0, 0.5]) == pytest.approx(
        0.5 + 0.3 * math.sqrt(1.05), rel=1e-15
    )


def test_evaluate_dimension_mismatch():
    model = parse_model(IDENTITY_UNIFORM)
    with pytest.raises(EvaluationError):
        evaluate(model, [0.1, 0.2])


def test_evaluate_domain_errors():
    model = parse_model("x ~ N(0,1); f = sqrt(x)")
    with pytest.raises(EvaluationError):
        evaluate(model, [-1.0])
    model = parse_model("x ~ N(0,1); f = 1/x")
    with pytest.raises(EvaluationError):
        evaluate(model, [0.0])


# Constant subexpressions that Python-float arithmetic turns into a
# ZeroDivisionError, an OverflowError and a complex number.
FAULTY_CONSTANTS = ["x + 1/0", "10^400", "x*(0-2)^0.5"]


@pytest.mark.parametrize("expression", FAULTY_CONSTANTS)
def test_faulty_constants_are_non_finite(expression):
    model = parse_model(f"x ~ N(0, 1)\nf = {expression}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning
        with pytest.raises(EvaluationError, match="non-finite value at draw 0$"):
            sample(model, 100, seed=1)
        with pytest.raises(EvaluationError, match=r"non-finite value at \[0.3\]$"):
            evaluate(model, [0.3])


def test_print_parse_fixed_point():
    for source in (
        SYNTHETIC_MODEL,
        IDENTITY_UNIFORM,
        "a ~ N(-1.5, 2.25)\nb ~ U(-0.5, 0.5)\nf = -a^2^a + (a - b)/(a*b) - exp(-b)",
    ):
        model = parse_model(source)
        printed = print_model(model)
        again = parse_model(printed)
        assert again == model
        assert print_model(again) == printed


PRINTABLE_NUMBERS = st.floats(
    min_value=0.0,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
).map(abs)  # -0.0 prints as a unary minus, changing the tree


@st.composite
def expr_trees(draw, depth=0, dim=2, numbers=PRINTABLE_NUMBERS):
    """Random expression trees over variables 0..dim-1, every operator and function."""
    if depth > 4 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["num", "var"]))
        if leaf == "num":
            return ("num", draw(numbers))
        return ("var", draw(st.integers(0, dim - 1)))
    sub = expr_trees(depth=depth + 1, dim=dim, numbers=numbers)
    op = draw(st.sampled_from(["add", "sub", "mul", "div", "pow", "neg", "fun"]))
    if op == "neg":
        return ("neg", draw(sub))
    if op == "fun":
        name = draw(st.sampled_from(["exp", "sin", "cos", "sqrt", "abs"]))
        return ("fun", name, draw(sub))
    return (op, draw(sub), draw(sub))


@given(expr_trees())
@settings(max_examples=200, deadline=None)
def test_printer_round_trips_random_trees(tree):
    model = SurrogateModel(
        names=("a", "b"),
        distributions=(Distribution("gaussian", 0, 1), Distribution("uniform", 0, 1)),
        expr=program(tree),
    )
    assert parse_model(print_model(model)) == model


# Constants a model can hold that the printer formerly wrote as text
# `parse_model` rejects (`inf`, `-inf`, `np.float64(1.5)`) or reads as a
# different value (`-2.0^x` is -(2.0^x)).
PRINTED_CONSTANTS = {
    "inf-from-text": parse_model("x ~ N(0, 1)\nf = x + 1/1e999").expr,
    "inf": program(("div", ("var", 0), ("num", math.inf))),
    "minus-inf": program(("add", ("var", 0), ("fun", "exp", ("num", -math.inf)))),
    "numpy-scalar": program(("mul", ("var", 0), ("num", np.float64(1.5)))),
    "negative-base": program(("add", ("var", 0), ("pow", ("num", -2.0), ("num", 2.0)))),
    "negative-zero": program(("add", ("var", 0), ("mul", ("num", -0.0), ("var", 0)))),
}


@pytest.mark.parametrize("expr", list(PRINTED_CONSTANTS.values()), ids=list(PRINTED_CONSTANTS))
def test_printed_constants_parse_to_the_same_values(expr):
    model = SurrogateModel(("x",), (Distribution("gaussian", np.float64(0.0), 1.0),), expr)
    again = parse_model(print_model(model))
    assert sample(again, 1000, seed=4).values.tobytes() == sample(model, 1000, seed=4).values.tobytes()
    for point in ([0.3], [-1.7], [0.0]):
        assert evaluate(again, point) == evaluate(model, point)


@pytest.mark.parametrize(
    "value, message",
    [(math.nan, r"constant nan in \('num', nan\)"),
     ("1.5", r"constant '1.5' is not a real number"),
     (True, "constant True is not a real number")],
    ids=["nan", "string", "bool"],
)
def test_model_refuses_constants_it_cannot_print(value, message):
    with pytest.raises(InvariantViolation, match=message):
        SurrogateModel(("x",), (Distribution("gaussian", 0.0, 1.0),), program(("add", ("var", 0), ("num", value))))



@pytest.mark.parametrize(
    "kind, p1, p2, message",
    [("gaussian", math.nan, 1.0, "parameters must be finite"),
     ("gaussian", math.inf, 1.0, "parameters must be finite"),
     ("gaussian", 0.0, math.inf, "parameters must be finite"),
     ("uniform", -math.inf, 0.0, "parameters must be finite"),
     ("uniform", 0.0, math.nan, "parameters must be finite"),
     ("uniform", -1e308, 1e308, "width hi - lo overflows"),
     ("beta", 0.0, 1.0, "unknown distribution kind 'beta'")],
    ids=["nan-mean", "inf-mean", "inf-stddev", "inf-lo", "nan-hi", "overflowing-width", "unknown-kind"],
)
def test_distribution_refuses_parameters_it_cannot_draw_or_print(kind, p1, p2, message):
    with pytest.raises(ValueError, match=message):
        Distribution(kind, p1, p2)


@pytest.mark.parametrize(
    "declaration",
    ["N(1e999, 1)", "N(0, 1e999)", "U(-1e999, 0)", "U(-1e308, 1e308)"],
)
def test_parse_refuses_distributions_it_cannot_draw(declaration):
    with pytest.raises(ModelSyntaxError, match="finite|overflows") as err:
        parse_model(f"x ~ {declaration}\nf = x\n")
    assert (err.value.line, err.value.column) == (1, 5)


def test_widest_finite_uniform_round_trips():
    model = parse_model("x ~ U(-8e307, 8e307)\nf = x\n")
    again = parse_model(print_model(model))
    assert again.distributions == model.distributions
    assert np.isfinite(sample(again, 100, seed=1).values).all()

def test_sample_determinism_and_count_guard():
    model = parse_model(SYNTHETIC_MODEL)
    first = sample(model, 512, seed=42)
    second = sample(model, 512, seed=42)
    assert np.array_equal(first.values, second.values)
    assert first.seed == 42 and first.count == 512
    # the count is the values' size, so no sample set can disagree with it
    with pytest.raises(TypeError):
        SampleSet(values=np.zeros(3), count=5, seed=1)
    assert not np.array_equal(first.values, sample(model, 512, seed=43).values)
    with pytest.raises(DegenerateSamplesError):
        sample(model, 1, seed=0)


# The whole-column evaluator `sample` used before it drew its variables in
# blocks, with constants as Python floats, frozen here as the reference its
# values must match bit for bit.
def reference_eval_tree(node, columns):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return columns[node[1]]
    if op == "neg":
        return -reference_eval_tree(node[1], columns)
    if op == "fun":
        arg = reference_eval_tree(node[2], columns)
        if node[1] == "sqrt":
            if np.any(np.asarray(arg) < 0):
                raise EvaluationError("sqrt of a negative argument")
            return np.sqrt(arg)
        if node[1] == "abs":
            return np.abs(arg)
        return getattr(np, node[1])(arg)
    a = reference_eval_tree(node[1], columns)
    b = reference_eval_tree(node[2], columns)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        return a**b
    raise AssertionError(f"unreachable node {op!r}")


def reference_sample_values(model, count, seed):
    rng = np.random.default_rng(seed)
    columns = [dist.draw(rng, count) for dist in model.distributions]
    with np.errstate(all="ignore"):
        values = reference_eval_tree(tree_of(model.expr), columns)
    return np.broadcast_to(values, (count,)).copy()


def reference_outcome(model, count, seed):
    """The reference's values, or the EvaluationError it raised."""
    try:
        return reference_sample_values(model, count, seed)
    except EvaluationError as exc:
        return exc


def assert_sample_matches(model, count, seed, want):
    """`sample` returns the reference's bits, or raises the error `sample`
    raised at the parent commit for the reference's outcome."""
    if isinstance(want, EvaluationError):
        with pytest.raises(EvaluationError, match=f"^{want}$"):
            sample(model, count, seed)
        return
    assert want.dtype == np.float64
    bad = np.flatnonzero(~np.isfinite(want))
    if bad.size:
        with pytest.raises(EvaluationError, match=rf"non-finite value at draw {bad[0]}$"):
            sample(model, count, seed)
        return
    got = sample(model, count, seed).values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


COUNTS = [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize(
    "source",
    [
        "x ~ N(0, 1)\nf = 3\n",
        IDENTITY_UNIFORM,
        SYNTHETIC_MODEL,
        "a ~ N(0, 1)\nb ~ U(-1, 2)\nc ~ N(1, 3)\nf = c*b - exp(a)*c + b^2\n",
        "a ~ U(0, 1)\nb ~ N(0, 1)\nc ~ U(-1, 1)\nf = sin(b) + (2 - 3)*b\n",
        "a ~ N(0, 1)\nb ~ N(0, 1)\nf = a*(b + a) / (1 + exp(2)*a^2)\n",
        "a ~ N(0, 1)\nb ~ U(-1, 2)\nf = "
        + " + ".join(f"{0.5 + k}*a^{k % 5}*b^{k // 5}" for k in range(20))
        + "\n",
        "a ~ N(0, 1)\nb ~ U(-1, 2)\nc ~ N(1, 3)\nf = exp(a)*b*c + b*c\n",
        "a ~ N(0, 1)\nb ~ U(-1, 2)\nc ~ N(1, 3)\nd ~ U(0, 1)\nf = (a + b)*c*d + a*d\n",
    ],
    ids=[
        "constant",
        "identity",
        "synthetic",
        "out-of-order",
        "unused",
        "repeated",
        "products",
        "column-and-cut",
        "column-read-twice",
    ],
)
def test_blocked_sample_matches_whole_columns(source, count):
    model = parse_model(source)
    assert_sample_matches(model, count, 11, reference_outcome(model, count, 11))


DISTRIBUTIONS = st.sampled_from(
    [
        Distribution("gaussian", 0.0, 1.0),
        Distribution("gaussian", -1.5, 2.5),
        Distribution("uniform", -0.5, 0.5),
        Distribution("uniform", 0.25, 4.0),
    ]
)


@st.composite
def sampled_models(draw):
    dim = draw(st.integers(1, 4))
    terms = expr_trees(dim=dim, numbers=st.floats(min_value=0.0, max_value=10.0))
    tree = draw(terms)
    for _ in range(draw(st.integers(0, 3))):  # joined terms: more variables per tree
        tree = (draw(st.sampled_from(["add", "sub", "mul"])), tree, draw(terms))
    return SurrogateModel(
        names=tuple(f"x{i}" for i in range(dim)),
        distributions=tuple(draw(st.lists(DISTRIBUTIONS, min_size=dim, max_size=dim))),
        expr=program(tree),
    )


def has_variable(node):
    return node[0] == "var" or any(has_variable(c) for c in node[1:] if isinstance(c, tuple))


def python_float_constants_fail(node):
    """Whether a constant subtree of `node` raises an ArithmeticError or turns
    complex in Python-float arithmetic (`1/0`, `10^400`, `(0-2)^0.5`), where
    `sample` computes inf or nan."""
    if not has_variable(node):
        try:
            with np.errstate(all="ignore"):
                if np.iscomplexobj(reference_eval_tree(node, [])):
                    return True
        except ArithmeticError:
            return True
        except EvaluationError:
            pass
    return any(python_float_constants_fail(c) for c in node[1:] if isinstance(c, tuple))


@given(sampled_models(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_blocked_sample_matches_whole_columns_on_random_models(model, seed):
    assume(not python_float_constants_fail(tree_of(model.expr)))
    for count in COUNTS:
        assert_sample_matches(model, count, seed, reference_outcome(model, count, seed))


def reads(code, op):
    """What the `op` instructions of a program read: variables or slots."""
    return {ins[1] for ins in code if ins[0] == op}


@given(sampled_models())
@settings(max_examples=150, deadline=None)
def test_plan_reads_each_slot_while_it_is_alive(model):
    """A job reads only its own variable and slots of earlier jobs not yet
    freed; every slot but the output is freed once, after its last read."""
    jobs = _plan(model.expr)
    live = set()
    for var in sorted(jobs):
        code, done = jobs[var]
        assert reads(code, "var") <= {var}
        assert set(done) <= reads(code, "slot") <= live
        live -= set(done)
        live.add(var)
    assert live == ({max(jobs)} if jobs else set())
    assert len(jobs) <= model.dim


@pytest.mark.parametrize(
    "kinds",
    [["gaussian"], ["uniform"], ["gaussian", "uniform", "uniform", "gaussian"]],
    ids=["normal", "uniform", "interleaved"],
)
@pytest.mark.parametrize("seed", [1, 7])
def test_block_wise_draws_equal_whole_draws(kinds, seed):
    """`sample` relies on this: Generator.normal and .uniform keep no state
    between float64 calls, so drawing a column in blocks consumes the
    stream as one whole draw does."""
    dists = [Distribution(kind, 0.5, 2.0) for kind in kinds]
    count = 3 * _BLOCK + 7
    rng = np.random.default_rng(seed)
    whole = [dist.draw(rng, count) for dist in dists]
    rng = np.random.default_rng(seed)
    blocks = [
        np.concatenate([dist.draw(rng, min(_BLOCK, count - s)) for s in range(0, count, _BLOCK)])
        for dist in dists
    ]
    for a, b in zip(whole, blocks):
        assert a.tobytes() == b.tobytes()


def _first_exceeding_first_block(seed, count):
    """max of the first block of N(0, 1) draws, and the first later draw above it"""
    x = np.random.default_rng(seed).normal(0.0, 1.0, count)
    top = float(x[:_BLOCK].max())
    later = np.flatnonzero(x > top)
    assert later.size and later[0] >= _BLOCK
    return top, int(later[0])


def test_sample_errors_in_a_later_block():
    count = 3 * _BLOCK + 7
    top, first = _first_exceeding_first_block(2, count)  # draw 16409, third block
    model = parse_model(f"x ~ N(0, 1)\nf = sqrt({top!r} - x)\n")
    with pytest.raises(EvaluationError, match="sqrt of a negative argument"):
        sample(model, count, seed=2)
    model = parse_model(f"x ~ N(0, 1)\nf = ({top!r} - x)^0.5\n")  # nan past the top
    with pytest.raises(EvaluationError, match=rf"non-finite value at draw {first}$"):
        sample(model, count, seed=2)


def draws_on(monkeypatch):
    """Names of the threads that draw, one per `Distribution.draw` call."""
    names = []
    draw = Distribution.draw

    def recorded(self, rng, count):
        names.append(threading.current_thread().name)
        return draw(self, rng, count)

    monkeypatch.setattr(Distribution, "draw", recorded)
    return names


def bounded(call, *args, timeout=60):
    """`call(*args)` on a worker thread named `caller`, joined with a
    timeout, so that a call that never returns fails the test instead of
    hanging it. Returns what the call returns, or raises what it raised."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call(*args)
        except BaseException as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, name="caller", daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"{call.__name__} did not return within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


SOURCE_MODELS = {
    "synthetic": SYNTHETIC_MODEL,
    "unused": "a ~ U(0, 1)\nb ~ N(0, 1)\nc ~ U(-1, 1)\nf = sin(b) + (2 - 3)*b\n",
    "constant": "x ~ N(0, 1)\nf = 3\n",
    "sum-of-terms": SUM_OF_TERMS,
    "products": PRODUCTS,
}


@pytest.mark.parametrize("source", list(SOURCE_MODELS.values()), ids=list(SOURCE_MODELS))
def test_sample_has_the_reference_bits_on_the_calling_thread(monkeypatch, source):
    model = parse_model(source)
    threads = draws_on(monkeypatch)
    for count in COUNTS:
        for seed in (3, 11):
            threads.clear()
            before = threading.active_count()
            got = bounded(sample, model, count, seed).values
            assert threading.active_count() == before
            if source == SOURCE_MODELS["constant"]:
                assert threads == []  # nothing is drawn
            else:
                assert set(threads) == {"caller"}  # every draw on the calling thread
            want = reference_sample_values(model, count, seed)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (count, seed)


def test_sample_errors_in_a_later_block_without_a_thread():
    # draw 16409, in the third of nine blocks
    count = 8 * _BLOCK + 7
    top, _ = _first_exceeding_first_block(2, count)
    model = parse_model(f"x ~ N(0, 1)\nf = sqrt({top!r} - x)\n")
    before = threading.active_count()
    with pytest.raises(EvaluationError, match="sqrt of a negative argument"):
        bounded(sample, model, count, 2)
    assert threading.active_count() == before


@pytest.mark.parametrize("failing_call", [1, 3, 9])
def test_a_failing_draw_reaches_the_caller(monkeypatch, failing_call):
    calls = []
    draw = Distribution.draw

    def failing(self, rng, count):
        calls.append(count)
        if len(calls) == failing_call:
            raise MemoryError("draw failed")
        return draw(self, rng, count)

    monkeypatch.setattr(Distribution, "draw", failing)
    model = parse_model(SYNTHETIC_MODEL)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="draw failed"):
        bounded(sample, model, 3 * _BLOCK + 7, 4)
    assert threading.active_count() == before
    assert len(calls) == failing_call  # no draw after the failing one


def test_concurrent_samples_keep_their_bits():
    """Several callers at once, with thread switches forced often: every
    caller gets its seed's bits."""
    model = parse_model(SYNTHETIC_MODEL)
    count = 3 * _BLOCK + 7
    want = {seed: reference_sample_values(model, count, seed).tobytes() for seed in range(4)}
    got = {}

    def caller(seed):
        for _ in range(5):
            got.setdefault(seed, set()).add(sample(model, count, seed).values.tobytes())

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(seed,)) for seed in want]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == {seed: {bits} for seed, bits in want.items()}
    assert threading.active_count() == before


@pytest.mark.parametrize("count", [1e4, 8192.0, True, "100"], ids=["1e4", "float", "bool", "str"])
def test_sample_count_must_be_an_integer(monkeypatch, count):
    draws = draws_on(monkeypatch)
    with pytest.raises(ValueError, match=rf"^count must be an integer, got {count!r}$"):
        sample(parse_model(SYNTHETIC_MODEL), count, seed=1)
    assert draws == []  # refused before any draw


def test_sample_takes_numpy_integer_counts():
    model = parse_model(SYNTHETIC_MODEL)
    assert sample(model, np.int64(9000), 5).values.tobytes() == sample(model, 9000, 5).values.tobytes()
    with pytest.raises(DegenerateSamplesError):
        sample(model, np.int64(1), seed=0)


def test_sample_mean_identity_uniform():
    model = parse_model(IDENTITY_UNIFORM)
    values = sample(model, 100_000, seed=5).values
    assert abs(values.mean() - 0.5) < 0.01


@pytest.mark.parametrize(
    "dist",
    [Distribution("gaussian", 1.5, 0.7), Distribution("uniform", -2.0, 3.0)],
)
def test_distribution_sanity_five_se(dist):
    n = 100_000
    rng = np.random.default_rng(99)
    values = dist.draw(rng, n)
    if dist.kind == "gaussian":
        mean, var = dist.p1, dist.p2**2
    else:
        mean, var = 0.5 * (dist.p1 + dist.p2), (dist.p2 - dist.p1) ** 2 / 12.0
    se_mean = math.sqrt(var / n)
    # Var of the sample variance: (mu4 - var^2)/n
    if dist.kind == "gaussian":
        mu4 = 3.0 * var**2
    else:
        mu4 = (dist.p2 - dist.p1) ** 4 / 80.0
    se_var = math.sqrt((mu4 - var**2) / n)
    assert abs(values.mean() - mean) < 5 * se_mean
    assert abs(values.var(ddof=1) - var) < 5 * se_var


def test_sample_file_round_trip(tmp_path):
    values = np.array([1.5, -2.25, 0.001, 3e8])
    plain = tmp_path / "plain.txt"
    save_samples(values, plain)
    assert np.array_equal(load_samples(plain), values)
    # single-column CSV with header
    csv = tmp_path / "with_header.csv"
    csv.write_text("value\n1.5\n-2.25\n")
    assert np.array_equal(load_samples(csv), [1.5, -2.25])


def test_load_samples_rejects_empty(tmp_path):
    empty = tmp_path / "empty.txt"
    for text in ("", "\n \n", "value\n", "value\n\n \n"):
        empty.write_text(text)
        with pytest.raises(DegenerateSamplesError, match="no samples in"):
            load_samples(empty)


@pytest.mark.parametrize(
    "raw, line",
    [
        (b"1.0\n2.0\n\xff\xfe\n3.0\n", 3),
        (b"\xffvalue\n1.0\n2.0\n", 1),  # the header
        (b"value\n1.0\n2.0\n3.0 \xe9\n", 4),  # Latin-1, in a row after the header
        (b"1.0\n" * 20_000 + b"\x80\n", 20_001),  # past the first batch of lines
        (b"1.0,\n" * 20_000 + b"\x80\n", 20_001),  # midway through the row-by-row pass
        (b"1.0,\nabc\n" + b"1.0,\n" * 20_000 + b"\x80\n", 20_003),  # after a bad row
    ],
    ids=["row", "header", "latin-1", "late", "late-csv", "late-after-bad-row"],
)
def test_load_samples_names_a_line_that_is_not_utf8(tmp_path, raw, line):
    path = tmp_path / "bytes.txt"
    path.write_bytes(raw)
    with pytest.raises(DegenerateSamplesError, match=rf"^{re.escape(str(path))}, line {line}: not UTF-8 text$"):
        load_samples(path)


def test_load_samples_reads_a_utf8_header(tmp_path):
    path = tmp_path / "header.txt"
    path.write_bytes("värde µ\n1.5\n-2.25\n".encode("utf-8"))
    assert load_samples(path).tobytes() == np.array([1.5, -2.25]).tobytes()


def no_row_pass(row):
    raise AssertionError(f"a plain sample file went row by row at {row!r}")


@pytest.mark.parametrize("form", ["plain", "header", "csv"])
def test_load_samples_reads_a_byte_order_mark(tmp_path, monkeypatch, form):
    # formerly the mark made the first row fail `float()`, so it was taken
    # for a header and dropped: "\ufeff1.5\n2.5\n" read as [2.5]
    values = np.random.default_rng(11).standard_normal(20_000)
    path = tmp_path / "samples.txt"
    save_samples(values, path)
    text = path.read_text()
    text = {"plain": text, "header": "value\n" + text, "csv": "value,\n" + text.replace("\n", ",\n")}[form]
    path.write_text(text)
    if form != "csv":  # a plain file, headed or not, is read by `np.array`, about 3x faster than row by row
        monkeypatch.setattr(files, "_numbers", no_row_pass)
    assert load_samples(path).tobytes() == values.tobytes()
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_samples(path).tobytes() == values.tobytes()


def test_load_samples_counts_lone_cr_line_ends_when_naming_a_line_that_is_not_utf8(tmp_path):
    # formerly line 1: the rows were counted at CR ends, the bytes only at LF
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"1.0\r2.0\r\xff\r3.0\r")
    with pytest.raises(DegenerateSamplesError, match=rf"^{re.escape(str(path))}, line 3: not UTF-8 text$"):
        load_samples(path)


def batch_starts(path):
    """The 1-based line at which each batch of lines `load_samples` reads starts."""
    starts, end = [], 0
    with open(path, encoding="utf-8") as fh:
        for lines in iter(lambda: fh.readlines(files._ROW_BATCH), []):
            starts.append(end + 1)
            end += len(lines)
    return starts


@pytest.mark.parametrize(
    "row, batch, offset",
    [("abcd", 2, 0), ("    ", 1, -1), ("    ", 1, 0), ("-inf", 1, -1), ("-inf", 1, 0)],
    ids=["bad-starts-third", "blank-ends-first", "blank-starts-second",
         "non-finite-ends-first", "non-finite-starts-second"],
)
def test_load_samples_at_a_batch_boundary(tmp_path, row, batch, offset):
    """A row beside the first line of batch `batch` (0-based) is read, or
    named, as anywhere else; every row is 4 characters wide, so the
    batches start where they start without it."""
    path = tmp_path / "samples.txt"
    lines = ["0.25"] * (4 * files._ROW_BATCH // 5)
    path.write_text("\n".join(lines) + "\n")
    starts = batch_starts(path)
    assert len(starts) == 4
    line = starts[batch] + offset
    lines[line - 1] = row
    path.write_text("\n".join(lines) + "\n")
    assert batch_starts(path) == starts
    if row.strip():
        with pytest.raises(DegenerateSamplesError, match=rf"samples\.txt, row {line}: .*{row!r}$"):
            load_samples(path)
    else:
        assert load_samples(path).tobytes() == np.full(len(lines) - 1, 0.25).tobytes()


@pytest.mark.parametrize("blank_lines", [0, 1 << 17], ids=["at-the-top", "after-a-batch-of-blank-lines"])
def test_load_samples_reads_a_header_before_several_batches(tmp_path, blank_lines):
    values = np.random.default_rng(3).standard_normal(3 * files._ROW_BATCH // 10)
    path = tmp_path / "samples.txt"
    save_samples(values, path)
    path.write_text("\n" * blank_lines + "value\n" + path.read_text())
    assert len(batch_starts(path)) > 4
    assert load_samples(path).tobytes() == values.tobytes()


# The per-line loader and writer that `load_samples`/`save_samples` replaced,
# kept as the reference their results must match bit for bit.
def reference_load_samples(path) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise DegenerateSamplesError(f"no samples in {path}")
    start = 0
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        start = 1  # header line
    for ln in lines[start:]:
        fields = [f for f in ln.split(",") if f.strip()]
        if len(fields) != 1:
            raise DegenerateSamplesError(
                f"expected a single value per row in {path}, got {ln!r}"
            )
        values.append(float(fields[0]))
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DegenerateSamplesError(f"non-finite sample in {path}")
    return arr


def reference_save_samples(values: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(values, dtype=float):
            fh.write(f"{float(v):.17g}\n")


@pytest.mark.parametrize(
    "raw",
    [
        b"1.5\r\n-2.25\r\n3e8\r\n",       # CRLF
        b"1.5\r-2.25\r",                    # lone CR
        b"\n1.5\n\n\n-2.25\n\n",            # blank lines
        b"value\n1.5\n-2.25\n",             # header
        b"value,\r\n\r\n1.5,\r\n-2.25,\r\n",  # CSV header, CRLF, blank line
        b"  1.5  \n\t-2.25\t\n \x0c0.001\n",  # surrounding whitespace
        b"1.5,\n-2.25, \n",                 # single-column CSV rows
        b"value\n, ,1.5\n1.5 ,\t,\n",       # blank fields before and after
        b", ,1.5\n-2.25\n",                 # a first row without a leading number is a header
        b"1_000\n-0.0\n5e-324\n",            # underscores, signed zero, subnormal
        b"0.1\n1e-320\n1.7976931348623157e308\n9.999e-5\n",
        "1.5\n\u00a0-2.25\u2003\n".encode(),  # non-ASCII blanks
    ],
    ids=["crlf", "cr", "blank-lines", "header", "csv-header-crlf", "whitespace", "csv",
         "blank-fields", "blank-first-field", "underscore-zero-subnormal", "extremes",
         "unicode-blanks"],
)
def test_load_samples_matches_reference(tmp_path, raw):
    path = tmp_path / "samples.txt"
    path.write_bytes(raw)
    want = reference_load_samples(path)
    got = load_samples(path)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text, reference_error",
    [
        ("1.5\n2.5,3.5\n", DegenerateSamplesError),  # two fields
        ("1.5\n2.5 3.5\n", ValueError),  # two numbers in one row: not one float
        ("1.5\n,\n2.5\n", DegenerateSamplesError),  # no field
        ("value\nabc\n1.5\n", ValueError),  # text: the reference leaks a bare ValueError
        ("1.5\nnan\n", DegenerateSamplesError),
        ("1.5\n-inf\n", DegenerateSamplesError),
        ("1.5\n1e999\n", DegenerateSamplesError),  # overflows to inf
    ],
    ids=["two-fields", "two-numbers", "no-field", "text", "nan", "inf", "overflow"],
)
def test_load_samples_rejects_what_the_reference_rejects(tmp_path, text, reference_error):
    path = tmp_path / "samples.txt"
    path.write_text(text)
    with pytest.raises(reference_error):
        reference_load_samples(path)
    with pytest.raises(DegenerateSamplesError, match=r"samples\.txt, row 2: "):
        load_samples(path)


# Text the two loaders must read alike: numbers in `repr` (every exponent,
# signed zeros, subnormals, nan and inf) and with underscores, odd tokens,
# and blanks, ASCII or not, around fields, in blank fields and on blank lines.
BLANKS = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2003", "\u3000"])
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**7, 10**7).map(lambda n: f"{n:_}"),
    st.sampled_from(["1e999", "-0.0", "5e-324", "+.5", "7.", "1E+05", "0x1p3", "\u0661\u0662",
                     "1.5 2.5", "abc", "value", "1.5\x00"]),
)


@st.composite
def sample_file_lines(draw):
    """Lines of a sample file, without their line ends."""
    def blank():
        return "".join(draw(st.lists(BLANKS, max_size=2)))

    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["value", "value,", "x, y", " ,1.5", "samples\u00a0"])))
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["value"] * 6 + ["csv", "pair", "blank"]))
        if shape == "blank":
            lines.append(blank())
            continue
        field = blank() + draw(NUMBER_TEXT) + blank()
        if shape == "pair":  # two numbers: a row the reference rejects
            field += "," + draw(NUMBER_TEXT)
        if shape == "csv":
            before = [blank() for _ in range(draw(st.integers(0, 2)))]
            after = [blank() for _ in range(draw(st.integers(0, 2)))]
            field = ",".join(before + [field] + after)
        lines.append(field)
    return lines


def reference_outcome_of(path):
    """The reference's values or error; a header-only file, for which the
    reference returned no values, is "no samples" as for `load_samples`."""
    try:
        values = reference_load_samples(path)
    except ValueError as exc:  # the reference's bare ValueError from float()
        return exc
    except DegenerateSamplesError as exc:
        return exc
    return values if values.size else DegenerateSamplesError(f"no samples in {path}")


@given(sample_file_lines(), st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=13, max_size=13),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_load_samples_agrees_with_the_reference_on_any_file(tmp_path_factory, lines, ends, last_end):
    """`load_samples` returns the reference's bits, or raises
    `DegenerateSamplesError` where the reference raises: "no samples" where
    it finds none, and otherwise naming the first line the reference
    rejects, that is, the line L such that the reference accepts the file
    cut before L and rejects the file cut after it."""
    folder = tmp_path_factory.mktemp("load")
    path = folder / "samples.txt"
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not last_end:
        text = text[: -len(ends[len(lines) - 1])]
    path.write_bytes(text.encode("utf-8"))
    want = reference_outcome_of(path)
    if isinstance(want, np.ndarray):
        got = load_samples(path)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        return
    with pytest.raises(DegenerateSamplesError) as err:
        load_samples(path)
    message = str(err.value)
    if "no samples" in str(want):
        assert message == f"no samples in {path}"
        return
    row = re.match(rf"{re.escape(str(path))}, row (\d+): ", message)
    assert row, message
    # the lines as both loaders see them: universal newlines, split on \n
    with open(path, "r", encoding="utf-8") as fh:
        read = fh.read().split("\n")
    cut = folder / "cut.txt"
    line = int(row.group(1))
    cut.write_text("\n".join(read[: line - 1]), encoding="utf-8")
    before = reference_outcome_of(cut)
    assert isinstance(before, np.ndarray) or "no samples" in str(before)
    cut.write_text("\n".join(read[:line]), encoding="utf-8")
    after = reference_outcome_of(cut)
    assert not isinstance(after, np.ndarray) and "no samples" not in str(after)


def test_save_samples_matches_reference(tmp_path):
    edge = [-0.0, 0.0, 5e-324, 2.0**-1022, 9.999e-5, 1e-4, 1e16, 1e17,
            1.7976931348623157e308, -1.5, 0.1, 3.0]
    bits = np.random.default_rng(7).integers(0, 2**64, 100_000, dtype=np.uint64)
    spread = bits.view(float)  # uniform over bit patterns: every exponent
    spread = spread[np.isfinite(spread)]
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    for values in (np.array(edge), spread, np.empty(0)):
        save_samples(values, got)
        reference_save_samples(values, want)
        assert got.read_bytes() == want.read_bytes()
    assert got.read_text() == ""
    # 17 significant digits read back to the same bits through every reader:
    # `load_samples`, batched or row by row (after a header, and as CSV
    # rows), and the benchmark's round-trip check, which reads with `np.loadtxt`
    for values in (np.array(edge), spread):
        save_samples(values, got)
        assert load_samples(got).tobytes() == values.tobytes()
        text, headed = got.read_text(), tmp_path / "headed.txt"
        for form in ("value\n" + text, "value,\n" + text.replace("\n", ",\n")):
            headed.write_text(form)
            assert load_samples(headed).tobytes() == values.tobytes()
        assert np.loadtxt(got, dtype=float, ndmin=1).tobytes() == values.tobytes()
    save_samples(np.array([-0.0, 3.0, -0.5000461952136379]), got)
    assert got.read_text() == "-0\n3\n-0.50004619521363791\n"


@pytest.mark.parametrize("rows", [8191, 8192, 8193])
def test_save_samples_matches_reference_at_the_batch_boundaries(tmp_path, rows):
    # `files.write_rows` formats `files._WRITE_BATCH` values, one a row, at
    # a time; values outside the kernel's range, formatted by `%` in their
    # rows, stand at each batch's first and last row
    assert files._WRITE_BATCH == 8192
    values = np.random.default_rng(rows).normal(size=rows)
    values[[0, 8190, -1]] = [0.0, -1e-5, 1e16]
    if rows > 8192:
        values[8192] = 5e-324
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    save_samples(values, got)
    reference_save_samples(values, want)
    assert got.read_bytes() == want.read_bytes()


def assert_saved_as_reference(values, folder):
    values = np.asarray(values, dtype=float)
    got, want = folder / "got.txt", folder / "want.txt"
    save_samples(values, got)
    reference_save_samples(values, want)
    assert got.read_bytes() == want.read_bytes()


# Magnitudes where `%.17g` writes fixed notation, which `files._g17_fixed`
# formats; `test_save_samples_matches_reference`'s bit patterns reach it
# only about 3 % of the time.
FIXED_RANGE = st.floats(1e-4, 1e16, exclude_max=True)


@given(st.lists(st.tuples(FIXED_RANGE, st.booleans()), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_save_samples_matches_reference_in_fixed_notation(tmp_path_factory, signed):
    values = [-size if negative else size for size, negative in signed]
    assert_saved_as_reference(values, tmp_path_factory.mktemp("fixed"))


def test_save_samples_matches_reference_at_powers_of_ten_and_ties(tmp_path):
    tens = np.array([float(10**m) if m >= 0 else 10.0**m for m in range(-5, 18)])
    near = [tens]
    for way in (0.0, np.inf):
        step = tens
        for _ in range(2):  # one and two ulps away
            step = np.nextafter(step, way)
            near.append(step)
    near = np.concatenate(near)
    odd = np.arange(1, 2001, 2)
    ties = np.concatenate([
        1e15 + 0.25 * odd,  # half-way between 17-digit values: 1000000000000000.25
        1e14 + 0.125 * odd,  # and 100000000000000.125
        2.0**-np.arange(1, 20),  # 0.5**n: every digit exact, some past the 17th
    ])
    # eighteen nines parse to the power of ten above: no binary64 value
    # rounds up to 18 digits (see the next test)
    nines = [0.00099999999999999999, 9.9999999999999999e15, 0.099999999999999999]
    for values in (near, -near, ties, -ties, nines):
        assert_saved_as_reference(values, tmp_path)
    # the values the kernel does not format, in its rows of ordinary draws
    mixed = np.random.default_rng(40).normal(size=1000)
    mixed[[0, 3, 4, 500, 998, 999]] = [0.0, -0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308]
    assert_saved_as_reference(mixed, tmp_path)


def test_no_value_in_fixed_notation_rounds_up_to_18_digits():
    # `files._g17_fixed` has no carry: a value v in [1e-4, 1e16) would
    # round up to 18 digits only within half a unit of the 17th digit below
    # 10**m, an interval narrower than the gap between binary64 values
    # there, so the largest value below 10**m, if any, is the only one to test
    from fractions import Fraction

    for m in range(-4, 17):
        ten = Fraction(10) ** m
        below = float(ten)
        if Fraction(below) >= ten:
            below = math.nextafter(below, 0.0)
        assert ten - Fraction(below) > ten / (2 * 10**17), m
        assert float("%.17g" % below) == below < float(ten)


@pytest.mark.parametrize("shape", [(4, 1), (4, 2), ()], ids=["column", "two-columns", "scalar"])
def test_save_samples_rejects_what_is_not_1d(tmp_path, shape):
    values = np.full(shape, 0.5)
    with pytest.raises(TypeError):  # the reference fails while writing
        reference_save_samples(values, tmp_path / "want.txt")
    path = tmp_path / "got.txt"
    with pytest.raises(ValueError, match=r"1-D array, got shape"):
        save_samples(values, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_samples_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "got.txt"
    with pytest.raises(ValueError, match=rf"finite values, got {bad} at index 1$"):
        save_samples(np.array([1.0, bad, 2.0]), path)
    assert not path.exists()
