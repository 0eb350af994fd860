"""Every file gpcquad writes: a JSON file or report is `json.dumps(doc,
indent=1)` plus a newline and holds no non-finite number, a CSV file is its
header plus one `repr` per field, also across the row writer's batches, a
writer whose document fails leaves an existing file as it was, a model
or basis file that json cannot read is refused naming its path, one may
start with a byte-order mark and its number fields hold numbers only,
none too large for a float, a sample or points file reads back bit for
bit, also as a hand-edited copy, and no module but `gpcquad.files` opens a
file."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcquad import (
    InvariantViolation,
    MonotoneData,
    cdf_original,
    compute_recurrence,
    default_delta,
    fit_cubic,
    fit_rational,
    fit_transform,
    gauss_rule,
    load_basis,
    load_model,
    load_monotone_csv,
    load_samples,
    moments,
    pdf_original,
    save_basis,
    save_model,
    save_monotone_csv,
    save_rule,
    save_rule_csv,
    save_samples,
    select_points,
)
from gpcquad import errors, files
from gpcquad.cli import main
from gpcquad.files import json_text, write_rows
from gpcquad.interp import IDENTITY_TRANSFORM, model_to_dict
from gpcquad.orthopoly import basis_to_dict
from gpcquad.quadrature import QuadratureRule, rule_to_dict

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture(scope="module")
def built():
    """A point set, both fits of it, and a degree-4 basis and rule of each fit."""
    values = np.random.default_rng(7).normal(size=2000)
    transform, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 20)
    out = {"points": data}
    for fit in (fit_cubic, fit_rational):
        model = fit(data, transform=transform)
        rec, basis = compute_recurrence(moments(model, 9), 4)
        out[model.variant] = model, basis, gauss_rule(rec)
    return out


def _csv(header, *columns):
    return "".join([header + "\n"] + [",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)])


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_json_files_are_indent_1_with_a_final_newline(built, tmp_path, variant):
    model, basis, rule = built[variant]
    save_model(model, tmp_path / "model.json")
    save_basis(basis, tmp_path / "basis.json")
    save_rule(rule, tmp_path / "rule.json", model.transform)
    for name, doc in [("model", model_to_dict(model)), ("basis", basis_to_dict(basis)),
                      ("rule", rule_to_dict(rule, model.transform))]:
        assert (tmp_path / f"{name}.json").read_text(encoding="utf-8") == json.dumps(doc, indent=1) + "\n", name


def test_cli_reports_are_indent_1_with_a_final_newline(built, tmp_path, capsys):
    model_file = tmp_path / "m.json"
    save_model(built["cubic"][0], model_file)
    for argv in (["quad", str(model_file), "--out", str(tmp_path)],
                 ["basis", str(model_file), "--out", str(tmp_path)],
                 ["sample", str(model_file), "--count", "10", "--out", str(tmp_path / "s.txt")]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=1) + "\n", argv[0]


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_csv_files_are_a_header_and_repr_rows(built, tmp_path, capsys, variant):
    model, _, rule = built[variant]
    data = built["points"]
    save_monotone_csv(data, tmp_path / "points.csv")
    assert (tmp_path / "points.csv").read_text(encoding="utf-8") == _csv("x,y", data.x, data.y)
    save_rule_csv(rule, tmp_path / "rule.csv", model.transform)
    want = _csv("node,weight,node_original", rule.nodes, rule.weights, model.transform.denormalize(rule.nodes))
    assert (tmp_path / "rule.csv").read_text(encoding="utf-8") == want

    save_model(model, tmp_path / "m.json")
    assert main(["plotdata", str(tmp_path / "m.json"), "--grid", "9", "--out", str(tmp_path / "plot.csv")]) == 0
    capsys.readouterr()
    rows = np.loadtxt(tmp_path / "plot.csv", delimiter=",", skiprows=1)
    xhat = rows[:, 0]
    want = _csv("xhat,cdf,pdf", xhat, cdf_original(model, xhat), pdf_original(model, xhat))
    assert (tmp_path / "plot.csv").read_text(encoding="utf-8") == want


@pytest.mark.parametrize("identity", [False, True], ids=["transform", "identity"])
@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_each_rule_csv_column_is_its_json_field(built, tmp_path, variant, identity):
    # every rule file has node_original; a model fitted from a points file
    # holds the identity transform, so there it repeats the nodes
    model, _, rule = built[variant]
    transform = IDENTITY_TRANSFORM if identity else model.transform
    save_rule_csv(rule, tmp_path / "rule.csv", transform)
    doc = rule_to_dict(rule, transform)
    header, *rows = (tmp_path / "rule.csv").read_text(encoding="utf-8").splitlines()
    fields = {"node": "nodes", "weight": "weights", "node_original": "nodes_original"}
    columns = header.split(",")
    assert [fields[column] for column in columns] == [key for key in doc if key != "format_version"]
    for i, column in enumerate(columns):
        got = [float(row.split(",")[i]).hex() for row in rows]
        assert got == [value.hex() for value in doc[fields[column]]], column


def test_a_writer_whose_document_fails_leaves_the_file_as_it_was(built, tmp_path):
    # each call passes a value of the wrong type or a rule with a NaN node,
    # so building or checking the document raises; save_model and save_rule
    # used to truncate the file first, and save_rule wrote the node as NaN
    model, basis, rule = built["cubic"]
    nan_rule = QuadratureRule(np.array([0.2, np.nan]), np.array([0.5, 0.5]))
    calls = {
        "model.json": (AttributeError, lambda path: save_model(built["points"], path)),
        "basis.json": (AttributeError, lambda path: save_basis(basis.rec, path)),
        "rule.json": (AttributeError, lambda path: save_rule(rule, path, {"a": 0.0, "b": 1.0, "delta": 1e-3})),
        "nan-rule.json": (ValueError, lambda path: save_rule(nan_rule, path, model.transform)),
        "nan-rule.csv": (ValueError, lambda path: save_rule_csv(nan_rule, path, model.transform)),
    }
    for name, (error, call) in calls.items():
        path = tmp_path / name
        path.write_bytes(b"kept\n")
        with pytest.raises(error):
            call(path)
        assert path.read_bytes() == b"kept\n", name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_no_json_file_or_report_holds_a_non_finite_number(bad):
    # RFC 8259 JSON has no NaN or Infinity; json.dumps used to write them
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text({"nodes": [0.2, float(bad)]})
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text({"report": {"eps": np.float64(bad)}})


@pytest.mark.parametrize("rows", [2729, 2730, 2731, 8191, 8192, 8193])
def test_a_csv_file_keeps_its_bytes_at_the_batch_boundaries(tmp_path, rows):
    # one `%` format per `files._WRITE_BATCH` values, 2730 rows of three
    # columns; the reference is the whole text built by `repr`, as the CSV
    # writer built it
    assert files._WRITE_BATCH // 3 == 2730
    rng = np.random.default_rng(rows)
    spread = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
    columns = [rng.normal(size=rows), rng.uniform(size=rows) * 1e-300, spread]
    write_rows(tmp_path / "table.csv", "a,b,c", "%r", *columns)
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == _csv("a,b,c", *columns)


@pytest.mark.parametrize("lengths", [(8192, 10000), (3, 5), (10000, 8192)])
def test_columns_of_unequal_lengths_are_refused_before_the_file_is_opened(tmp_path, lengths):
    # the first pair used to lose 1808 values without an error, and the
    # others raised numpy's untyped error after writing part of the file
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=rf"^expected columns of one length, got lengths {lengths[0]}, {lengths[1]}$"):
        write_rows(path, "x,y", "%r", np.zeros(lengths[0]), np.ones(lengths[1]))
    assert not path.exists()


@pytest.mark.parametrize("before", [0, 20_000], ids=["first-batch", "later-batch"])
@pytest.mark.parametrize(
    "load, rows, bad",
    [
        (load_samples, ["value,", "1.5,", "nan,", "2.5,3.5"], "nan,"),
        (load_samples, ["value,", "1.5,", "2.5,3.5", "inf,"], "2.5,3.5"),
        (load_monotone_csv, ["x,y", "0.0,0.0", "nan,0.5", "0.7", "1.0,1.0"], "nan,0.5"),
        (load_monotone_csv, ["x,y", "0.0,0.0", "0.7", "0.5,inf", "1.0,1.0"], "0.7"),
        (load_samples, ["value,", "1.5,", "-inf,", "2.5,"], "-inf,"),
        (load_monotone_csv, ["x,y", "0.0,0.0", "0.5,nan", "1.0,1.0"], "0.5,nan"),
    ],
    ids=["samples-not-finite-first", "samples-count-first", "points-not-finite-first", "points-count-first",
         "samples-not-finite", "points-not-finite"],
)
def test_the_first_bad_row_is_named_whichever_kind_it_is(tmp_path, load, rows, bad, before):
    # the row pass checks finiteness once per batch of lines, after the
    # rows; a row that is not finite must still be named before a later row
    # with the wrong count of fields, and the other way round
    header, first, *rest = rows
    path = tmp_path / "file.csv"
    path.write_text("\n".join([header] + [first] * (1 + before) + rest) + "\n")
    line = 1 + before + rows.index(bad)
    with pytest.raises((InvariantViolation, errors.DegenerateSamplesError),
                       match=rf", row {line}: expected .*, got {re.escape(repr(bad))}$"):
        load(path)


NOT_JSON = "malformed {kind} document: {path} is not JSON: "


@pytest.mark.parametrize("load, kind", [(load_model, "model"), (load_basis, "basis")], ids=["model", "basis"])
@pytest.mark.parametrize(
    "content, message",
    [(b"not json", NOT_JSON), (b"\xff\xfe{}", "{path}, line 1: not UTF-8 text"),
     (b"[" * 100_000 + b"]" * 100_000, NOT_JSON)],
    ids=["text", "not-utf-8", "nested-too-deeply"],
)
def test_a_file_json_cannot_read_is_refused_naming_its_path(tmp_path, load, kind, content, message):
    # arrays nested too deeply used to escape as the decoder's RecursionError;
    # bytes that are not UTF-8 used to be named by the codec's message
    path = tmp_path / f"{kind}.json"
    path.write_bytes(content)
    with pytest.raises(InvariantViolation, match="^" + re.escape(message.format(kind=kind, path=path))):
        load(path)


@pytest.mark.parametrize("kind", ["model", "basis"])
def test_a_json_file_is_utf8_with_an_optional_byte_order_mark(built, tmp_path, kind):
    # a model or basis file behind a byte-order mark used to be refused
    # ("Unexpected UTF-8 BOM"), and a byte that is not UTF-8 was named by
    # its offset in the file, where sample and points files name its line
    model, basis, _ = built["cubic"]
    save, load, value = {"model": (save_model, load_model, model),
                         "basis": (save_basis, lambda path: load_basis(path)[1], basis)}[kind]
    path, again = tmp_path / f"{kind}.json", tmp_path / "again.json"
    save(value, path)
    text = path.read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + text)
    save(load(path), again)
    assert again.read_bytes() == text
    lines = text.split(b"\n")
    lines[3] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(InvariantViolation, match=f"^{re.escape(str(path))}, line 4: not UTF-8 text$"):
        load(path)


def _edited(doc, edits):
    """`doc` after each edit (keys..., new), which sets the value the keys
    reach to `new` of the value there."""
    for *keys, last, new in edits:
        target = doc
        for key in keys:
            target = target[key]
        target[last] = new(target[last])
    return doc


@pytest.mark.parametrize(
    "edits, message",
    [
        ([("knots_x", 0, lambda v: False), ("knots_x", -1, lambda v: True)], "knots_x[0] is false"),
        ([("knots_y", lambda ys: [repr(y) for y in ys])], 'knots_y[0] is "0.0"'),
        ([("slopes", 5, repr)], 'slopes[5] is "{slopes[5]!r}"'),
        ([("transform", "a", repr)], 'transform.a is "{transform[a]!r}"'),
    ],
    ids=["knots-x-bool", "knots-y-str", "slope-str", "transform-str"],
)
def test_a_model_number_field_holds_numbers_only(built, tmp_path, edits, message):
    # each of these documents loaded: float() and numpy read false as 0.0,
    # true as 1.0 and "0.5" as 0.5
    doc = model_to_dict(built["rational"][0])
    message = message.format(**doc)
    path = tmp_path / "model.json"
    path.write_text(json_text(_edited(doc, edits)))
    with pytest.raises(InvariantViolation, match=f"^malformed model document: {re.escape(message)}, not a number$"):
        load_model(path)


@pytest.mark.parametrize(
    "edits, message",
    [
        ([("kappa", 0, lambda v: True), ("kappa", 1, repr)], "kappa[0] is true"),
        ([("format_version", lambda v: True)], "format_version is true"),
        ([("gamma", 2, repr)], 'gamma[2] is "{gamma[2]!r}"'),
        ([("phi_coeffs", 3, 1, repr)], 'phi_coeffs[3][1] is "{phi_coeffs[3][1]!r}"'),
    ],
    ids=["kappa-bool-and-str", "format-version-bool", "gamma-str", "phi-coeffs-str"],
)
def test_a_basis_number_field_holds_numbers_only(built, tmp_path, edits, message):
    # each of these documents loaded: `true == 1` passed the version check,
    # and float() and numpy read true as 1.0 and "0.1" as 0.1
    doc = basis_to_dict(built["rational"][1])
    message = message.format(**doc)
    path = tmp_path / "basis.json"
    path.write_text(json_text(_edited(doc, edits)))
    with pytest.raises(InvariantViolation, match=f"^malformed basis document: {re.escape(message)}, not a number$"):
        load_basis(path)


@pytest.mark.parametrize(
    "kind, edits",
    [
        ("model", [("transform", "a", lambda v: 10**400)]),
        ("model", [("knots_y", 2, lambda v: 10**400)]),
        ("basis", [("gamma", 1, lambda v: 10**400)]),
    ],
    ids=["transform-a", "knots-y", "gamma"],
)
def test_a_number_field_too_large_for_a_float_is_refused(built, tmp_path, kind, edits):
    # json reads the 401-digit integer as a Python int, which float() and
    # numpy refused with an untyped OverflowError
    model, basis, _ = built["rational"]
    doc, load = (model_to_dict(model), load_model) if kind == "model" else (basis_to_dict(basis), load_basis)
    path = tmp_path / f"{kind}.json"
    path.write_text(json_text(_edited(doc, edits)))
    assert "1" + "0" * 400 in path.read_text()
    with pytest.raises(InvariantViolation, match=f"^malformed {kind} document: int too large to convert to float$"):
        load(path)


# the `Path` methods that read or write a file
_PATH_IO = {"read_text", "write_text", "read_bytes", "write_bytes", "open"}


def test_only_the_files_module_opens_a_file_or_imports_json():
    # every file format is decided in `gpcquad.files`: no other module calls
    # `open`, reads or writes through a `Path` method, or imports json
    found = []
    for path in sorted(Path(files.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "open"
                        or isinstance(func, ast.Attribute) and func.attr in _PATH_IO):
                    found.append((path.name, node.lineno, ast.unparse(func)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module]
                if "json" in modules:
                    found.append((path.name, node.lineno, "import json"))
    assert {name for name, *_ in found} == {"files.py"}, [item for item in found if item[0] != "files.py"]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# a byte-order mark, CRLF ends, a header, a blank line before every line, trailing blank fields
DRESS = st.tuples(*[st.booleans()] * 5)


def _dressed(lines, header, dress) -> bytes:
    """The bytes of a file of `lines` as a hand-edited copy might hold them."""
    bom, crlf, headed, blank_lines, blank_fields = dress
    lines = [header] + lines if headed else lines
    if blank_fields:
        lines = [line + ", ," for line in lines]
    if blank_lines:
        lines = [part for line in lines for part in ("", line)]
    text = "".join(line + ("\r\n" if crlf else "\n") for line in lines)
    return (b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8")


@given(st.lists(FINITE, min_size=1, max_size=40), DRESS)
@settings(max_examples=300, deadline=None)
def test_a_sample_file_reads_back_bit_for_bit(tmp_path_factory, values, dress):
    path = tmp_path_factory.mktemp("samples") / "samples.txt"
    values = np.array(values)
    save_samples(values, path)
    assert load_samples(path).tobytes() == values.tobytes()
    path.write_bytes(_dressed(path.read_text().splitlines(), "value", dress))
    assert load_samples(path).tobytes() == values.tobytes()


@given(st.lists(UNIT, max_size=30, unique=True), st.lists(st.floats(0.0, 1.0), max_size=30), DRESS)
@settings(max_examples=300, deadline=None)
def test_a_points_file_reads_back_bit_for_bit(tmp_path_factory, x, y, dress):
    size = min(len(x), len(y))
    data = MonotoneData(x=[0.0, *sorted(x[:size]), 1.0], y=[0.0, *sorted(y[:size]), 1.0])
    path = tmp_path_factory.mktemp("points") / "points.csv"
    save_monotone_csv(data, path)
    header, *rows = path.read_text().splitlines()
    path.write_bytes(_dressed(rows, header, dress))
    again = load_monotone_csv(path)
    assert again.x.tobytes() == data.x.tobytes() and again.y.tobytes() == data.y.tobytes()
