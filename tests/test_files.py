"""Every file gpcquad writes: a JSON file or report is `json.dumps(doc,
indent=1)` plus a newline, a CSV file is its header plus one `repr` per field,
a writer whose document fails leaves an existing file as it was, and a model
or basis file that json cannot read is refused naming its path."""

import json
import re

import numpy as np
import pytest

from gpcquad import (
    InvariantViolation,
    cdf_original,
    compute_recurrence,
    default_delta,
    fit_cubic,
    fit_rational,
    fit_transform,
    gauss_rule,
    load_basis,
    load_model,
    moments,
    pdf_original,
    save_basis,
    save_model,
    save_monotone_csv,
    save_rule,
    save_rule_csv,
    select_points,
)
from gpcquad.cli import main
from gpcquad.interp import model_to_dict
from gpcquad.orthopoly import basis_to_dict
from gpcquad.quadrature import rule_to_dict

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
    save_rule(rule, tmp_path / "rule.json")
    save_rule(rule, tmp_path / "rule-original.json", model.transform)
    for name, doc in [("model", model_to_dict(model)), ("basis", basis_to_dict(basis)),
                      ("rule", rule_to_dict(rule)), ("rule-original", rule_to_dict(rule, model.transform))]:
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
    save_rule_csv(rule, tmp_path / "rule-unit.csv")
    want = _csv("node,weight,node_original", rule.nodes, rule.weights, rule.nodes)
    assert (tmp_path / "rule-unit.csv").read_text(encoding="utf-8") == want

    save_model(model, tmp_path / "m.json")
    assert main(["plotdata", str(tmp_path / "m.json"), "--grid", "9", "--out", str(tmp_path / "plot.csv")]) == 0
    capsys.readouterr()
    rows = np.loadtxt(tmp_path / "plot.csv", delimiter=",", skiprows=1)
    xhat = rows[:, 0]
    want = _csv("xhat,cdf,pdf", xhat, cdf_original(model, xhat), pdf_original(model, xhat))
    assert (tmp_path / "plot.csv").read_text(encoding="utf-8") == want


def test_a_writer_whose_document_fails_leaves_the_file_as_it_was(built, tmp_path):
    # each call passes a value of the wrong type, so building the document
    # raises; save_model and save_rule used to truncate the file first
    model, basis, rule = built["cubic"]
    calls = {
        "model.json": lambda path: save_model(built["points"], path),
        "basis.json": lambda path: save_basis(basis.rec, path),
        "rule.json": lambda path: save_rule(rule, path, {"a": 0.0, "b": 1.0, "delta": 1e-3}),
    }
    for name, call in calls.items():
        path = tmp_path / name
        path.write_bytes(b"kept\n")
        with pytest.raises(AttributeError):
            call(path)
        assert path.read_bytes() == b"kept\n", name


@pytest.mark.parametrize("load, kind", [(load_model, "model"), (load_basis, "basis")], ids=["model", "basis"])
@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["text", "not-utf-8", "nested-too-deeply"])
def test_a_file_json_cannot_read_is_refused_naming_its_path(tmp_path, load, kind, content):
    # arrays nested too deeply used to escape as the decoder's RecursionError
    path = tmp_path / f"{kind}.json"
    path.write_bytes(content)
    with pytest.raises(InvariantViolation, match=f"^malformed {kind} document: {re.escape(str(path))} is not JSON: "):
        load(path)
