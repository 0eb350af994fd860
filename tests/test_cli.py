import json
import math

import numpy as np
import pytest

from gpcquad import (
    compute_recurrence,
    fit_transform,
    default_delta,
    gauss_rule,
    load_model,
    moments,
    parse_model,
    sample,
    save_monotone_csv,
    select_points,
    fit_cubic,
    save_model,
)
from gpcquad.cli import main
from gpcquad.interp import MODEL_FORMAT_VERSION
from conftest import diagonal_data


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_fit_builtin_synthetic(tmp_path, capsys):
    code, report, err = run_cli(
        capsys,
        "fit", "--model", "builtin:synthetic",
        "--samples", "20000", "--seed", "11", "--out", str(tmp_path),
    )
    assert code == 0
    assert report["ok"] is True
    assert set(report["variants"]) == {"cubic", "rational"}
    for info in report["variants"].values():
        assert info["checks"]["ok"] is True
        assert info["checks"]["mass"] == 1.0
        assert info["checks"]["hermite_value_max"] <= 1e-12
        model = load_model(info["file"])
        assert model.n == report["n"]
    assert "checks pass" in err


def test_fit_from_sample_file_single_variant(tmp_path, capsys):
    rng = np.random.default_rng(3)
    data_file = tmp_path / "vals.txt"
    data_file.write_text("".join(f"{v}\n" for v in rng.normal(5, 2, 5000)))
    code, report, _ = run_cli(
        capsys,
        "fit", "--data", str(data_file), "--variant", "cubic",
        "--m", "20", "--out", str(tmp_path),
    )
    assert code == 0
    assert list(report["variants"]) == ["cubic"]
    assert (tmp_path / "vals-cubic.json").exists()


def test_fit_degenerate_sample_file(tmp_path, capsys):
    bad = tmp_path / "one.txt"
    bad.write_text("3.14\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(bad), "--out", str(tmp_path))
    assert code == 1
    assert "degenerate" in err or "at least 2" in err


def test_fit_replay_from_points_gives_uniform(tmp_path, capsys):
    points = tmp_path / "diag.csv"
    save_monotone_csv(diagonal_data(6), points)
    code, report, _ = run_cli(
        capsys, "fit", "--points", str(points), "--variant", "cubic", "--out", str(tmp_path)
    )
    assert code == 0
    model_file = report["variants"]["cubic"]["file"]

    code, report, _ = run_cli(capsys, "quad", model_file, "--degree", "1", "--out", str(tmp_path))
    assert code == 0
    want = [(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6]
    np.testing.assert_allclose(report["nodes"], want, atol=1e-10)
    np.testing.assert_allclose(report["weights"], [0.5, 0.5], atol=1e-10)
    assert report["orthonormality_error"] <= 1e-12


def test_basis_closed_forms_and_degree_cap(tmp_path, capsys):
    points = tmp_path / "diag.csv"
    save_monotone_csv(diagonal_data(6), points)
    code, report, _ = run_cli(
        capsys, "fit", "--points", str(points), "--variant", "rational", "--out", str(tmp_path)
    )
    model_file = report["variants"]["rational"]["file"]

    code, report, _ = run_cli(capsys, "basis", model_file, "--degree", "2", "--out", str(tmp_path))
    assert code == 0
    np.testing.assert_allclose(report["gamma"], [0.5, 0.5, 0.5], atol=1e-12)
    assert report["kappa"][1] == pytest.approx(1 / 12, abs=1e-12)
    assert report["kappa"][2] == pytest.approx(1 / 15, abs=1e-12)

    code, report, _ = run_cli(capsys, "basis", model_file, "--degree", "0", "--out", str(tmp_path))
    assert code == 0
    assert report["gamma"] == [pytest.approx(0.5, abs=1e-12)]

    code, _, err = run_cli(capsys, "basis", model_file, "--degree", "11", "--out", str(tmp_path))
    assert code == 1
    assert "degree" in err


def test_sample_command(tmp_path, capsys):
    points = tmp_path / "diag.csv"
    save_monotone_csv(diagonal_data(6), points)
    _, report, _ = run_cli(
        capsys, "fit", "--points", str(points), "--variant", "cubic", "--out", str(tmp_path)
    )
    model_file = report["variants"]["cubic"]["file"]

    out = tmp_path / "draws.txt"
    code, _, _ = run_cli(capsys, "sample", model_file, "--count", "0", "--out", str(out))
    assert code == 0
    assert out.read_text() == ""

    code, _, _ = run_cli(
        capsys, "sample", model_file, "--count", "100000", "--seed", "4", "--out", str(out)
    )
    assert code == 0
    values = np.loadtxt(out)
    # uniform on (0,1): mean within 0.01 of M_1 = 1/2
    assert abs(values.mean() - 0.5) < 0.01

    twin = tmp_path / "draws2.txt"
    code, _, _ = run_cli(
        capsys, "sample", model_file, "--count", "100000", "--seed", "4", "--out", str(twin)
    )
    assert out.read_bytes() == twin.read_bytes()


def test_plotdata_uniform_grid(tmp_path, capsys):
    points = tmp_path / "diag.csv"
    save_monotone_csv(diagonal_data(6), points)
    _, report, _ = run_cli(
        capsys, "fit", "--points", str(points), "--variant", "cubic", "--out", str(tmp_path)
    )
    model_file = report["variants"]["cubic"]["file"]

    out = tmp_path / "plot.csv"
    code, report, _ = run_cli(capsys, "plotdata", model_file, "--grid", "11", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    cdf = np.array([float(r[1]) for r in rows])
    pdf = np.array([float(r[2]) for r in rows])
    core = cdf[(cdf > 0) & (cdf < 1)]
    np.testing.assert_allclose(core, np.arange(1, 10) / 10, atol=1e-12)
    assert np.all(np.diff(cdf) >= -1e-15)
    assert np.all(pdf >= 0)

    code, _, err = run_cli(capsys, "plotdata", model_file, "--grid", "1", "--out", str(out))
    assert code == 1


def test_invalid_model_file_and_missing_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"format_version": MODEL_FORMAT_VERSION, "variant": "cubic"}))
    code, _, _ = run_cli(capsys, "quad", str(bogus), "--out", str(tmp_path))
    assert code == 1
    code, _, _ = run_cli(capsys, "quad", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert code == 3


def test_format_1_model_file_must_be_refit(tmp_path, capsys):
    """Format-1 files (with the per-piece coefficient table) are rejected."""
    model_file = tmp_path / "m.json"
    save_model(fit_cubic(diagonal_data(5)), model_file)
    doc = json.loads(model_file.read_text())
    doc["format_version"] = 1
    doc["pieces"] = [[0.25 * k, 1.0, 0.0, 0.0] for k in range(4)]
    model_file.write_text(json.dumps(doc))
    code, report, err = run_cli(capsys, "quad", str(model_file), "--out", str(tmp_path))
    assert code == 1 and report is None
    assert "format version 1" in err


def test_cli_round_trip_matches_in_process(tmp_path, capsys):
    """fit -> quad through files reproduces the in-process pipeline bitwise."""
    model = parse_model("a ~ N(0.0, 2.0)\nb ~ U(-1.0, 1.0)\nf = a + b*b\n")
    values = sample(model, 30_000, seed=21).values
    transform, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 30)
    density = fit_cubic(data, transform=transform)
    rec, _ = compute_recurrence(moments(density, 9), 4)
    rule = gauss_rule(rec)

    model_file = tmp_path / "m.txt"
    model_file.write_text("a ~ N(0.0, 2.0)\nb ~ U(-1.0, 1.0)\nf = a + b*b\n")
    code, report, _ = run_cli(
        capsys,
        "fit", "--model", str(model_file), "--samples", "30000", "--seed", "21",
        "--m", "30", "--variant", "cubic", "--out", str(tmp_path),
    )
    assert code == 0
    code, qreport, _ = run_cli(
        capsys, "quad", report["variants"]["cubic"]["file"], "--degree", "4",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert qreport["nodes"] == rule.nodes.tolist()
    assert qreport["weights"] == rule.weights.tolist()
