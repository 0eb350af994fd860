import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from gpcquad import (
    compute_recurrence,
    draw_samples,
    fit_transform,
    default_delta,
    gauss_rule,
    load_model,
    load_samples,
    moments,
    parse_model,
    sample,
    save_monotone_csv,
    select_points,
    fit_cubic,
    fit_density,
    fit_rational,
    save_model,
)
from gpcquad.cli import main
from gpcquad.interp import MODEL_FORMAT_VERSION
from gpcquad.surrogate import MAX_DEPTH
from conftest import diagonal_data, mixture_values


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

    bad.write_text("value\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(bad), "--out", str(tmp_path))
    assert code == 1
    assert f"no samples in {bad}" in err


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

    for cmd in ("basis", "quad"):
        for degree in ("11", "-1"):
            code, report, err = run_cli(
                capsys, cmd, model_file, "--degree", degree, "--out", str(tmp_path)
            )
            assert code == 1 and report is None
            assert "degree must be within [0, 10]" in err


def test_points_file_with_a_malformed_row(tmp_path, capsys):
    for row, name in (("0.5,0.5,0.5", "three"), ("0.5", "one"), ("a,0.5", "text")):
        points = tmp_path / f"{name}.csv"
        points.write_text(f"x,y\n0.0,0.0\n{row}\n1.0,1.0\n")
        code, report, err = run_cli(capsys, "fit", "--points", str(points), "--out", str(tmp_path))
        assert code == 1 and report is None
        assert f"{name}.csv, row 3: expected two numbers x,y, got {row!r}" in err


def test_sample_file_with_a_malformed_row(tmp_path, capsys):
    for row, name in (("0.5,0.5", "two"), ("abc", "text"), ("nan", "nan"), ("-inf", "inf")):
        data = tmp_path / f"{name}.txt"
        data.write_text(f"value\n0.0\n\n{row}\n1.0\n")
        code, report, err = run_cli(capsys, "fit", "--data", str(data), "--out", str(tmp_path))
        assert code == 1 and report is None
        assert f"{name}.txt, row 4: expected one finite number, got {row!r}" in err


def test_sample_file_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "bytes.txt"
    data.write_bytes(b"1.0\n2.0\n\xff\xfe\n3.0\n")
    code, report, err = run_cli(capsys, "fit", "--data", str(data), "--out", str(tmp_path))
    assert code == 1 and report is None
    assert "bytes.txt, line 3: not UTF-8 text" in err


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
    values = load_samples(out)
    assert values.tobytes() == draw_samples(load_model(model_file), 100000, 4).tobytes()
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


def test_non_finite_model_file_is_rejected(tmp_path, capsys):
    model_file = tmp_path / "m.json"
    save_model(fit_cubic(diagonal_data(5)), model_file)
    doc = json.loads(model_file.read_text())
    doc["slopes"][2] = float("nan")
    model_file.write_text(json.dumps(doc))
    code, report, err = run_cli(capsys, "quad", str(model_file), "--out", str(tmp_path))
    assert code == 1 and report is None
    assert "non-finite values in slopes" in err


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_cli_round_trip_matches_in_process(variant, tmp_path, capsys):
    """fit -> quad through files reproduces the in-process pipeline bitwise."""
    model = parse_model("a ~ N(0.0, 2.0)\nb ~ U(-1.0, 1.0)\nf = a + b*b\n")
    values = sample(model, 30_000, seed=21).values
    transform, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 30)
    fitter = fit_cubic if variant == "cubic" else fit_rational
    density = fitter(data, transform=transform)
    rec, _ = compute_recurrence(moments(density, 9), 4)
    rule = gauss_rule(rec)

    model_file = tmp_path / "m.txt"
    model_file.write_text("a ~ N(0.0, 2.0)\nb ~ U(-1.0, 1.0)\nf = a + b*b\n")
    code, report, _ = run_cli(
        capsys,
        "fit", "--model", str(model_file), "--samples", "30000", "--seed", "21",
        "--m", "30", "--variant", variant, "--out", str(tmp_path),
    )
    assert code == 0
    code, qreport, _ = run_cli(
        capsys, "quad", report["variants"][variant]["file"], "--degree", "4",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert qreport["nodes"] == rule.nodes.tolist()
    assert qreport["weights"] == rule.weights.tolist()


@pytest.mark.parametrize("expression", ["x + 1/0", "10^400", "x*(0-2)^0.5"])
def test_fit_rejects_faulty_constants(expression, tmp_path, capsys):
    source = tmp_path / "m.txt"
    source.write_text(f"x ~ N(0, 1)\nf = {expression}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning
        code, report, err = run_cli(
            capsys, "fit", "--model", str(source), "--samples", "2000", "--out", str(tmp_path)
        )
    assert code == 1 and report is None
    assert err == "error: model evaluated to a non-finite value at draw 0\n"



def test_fit_rejects_a_uniform_too_wide_to_draw(tmp_path, capsys):
    # used to end in numpy's uncaught OverflowError at the first draw
    source = tmp_path / "wide.txt"
    source.write_text("x ~ U(-1e308, 1e308)\nf = x\n")
    code, report, err = run_cli(
        capsys, "fit", "--model", str(source), "--samples", "2000", "--out", str(tmp_path)
    )
    assert code == 1 and report is None
    assert err.startswith("error: uniform width hi - lo overflows") and "Traceback" not in err

def test_fit_rejects_deep_nesting(tmp_path, capsys):
    source = tmp_path / "deep.txt"
    source.write_text("x ~ N(0, 1)\nf = " + "(" * 400 + "x" + ")" * 400 + "\n")
    code, report, err = run_cli(
        capsys, "fit", "--model", str(source), "--samples", "2000", "--out", str(tmp_path)
    )
    assert code == 1 and report is None
    assert err.startswith("error: ") and f"nests deeper than {MAX_DEPTH} levels" in err


def test_fit_long_sum(tmp_path, capsys):
    # 1200 terms used to end in a bare RecursionError
    source = tmp_path / "long.txt"
    source.write_text("x ~ N(0, 1)\nf = " + " + ".join(["x"] * 1200) + "\n")
    code, report, _ = run_cli(
        capsys, "fit", "--model", str(source), "--samples", "2000", "--out", str(tmp_path)
    )
    assert code == 0 and report["ok"] is True


def test_fit_sum_of_200_products_keeps_its_bits(tmp_path, capsys):
    source = tmp_path / "wide.txt"
    source.write_text(
        "x0 ~ U(-1, 1)\nx1 ~ N(0, 1)\nf = "
        + " + ".join(["x0*x1"] + [f"x0^{k}*x1" for k in range(2, 201)])
        + "\n"
    )
    code, report, _ = run_cli(
        capsys, "fit", "--model", str(source), "--samples", "20000", "--seed", "5",
        "--out", str(tmp_path),
    )
    assert code == 0 and report["ok"] is True
    # the files written for this model before the walkers looped along sums
    digests = {
        "cubic": "28b5319f550bb5f51401a55c0db31f902b0669ea5c934a9befe5a1f3ffcbf4c8",
        "rational": "d585d525723001eff273ca2c12e7f6b9a54aa8ec7dfed161c9f88f03c587ce32",
    }
    for variant, digest in digests.items():
        data = (tmp_path / f"wide-{variant}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_fit_at_the_depth_limit_keeps_its_bits(tmp_path, capsys):
    source = tmp_path / "deep.txt"
    source.write_text(
        "x ~ N(0, 1)\nf = " + "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        + " + x" * (MAX_DEPTH - 1) + "\n"
    )
    code, report, _ = run_cli(
        capsys, "fit", "--model", str(source), "--samples", "20000", "--seed", "5",
        "--out", str(tmp_path),
    )
    assert code == 0 and report["ok"] is True
    # the files written for this model before the depth limit existed
    digests = {
        "cubic": "1ff5905117e597e1aae1580900b9ce4aac728c9fb0627094e7e0b054fe2c356d",
        "rational": "9686bd0cc7d0e816002ea954af5b01a9b796f9b4f17d134bd91363b5875093d3",
    }
    for variant, digest in digests.items():
        data = (tmp_path / f"deep-{variant}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_quad_refuses_nodes_outside_the_support(tmp_path, capsys):
    # a perfbench mixture-fine dataset (seed 4, job 25) whose moment-route
    # degree-10 cubic rule has its lowest node at -0.679
    values = mixture_values(np.random.default_rng([4, 25]), size=20000)
    path = tmp_path / "mix-cubic.json"
    save_model(fit_density(values, m=200, variant="cubic"), path)
    code, report, err = run_cli(capsys, "quad", str(path), "--degree", "10", "--out", str(tmp_path))
    assert code == 2 and report is None
    assert err == (
        "numerical failure: degree-10 Gauss node -0.678657 lies outside the density's "
        "support [0, 1] (unit coordinates); the moments are too ill-conditioned for this degree\n"
    )
    assert not (tmp_path / "mix-cubic-rule10.json").exists()
    code, report, _ = run_cli(capsys, "quad", str(path), "--degree", "4", "--out", str(tmp_path))
    assert code == 0 and report["ok"] is True
