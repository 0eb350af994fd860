import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from gpcquad import (
    NumericalError,
    draw_samples,
    load_model,
    load_samples,
    parse_model,
    pdf_eval,
    rule_from_model,
    sample,
    save_monotone_csv,
    save_samples,
    select_from_samples,
    fit_cubic,
    fit_density,
    fit_variant,
    save_model,
    validate_model,
)
from gpcquad import cli, interp
from gpcquad.cli import main
from gpcquad.interp import MODEL_FORMAT_VERSION
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
        assert info["checks"]["hermite_value_max"] <= 1e-12
        model = load_model(info["file"])
        assert model.n == report["n"]
        # the library's certificate of the saved model, as JSON gives it back
        want = json.loads(json.dumps(validate_model(model, raise_on_failure=False)))
        assert info["checks"] == want
    # a rational fit cannot have a negative derivative, so it reports none
    assert "derivative_min" in report["variants"]["cubic"]["checks"]
    assert "derivative_min" not in report["variants"]["rational"]["checks"]
    assert "checks pass" in err


def test_fit_certifies_each_variant_once(tmp_path, capsys, monkeypatch):
    # the report used to run validate_model again on each model its
    # constructor had just checked
    certified = []
    certify = interp.validate_model

    def counted(model, *args, **kwargs):
        certified.append(model.variant)
        return certify(model, *args, **kwargs)

    for module in (interp, cli):  # and the cli's own name for it, if it has one
        monkeypatch.setattr(module, "validate_model", counted, raising=False)
    code, report, _ = run_cli(capsys, "fit", "--model", "builtin:synthetic", "--samples", "20000",
                              "--variant", "both", "--out", str(tmp_path))
    assert code == 0 and list(report["variants"]) == ["cubic", "rational"]
    assert certified == ["cubic", "rational"]


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
    assert report["m"] == 20 and "transform" in report
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
    # no points were selected, so neither m nor a transform had any effect
    assert "m" not in report and "transform" not in report
    model_file = report["variants"]["cubic"]["file"]

    code, report, _ = run_cli(capsys, "quad", model_file, "--degree", "1", "--out", str(tmp_path))
    assert code == 0
    want = [(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6]
    np.testing.assert_allclose(report["nodes"], want, atol=1e-10)
    np.testing.assert_allclose(report["weights"], [0.5, 0.5], atol=1e-10)
    assert report["orthonormality_error"] <= 1e-12


@pytest.mark.parametrize(
    "source, option, value",
    [("points", "--m", "1"), ("points", "--delta", "-5"), ("points", "--samples", "3"),
     ("points", "--seed", "7"), ("data", "--samples", "3"), ("data", "--seed", "-7")],
)
def test_fit_refuses_an_option_its_source_does_not_take(tmp_path, capsys, source, option, value):
    # formerly ignored without a word, even out of range: `fit --points
    # pts.csv --m 1 --delta -5 --samples 3 --seed 7` exited 0
    given = tmp_path / "given.csv"
    if source == "points":
        save_monotone_csv(diagonal_data(6), given)
    else:
        given.write_text("".join(f"{v}\n" for v in np.linspace(0.0, 1.0, 50)))
    for path in (given, tmp_path / "missing.csv"):  # refused before the file is read
        code, report, err = run_cli(
            capsys, "fit", f"--{source}", str(path), option, value, "--out", str(tmp_path / "out")
        )
        assert (code, report) == (1, None)
        assert err == f"error: {option} does not apply to fit --{source}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["model", "data", "points"])
def test_fit_from_an_empty_path_is_an_io_error(tmp_path, capsys, source):
    # `--points ""` and `--model ""` formerly fell through to the sample-file
    # reader with no path, and ended in a TypeError traceback
    code, report, err = run_cli(capsys, "fit", f"--{source}", "", "--out", str(tmp_path / "out"))
    assert (code, report) == (3, None)
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    # a nan or inf field formerly passed the reader and was blamed on the
    # order of the points ("abscissae must be strictly increasing",
    # "ordinates must be non-decreasing")
    for row, name in (("0.5,0.5,0.5", "three"), ("0.5", "one"), ("a,0.5", "text"),
                      ("nan,0.5", "nan"), ("0.5,inf", "inf")):
        points = tmp_path / f"{name}.csv"
        points.write_text(f"x,y\n0.0,0.0\n{row}\n1.0,1.0\n")
        code, report, err = run_cli(capsys, "fit", "--points", str(points), "--out", str(tmp_path))
        assert code == 1 and report is None
        assert f"{name}.csv, row 3: expected two finite numbers, got {row!r}" in err


def test_points_file_that_is_not_utf8(tmp_path, capsys):
    # formerly the codec's UnicodeDecodeError, naming neither the file nor the line
    points = tmp_path / "bytes.csv"
    points.write_bytes(b"x,y\n0.0,0.0\n0.5,0.5\xff\n1.0,1.0\n")
    code, report, err = run_cli(capsys, "fit", "--points", str(points), "--out", str(tmp_path / "out"))
    assert (code, report) == (1, None)
    assert err == f"error: {points}, line 3: not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant", ["cubic", "rational", "both"])
def test_fit_points_whose_chord_slope_overflows_exit_1(tmp_path, capsys, variant):
    # formerly each slope estimator leaked `overflow encountered in divide`
    # and the cubic's message named no piece
    points = tmp_path / "narrow.csv"
    points.write_text("x,y\n0.0,0.0\n1e-310,0.5\n1.0,1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, err = run_cli(
            capsys, "fit", "--points", str(points), "--variant", variant, "--out", str(tmp_path)
        )
    assert (code, report) == (1, None)
    assert err == "error: piece 0 on [0.0, 1e-310] has a non-finite chord slope\n"


@pytest.mark.parametrize("width", ["1e-160", "1e-300"])
def test_rules_of_a_rational_fit_with_a_piece_too_narrow_for_its_moments_exit_2(tmp_path, capsys, width):
    # the fit is certified, but the piece's moments are not finite in float64;
    # formerly quad and basis leaked five numpy warnings and blamed kappa_1 = nan
    points = tmp_path / "narrow.csv"
    points.write_text(f"x,y\n0.0,0.0\n{width},0.9\n1.0,1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, _ = run_cli(
            capsys, "fit", "--points", str(points), "--variant", "rational", "--out", str(tmp_path)
        )
        assert code == 0 and report["ok"] is True
        for command in ("quad", "basis"):
            code, report, err = run_cli(capsys, command, str(tmp_path / "narrow-rational.json"),
                                        "--degree", "4", "--out", str(tmp_path / command))
            assert (code, report) == (2, None), command
            assert err == (f"numerical failure: the moments of piece 0 on [0.0, {width}] are not "
                           f"finite in float64: the piece is too narrow or too steep for them\n")
            assert not (tmp_path / command).exists()


def test_basis_refuses_the_degrees_quad_refuses(tmp_path, capsys):
    # perfbench's mixture-fine dataset at seed 4, job 10 (m = 200): the
    # degree-10 cubic rule has a node outside the support; formerly `basis`
    # skipped the rule, exited 0 and wrote a basis that is not orthonormal
    data = tmp_path / "mix.txt"
    save_samples(mixture_values(np.random.default_rng([4, 10]), 20000), data)
    code, report, _ = run_cli(capsys, "fit", "--data", str(data), "--m", "200", "--out", str(tmp_path))
    assert code == 0
    model_file = report["variants"]["cubic"]["file"]
    with pytest.raises(NumericalError, match=r"degree-10 Gauss node 1\.07139 lies outside"):
        rule_from_model(load_model(model_file), 10)
    errs = []
    for command in ("basis", "quad"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report, err = run_cli(capsys, command, model_file, "--degree", "10",
                                        "--out", str(tmp_path / command))
        assert (code, report) == (2, None), command
        assert not (tmp_path / command).exists()
        errs.append(err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("numerical failure: degree-10 Gauss node 1.07139 lies outside "
                              "the density's support [0, 1]")


def test_fit_refuses_an_m_above_its_cap(tmp_path, capsys):
    # formerly the point selection ran without end
    code, report, err = run_cli(
        capsys, "fit", "--model", "builtin:synthetic", "--samples", "2000",
        "--m", "1000000000000000", "--out", str(tmp_path),
    )
    assert (code, report) == (1, None)
    assert err == "error: m must be within [2, 10000], got 1000000000000000\n"


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


def test_fit_data_with_a_byte_order_mark(tmp_path, capsys):
    # formerly the mark made the first row a header, dropping its value
    values = np.random.default_rng(5).normal(size=2000)
    plain, marked = tmp_path / "plain" / "draws.txt", tmp_path / "marked" / "draws.txt"
    plain.parent.mkdir()
    marked.parent.mkdir()
    save_samples(values, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path in (plain, marked):
        code, report, _ = run_cli(capsys, "fit", "--data", str(path), "--out", str(path.parent))
        assert code == 0 and report["ok"] is True
    for variant in ("cubic", "rational"):
        name = f"draws-{variant}.json"
        assert (marked.parent / name).read_bytes() == (plain.parent / name).read_bytes()


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


def test_a_negative_seed_is_named(tmp_path, capsys):
    # formerly numpy's `expected non-negative integer`, which names no seed
    points = tmp_path / "diag.csv"
    save_monotone_csv(diagonal_data(6), points)
    _, report, _ = run_cli(capsys, "fit", "--points", str(points), "--variant", "cubic", "--out", str(tmp_path))
    for argv in (("fit", "--model", "builtin:synthetic", "--samples", "2000"),
                 ("sample", report["variants"]["cubic"]["file"], "--count", "10")):
        out = tmp_path / "out"
        code, report_out, err = run_cli(capsys, *argv, "--seed", "-1", "--out", str(out))
        assert (code, report_out, err) == (1, None, "error: seed must be at least 0, got -1\n")
        assert not out.exists()


def test_a_size_too_large_to_allocate_exits_1(tmp_path, capsys):
    # 10**15 values exceed a 47-bit address space, so numpy refuses them at
    # once and allocates nothing; this used to end in a MemoryError traceback
    points = tmp_path / "diag.csv"
    save_monotone_csv(diagonal_data(6), points)
    _, report, _ = run_cli(capsys, "fit", "--points", str(points), "--variant", "cubic", "--out", str(tmp_path))
    model_file = report["variants"]["cubic"]["file"]
    huge = "1000000000000000"
    for argv in (("fit", "--model", "builtin:synthetic", "--samples", huge),
                 ("sample", model_file, "--count", huge),
                 ("plotdata", model_file, "--grid", huge)):
        out = tmp_path / "out"
        code, report_out, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, report_out) == (1, None), argv[0]
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--model", "builtin:synthetic", "--samples", "1e6"],
    ["quad", "--degree", "4"],
    ["bogus"],
    [],
], ids=["float-samples", "missing-model", "unknown-command", "no-command"])
def test_usage_errors_exit_1(capsys, argv):
    # formerly argparse's SystemExit(2), the code of a numerical failure
    code, report, err = run_cli(capsys, *argv)
    assert code == 1 and report is None
    assert err.startswith("usage: gpcquad") and "error: " in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    assert main([flag]) == 0
    assert "gpcquad" in capsys.readouterr().out


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
    assert (code, err) == (1, "error: --grid must be at least 2, got 1\n")


def test_plotdata_refuses_a_density_that_overflows_in_the_original_coordinate(tmp_path, capsys):
    # b is about 1e-310, so pdf / b is not finite; formerly a leaked
    # "overflow encountered in divide" and then `error: expected finite
    # values, got inf at index 26`, which names neither the cause nor exit 2
    data = tmp_path / "tiny.txt"
    save_samples(np.random.default_rng(1).uniform(0, 1e-310, 2000), data)
    code, report, _ = run_cli(capsys, "fit", "--data", str(data), "--variant", "cubic", "--out", str(tmp_path))
    assert code == 0
    model_file = report["variants"]["cubic"]["file"]
    model, out = load_model(model_file), tmp_path / "plot.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (("quad",), ("sample", "--count", "10")):
            code, _, _ = run_cli(capsys, *argv, model_file, "--out", str(tmp_path / argv[0]))
            assert code == 0, argv
        code, report, err = run_cli(capsys, "plotdata", model_file, "--out", str(out))
    assert (code, report) == (2, None)
    tr = model.transform
    assert tr.b < 1e-308
    assert err == (f"numerical failure: the original-coordinate density pdf / b at xhat = {tr.a!r} "
                   f"is {pdf_eval(model, 0.0)!r} / {tr.b!r}, which overflows float64\n")
    assert not out.exists()


def test_invalid_model_file_and_missing_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"format_version": MODEL_FORMAT_VERSION, "variant": "cubic"}))
    code, _, _ = run_cli(capsys, "quad", str(bogus), "--out", str(tmp_path))
    assert code == 1
    code, _, _ = run_cli(capsys, "quad", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert code == 3


@pytest.mark.parametrize("text", ["[1, 2]", "not json"])
def test_quad_on_a_model_file_that_is_not_a_json_object_exits_1(tmp_path, capsys, text):
    # a JSON array used to escape as an AttributeError traceback
    model_file = tmp_path / "m.json"
    model_file.write_text(text)
    code, report, err = run_cli(capsys, "quad", str(model_file), "--out", str(tmp_path))
    assert code == 1 and report is None
    assert err.startswith("error: malformed model document: ")


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
    transform, points = select_from_samples(sample(model, 30_000, seed=21).values, 30)
    rule = rule_from_model(fit_variant(points, variant, transform), 4)[3]

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


def test_fit_refuses_a_model_file_with_a_non_ascii_digit(tmp_path, capsys):
    # formerly exited 0, fitting x + 3
    source = tmp_path / "digit.txt"
    source.write_text("x ~ N(0, 1)\nf = x + \u0663\n", encoding="utf-8")
    code, report, err = run_cli(
        capsys, "fit", "--model", str(source), "--samples", "2000", "--out", str(tmp_path / "out")
    )
    assert code == 1 and report is None
    assert err == "error: unexpected character '\u0663' (line 2, column 9)\n"
    assert not (tmp_path / "out").exists()


def test_fit_model_with_a_byte_order_mark(tmp_path, capsys):
    # formerly `unexpected character '\ufeff' (line 1, column 1)`
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        source = tmp_path / name / "model.txt"
        source.parent.mkdir()
        source.write_bytes(mark + b"x ~ N(0, 1)\r\nf = x + x^2\r\n")
        code, report, _ = run_cli(
            capsys, "fit", "--model", str(source), "--samples", "2000", "--out", str(source.parent)
        )
        assert code == 0 and report["ok"] is True
    for variant in ("cubic", "rational"):
        name = f"model-{variant}.json"
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_fit_refuses_a_model_file_that_is_not_utf8(tmp_path, capsys):
    # formerly `'utf-8' codec can't decode byte 0xff in position 20`, naming
    # neither the file nor the line
    source = tmp_path / "bytes.txt"
    source.write_bytes(b"x ~ N(0, 1)\nf = x + \xff\n")
    code, report, err = run_cli(
        capsys, "fit", "--model", str(source), "--samples", "2000", "--out", str(tmp_path / "out")
    )
    assert (code, report) == (1, None)
    assert err == f"error: {source}, line 2: not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


def test_fit_deep_nesting(tmp_path, capsys):
    # refused past 100 levels, and a bare RecursionError before that
    source = tmp_path / "deep.txt"
    source.write_text("x ~ N(0, 1)\nf = " + "(" * 400 + "x" + ")" * 400 + "\n")
    code, report, _ = run_cli(
        capsys, "fit", "--model", str(source), "--samples", "2000", "--out", str(tmp_path)
    )
    assert code == 0 and report["ok"] is True


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_commands_refuse_a_model_whose_piece_constants_overflow(tmp_path, capsys, variant):
    # formerly `sample` and `plotdata` exited 0, writing NaN densities, and
    # `quad` failed on kappa_0 = nan, each with leaked RuntimeWarnings
    path = tmp_path / f"overflow-{variant}.json"
    path.write_text(json.dumps({
        "format_version": MODEL_FORMAT_VERSION, "variant": variant,
        "transform": {"a": 0.0, "b": 1.0, "delta": 0.001},
        "knots_x": [0.0, 1e-310, 1.0], "knots_y": [0.0, 0.5, 1.0], "slopes": [0.0, 0.0, 0.0],
    }))
    for argv in (("quad", "--degree", "4"), ("sample", "--count", "10"), ("plotdata",)):
        out = tmp_path / argv[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report, err = run_cli(capsys, argv[0], str(path), *argv[1:], "--out", str(out))
        assert code == 1 and report is None, argv
        assert err.startswith("error: piece 0 on [0.0, 1e-310] has a non-finite chord slope"), err
        assert not out.exists()


def test_commands_refuse_a_rational_model_whose_density_overflows(tmp_path, capsys):
    # a chord slope of 1e308 is finite, but the density's 2 s term is not;
    # formerly the failure named NaN residuals, not the piece
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "format_version": MODEL_FORMAT_VERSION, "variant": "rational",
        "transform": {"a": 0.0, "b": 1.0, "delta": 0.001},
        "knots_x": [0.0, 1e-308, 1.0], "knots_y": [0.0, 1.0, 1.0], "slopes": [0.0, 0.0, 0.0],
    }))
    for argv in (("quad", "--degree", "4"), ("sample", "--count", "10")):
        out = tmp_path / argv[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report, err = run_cli(capsys, argv[0], str(path), *argv[1:], "--out", str(out))
        assert (code, report) == (1, None), argv
        assert err == "error: piece 0 on [0.0, 1e-308] has a non-finite 2 s\n", err
        assert not out.exists()


def test_fit_data_too_narrow_for_the_default_margin(tmp_path, capsys):
    # formerly "delta must be positive, got 0.0", a delta never given
    path = tmp_path / "narrow.txt"
    path.write_text("0.0\n5e-324\n")
    code, report, err = run_cli(capsys, "fit", "--data", str(path), "--out", str(tmp_path))
    assert code == 1 and report is None
    assert err == (
        "error: the sample range [0.0, 5e-324] is too narrow for a margin of 1e-3 "
        "of its width, which underflows to 0.0\n"
    )


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
        "x ~ N(0, 1)\nf = " + "(" * 100 + "x" + ")" * 100
        + " + x" * (100 - 1) + "\n"
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
