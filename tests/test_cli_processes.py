"""The CLI and the library across processes: what only a fresh interpreter
shows. Each command runs as `python -m gpcquad.cli`, so its exit code is the
process's own, and stderr holds anything the process printed, a numpy
RuntimeWarning too, which pytest's warning filters do not reach there."""

import json
import pickle
import textwrap

import numpy as np

from gpcquad import (
    SYNTHETIC_MODEL,
    cdf_original,
    fit_density,
    load_model,
    load_samples,
    parse_model,
    sample,
    save_model,
)
from gpcquad.cli import main
from conftest import run_python


def gpcquad_cli(*argv, code=0):
    """stderr of `python -m gpcquad.cli *argv`, which must exit with `code`."""
    return run_python("-m", "gpcquad.cli", *map(str, argv), code=code).stderr


def test_a_rational_fit_with_a_1e160_piece(tmp_path):
    # a certified fit whose piece 0 is too narrow for its moments in float64:
    # its draws and plot table are written, and its rules refused
    points = tmp_path / "narrow160.csv"
    points.write_text("x,y\n0.0,0.0\n1e-160,0.9\n1.0,1.0\n")
    assert main(["fit", "--points", str(points), "--variant", "rational", "--out", str(tmp_path)]) == 0
    model_file = tmp_path / "narrow160-rational.json"
    draws = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for out in draws:
        err = gpcquad_cli("sample", model_file, "--count", 20000, "--seed", 3, "--out", out)
        assert err == f"wrote 20000 samples -> {out}\n"
    assert draws[0].read_bytes() == draws[1].read_bytes()
    # every draw certified against its uniform target: within 1e-13 in CDF,
    # or with the target between the CDF at its two neighbouring floats
    model, xs = load_model(model_file), load_samples(draws[0])
    us = np.random.default_rng(3).uniform(0.0, 1.0, 20000)
    assert (model.transform.a, model.transform.b) == (0.0, 1.0)
    near = np.abs(cdf_original(model, xs) - us) <= 1e-13
    below, above = (cdf_original(model, np.nextafter(xs, way)) for way in (-np.inf, np.inf))
    crossed = (below <= us) & (us <= above)
    assert np.all(near | crossed), int(np.sum(~(near | crossed)))

    plot = tmp_path / "plot.csv"
    assert gpcquad_cli("plotdata", model_file, "--out", plot) == f"wrote 564 rows -> {plot}\n"
    assert gpcquad_cli("quad", model_file, "--degree", 4, "--out", tmp_path / "rules", code=2) == (
        "numerical failure: the moments of piece 0 on [0.0, 1e-160] are not finite in float64: "
        "the piece is too narrow or too steep for them\n"
    )
    assert not (tmp_path / "rules").exists()


def test_quad_refuses_a_density_jump_at_a_flat_step(tmp_path):
    points = tmp_path / "step.csv"
    points.write_text("x,y\n0,0\n0.3,0.3\n0.6,0.3\n1,1\n")
    assert main(["fit", "--points", str(points), "--out", str(tmp_path)]) == 0
    for variant in ("cubic", "rational"):
        model_file = tmp_path / f"step-{variant}.json"
        assert main(["quad", str(model_file), "--degree", "4", "--out", str(tmp_path / "rules")]) == 0
        # the slope where the step's rising piece meets its flat one
        doc = json.loads(model_file.read_text())
        doc["slopes"][1] = 0.5
        jump = tmp_path / "jump.json"
        jump.write_text(json.dumps(doc))
        err = gpcquad_cli("quad", jump, "--degree", 4, "--out", tmp_path / "refused", code=1)
        assert err == "error: density jump at a knot 5.00e-01\n", variant
        assert not (tmp_path / "refused").exists()


# Loads the pickles argv[1] (a fitted model) and argv[3] (a parsed surrogate
# model) made by another process: the fitted model's arrays must be read-only,
# and it is saved to argv[2]; the surrogate model must equal this process's
# parse of the text argv[4], with an equal hash and the same printed text.
UNPICKLE = textwrap.dedent(
    """
    import pickle, sys
    from pathlib import Path
    from gpcquad import parse_model, print_model, save_model

    model = pickle.loads(Path(sys.argv[1]).read_bytes())
    assert not any(a.flags.writeable for a in (model.x, model.y, model.slopes))
    save_model(model, sys.argv[2])
    loaded = pickle.loads(Path(sys.argv[3]).read_bytes())
    parsed = parse_model(Path(sys.argv[4]).read_text())
    assert loaded == parsed and hash(loaded) == hash(parsed)
    assert print_model(loaded) == print_model(parsed)
    """
)


def test_pickles_load_in_another_process(tmp_path):
    values = sample(parse_model(SYNTHETIC_MODEL), 20000, seed=3).values
    model_file = tmp_path / "refit-cubic.json"
    save_model(fit_density(values, variant="cubic"), model_file)
    (tmp_path / "refit.pkl").write_bytes(pickle.dumps(load_model(model_file)))
    # a 5000-term sum: its program is far deeper than a recursive walk reaches
    source = tmp_path / "long.txt"
    source.write_text("x ~ N(0, 1)\ny ~ U(-1, 1)\nf = " + " + ".join(["x*y"] * 2500 + ["x"] * 2500) + "\n")
    (tmp_path / "long.pkl").write_bytes(pickle.dumps(parse_model(source.read_text())))
    unpickled = tmp_path / "unpickled-cubic.json"
    run_python("-c", UNPICKLE, str(tmp_path / "refit.pkl"), str(unpickled),
               str(tmp_path / "long.pkl"), str(source))
    assert unpickled.read_bytes() == model_file.read_bytes()
