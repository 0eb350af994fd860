"""Start-up guard: importing gpcquad and running every CLI subcommand, with
`fit` both on a model and on the sample file `sample` writes, loads no
scipy module (on a 2-vCPU x86-64 virtual machine, scipy.integrate alone took
0.65-0.79 s of a 0.73-0.98 s package import) and runs with scipy absent,
and `numeric_moment_oracle`, which imports scipy on its first call, still
returns the same bits."""

import json
import textwrap

from conftest import run_python

# Runs every CLI command in a fresh interpreter, into the scratch directory
# argv[1]; leaves their exit codes in `codes`.
COMMANDS = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from pathlib import Path

    import gpcquad
    import gpcquad.cli

    out = Path(sys.argv[1])
    model = str(out / "synthetic-cubic.json")
    commands = [
        ["fit", "--model", "builtin:synthetic", "--samples", "20000", "--seed", "11",
         "--out", str(out)],
        ["basis", model, "--degree", "4", "--out", str(out)],
        ["quad", model, "--degree", "4", "--out", str(out)],
        ["sample", model, "--count", "1000", "--seed", "3", "--out", str(out / "s.txt")],
        ["plotdata", model, "--grid", "64", "--out", str(out / "curve.csv")],
        ["fit", "--data", str(out / "s.txt"), "--out", str(out / "refit")],
    ]
    codes = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(gpcquad.cli.main(argv))
    """
)

CHILD = COMMANDS + textwrap.dedent(
    """
    scipy_modules = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

    oracle = {}
    for variant in gpcquad.VARIANTS:
        density = gpcquad.load_model(out / f"synthetic-{variant}.json")
        oracle[variant] = [gpcquad.numeric_moment_oracle(density, k).hex() for k in (0, 5, 21)]
    print(json.dumps({"codes": codes, "scipy_modules": scipy_modules, "oracle": oracle}))
    """
)

# numeric_moment_oracle at k = 0, 5, 21 on the models `fit` writes above, as
# returned when scipy was imported with the package.
ORACLE_BITS = {
    "cubic": ["0x1.0000000000000p+0", "0x1.04458c4652928p-5", "0x1.07027514505b9p-13"],
    "rational": ["0x1.0000000000000p+0", "0x1.044686a544048p-5", "0x1.06c01602b7dd2p-13"],
}


def _run(child: str, scratch):
    """The JSON value `child`, run in a fresh interpreter, prints last."""
    return json.loads(run_python("-c", child, str(scratch)).stdout.splitlines()[-1])


def test_cli_commands_load_no_scipy(tmp_path):
    result = _run(CHILD, tmp_path)
    assert result["codes"] == [0, 0, 0, 0, 0, 0]
    assert result["scipy_modules"] == []
    assert result["oracle"] == ORACLE_BITS


def test_cli_commands_run_without_scipy(tmp_path):
    # scipy is a dev dependency only: with every import of it failing, each
    # command still exits 0
    blocked = 'import sys\nsys.modules["scipy"] = None\n' + COMMANDS + "print(json.dumps(codes))\n"
    assert _run(blocked, tmp_path) == [0, 0, 0, 0, 0, 0]
