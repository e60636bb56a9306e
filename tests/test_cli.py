import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcross.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_constants_document(capsys):
    code, out = run(capsys, "constants")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "constants"
    res = doc["results"]
    assert abs(res["bound_two_crossings"] - 2 * math.acosh(5.0)) < 1e-9
    assert res["gap"] < 1.06
    # at least 12 significant digits survive the round trip
    assert res["bound_two_crossings"] == 2 * math.acosh(5.0)
    assert len(res["corkscrew_lengths"]) == 8


def test_output_byte_identical(capsys):
    _, first = run(capsys, "constants")
    _, second = run(capsys, "constants")
    assert first == second


def test_collar_document(capsys):
    code, out = run(capsys, "collar", "--length", "1.0")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["width"] - math.asinh(1 / math.sinh(0.5))) < 1e-12
    assert abs(res["gap_identity_residual"]) < 1e-12
    assert res["cusp_horocycle_bound"] == 4.0


def test_collar_scan(capsys):
    code, out = run(capsys, "collar", "--length", "2.0", "--scan")
    res = json.loads(out)["results"]
    assert res["scan"]["w1_gt_w_on_0_20"]
    assert res["scan"]["w1_eq_2w_crossover"] > 2.3


def test_pants_length_with_oracle(capsys):
    code, out = run(capsys, "pants-length", "--l1", "0", "--l2", "0", "--l3", "0", "--m", "1", "--n", "2", "--oracle")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["length"] - 4.584863339122355) < 1e-9
    assert abs(res["residual"]) < 1e-9


def test_pants_min(capsys):
    code, out = run(capsys, "pants-min", "--cap", "6", "--lmax", "3", "--grid", "6")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["at_three_cusp_corner"]
    assert res["argmin"]["m"] == 1 and res["argmin"]["n"] == 2


def test_winding_collar(capsys):
    code, out = run(capsys, "winding", "--collar", "--w", "1.5", "--core", "0.8", "--width", "0.6")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["roundtrip_residual"]) < 1e-10
    assert abs(res["oracle_residual"]) < 1e-9


def test_winding_cusp(capsys):
    code, out = run(capsys, "winding", "--cusp", "--w", "1.0")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["arc_length"] - math.acosh(9.0)) < 1e-12


def test_winding_mode_required(capsys):
    code = main(["winding", "--w", "1.0"])
    capsys.readouterr()
    assert code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pants-length", "--l1", "0"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--max-word-len", "13", "--cap", "4.6", "--k", "2"],
        ["spectrum", "--max-word-len", "0", "--cap", "4.6", "--k", "2"],
        ["collar", "--length", "0"],
        ["pants-min", "--cap", "2", "--lmax", "3", "--grid", "16"],
        ["pants-length", "--l1", "-1", "--l2", "0", "--l3", "0", "--m", "1", "--n", "2"],
        ["winding", "--cusp", "--w", "-1"],
        ["pants-min", "--cap", "6", "--lmax", "0", "--grid", "16"],
        ["pants-min", "--cap", "6", "--lmax", "inf", "--grid", "16"],
        # m + n above the trace oracle's range
        ["pants-length", "--l1", "1", "--l2", "1", "--l3", "1", "--m", "80", "--n", "1", "--oracle"],
        # a float that overflows, or a result that strict JSON cannot hold
        ["collar", "--length", "1500"],
        ["pants-length", "--l1", "1500", "--l2", "1", "--l3", "1", "--m", "1", "--n", "2"],
        ["pants-length", "--l1", "1", "--l2", "1", "--l3", "1", "--m", "100000", "--n", "2"],
        ["collar", "--length", "1e-320"],
        ["collar", "--length", "1e-320", "--scan"],
        ["winding", "--cusp", "--w", "1e155"],
        # a grid step binary64 cannot resolve, and a grid that overflows
        ["pants-min", "--cap", "6", "--lmax", "1e-7", "--grid", "4"],
        ["pants-min", "--cap", "6", "--lmax", "1e-320", "--grid", "4"],
        ["pants-min", "--cap", "6", "--lmax", "2000", "--grid", "4"],
    ],
)
@pytest.mark.filterwarnings("error")  # a warning would print to stderr outside pytest
def test_out_of_range_input_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"hypcross {argv[0]}: error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["collar", "--config", "{}/missing.cfg"], "hypcross: error: "),
        (["constants", "--out", "{}/no/such/r.json"], "hypcross constants: error: "),
        (["spectrum", "--max-word-len", "4", "--cap", "4.6", "--k", "2", "--cache", "{}/no/such/c.tsv"], "hypcross spectrum: error: "),
    ],
    ids=["config", "out", "cache"],
)
def test_bad_path_is_a_usage_error(tmp_path, capsys, argv, prefix):
    argv = [arg.format(tmp_path) for arg in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(prefix)
    assert "No such file or directory" in err
    assert err.count("\n") == 1
    # the error names the path given on the command line, not a temp file
    assert repr(argv[-1]) in err
    assert ".tmp'" not in err


def test_verify_passes(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["passed"] is True
    assert all(c["passed"] for c in doc["results"]["checks"])


def test_failed_chain_check_is_reported_with_exit_1(capsys, monkeypatch):
    # without its asinh the arc is convex in the winding number, so
    # short-loop check (a) fails: the document still prints, with the witness
    import numpy as np
    from hypcross import verifier

    def convex_arc(s, t, coshw1, out=None):
        return np.multiply(np.sinh(np.multiply(s, t, out=out), out=out), coshw1, out=out)

    monkeypatch.setattr(verifier, "_arc", convex_arc)
    code, out = run(capsys, "verify")
    assert code == 1
    res = json.loads(out)["results"]
    assert res["passed"] is False
    checks = {c["id"]: c for c in res["checks"]}
    assert len(checks) == 28
    failed = checks["short-loop/arc-concave-in-winding"]
    assert failed["passed"] is False
    assert failed["witness"] == {"alpha": 6.0, "t": 0.53}


def test_spectrum_table(capsys):
    code, out = run(capsys, "spectrum", "--max-word-len", "4", "--cap", "4.585", "--k", "2")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    cells = [row.split("\t") for row in rows]
    assert cells[0][0] == "ab"
    witness_line = [line for line in out.splitlines() if line.startswith("# witness")][0]
    assert "aab" in witness_line
    lengths = [float(c[2]) for c in cells]
    assert lengths == sorted(lengths)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "constants", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["command"] == "constants"


def test_config_file_defaults_and_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length=1.0\nscan=false\n")
    code, out = run(capsys, "collar", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["length"] == 1.0
    code, out = run(capsys, "collar", "--config", str(cfg), "--length", "2.0")
    assert json.loads(out)["config"]["length"] == 2.0


def test_spectrum_cache_flag(tmp_path, capsys):
    cache = tmp_path / "cache.tsv"
    _, first = run(capsys, "spectrum", "--max-word-len", "4", "--cap", "4.6", "--k", "2", "--cache", str(cache))
    assert cache.exists()
    _, second = run(capsys, "spectrum", "--max-word-len", "4", "--cap", "4.6", "--k", "2", "--cache", str(cache))
    assert first == second


def test_truncated_spectrum_cache_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "c.tsv"
    argv = ["spectrum", "--max-word-len", "6", "--cap", "4.585", "--k", "2", "--cache", str(cache)]
    code, first = run(capsys, *argv)
    assert code == 0 and "# witness k=2: aab" in first
    whole = cache.read_text()
    cache.write_text("".join(whole.splitlines(keepends=True)[:3]))
    code, again = run(capsys, *argv)
    assert code == 0
    assert again == first
    assert cache.read_text() == whole


@pytest.mark.parametrize("max_len", ["0", "-3", "13"])
def test_spectrum_max_word_len_range(capsys, max_len):
    code = main(["spectrum", "--max-word-len", max_len, "--cap", "4.6", "--k", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"hypcross spectrum: error: max_len must be in [1, 12], got {max_len}\n"


NUMPY_BLOCKED = """
import sys
sys.modules.update(dict.fromkeys(["numpy", "dataclasses", "typing", "tempfile"]))
import hypcross
import hypcross.selfint, hypcross.words
from hypcross import spectrum
from hypcross.cli import main
assert spectrum is sys.modules["hypcross.spectrum"]
code = main(["spectrum", "--max-word-len", "8", "--cap", "4.585", "--k", "2"])
sys.exit(code)
"""


def test_spectrum_runs_without_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    # the output of the same command with numpy available
    assert hashlib.sha256(proc.stdout).hexdigest() == "bfb464aa61591de0495144ef848d2c295cbed4b311bee5a39b9405eb39737a0e"


def test_import_loads_no_dataclasses_inspect_or_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys; before = set(sys.modules); import hypcross; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "hypcross.spectrum" in added
    forbidden = {"dataclasses", "inspect", "numpy", "hypcross.verifier", "concurrent.futures", "hypcross.tracer"}
    assert not forbidden & set(added), added


def test_spectrum_command_loads_no_tracer():
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys\n"
        "from hypcross.cli import main\n"
        "code = main(['spectrum', '--max-word-len', '10', '--cap', '4.585', '--k', '2'])\n"
        "print('hypcross.tracer' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("# witness k=2: aab\t")
    assert proc.stderr == "False\n"


def test_numeric_modules_import_by_name():
    import hypcross
    from hypcross import collar, pants, verifier, winding

    assert (collar.__name__, pants.__name__, verifier.__name__, winding.__name__) == (
        "hypcross.collar",
        "hypcross.pants",
        "hypcross.verifier",
        "hypcross.winding",
    )
    assert hypcross.verifier is verifier


# magnitudes log-uniform from 1e-320 (subnormal) to 1e308
_MAGNITUDE = st.floats(-320.0, 308.0).map(lambda e: repr(10.0**e))

# each X takes its own magnitude
_NUMERIC_COMMANDS = {
    "collar": "collar --length X",
    "collar-scan": "collar --length X --scan",
    "pants-length": "pants-length --l1 X --l2 X --l3 X --m 2 --n 3",
    "pants-length-oracle": "pants-length --l1 X --l2 X --l3 X --m 2 --n 3 --oracle",
    "winding-collar": "winding --collar --w X --core X --width X",
    "winding-cusp": "winding --cusp --w X",
    "pants-min": "pants-min --cap 6 --lmax X --grid 4",
}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("command", _NUMERIC_COMMANDS)
@pytest.mark.filterwarnings("error")  # a warning would print to stderr outside pytest
def test_every_numeric_input_gets_an_answer_or_a_usage_error(command):
    # the README's contract: strict JSON with finite numbers and exit 0, or
    # one stderr line and exit 2
    template = _NUMERIC_COMMANDS[command].split()
    slots = template.count("X")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_MAGNITUDE, min_size=slots, max_size=slots))
    def check(values):
        fill = iter(values)
        argv = [next(fill) if arg == "X" else arg for arg in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert err.getvalue() == "", argv
        else:
            assert out.getvalue() == "", argv
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())

    check()
