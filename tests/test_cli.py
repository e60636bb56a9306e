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
    assert res["narrow_width"] == res["narrow_width_raw"] > 0.0
    assert res["degenerate"] is False


def test_collar_document_clamps_the_narrow_side(capsys):
    # past the crossover the narrow side is negative: reported as 0, degenerate
    code, out = run(capsys, "collar", "--length", "10")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["narrow_width_raw"] < 0.0
    assert res["narrow_width"] == 0.0
    assert res["degenerate"] is True


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


def test_winding_cusp_far_out(capsys):
    # past W about 6.7e153 the square 4W^2 overflows; the length does not
    code, out = run(capsys, "winding", "--cusp", "--w", "1e155")
    assert code == 0
    length = json.loads(out)["results"]["arc_length"]
    expected = 2 * math.asinh(2e155)
    assert abs(length - expected) <= 1e-15 * expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["winding", "--collar", "--w", "0", "--core", "1", "--width", "1"], "W must be finite and > 0, got 0.0"),
        (["winding", "--cusp", "--w", "1e308"], "cusp arc length overflows at W=1e+308"),
        # a winding number that the inverse's log space gives as a subnormal;
        # an arc past MAX_ARC_LENGTH
        (["winding", "--collar", "--w", "1e-310", "--core", "1", "--width", "800"], "winding number underflows at l=171.0109479825719, core_length=1.0, width=800.0"),
        (["winding", "--collar", "--w", "2000", "--core", "1", "--width", "1"], "collar arc length overflows at W=2000.0, core_length=1.0, width=1.0"),
    ],
)
def test_winding_refusal_names_the_argument(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"hypcross winding: error: {message}\n"


def test_winding_roundtrip_where_half_w_core_underflows(capsys):
    # W*core/2 underflows to 0: the arc used to come out 0.0 and its inverse
    # refused it with exit 2
    code, out = run(capsys, "winding", "--collar", "--w", "1e-200", "--core", "1e-200", "--width", "600")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["arc_length"] == pytest.approx(1e-200 * math.cosh(600.0) * 1e-200, rel=1e-12)
    assert abs(results["roundtrip_residual"]) <= 1e-12 * 1e-200
    # the oracle used to return 0.0 here, a residual as large as the arc
    assert abs(results["oracle_residual"]) <= 1e-12 * results["arc_length"]


def test_winding_roundtrip_where_cosh_width_overflows(capsys):
    # the arc is finite and its inverse answers in log space
    code, out = run(capsys, "winding", "--collar", "--w", "1", "--core", "1", "--width", "711")
    assert code == 0
    assert abs(json.loads(out)["results"]["roundtrip_residual"]) < 1e-9


@pytest.mark.parametrize(
    "argv, message",
    [
        (["collar", "--length", "inf"], "core_length must be finite and > 0, got inf"),
        (["collar", "--length", "1500"], "sinh(core_length/2) overflows at core_length=1500.0"),
        (["pants-length", "--l1", "2000", "--l2", "1", "--l3", "1", "--m", "1", "--n", "2"], "curve length overflows at l1=2000.0, l2=1.0, l3=1.0, m=1, n=2"),
        # cosh * cosh overflows to inf without a raise
        (["pants-length", "--l1", "1419", "--l2", "1", "--l3", "1", "--m", "1", "--n", "2"], "curve length overflows at l1=1419.0, l2=1.0, l3=1.0, m=1, n=2"),
        # tiny cores: 1/sinh or 2/expm1 overflows, or x/2 underflows to 0
        (["collar", "--length", "1e-320"], "1/sinh(core_length/2) overflows at core_length=1e-320"),
        (["collar", "--length", "5e-324"], "1/sinh(core_length/2) overflows at core_length=5e-324"),
        (["collar", "--length", "1.5e-308"], "1/sinh(core_length/4) overflows at core_length=1.5e-308"),
        (["collar", "--length", "3e-308"], "2/expm1(core_length/4) overflows at core_length=3e-308"),
    ],
)
def test_collar_and_pants_refusals_name_the_argument(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"hypcross {argv[0]}: error: {message}\n"


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
        ["winding", "--cusp", "--w", "1e308"],  # 2W overflows
        # a grid step binary64 cannot resolve, and a grid that overflows
        ["pants-min", "--cap", "6", "--lmax", "1e-7", "--grid", "4"],
        ["pants-min", "--cap", "6", "--lmax", "1e-320", "--grid", "4"],
        ["pants-min", "--cap", "6", "--lmax", "2000", "--grid", "4"],
        # winding without exactly one mode, or a collar without its core and width
        ["winding", "--w", "1"],
        ["winding", "--collar", "--w", "1"],
        # a witness threshold below 1: every closed geodesic here crosses itself
        ["spectrum", "--max-word-len", "4", "--cap", "4.6", "--k", "0"],
        ["spectrum", "--max-word-len", "4", "--cap", "4.6", "--k", "-3"],
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


@pytest.mark.parametrize("k", ["0", "-3"])
def test_spectrum_refuses_k_below_1_before_searching(capsys, monkeypatch, k):
    def no_search(*args):
        raise AssertionError("the spectrum was computed")

    monkeypatch.setattr("hypcross.cli.compute_spectrum", no_search)
    code = main(["spectrum", "--max-word-len", "12", "--cap", "inf", "--k", k])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"hypcross spectrum: error: k_min must be >= 1, got {k}\n"


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["constants", "--out", "{}/no/such/r.json"], "hypcross constants: error: "),
    ],
    ids=["out"],
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
    assert repr(argv[-1]) in err


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


def test_non_finite_arc_cell_is_reported_with_exit_1(capsys, monkeypatch):
    # one NaN arc value inside the concavity grid fails the three grid
    # checks with finite margins: the document still prints, strict JSON
    import numpy as np
    from hypcross import verifier

    alpha, t = np.geomspace(1e-3, 6.0, 1000)[300], np.geomspace(1e-4, verifier.CASE_SPLIT / 2.0, 10_000)[600]
    arc = verifier._arc

    def arc_with_a_hole(s, t_, coshw1, out=None):
        x = arc(s, t_, coshw1, out)
        x[np.isin(s, [alpha]) & (t_ == t)] = math.nan
        return x

    monkeypatch.setattr(verifier, "_arc", arc_with_a_hole)
    code, out = run(capsys, "verify")
    assert code == 1
    res = json.loads(out, parse_constant=_reject_constant)["results"]
    failed = [c for c in res["checks"] if not c["passed"]]
    assert [c["id"] for c in failed] == [
        "short-loop/arc-concave-in-winding",
        "short-loop/unit-increment-dominates-below-1",
        "short-loop/increments-nonincreasing-in-winding",
    ]
    assert all(c["margin"] == 0.0 and c["witness"] == {"alpha": alpha, "t": t} for c in failed)
    assert sum(note.startswith("short-loop/") for note in res["notes"]) == 3


def test_nan_margins_are_reported_with_exit_1(capsys, monkeypatch):
    # NaN arc values everywhere: besides the grid checks, the long-loop
    # checks built on the arc term get NaN margins, which the report records
    # as failed with margin 0.0 and a note each; the document still prints
    import numpy as np
    from hypcross import verifier

    arc = verifier._arc

    def nan_arc(s, t, coshw1, out=None):
        return np.multiply(arc(s, t, coshw1, out), math.nan, out=out)

    monkeypatch.setattr(verifier, "_arc", nan_arc)
    code, out = run(capsys, "verify")
    assert code == 1
    res = json.loads(out, parse_constant=_reject_constant)["results"]
    failed = {c["id"]: c["margin"] for c in res["checks"] if not c["passed"]}
    long_loop = ["arc-term-rewrite", "assembled-bound-min-vs-root", "assembled-bound-min-vs-sharp-constant"]
    assert {f"long-loop/{cid}" for cid in long_loop} <= set(failed)
    assert set(failed.values()) == {0.0}
    for cid in long_loop:
        assert f"long-loop/{cid}: non-finite margin nan" in res["notes"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["constants"],
        ["collar", "--length", "1.3"],
        ["pants-length", "--l1", "1", "--l2", "1.5", "--l3", "2", "--m", "2", "--n", "3"],
        ["pants-min", "--cap", "6", "--lmax", "3", "--grid", "4"],
        ["winding", "--cusp", "--w", "1"],
        ["verify"],
        ["spectrum", "--max-word-len", "4", "--cap", "4.585", "--k", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_file(tmp_path, capsys, argv):
    # every subcommand writes to --out the same document it prints
    target = tmp_path / "report.out"
    code, out = run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_spectrum_without_a_witness(capsys):
    # no class of word length <= 4 below the cap crosses itself 3 times
    code, out = run(capsys, "spectrum", "--max-word-len", "4", "--cap", "4.6", "--k", "3")
    assert code == 0
    assert out.splitlines()[-1] == "# witness k=3: none"


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
    forbidden = {"dataclasses", "inspect", "numpy", "hypcross.verifier", "concurrent.futures", "hypcross.tracer", "__future__"}
    assert not forbidden & set(added), added


WINDING_AND_COLLAR_IMPORTS = """
import sys
from hypcross.cli import main
code = main(ARGV)
sys.stderr.write(" ".join(sorted(m for m in ("dataclasses", "inspect", "numpy") if m in sys.modules)))
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, forbidden",
    [
        (["winding", "--cusp", "--w", "1"], {"dataclasses", "inspect", "numpy"}),
        (["collar", "--length", "1.3", "--scan"], {"dataclasses"}),
    ],
    ids=["winding", "collar"],
)
def test_winding_and_collar_load_no_dataclasses(argv, forbidden):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", WINDING_AND_COLLAR_IMPORTS.replace("ARGV", repr(argv))],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert not forbidden & set(proc.stderr.split()), proc.stderr


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
# a collar width also draws from 300 to 710.4, the widest with cosh(width)
# finite: wide collars put the oracle's points at heights near e^-width
_WIDTH = _MAGNITUDE | st.floats(300.0, 710.4).map(repr)
_SLOTS = {"X": _MAGNITUDE, "WIDTH": _WIDTH}

# each slot takes its own value
_NUMERIC_COMMANDS = {
    "collar": "collar --length X",
    "collar-scan": "collar --length X --scan",
    "pants-length": "pants-length --l1 X --l2 X --l3 X --m 2 --n 3",
    "pants-length-oracle": "pants-length --l1 X --l2 X --l3 X --m 2 --n 3 --oracle",
    "winding-collar": "winding --collar --w X --core X --width WIDTH",
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

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(*(_SLOTS[arg] for arg in template if arg in _SLOTS)))
    def check(values):
        fill = iter(values)
        argv = [next(fill) if arg in _SLOTS else arg for arg in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code)
        if code == 0:
            doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert err.getvalue() == "", argv
            if command == "winding-collar":
                # the oracle meets the closed form wherever both answer
                res = doc["results"]
                assert res["arc_length"] > 0.0, argv
                assert abs(res["oracle_residual"]) <= 1e-9 * res["arc_length"], argv
        else:
            assert out.getvalue() == "", argv
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())

    check()
