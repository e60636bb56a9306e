import json
import math

import pytest

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


def test_verify_passes(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["passed"] is True
    assert all(c["passed"] for c in doc["results"]["checks"])


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
