import json
import os
import subprocess
import sys

import pytest

from dioph.cli import parse_and_dispatch


def run(args):
    return parse_and_dispatch(args)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def test_curve_verify_exit0(curve_file_110160, tmp_path, capsys):
    out = str(tmp_path / "v")
    code = run(["curve", "verify", "--curve", curve_file_110160, "--out", out])
    assert code == 0
    doc = json.loads(read(out + ".json"))
    assert doc["schema"] == "dioph-report/1"
    assert doc["on_curve"] is True
    assert doc["real_components"] == "two"
    assert doc["on_identity_component"] is True


def test_missing_file_exit1(tmp_path):
    assert run(["curve", "verify", "--curve", str(tmp_path / "nope.json")]) == 1


def test_off_curve_point_exit1(curve_file_110160):
    assert run(["curve", "verify", "--curve", curve_file_110160, "--point", "5,9"]) == 1


def test_unknown_command_exit1(capsys):
    assert run(["frobnicate"]) == 1


def test_precision_validation(curve_file_110160):
    assert run(["curve", "verify", "--curve", curve_file_110160,
                "--precision-bits", "32"]) == 1


def test_curve_height_and_log(curve_file_110160, tmp_path):
    out = str(tmp_path / "h")
    assert run(["curve", "height", "--curve", curve_file_110160, "--nmax", "8",
                "--out", out]) == 0
    doc = json.loads(read(out + ".json"))
    assert float(doc["methods_difference"]) < 1e-5
    out2 = str(tmp_path / "l")
    assert run(["curve", "log", "--curve", curve_file_110160, "--out", out2]) == 0
    doc2 = json.loads(read(out2 + ".json"))
    assert 0 < float(doc2["theta"]) < float(doc2["omega"])


def test_curve_height_exits_2_when_factoring_runs_out(tmp_path):
    # a = -b = 1/(p1 p2) with (1, 1) on the curve; p1, p2 prime near 10^15
    # are beyond the Pollard rho step budget of the integral model
    den = (10**15 + 37) * (10**15 + 91)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"label": "big", "a": f"1/{den}", "b": f"-1/{den}"}))
    assert run(["curve", "height", "--curve", str(path), "--point", "1,1",
                "--out", str(tmp_path / "h")]) == 2


def test_dirichlet_and_exponent(tmp_path):
    mat = tmp_path / "phi.json"
    mat.write_text(json.dumps({"m": 1, "n": 1,
                               "entries": ["1.6180339887498948482045868343656381177"]}))
    out = str(tmp_path / "d")
    assert run(["dirichlet", "--matrix", str(mat), "--Q", "100", "--out", out]) == 0
    doc = json.loads(read(out + ".json"))
    assert doc["ok"] is True and doc["q"] == [89]
    csv = read(out + ".csv").decode()
    assert csv.splitlines()[0] == "Q,q,p,error,exponent_sample"
    out2 = str(tmp_path / "e")
    assert run(["exponent", "--matrix", str(mat), "--qmax", "100000",
                "--base", "2", "--out", out2]) == 0
    doc2 = json.loads(read(out2 + ".json"))
    assert 0.9 <= float(doc2["estimate"]) <= 1.1
    # budget errors surface as exit 2
    mat3 = tmp_path / "m3.json"
    mat3.write_text(json.dumps({"m": 1, "n": 3,
                                "entries": ["0.31", "0.41", "0.59"]}))
    assert run(["dirichlet", "--matrix", str(mat3), "--Q", "5000"]) == 2


def test_flow_csv(tmp_path):
    mat = tmp_path / "phi.json"
    mat.write_text(json.dumps({"m": 1, "n": 1,
                               "entries": ["1.6180339887498948482045868343656381177"]}))
    out = str(tmp_path / "f")
    assert run(["flow", "--matrix", str(mat), "--tmax", "6", "--dt", "0.05",
                "--sigma", "1.5", "--out", out]) == 0
    csv = read(out + ".csv").decode().splitlines()
    assert csv[0] == "t,delta,lambda_1,lambda_2,is_minimum"
    assert len(csv) == 122  # header + 121 samples
    doc = json.loads(read(out + ".json"))
    assert len(doc["minima_times"]) >= 5


def test_haw_transcript_and_exit_codes(tmp_path):
    out = str(tmp_path / "g")
    code = run(["haw", "--liouville", "--sigma", "3", "--rounds", "12",
                "--seed", "2", "--bob", "random", "--out", out])
    assert code == 0
    doc = json.loads(read(out + ".json"))
    assert doc["all_certificates_pass"] is True
    assert len(doc["transcript"]) == 13
    assert doc["certificates"], "expected at least one triggered stage"


def test_minkowski_cli(tmp_path):
    out = str(tmp_path / "mk")
    assert run(["minkowski", "--alpha", "1.6180339887498948482", "--gamma", "1/3",
                "--qmax", "100", "--out", out]) == 0
    doc = json.loads(read(out + ".json"))
    assert doc["count"] >= 3
    # degenerate gamma: validation error
    assert run(["minkowski", "--alpha", "1.6180339887498948482", "--gamma",
                "1.6180339887498948482", "--qmax", "100"]) == 1


def test_weakdirichlet_cli(curve_file_110160, tmp_path):
    out = str(tmp_path / "wd")
    assert run(["weakdirichlet", "--curve", curve_file_110160, "--target", "random",
                "--qmax", "20000", "--seed", "3", "--out", out]) == 0
    doc = json.loads(read(out + ".json"))
    assert 0.3 <= float(doc["sigma_estimate"]) <= 0.9
    csv = read(out + ".csv").decode().splitlines()
    assert csv[0] == "q,d,h_hat,product,exponent_sample"


def test_probe_cli(tmp_path):
    H = tmp_path / "H.json"
    J = tmp_path / "J.json"
    H.write_text(json.dumps({"m": 1, "n": 1, "entries": ["0.9223"]}))
    J.write_text(json.dumps({"m": 1, "n": 1, "entries": ["1.3975"]}))
    out = str(tmp_path / "pr")
    assert run(["probe", "--H", str(H), "--J", str(J), "--xi-samples", "2",
                "--qmax", "500", "--out", out]) == 0
    doc = json.loads(read(out + ".json"))
    assert len(doc["targets"]) == 2


def test_rerun_byte_identical(curve_file_110160, tmp_path):
    cases = [
        (["weakdirichlet", "--curve", curve_file_110160, "--qmax", "5000", "--seed", "4"], "wd"),
        (["haw", "--liouville", "--sigma", "3", "--rounds", "10", "--seed", "1"], "hw"),
        (["exponent", "--liouville", "--qmax", "1000"], "ex"),
        (["curve", "log", "--curve", curve_file_110160], "cl"),
    ]
    for args, name in cases:
        o1, o2 = str(tmp_path / (name + "_1")), str(tmp_path / (name + "_2"))
        assert run(args + ["--out", o1]) == 0
        assert run(args + ["--out", o2]) == 0
        assert read(o1 + ".json") == read(o2 + ".json")
        if os.path.exists(o1 + ".csv"):
            assert read(o1 + ".csv") == read(o2 + ".csv")


def test_empty_record_set_header_only_csv(tmp_path):
    # far-from-integers alpha and tiny qmax: no quarter-bound witnesses
    out = str(tmp_path / "empty")
    assert run(["minkowski", "--alpha", "0.46310972835415", "--gamma",
                "0.021769431474", "--qmax", "1", "--out", out]) == 0
    csv = read(out + ".csv").decode()
    assert csv == "q,p,product\n"


def test_json_summary_reparses(curve_file_110160, tmp_path):
    out = str(tmp_path / "s")
    assert run(["curve", "verify", "--curve", curve_file_110160, "--out", out]) == 0
    doc = json.loads(read(out + ".json"))
    for key in ("schema", "command", "precision_bits", "seed"):
        assert key in doc


def test_env_precision_override(curve_file_110160, tmp_path, monkeypatch):
    monkeypatch.setenv("DIOPH_PRECISION_BITS", "128")
    out = str(tmp_path / "p")
    assert run(["curve", "log", "--curve", curve_file_110160, "--out", out]) == 0
    doc = json.loads(read(out + ".json"))
    assert doc["precision_bits"] == 128


def test_full_precision_hex_column(tmp_path):
    mat = tmp_path / "phi.json"
    mat.write_text(json.dumps({"m": 1, "n": 1, "entries": ["1.618033988749894848"]}))
    out = str(tmp_path / "fp")
    assert run(["dirichlet", "--matrix", str(mat), "--Q", "50", "--out", out,
                "--full-precision"]) == 0
    header = read(out + ".csv").decode().splitlines()[0]
    assert "error_hex" in header


def test_python_m_dioph_matches_dispatch(tmp_path):
    mat = tmp_path / "A.json"
    mat.write_text(json.dumps({"m": 2, "n": 2, "entries": ["5/11", "-0.3", "1.25", "2/7"]}))
    args = ["dirichlet", "--matrix", str(mat), "--Q", "30"]
    direct = str(tmp_path / "direct")
    assert run(args + ["--out", direct]) == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    via_m = str(tmp_path / "via_m")
    done = subprocess.run([sys.executable, "-m", "dioph"] + args + ["--out", via_m],
                          env=env, cwd=str(tmp_path), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    for ext in (".json", ".csv"):
        assert read(via_m + ext) == read(direct + ext)


def test_threads_flag_removed(tmp_path):
    mat = tmp_path / "A.json"
    mat.write_text(json.dumps({"m": 1, "n": 1, "entries": ["0.5"]}))
    assert run(["dirichlet", "--matrix", str(mat), "--Q", "5", "--threads", "2"]) == 1


def test_lll_transform_overflow_exits_2(tmp_path):
    # an integer-like entry of 1e30 needs a size-reduction multiplier beyond
    # int64: a budget error (exit 2), not an OverflowError traceback
    mat = tmp_path / "big.json"
    mat.write_text(json.dumps({"m": 1, "n": 1, "entries": ["1e30"]}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for args in (["flow", "--matrix", str(mat), "--tmax", "2", "--dt", "0.5"],
                 ["dirichlet", "--matrix", str(mat), "--Q", "10"]):
        done = subprocess.run([sys.executable, "-m", "dioph"] + args
                              + ["--out", str(tmp_path / args[0])],
                              env=env, cwd=str(tmp_path), capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr and "int64" in done.stderr
