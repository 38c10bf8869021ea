import contextlib
import io
import json
import os
import subprocess
import sys

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dioph.cli import parse_and_dispatch

from conftest import deadline


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


def test_env_precision_read_after_first_call(curve_file_110160, tmp_path, monkeypatch):
    # the parser is built once per DIOPH_PRECISION_BITS value: a value set
    # after a first call must still become the --precision-bits default
    monkeypatch.delenv("DIOPH_PRECISION_BITS", raising=False)
    for env, bits in ((None, 256), ("96", 96), ("160", 160), (None, 256)):
        if env is None:
            monkeypatch.delenv("DIOPH_PRECISION_BITS", raising=False)
        else:
            monkeypatch.setenv("DIOPH_PRECISION_BITS", env)
        out = str(tmp_path / f"p{bits}")
        assert run(["curve", "verify", "--curve", curve_file_110160, "--out", out]) == 0
        assert json.loads(read(out + ".json"))["precision_bits"] == bits


def test_curve_height_bytes_independent_of_ambient_precision(curve_file_110160, tmp_path):
    # methods_difference is computed at --precision-bits, not at the caller's precision
    got = []
    for ambient in (53, 320):
        out = str(tmp_path / f"h{ambient}")
        with mp.workprec(ambient):
            assert run(["curve", "height", "--curve", curve_file_110160, "--nmax", "6",
                        "--out", out]) == 0
        got.append(read(out + ".json"))
    assert got[0] == got[1]


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


def test_weakdirichlet_t_target_keeps_working_precision(curve_file_110160, tmp_path):
    # a fresh interpreter runs mpmath at 53 bits; the t:VALUE target must be
    # read at --precision-bits, so its 30th digit survives into the report
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = str(tmp_path / "t")
    done = subprocess.run([sys.executable, "-m", "dioph", "weakdirichlet",
                           "--curve", curve_file_110160,
                           "--target", "t:0.50000000000000000000000000001",
                           "--qmax", "2000", "--out", out],
                          env=env, cwd=str(tmp_path), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(read(out + ".json"))["gamma"] == "0.50000000000000000000000000001"


def test_threads_flag_removed(tmp_path):
    mat = tmp_path / "A.json"
    mat.write_text(json.dumps({"m": 1, "n": 1, "entries": ["0.5"]}))
    assert run(["dirichlet", "--matrix", str(mat), "--Q", "5", "--threads", "2"]) == 1


def _dioph(args, cwd):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "dioph"] + args, env=env, cwd=str(cwd),
                          capture_output=True, text=True)


def _matrix_file(tmp_path, name, m, n, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"m": m, "n": n, "entries": entries}))
    return str(path)


def test_lll_transform_overflow_exits_2(tmp_path):
    # an integer-like entry of 1e30 needs a size-reduction multiplier beyond
    # int64: a budget error (exit 2), not an OverflowError traceback.  The
    # 1 x 1 flow reads its minima off the continued fraction, with no LLL,
    # and runs; the 1 x 2 flow still reduces in float.
    one = _matrix_file(tmp_path, "big.json", 1, 1, ["1e30"])
    wide = _matrix_file(tmp_path, "wide.json", 1, 2, ["1e30", "0.5"])
    for args in (["flow", "--matrix", wide, "--tmax", "2", "--dt", "0.5"],
                 ["dirichlet", "--matrix", one, "--Q", "10"]):
        done = _dioph(args + ["--out", str(tmp_path / args[0])], tmp_path)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr and "int64" in done.stderr
    done = _dioph(["flow", "--matrix", one, "--tmax", "2", "--dt", "0.5", "--out",
                   str(tmp_path / "one")], tmp_path)
    assert done.returncode == 0, done.stderr


def test_entries_beyond_the_float_range_exit_2(tmp_path):
    # 1e400 is a finite mpf but has no float64 view: one budget error line
    # (exit 2), not an OverflowError traceback from LLL or a float conversion
    wide = _matrix_file(tmp_path, "wide.json", 1, 2, ["1e400", "0.5"])
    one = _matrix_file(tmp_path, "one.json", 1, 1, ["1e400"])
    cases = (["dirichlet", "--matrix", wide, "--Q", "10"],
             ["flow", "--matrix", wide, "--tmax", "2", "--dt", "0.5"],
             ["flow", "--matrix", one, "--tmax", "2", "--dt", "0.5"],
             ["haw", "--matrix", one, "--sigma", "3", "--rounds", "4"])
    for args in cases:
        done = _dioph(args + ["--out", str(tmp_path / args[0])], tmp_path)
        assert done.returncode == 2, (args, done.stderr)
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("dioph: error:"), done.stderr
        assert "float64 range" in lines[0]


with mp.workprec(200):
    _SURDS = {k: mp.nstr(mp.sqrt(k), 50) for k in (2, 3, 5, 7)}
# shell searches with m + n >= 3 that reduce along the flow: each exited 2 on
# an enumeration box over budget while the shell lattice was reduced once
REACH_ARGV = [
    ["dirichlet", "--matrix", "{R12}", "--Q", "100000000"],
    ["dirichlet", "--matrix", "{R12}", "--Q", "1000000000000"],
    ["dirichlet", "--matrix", "{R13}", "--Q", "100000"],
    ["dirichlet", "--matrix", "{R22}", "--Q", "100000"],
    ["exponent", "--matrix", "{R22}", "--qmax", "100000000"],
    ["probe", "--H", "{H}", "--J", "{J}", "--qmax", "10000"],
    # exited 2 on a box of 2e25 points while the target's centre was solved in float
    ["probe", "--H", "{H}", "--J", "{J}", "--qmax", "100000000000"],
]


@pytest.mark.parametrize("argv", REACH_ARGV,
                         ids=[" ".join(x for x in a if x[0] != "{") for a in REACH_ARGV])
def test_shell_searches_reach_far_along_the_flow(argv, tmp_path):
    r = [_SURDS[k] for k in (2, 3, 5, 7)]
    paths = {"{R12}": _matrix_file(tmp_path, "r12.json", 1, 2, r[:2]),
             "{R13}": _matrix_file(tmp_path, "r13.json", 1, 3, r[:3]),
             "{R22}": _matrix_file(tmp_path, "r22.json", 2, 2, r),
             "{H}": _matrix_file(tmp_path, "H.json", 2, 3, [
                 "0.3183098861837907", "0.5772156649015329", "1.2020569031595942",
                 "-0.6931471805599453", "2.718281828459045", "0.1411200080598672"]),
             "{J}": _matrix_file(tmp_path, "J.json", 2, 2, [
                 "1.0986122886681098", "0.2718281828459045", "-0.5", "1.6487212707001282"])}
    with deadline(1):
        assert run([paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")]) == 0


# each bad value fails in the command table, before any work: exit 1 with one
# "dioph: error:" line that names the flag, not a traceback or a hang
BAD_FLAGS = [
    ("probe", "--seed", "-1"),
    ("weakdirichlet", "--seed", "-1"),
    ("haw", "--seed", "-1"),
    ("weakdirichlet", "--base", "nan"),
    ("weakdirichlet", "--base", "1"),
    ("weakdirichlet", "--base", "0.5"),
    ("exponent", "--base", "inf"),
    ("flow", "--tmax", "nan"),
    ("flow", "--dt", "inf"),
    ("flow", "--dt", "0"),
    ("haw", "--sigma", "nan"),
]


@pytest.mark.parametrize("command,flag,value", BAD_FLAGS,
                         ids=[f"{c} {f} {v}" for c, f, v in BAD_FLAGS])
def test_bad_numeric_flag_exits_1_naming_the_flag(command, flag, value, curve_file_110160,
                                                   tmp_path, capsys):
    one = _matrix_file(tmp_path, "one.json", 1, 1, ["1.6180339887498948482045868"])
    wide = _matrix_file(tmp_path, "wide.json", 1, 2, ["0.3", "0.7"])
    argv = {
        "probe": ["probe", "--H", wide, "--J", one, "--qmax", "20"],
        "weakdirichlet": ["weakdirichlet", "--curve", curve_file_110160, "--qmax", "100"],
        "haw": ["haw", "--matrix", one, "--sigma", "3", "--rounds", "4"],
        "exponent": ["exponent", "--matrix", one, "--qmax", "100"],
        "flow": ["flow", "--matrix", wide, "--tmax", "2", "--dt", "0.5"],
    }[command]
    argv = argv + [flag, value, "--out", str(tmp_path / "out")]
    with deadline(10):
        assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"dioph: error: argument {flag}: "), err
    assert not os.path.exists(tmp_path / "out.json")


# argv that ended in a traceback, a hang or a silent run before each value was
# checked: every one now exits with a documented code and one "dioph: error:"
# line, in under 1 s (in process, nothing is computed before the check)
DEFECT_ARGV = [
    (["flow", "--matrix", "{WIDE}", "--tmax", "1e300", "--dt", "1e-300"], 2, "samples"),
    (["flow", "--matrix", "{WIDE}", "--tmax", "2", "--dt", "0.5", "--sigma=-1"], 1, "sigma"),
    (["haw", "--liouville", "--sigma", "3", "--rounds", "100"], 1, "--rounds"),
    (["haw", "--liouville", "--sigma", "3", "--rounds", "400"], 1, "--rounds"),
    (["haw", "--liouville", "--sigma", "3", "--rounds", "700"], 1, "--rounds"),
    (["haw", "--liouville", "--sigma", "3", "--rounds", "1000000000"], 1, "--rounds"),
    (["haw", "--liouville", "--sigma", "1e300", "--rounds", "4"], 1, "sigma"),
    (["haw", "--liouville", "--sigma", "3", "--rounds", "4", "--beta", "0"], 1, "--beta"),
    (["haw", "--liouville", "--sigma", "3", "--rounds", "4", "--c", "0"], 1, "--c"),
    (["haw", "--liouville", "--sigma", "3", "--rounds", "4", "--c", "1e300"], 1, "sigma or c"),
    (["haw", "--liouville", "--sigma", "3", "--rounds", "4", "--rho0", "0"], 1, "--rho0"),
    (["curve", "height", "--curve", "{CURVE}", "--precision-bits", "100000000"], 1,
     "--precision-bits"),
    (["weakdirichlet", "--curve", "{CURVE}", "--qmax", "100", "--precision-bits",
      str(2**64)], 1, "--precision-bits"),
    (["curve", "height", "--curve", "{CURVE}", "--nmax", str(2**64)], 1, "n_max"),
    (["exponent", "--matrix", "{ONE}", "--qmax", "100", "--base", "1e300"], 1, "Q_max"),
    (["probe", "--H", "{ONE}", "--J", "{ONE}", "--xi-samples", str(2**64)], 2, "targets"),
    (["probe", "--H", "{ONE}", "--J", "{ONE}", "--xi-samples", "0"], 1, "--xi-samples"),
    (["probe", "--H", "{ONE}", "--J", "{ONE}", "--schedule", "5,,20"], 1, "--schedule"),
    (["weakdirichlet", "--curve", "{CURVE}", "--qmax", "100", "--target", "t:abc"], 1,
     "t:VALUE"),
]


@pytest.mark.parametrize("argv,code,names", DEFECT_ARGV,
                         ids=[" ".join(x for x in a if x[0] != "{") for a, _, _ in DEFECT_ARGV])
def test_defect_argv_exits_with_a_documented_code(argv, code, names, curve_file_110160,
                                                  tmp_path, capsys):
    paths = {"{WIDE}": _matrix_file(tmp_path, "wide.json", 1, 2, ["0.3", "0.7"]),
             "{ONE}": _matrix_file(tmp_path, "one.json", 1, 1, ["0.9223"]),
             "{CURVE}": curve_file_110160}
    argv = [paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")]
    with deadline(1):
        assert run(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dioph: error:") and names in err[0], err


# input files that ended in a traceback, a hang or a silent run: a directory, a
# file that is not UTF-8, a value that is no number or pair (JSON true was read
# as 1), and a decimal exponent past Python's limit on the digits of an int
# string, whose exact value 10^|e| took minutes to build.  Each exits 1 with
# one "dioph: error:" line that names the file, the value or its field, in under 1 s
_CURVE = {"a": "-12", "b": "-1", "generator": ["5", "8"], "rank": 1}
BAD_FILES = ([("--matrix", {"m": 1, "n": 1, "entries": [v]}, repr(v))
              for v in (None, [1], {}, "", "abc", "1/0", True, "1e99999999", "1e-99999999")]
             + [("--matrix", {"m": 1, "n": 1, "entries": 5}, "entries"),
                ("--H", {"m": 1, "n": 2, "entries": [True, "0.7"]}, "True"),
                ("--J", {"m": 1, "n": 1, "entries": ["1e-99999999"]}, "'1e-99999999'")]
             + [("--curve", dict(_CURVE, a=v), repr(v))
                for v in (True, "1e99999999", "1e-99999999")]
             + [("--curve", dict(_CURVE, generator=g), "generator") for g in (5, ["5", "8", "1"])]
             + [("--curve", dict(_CURVE, rank=True), "rank")]
             + [(flag, kind, "{PATH}") for flag in ("--matrix", "--J", "--curve")
                for kind in ("<directory>", "<latin-1>")])


@pytest.mark.parametrize("flag,doc,names", BAD_FILES,
                         ids=[f"{f} {json.dumps(d)}" for f, d, _ in BAD_FILES])
def test_bad_input_file_exits_1_naming_it(flag, doc, names, curve_file_110160, tmp_path, capsys):
    path = tmp_path / "bad.json"
    if doc == "<directory>":
        path.mkdir()
    elif doc == "<latin-1>":
        path.write_bytes('{"a": "\xe9"}'.encode("latin-1"))
    else:
        path.write_text(json.dumps(doc))
    files = {"--matrix": _matrix_file(tmp_path, "one.json", 1, 1, ["0.9223"]),
             "--H": _matrix_file(tmp_path, "wide.json", 1, 2, ["0.3", "0.7"]),
             "--J": _matrix_file(tmp_path, "one.json", 1, 1, ["0.9223"]),
             "--curve": curve_file_110160, flag: str(path)}
    argv = {"--matrix": ["dirichlet", "--matrix", files["--matrix"], "--Q", "10"],
            "--curve": ["curve", "verify", "--curve", files["--curve"]]}.get(
        flag, ["probe", "--H", files["--H"], "--J", files["--J"], "--qmax", "20"])
    with deadline(1):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dioph: error:"), err
    assert names.replace("{PATH}", str(path)) in err[0], err
    assert not os.path.exists(tmp_path / "out.json")


# the argv grammar: each command at small sizes, and values for its numeric
# flags from the edge cases below or a few valid ones
EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e300", "1.000000000931322574615478515625",
               "0.999999999068677425384521484375", str(2**64))
VALID_VALUES = {
    "--precision-bits": ("64", "300"), "--seed": ("0", "5"), "--nmax": ("4", "12"),
    "--Q": ("1", "12"), "--qmax": ("9", "300"), "--base": ("1.5", "3"),
    "--tmax": ("0.5", "3"), "--dt": ("0.1", "1"), "--sigma": ("0.5", "1.5", "3"),
    "--rounds": ("0", "3"), "--beta": ("0.1", "0.3"), "--c": ("0.05", "1"),
    "--rho0": ("0.01", "0.5"), "--target": ("0.25",), "--xi-samples": ("1", "2"),
    "--alpha": ("0.7548776662466927",), "--gamma": ("0.25",),
}
GRAMMAR = {
    "curve verify": (["--curve", "{CURVE}", "--point", "5,8"], ()),
    "curve height": (["--curve", "{CURVE}", "--nmax", "6"], ("--nmax",)),
    "curve log": (["--curve", "{CURVE}"], ()),
    "dirichlet": (["--matrix", "{ONE}", "--Q", "10"], ("--Q",)),
    "exponent": (["--matrix", "{ONE}", "--qmax", "100", "--base", "3"], ("--qmax", "--base")),
    "flow": (["--matrix", "{ONE}", "--tmax", "2", "--dt", "0.5"], ("--tmax", "--dt", "--sigma")),
    "haw": (["--liouville", "--sigma", "3", "--rounds", "4"],
            ("--sigma", "--rounds", "--beta", "--c", "--rho0", "--target")),
    "minkowski": (["--alpha", "1.4142135623730951", "--gamma", "0.3", "--qmax", "100"],
                  ("--alpha", "--gamma", "--qmax")),
    "weakdirichlet": (["--curve", "{CURVE}", "--qmax", "500"], ("--qmax", "--base")),
    "probe": (["--H", "{ONE}", "--J", "{ONE}", "--xi-samples", "1", "--qmax", "20"],
              ("--xi-samples", "--qmax")),
}


@pytest.fixture(scope="module")
def grammar_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("grammar")
    curve = d / "curve.json"
    curve.write_text(json.dumps({"a": "-12", "b": "-1", "generator": ["5", "8"], "rank": 1}))
    return {"{CURVE}": str(curve), "{ONE}": _matrix_file(d, "one.json", 1, 1, ["0.9223"])}


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(GRAMMAR)))
    base, flags = GRAMMAR[name]
    chosen = draw(st.lists(st.sampled_from(flags + ("--precision-bits", "--seed")),
                           min_size=1, max_size=2, unique=True))
    values = {f: draw(st.sampled_from(EDGE_VALUES) | st.sampled_from(VALID_VALUES[f]))
              for f in chosen}
    kept = [a for i, a in enumerate(base) if a not in values and base[i - 1] not in values]
    return name.split() + kept + [f"{f}={v}" for f, v in values.items()]


@given(_argv())
def test_argv_grammar_exits_with_a_documented_code(grammar_inputs, argv):
    """Every drawn argv returns 0, 1, 2 or 3 within 5 s, with one "dioph: error:"
    line on the codes above 0; any other exception fails the test."""
    argv = [grammar_inputs.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with deadline(5), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert code == 0 or (len(lines) == 1 and lines[0].startswith("dioph: error:")), lines


def test_q_beyond_int64_exits_2(tmp_path):
    # every q is an int64 coefficient of the enumerator: a budget error, not
    # an OverflowError from float(Q)
    mat = tmp_path / "phi.json"
    mat.write_text(json.dumps({"m": 1, "n": 1, "entries": ["1.6180339887498948482045868"]}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for args in (["dirichlet", "--Q", str(10**400)], ["exponent", "--qmax", str(10**400)]):
        done = subprocess.run([sys.executable, "-m", "dioph"] + args
                              + ["--matrix", str(mat), "--out", str(tmp_path / args[0])],
                              env=env, cwd=str(tmp_path), capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("dioph: error:"), done.stderr


# ---------------------------------------------------------------------------
# golden reports: the exact bytes every command writes, recorded by
# run_golden_case; a deliberate change of output re-records the files it touches

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

GOLDEN_INPUTS = {
    "curve.json": {"label": "110160.cd1", "a": "-12", "b": "-1",
                   "generator": ["5", "8"], "rank": 1},
    "x28.json": {"label": "x3-x+28", "a": "-1", "b": "28"},
    "phi.json": {"m": 1, "n": 1, "entries": ["1.6180339887498948482045868343656381177"]},
    "A22.json": {"m": 2, "n": 2, "entries": ["5/11", "-0.3", "1.25", "2/7"]},
    "H.json": {"m": 1, "n": 1, "entries": ["0.9223"]},
    "J.json": {"m": 1, "n": 1, "entries": ["1.3975"]},
    # 2^-2 + 2^-6 + 2^-30 + 2^-150, the built-in Liouville-type constant, exactly
    "L.json": {"m": 1, "n": 1, "entries": [
        "379112669704248589191023083538829205882011649/"
        "1427247692705959881058285969449495136382746624"]},
}

SQRT2 = "1.41421356237309504880168872420969808"

# (name, argv, exit code); {IN} is the input directory, {OUT} the output base
GOLDEN_CASES = [
    ("curve-verify", ["curve", "verify", "--curve", "{IN}/curve.json", "--out", "{OUT}"], 0),
    ("curve-height", ["curve", "height", "--curve", "{IN}/curve.json", "--nmax", "6",
                      "--out", "{OUT}"], 0),
    # kernel-of-reduction orders 2, 10, 12 and 38 at the bad primes: M = 1140
    ("curve-height-x28", ["curve", "height", "--curve", "{IN}/x28.json", "--point=-3,2",
                          "--out", "{OUT}"], 0),
    ("curve-log", ["curve", "log", "--curve", "{IN}/curve.json", "--point", "5,-8",
                   "--precision-bits", "128", "--out", "{OUT}"], 0),
    ("dirichlet", ["dirichlet", "--matrix", "{IN}/A22.json", "--Q", "30", "--out", "{OUT}"], 0),
    ("exponent", ["exponent", "--matrix", "{IN}/phi.json", "--qmax", "1000", "--base", "3",
                  "--out", "{OUT}"], 0),
    ("exponent-liouville", ["exponent", "--liouville", "--qmax", "1000", "--out", "{OUT}"], 0),
    ("flow", ["flow", "--matrix", "{IN}/phi.json", "--tmax", "2", "--dt", "0.25",
              "--sigma", "1.5", "--out", "{OUT}"], 0),
    ("haw", ["haw", "--liouville", "--sigma", "3", "--rounds", "4", "--seed", "1",
             "--out", "{OUT}"], 0),
    ("haw-matrix", ["haw", "--matrix", "{IN}/L.json", "--sigma", "3", "--rounds", "4",
                    "--bob", "greedy", "--seed", "5", "--out", "{OUT}"], 0),
    ("minkowski", ["minkowski", "--alpha", SQRT2, "--gamma", "0.3", "--qmax", "200",
                   "--out", "{OUT}"], 0),
    ("weakdirichlet", ["weakdirichlet", "--curve", "{IN}/curve.json", "--qmax", "500",
                       "--seed", "2", "--out", "{OUT}"], 0),
    ("probe", ["probe", "--H", "{IN}/H.json", "--J", "{IN}/J.json", "--xi-samples", "2",
               "--qmax", "50", "--out", "{OUT}"], 0),
    ("probe-schedule", ["probe", "--H", "{IN}/H.json", "--J", "{IN}/J.json",
                        "--schedule", "5,20", "--seed", "4", "--out", "{OUT}"], 0),
    ("dirichlet-full-precision", ["dirichlet", "--matrix", "{IN}/A22.json", "--Q", "30",
                                  "--full-precision", "--out", "{OUT}"], 0),
    ("flow-full-precision", ["flow", "--matrix", "{IN}/phi.json", "--tmax", "1", "--dt", "0.5",
                             "--full-precision", "--out", "{OUT}"], 0),
    ("minkowski-format-json", ["minkowski", "--alpha", SQRT2, "--gamma", "1/3",
                               "--qmax", "100", "--format", "json", "--out", "{OUT}"], 0),
    ("curve-verify-stdout", ["curve", "verify", "--curve", "{IN}/curve.json"], 0),
    ("dirichlet-stdout", ["dirichlet", "--matrix", "{IN}/phi.json", "--Q", "100"], 0),
    ("exponent-help", ["exponent", "--help"], 0),
    ("haw-help", ["haw", "--help"], 0),
    ("probe-help", ["probe", "--help"], 0),
    ("curve-height-help", ["curve", "height", "--help"], 0),
    ("curve-help", ["curve", "--help"], 0),
    # --liouville wins over --matrix, whose file is then never read
    ("exponent-liouville-wins", ["exponent", "--liouville", "--matrix", "{IN}/missing.json",
                                 "--qmax", "1000", "--out", "{OUT}"], 0),
    ("no-subcommand", [], 1),
    ("unknown-command", ["frobnicate"], 1),
    ("unknown-curve-command", ["curve", "frobnicate"], 1),
    ("missing-argument", ["dirichlet", "--matrix", "{IN}/phi.json"], 1),
    ("bare-curve", ["curve"], 1),
    ("missing-file", ["curve", "verify", "--curve", "{IN}/missing.json"], 1),
    ("low-precision", ["curve", "verify", "--curve", "{IN}/curve.json",
                       "--precision-bits", "32"], 1),
    # precision is checked before the source
    ("exponent-low-precision", ["exponent", "--qmax", "100", "--precision-bits", "32"], 1),
    ("exponent-no-source", ["exponent", "--qmax", "100"], 1),
    ("haw-no-source", ["haw", "--sigma", "3", "--rounds", "4"], 1),
    ("haw-missing-matrix", ["haw", "--matrix", "{IN}/missing.json", "--sigma", "3",
                            "--rounds", "4"], 1),
    ("haw-no-stages", ["haw", "--matrix", "{IN}/phi.json", "--sigma", "3", "--rounds", "4",
                       "--out", "{OUT}"], 1),
    ("bad-int", ["dirichlet", "--matrix", "{IN}/phi.json", "--Q", "x"], 1),
    ("bad-choice", ["haw", "--liouville", "--sigma", "3", "--rounds", "4", "--bob", "lazy"], 1),
    ("off-curve", ["curve", "height", "--curve", "{IN}/curve.json", "--point", "1,2/3"], 1),
]


# cases whose text argparse writes (help, usage, its own errors): recorded on
# Python 3.11; other versions of argparse may word and wrap them differently
ARGPARSE_TEXT = {"exponent-help", "haw-help", "probe-help", "curve-height-help", "curve-help",
                 "no-subcommand", "bare-curve", "unknown-command", "unknown-curve-command",
                 "missing-argument", "bad-int", "bad-choice"}


def run_golden_case(argv, in_dir, out_dir):
    """Run one case; return its exit code and {file suffix: bytes} of what it wrote.

    Paths into the input directory are written as {IN} in stdout and stderr.
    Runs at mpmath's default 53 bits, the ambient precision of ``python -m dioph``.
    """
    base = os.path.join(out_dir, "case")
    argv = [a.replace("{IN}", in_dir).replace("{OUT}", base) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mp.workprec(53), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse_and_dispatch(argv)
    got = {}
    for name in sorted(os.listdir(out_dir)):
        got[name[len("case"):]] = read(os.path.join(out_dir, name))
    for suffix, stream in ((".stdout", out), (".stderr", err)):
        if stream.getvalue():
            got[suffix] = stream.getvalue().replace(in_dir, "{IN}").encode()
    return code, got


def write_golden_inputs(in_dir):
    for name, doc in GOLDEN_INPUTS.items():
        with open(os.path.join(in_dir, name), "w", encoding="utf-8") as f:
            json.dump(doc, f)


@pytest.mark.parametrize("name,argv,code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_reports(name, argv, code, tmp_path, monkeypatch):
    monkeypatch.delenv("DIOPH_PRECISION_BITS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to this width
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    write_golden_inputs(str(in_dir))
    got_code, got = run_golden_case(argv, str(in_dir), str(out_dir))
    assert got_code == code
    if name in ARGPARSE_TEXT and sys.version_info[:2] != (3, 11):
        pytest.skip("argparse text is recorded on Python 3.11")
    expected = {f[len(name):]: read(os.path.join(GOLDEN_DIR, f))
                for f in sorted(os.listdir(GOLDEN_DIR)) if f.rsplit(".", 1)[0] == name}
    assert expected, f"no golden files for {name}"
    assert sorted(got) == sorted(expected)
    for suffix in expected:
        assert got[suffix] == expected[suffix], name + suffix
