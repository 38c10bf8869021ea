"""Seeded draws: `dioph.pcg64` is numpy's `default_rng(seed)` stream without `numpy.random`.

numpy's Generator is the test-only oracle: every draw of the port must equal
its draw bit for bit, over random seeds and random interleavings of the
three calls the library makes.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dioph import pcg64

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CALLS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
    st.tuples(st.just("uniform3"), st.floats(-1.0, 1.0), st.floats(0.0, 2.0)),
    # small n, n just past a power of two, and n above 2^31, where a third
    # or more of the draws fall below n and reach the rejection threshold
    st.tuples(st.just("integers"), st.one_of(
        st.integers(1, 100), st.integers(0, 31).map(lambda e: 2**e + 1),
        st.integers(2**31, 2**32 - 1), st.integers(1, 2**32 - 1))),
)


def _draw(gen, call):
    kind, *args = call
    if kind == "random":
        return float(gen.random())
    if kind == "integers":
        return int(gen.integers(args[0]))
    lo, width = args
    if kind == "uniform":
        return float(gen.uniform(lo, lo + width))
    return [float(v) for v in gen.uniform(lo, lo + width, size=3)]


@given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**200)),
       calls=st.lists(_CALLS, min_size=1, max_size=40))
def test_stream_matches_numpy_default_rng(seed, calls):
    oracle, port = np.random.default_rng(seed), pcg64._Generator(seed)
    for i, call in enumerate(calls):
        assert _draw(port, call) == _draw(oracle, call), (seed, i, call)


def test_stream_first_draws():
    # a long run at the seeds the benchmark and the tests use most
    for seed in (0, 1, 3, 7, 2**64 - 1):
        oracle, port = np.random.default_rng(seed), pcg64._Generator(seed)
        assert [port.random() for _ in range(200)] == oracle.random(200).tolist()
        assert [port.integers(33) for _ in range(200)] == oracle.integers(33, size=200).tolist()


def test_bad_arguments_raise():
    with pytest.raises(ValueError):
        pcg64._Generator(-1)
    gen = pcg64._Generator(0)
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            gen.integers(n)


def test_seeded_commands_do_not_import_numpy_random(tmp_path, curve_file_110160):
    H, J = tmp_path / "H.json", tmp_path / "J.json"
    H.write_text(json.dumps({"m": 1, "n": 1, "entries": ["0.9223"]}))
    J.write_text(json.dumps({"m": 1, "n": 1, "entries": ["1.3975"]}))
    runs = [
        ["probe", "--H", str(H), "--J", str(J), "--xi-samples", "2", "--qmax", "200"],
        ["weakdirichlet", "--curve", curve_file_110160, "--qmax", "2000", "--seed", "3"],
        ["haw", "--liouville", "--sigma", "3", "--rounds", "6", "--seed", "1", "--bob", "random"],
    ]
    script = ("import json, sys\n"
              "from dioph import cli\n"
              f"for i, argv in enumerate({runs!r}):\n"
              "    assert cli.parse_and_dispatch(argv + ['--out', f'run{i}']) == 0, argv\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.random'))))\n")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          cwd=str(tmp_path), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
