import contextlib
import json
import os
import signal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import settings

from dioph import ec_core, lattice_dyn

# Property tests draw the same examples on every run, without a deadline and
# without an example database, so tier-1 stays deterministic and bounded.
settings.register_profile("dioph", derandomize=True, deadline=None,
                          max_examples=60, database=None)
# DIOPH_HYPOTHESIS_PROFILE=deep draws 400 examples per property, still
# derandomized: a deeper run of the same tests, outside tier-1
settings.register_profile("dioph-deep", derandomize=True, deadline=None,
                          max_examples=400, database=None)
settings.load_profile("dioph-deep" if os.environ.get("DIOPH_HYPOTHESIS_PROFILE") == "deep"
                      else "dioph")


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once it has run `seconds`: a hang fails, not stalls."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def walked_boxes(monkeypatch):
    """Each lattice enumeration's spent count, outer points plus points listed, in call order."""
    counts, listed = [], lattice_dyn._listed

    def spy(outer, runs, forms):
        points = listed(outer, runs, forms)
        counts.append(outer + len(points))
        return points

    monkeypatch.setattr(lattice_dyn, "_listed", spy)
    return counts


@pytest.fixture(autouse=True)
def _ambient_precision():
    """Test-side mpf arithmetic must not round library outputs to doubles."""
    with mp.workprec(320):
        yield


@pytest.fixture(scope="session")
def curve_110160():
    """y^2 = x^3 - 12x - 1, rank 1, generator (5, 8), positive discriminant."""
    return ec_core.RationalCurve(
        a=Fraction(-12), b=Fraction(-1), label="110160.cd1", rank_hint=1,
        generator_hint=ec_core.CurvePoint.affine(5, 8))


@pytest.fixture(scope="session")
def curve_lemniscatic():
    """y^2 = x^3 - x: three real roots at -1, 0, 1."""
    return ec_core.RationalCurve(a=Fraction(-1), b=Fraction(0), label="x3-x")


@pytest.fixture(scope="session")
def curve_mordell():
    """y^2 = x^3 - 2: rank 1, generator (3, 5), negative discriminant."""
    return ec_core.RationalCurve(
        a=Fraction(0), b=Fraction(-2), label="x3-2", rank_hint=1,
        generator_hint=ec_core.CurvePoint.affine(3, 5))


@pytest.fixture(scope="session")
def curve_j0():
    """y^2 = x^3 + 1: negative discriminant, torsion points (0, 1), (-1, 0)."""
    return ec_core.RationalCurve(a=Fraction(0), b=Fraction(1), label="x3+1")


@pytest.fixture()
def curve_file_110160(tmp_path):
    doc = {"label": "110160.cd1", "a": "-12", "b": "-1",
           "generator": ["5", "8"], "rank": 1}
    path = tmp_path / "110160cd1.json"
    path.write_text(json.dumps(doc))
    return str(path)


PHI_STR = "1.6180339887498948482045868343656381177203091798057628621354486227"
