"""Run the paper's objects with every import of numpy refused.

    PYTHONPATH=src python tests/numpy_free_smoke.py

A meta-path hook makes `import numpy` fail, then the script imports
`dioph` and runs the matrix searches (`best_approx` on a 1 x 1 and a 2 x 2
matrix, `exponent_estimate`), the weak Dirichlet experiment on 110160.cd1
and the local canonical height.  It prints "ok" and exits 0 when none of
them needed numpy.  In an environment without numpy the hook changes
nothing, so the same script checks such an install.
"""

import sys
from fractions import Fraction


class _NoNumpy:
    """A meta-path finder that refuses numpy and its submodules."""

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ModuleNotFoundError(f"import of {name} refused", name=name)
        return None


sys.meta_path.insert(0, _NoNumpy())

from dioph import experiments, heights, reduction  # noqa: E402,F401
from dioph.dioph_matrix import RealMatrix, best_approx, exponent_estimate  # noqa: E402
from dioph.ec_core import CurvePoint, RationalCurve  # noqa: E402

PHI = "1.6180339887498948482045868343656381177203091798057628621354486227"


def main() -> int:
    rec = best_approx(RealMatrix.scalar(PHI), None, 1000)
    assert rec.q_norm == 987 and rec.error < 1e-3, rec
    rec = best_approx(RealMatrix.from_rows([["1.4142135623730951", "1.7320508075688772"],
                                            ["2.2360679774997898", "2.6457513110645907"]]),
                      None, 30)
    assert (rec.q, rec.p) == ((19, 7), (-39, -61)) and rec.error < 1 / 30, rec
    fit = exponent_estimate(RealMatrix.scalar(PHI), 4096)
    assert 0.5 < fit.estimate < 1.5, fit
    curve = RationalCurve(a=Fraction(-12), b=Fraction(-1), label="110160.cd1", rank_hint=1,
                          generator_hint=CurvePoint.affine(5, 8))
    rep = experiments.weak_dirichlet_experiment(
        experiments.CurveExperimentConfig(curve=curve, q_max=1000, seed=0))
    assert rep.records and rep.chain_check_ok, rep
    hhat = heights.canonical_height_local(curve, CurvePoint.affine(5, 8)).value
    assert hhat > 0, hhat
    assert "numpy" not in sys.modules
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
