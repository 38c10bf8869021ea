"""The shape of the lattice kernel: `dioph.reduction` is a leaf module.

`dioph_matrix` and `lattice_dyn` both take their reduction and enumeration
from it, and no module of the package imports another inside a function.
Each budget is a module constant that the kernel spending it reads when it
runs; no public function takes one per call.
"""

import ast
import inspect
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dioph import (analytic, cli, dioph_matrix, ec_core, experiments, haw_game, heights,
                   lattice_dyn, reduction)
from dioph.dioph_matrix import RealMatrix, best_approx
from dioph.errors import BudgetExceededError, SingularMatrixError, SizeBudgetError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "dioph")


def _tree(name):
    with open(os.path.join(PACKAGE, name)) as fh:
        return ast.parse(fh.read(), name)


def _package_imports(node):
    """Names of the dioph modules one import statement brings in."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [node.module] if node.module else [a.name for a in node.names]
        if node.module and (node.module == "dioph" or node.module.startswith("dioph.")):
            return [node.module]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "dioph"]
    return []


@pytest.mark.parametrize("module", ["dioph.reduction", "dioph.dioph_matrix", "dioph.lattice_dyn"])
def test_each_kernel_module_imports_first(module):
    done = subprocess.run([sys.executable, "-c", f"import {module}"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr


def test_no_function_level_package_imports():
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        for fn in ast.walk(_tree(name)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [m for node in ast.walk(fn) for m in _package_imports(node)]
                assert not inner, f"{name}:{fn.name} imports {inner}"


def test_reduction_imports_only_errors():
    tree = _tree("reduction.py")
    imported = [m for node in ast.walk(tree) for m in _package_imports(node)]
    assert imported == ["errors"]
    public = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)
              and not n.name.startswith("_")]
    assert public == []


def test_paper_objects_run_without_numpy():
    # a fresh interpreter that refuses `import numpy` (a meta-path hook) runs
    # `import dioph`, the matrix searches, the weak Dirichlet experiment and the
    # local height (tests/numpy_free_smoke.py); the flow diagnostics keep numpy
    for name in ("reduction.py", "dioph_matrix.py"):
        nodes = list(ast.walk(_tree(name)))
        mods = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
        mods += [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
        assert "numpy" not in {m.split(".")[0] for m in mods}, name
    env = dict(os.environ, PYTHONPATH=SRC)
    smoke = os.path.join(os.path.dirname(os.path.abspath(__file__)), "numpy_free_smoke.py")
    done = subprocess.run([sys.executable, smoke], capture_output=True, text=True, env=env)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr
    done = subprocess.run([sys.executable, "-c", "import sys, dioph.lattice_dyn; "
                           "print('numpy' in sys.modules)"],
                          capture_output=True, text=True, env=env)
    assert done.stdout == "True\n", done.stderr


def test_transform_past_the_float_range_is_a_budget_error():
    # the 1 x 1 Gauss branch: A = 10^400 makes T hold 10^400, beyond int64
    # and beyond the largest float, and the message gives its size in bits
    A = RealMatrix.from_rows([["1e400"]], 128)
    with pytest.raises(BudgetExceededError, match="int64 \\(an entry of 1329 bits\\)"):
        best_approx(A, None, 10)


def test_q_max_past_int64_is_a_budget_error():
    A = RealMatrix.from_rows([["1.6180339887498948482045868343656381177"]], 128)
    with pytest.raises(BudgetExceededError, match="q_max of 1329 bits"):
        best_approx(A, None, 10**400)


def test_budgets_are_module_constants():
    layers = (ec_core, heights, analytic, dioph_matrix, lattice_dyn, haw_game, experiments, cli)
    fns = [(f"{mod.__name__}.{name}", fn) for mod in layers for name, fn in vars(mod).items()
           if inspect.isfunction(fn) and fn.__module__ == mod.__name__
           and not name.startswith("_")]
    fns.append(("_Shells.__init__", dioph_matrix._Shells.__init__))
    for label, fn in fns:
        assert not {"max_enum", "digit_budget"} & inspect.signature(fn).parameters.keys(), label
    for fn in (haw_game.run_game, haw_game.derive_strategy):
        assert "dt" not in inspect.signature(fn).parameters
    defined = [(name, target.id) for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")
               for node in ast.walk(_tree(name)) if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)
               and target.id in ("SHELL_MAX_ENUM", "CIRCLE_MAX_ENUM", "DEFAULT_MAX_ENUM",
                                 "CERT_MAX_Q")]
    # one budget for every shell search; the other enumeration budget is the minima's
    assert defined == [("lattice_dyn.py", "DEFAULT_MAX_ENUM"), ("reduction.py", "SHELL_MAX_ENUM")]


def _det(K):
    """Leibniz's determinant: the oracle of `_int_inverse`."""
    d = len(K)
    return sum((-1) ** sum(p[i] > p[j] for i in range(d) for j in range(i + 1, d))
               * math.prod(K[i][p[i]] for i in range(d))
               for p in itertools.permutations(range(d)))


def _matmul(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]


_ENTRY = st.one_of(st.integers(-2, 2), st.integers(-2**60, 2**60))


@given(st.integers(2, 6), st.permutations(range(6)),
       st.lists(st.tuples(st.integers(0, 5), st.integers(1, 5), st.integers(-2**40, 2**40)),
                max_size=30),
       st.lists(st.lists(_ENTRY, min_size=6, max_size=6), min_size=6, max_size=6),
       st.integers(0, 5), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_int_inverse_is_the_exact_adjugate(d, perm, ops, K, dep, mix):
    # T: row operations on I, then a row permutation, so zero pivots occur;
    # T^-1 = det T adj T
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    T = [row[:] for row in eye]
    for i, shift, k in ops:
        i, j = i % d, (i + shift) % d
        if i != j:
            T[i] = [x + k * y for x, y in zip(T[i], T[j])]
    T = [T[i] for i in perm if i < d]
    adj, det = reduction._int_inverse(T)
    assert det in (1, -1)
    assert _matmul(T, [[det * x for x in row] for row in adj]) == eye
    # a general K: adj K K = det K I, det K by Leibniz; a singular K raises
    K = [row[:d] for row in K[:d]]
    singular = [row[:] for row in K]
    singular[dep % d] = [sum(c * row[j] for c, row in zip(mix, K) if row is not K[dep % d])
                         for j in range(d)]
    for M in (K, singular):
        want = _det(M)
        if want == 0:
            with pytest.raises(SingularMatrixError):
                reduction._int_inverse(M)
            continue
        adj, det = reduction._int_inverse(M)
        assert det == want
        assert _matmul(adj, M) == [[det * x for x in row] for row in eye]


def test_box_budget_is_exact(monkeypatch, walked_boxes):
    # the budget is compared with the exact count of a search's points, its
    # outer box and each point scored: a budget of the largest count runs, one
    # point less raises.  No shell search, of either mode or shape, spends from the
    # flow and minima listing's budget
    A = RealMatrix.from_rows([["0.41421356237309515", "0.7320508075688772"]], 128)
    spent, spend = [], reduction._spend
    monkeypatch.setattr(reduction, "_spend", lambda total: spent.append(total) or spend(total))
    rec = best_approx(A, (0.31,), 10_000)
    most = max(spent)
    for B in (A, RealMatrix.scalar("0.41421356237309515", 128)):
        dioph_matrix._Shells(B, (0.31,), 10_000).within(1, 10_000, Fraction(1, 10**4))
    best_approx(RealMatrix.scalar("0.41421356237309515", 128), (0.31,), 10_000)
    assert walked_boxes == []
    monkeypatch.setattr(reduction, "SHELL_MAX_ENUM", most)
    assert best_approx(A, (0.31,), 10_000) == rec
    monkeypatch.setattr(reduction, "SHELL_MAX_ENUM", most - 1)
    with pytest.raises(SizeBudgetError, match=f"search of {most} points exceeds budget {most - 1}"):
        best_approx(A, (0.31,), 10_000)
