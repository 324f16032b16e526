"""``import repro`` needs numpy alone, the one dependency ``pyproject.toml`` declares.

scipy is imported inside the four numeric cross-checks that call it
(``general_costs`` and the three ``*_numeric`` lemma solvers).  Each check
runs in a fresh interpreter, because the test process has imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_leaves_scipy_unloaded():
    done = _run("import sys, repro; print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cp_als_and_parallel_cp_als_run_with_scipy_blocked():
    code = """
import sys
sys.modules["scipy"] = None
import repro
tensor = repro.noisy_low_rank_tensor((20, 18, 16), 4, seed=0)
sequential = repro.cp_als(tensor, 4, seed=1)
parallel = repro.parallel_cp_als(tensor, 4, 4, seed=1)
print(sequential.final_fit > 0.9, parallel.als.final_fit > 0.9)
"""
    done = _run(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]
