import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: the first LAPACK call of a
# process otherwise stalls for up to a second while OpenBLAS's second
# thread spin-waits, which breaks wall-clock gates such as criterion 01.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import nekrasov as nk


def field_of(n: int, func) -> nk.AngleField:
    """The field with grid values func(theta) on n points."""
    grid = nk.get_grid(n)
    return nk.AngleField(grid, values=func(grid.theta))


def solved_field(mu: float, n: int = 512) -> nk.SolveResult:
    return nk.solve_seeded(mu, n=n)


@pytest.fixture(scope="session")
def wave_35() -> nk.SolveResult:
    """Converged deep-water solution at mu = 3.5, n = 512."""
    return solved_field(3.5)


@pytest.fixture(scope="session")
def small_branch() -> nk.Branch:
    """Branch over [3.05, 8] used by several diagnostics tests."""
    return nk.trace_branch(3.05, 8.0)


@pytest.fixture(scope="session")
def long_branch() -> nk.Branch:
    """The paper's branch over [3.01, 1e4], with its wall time in
    metadata["elapsed"]."""
    t0 = time.time()
    branch = nk.trace_branch(3.01, 1e4)
    branch.metadata["elapsed"] = time.time() - t0
    return branch


@pytest.fixture(scope="session")
def extreme_direct() -> nk.ExtremeSolution:
    return nk.solve_extreme()
