import os
from pathlib import Path

import numpy as np
from hypothesis import settings

from crcal.data import CifBundle, Cohort, TimeGrid

# property tests draw the same examples on every run and are never cut short
# by wall-clock noise
settings.register_profile("crcal", derandomize=True, deadline=None, database=None)
settings.load_profile("crcal")

# pytest puts src/ on its own sys.path (pyproject.toml); the CLI subprocesses
# that acceptance 11 starts need it on PYTHONPATH as well
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def make_cohort(times, events, k=None, ids=None):
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    k = k or max(int(events.max()), 1)
    ids = tuple(ids) if ids is not None else tuple(str(i) for i in range(times.size))
    return Cohort(ids, times, events, k)


def make_bundle(grid_times, values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = tuple(ids) if ids is not None else tuple(str(i) for i in range(values.shape[0]))
    return CifBundle(TimeGrid(np.asarray(grid_times, dtype=float)), values, ids)


def uniform_ratio_case(n):
    """Uncensored single-event cohort whose prediction ratios are exactly
    i/n, so bucket masses equal rho on any grid that divides n."""
    times = np.arange(1.0, n + 1)
    events = np.ones(n, dtype=int)
    cohort = make_cohort(times, events, k=1)
    grid = np.concatenate([times, [n + 1.0]])
    values = np.zeros((n, 1, n + 1))
    for i in range(n):
        values[i, 0, i:-1] = (i + 1) / n
        values[i, 0, -1] = 1.0
    bundle = make_bundle(grid, values)
    return cohort, bundle
