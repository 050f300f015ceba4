"""The SVG emitter's run-length merge against a cell-by-cell scan."""

import numpy as np
import pytest

from platform_eq.svg import _runs


def _cell_runs(paint):
    """Each column read one cell at a time, a run closed where the value changes."""
    runs = []
    for i in range(paint.shape[0]):
        j = 0
        while j < paint.shape[1]:
            v = int(paint[i, j])
            end = j + 1
            while end < paint.shape[1] and int(paint[i, end]) == v:
                end += 1
            runs.append((i, j, end, v))
            j = end
    return runs


@pytest.mark.parametrize("seed", range(12))
def test_runs_match_cell_scan(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 40, size=2))
    # blocky grids, so runs of every length occur, in the dtypes the panels use
    paint = np.repeat(rng.integers(-1, 2, size=(shape[0], -(-shape[1] // 3))), 3, axis=1)
    paint = paint[:, :shape[1]].astype(rng.choice([np.int8, np.int64]))
    flips = rng.random(shape) < rng.uniform(0.0, 0.5)
    paint[flips] = rng.integers(-1, 2, size=flips.sum())
    runs = list(_runs(paint))
    assert runs == _cell_runs(paint)
    assert all(type(v) is int for *_ij, v in runs)
