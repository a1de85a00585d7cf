"""AUTO's picks on the committed timing grid, checked without timing anything.

``BENCH_auto_grid.json`` holds each AUTO candidate's median wall time on
every shape of ``bench/auto_grid.json`` (``scripts/fit_auto.py --measure``
writes it).  On every shape AUTO must pick a policy whose median is within
1.5x of the fastest one.
"""

import json
from pathlib import Path

import pytest

from tardyjobs import auto_select, generate_instance

GRID = json.loads((Path(__file__).resolve().parent.parent / "BENCH_auto_grid.json").read_text())
SHAPE_KEYS = ("n", "d_hash", "d_max", "p_max", "w_max")


@pytest.mark.parametrize(
    "shape", GRID["shapes"], ids=lambda s: "-".join(f"{key}{s[key]}" for key in SHAPE_KEYS)
)
def test_pick_is_within_1_5x_of_the_fastest(shape):
    inst = generate_instance(seed=shape["seed"], **{key: shape[key] for key in SHAPE_KEYS})
    medians = shape["median_ms"]
    pick = auto_select(inst).value
    assert medians[pick] <= 1.5 * min(medians.values()), (pick, medians)


def test_grid_covers_both_benchmark_shapes():
    shapes = [{key: s[key] for key in SHAPE_KEYS} for s in GRID["shapes"]]
    assert dict(n=200, d_hash=16, d_max=2000, p_max=10, w_max=10) in shapes  # many-dates
    assert dict(n=5000, d_hash=4, d_max=5000, p_max=5, w_max=10) in shapes  # small-p
