"""The committed layer table, LAYERS.json, from `tools/layer_timing.py layers`."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIMS = [2, 4, 8, 16, 32]


@pytest.fixture(scope="module")
def table():
    return json.loads((ROOT / "LAYERS.json").read_text())


def test_every_route_is_a_layer(table):
    # a route added to the tool fails here until the file is regenerated
    path = ROOT / "tools" / "layer_timing.py"
    spec = importlib.util.spec_from_file_location("layer_timing", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert list(table["layers"]) == list(tool.layer_routes(tool.instance(2)))
    assert table["dims"] == DIMS and table["OMP_NUM_THREADS"] == "1"
    assert table["numpy"] and table["host"]["cpu"]


def test_rows_hold_five_times_and_their_slopes(table):
    for name, row in table["layers"].items():
        ms = row["ms"]
        assert len(ms) == len(DIMS), name
        assert all(math.isfinite(t) and t > 0 for t in ms), name
        assert row["slope"].keys() == {"16-32", "2-32"}, name
        for key, slope in row["slope"].items():
            a, b = (DIMS.index(int(d)) for d in key.split("-"))
            want = math.log2(ms[b] / ms[a]) / math.log2(DIMS[b] / DIMS[a])
            # the file keeps three decimals
            assert abs(slope - want) <= 5e-4 + 1e-12, (name, key)
