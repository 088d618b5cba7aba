import json

import numpy as np
import pytest

from groverlab.report import RunConfig, SweepResult, base_metadata, render_json

SPECIAL = [-0.0, 5e-324, 1e300, 1e-7, 1.0, 0.0, 0.1 + 0.2, 2.0 / 3.0, -1.7976931348623157e308]


def pair_arrays(seed):
    """Seeded (M, 2) float arrays for M = 1..50, every special value included."""
    rng = np.random.default_rng(seed)
    arrays = []
    for m in range(1, 51):
        a = rng.standard_normal((m, 2)) * 10.0 ** rng.integers(-20, 20, size=(m, 2))
        flat = a.ravel()
        picks = rng.integers(0, flat.size, size=min(flat.size, 3))
        flat[picks] = rng.choice(SPECIAL, size=picks.size)
        arrays.append(a)
    arrays[-1].ravel()[: len(SPECIAL)] = SPECIAL
    return arrays


def as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_lists(v) for v in obj]
    return obj


def plain_encoding(result, run):
    """The document as json.dumps writes it with every array as a list of [re, im] lists."""
    doc = {
        "config": run.to_dict(),
        "rows": result.rows,
        "metadata": {**base_metadata(run, result.engines), **as_lists(result.extra_metadata)},
    }
    return json.dumps(doc, indent=2) + "\n"


class TestRenderJson:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_array_blocks_equal_the_encoder(self, seed):
        # arrays as dict values two levels apart, as list items, and with
        # ordinary values on either side of them
        arrays = pair_arrays(seed)
        steps = [
            {"r": r, "solution_amplitudes": a, "other_amplitudes": b, "after": 1.5}
            for r, (a, b) in enumerate(zip(arrays[:25], arrays[25:]))
        ]
        extra = {
            "first": arrays[0],
            "amplitudes_per_step": steps,
            "nested": {"deeper": [arrays[49], {"x": arrays[7]}, -0.0]},
            "last": 2.5,
        }
        result = SweepResult(("r", "p"), [{"r": 0, "p": 0.25}], {"all": "iteration"}, extra)
        run = RunConfig(command="gga", fmt="json", init_file="start.json")
        assert render_json(result, run) == plain_encoding(result, run)

    def test_empty_array_is_an_empty_list(self):
        result = SweepResult(("r",), [], {}, {"log": [np.empty((0, 2))]})
        run = RunConfig(command="gga", fmt="json")
        assert json.loads(render_json(result, run))["metadata"]["log"] == [[]]

    def test_document_without_arrays_is_the_plain_encoding(self):
        result = SweepResult(("r", "p"), [{"r": 0, "p": 1e-300}, {"r": 1, "p": None}], {}, {"x": [1, 2]})
        run = RunConfig(command="ga", fmt="json")
        assert render_json(result, run) == plain_encoding(result, run)

    def test_marker_in_a_string_is_caught(self):
        result = SweepResult(("r",), [], {}, {"log": np.zeros((1, 2))})
        run = RunConfig(command="gga", fmt="json", init_file="\x00ndarray\x00")
        with pytest.raises(AssertionError, match="markers"):
            render_json(result, run)
