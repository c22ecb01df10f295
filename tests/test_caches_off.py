"""A caches-off differential of `simulate`. On small scenarios from the
benchmark's generator, reshaped into 1-4 domains (some with their own
`fw_min_version`), faults of every kind and an optional geo fence, a run with
every stored value computed afresh (`nothing_stored`) writes the same
`ledger.hex` and `epoch_reports.txt`, prints the same lines and exits with
the same code as a run that reads stored values back."""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attestnet.cli import main

from .conftest import ONCE, replace_once, write_generated_scenario

EPOCH_LENGTH = 10  # the generator's
MUTATIONS = ("flip_sw_byte", "change_fw", "move_geo", "clone_config")


@st.composite
def faults(draw, nodes: int, epochs: int):
    mutation = draw(st.sampled_from(MUTATIONS))
    fault = {"node_id": f"n{draw(st.integers(0, nodes - 1)):04d}", "mutation": mutation,
             "tick": draw(st.integers(0, epochs * EPOCH_LENGTH - 1))}
    if mutation == "change_fw":
        fault["fw_version"] = draw(st.integers(0, 7))
    elif mutation == "move_geo":
        fault["lat"], fault["lon"] = draw(st.integers(-90, 90)), draw(st.integers(-180, 180))
    elif mutation == "clone_config":
        fault["from_node"] = f"n{draw(st.integers(0, nodes - 1)):04d}"
    return fault


@st.composite
def scenarios(draw):
    """The generator's shape and seed, and an edit of its document."""
    nodes, epochs = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    shape = (nodes, draw(st.integers(1, 3)), draw(st.integers(0, 2)), 8, epochs, "flip_sw_byte")
    overrides = draw(st.lists(st.none() | st.integers(1, 6), min_size=1, max_size=4))
    changes = {
        "fw_min_version": draw(st.integers(1, 6)),  # the products' firmware is 2-5
        "domains": [{"domain_id": f"d{i}", "fw_min_version": fw} for i, fw in enumerate(overrides)],
        "faults": draw(st.lists(faults(nodes, epochs), max_size=4)),
        "geo_fence": draw(st.none() | st.builds(
            lambda lat, lon: {"lat_min": -lat, "lat_max": lat, "lon_min": -lon, "lon_max": lon},
            st.integers(0, 90), st.integers(0, 180))),
    }

    def edit(doc):
        doc.update(changes)
        for i, node in enumerate(doc["nodes"]):
            node["domain_id"] = f"d{i % len(overrides)}"

    return shape, draw(st.integers(0, 2**16)), edit


def _simulate(scenario: Path, out: Path) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["simulate", str(scenario), "--out", str(out)])
    written = [(out / name).read_bytes() if (out / name).exists() else None
               for name in ("ledger.hex", "epoch_reports.txt")]
    return code, stdout.getvalue(), stderr.getvalue(), written


# `nothing_stored` patches the same functions for every example, and each
# example restores `_once` only inside its own context
@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=scenarios())
def test_stored_values_change_no_output(case, nothing_stored, monkeypatch):
    """With the helper off (one CPU reported), so that each example forks
    nothing."""
    shape, seed, edit = case
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with tempfile.TemporaryDirectory() as tmp:
        scenario = write_generated_scenario(Path(tmp) / "scenario.json", monkeypatch, shape,
                                            seed, edit)
        recomputed = _simulate(scenario, Path(tmp) / "recomputed")
        with pytest.MonkeyPatch.context() as stored:
            replace_once(stored, ONCE)
            kept = _simulate(scenario, Path(tmp) / "stored")
    assert recomputed == kept
