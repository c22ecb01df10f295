"""`simulate` against a first-principles oracle: what a run writes agrees
with what `oracles.simulate_facts` derives from the scenario document alone,
on the caches-off differential's generated scenarios and on the bundled
ones (clone-attack switches governance, which small generated scenarios
rarely do)."""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from .conftest import write_generated_scenario
from .oracles import check_simulate
from .test_caches_off import _simulate, scenarios

SCENARIO_DIR = Path("src/attestnet/scenarios")


def _check(scenario: Path, out: Path):
    code, _, _, (ledger_hex, reports) = _simulate(scenario, out)
    written = [None if data is None else data.decode() for data in (reports, ledger_hex)]
    check_simulate(json.loads(scenario.read_text()), code, *written)


@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=scenarios())
def test_generated_scenarios_agree_with_the_oracle(case, monkeypatch):
    """With the helper off (one CPU reported), so that each example forks
    nothing."""
    shape, seed, edit = case
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with tempfile.TemporaryDirectory() as tmp:
        scenario = write_generated_scenario(Path(tmp) / "scenario.json", monkeypatch, shape,
                                            seed, edit)
        _check(scenario, Path(tmp) / "out")


@pytest.mark.parametrize("name", ["healthy-4nodes", "clone-attack"])
def test_bundled_scenarios_agree_with_the_oracle(name, tmp_path):
    _check(SCENARIO_DIR / f"{name}.json", tmp_path)
