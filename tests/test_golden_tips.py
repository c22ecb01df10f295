"""Golden ledger tips of the bundled scenarios.

The tip digest is a pure function of the scenario, so it pins the canonical
byte format of every message, digest and block the simulation produces. A
change to any of them must show up here.
"""

from pathlib import Path

import pytest

import attestnet
from attestnet.cli import EXIT_OK, main

SCENARIO_DIR = Path(attestnet.__file__).parent / "scenarios"

GOLDEN_TIPS = {
    "healthy-4nodes": "c3a3c7e18b66d59d852c1a243db5b34a4661e8f6e22e95db3c521bf77210d750",
    "clone-attack": "83435f3303135e4927c8422885ecaafd12763729a0f95d69e52ad2b33a792e9e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TIPS))
def test_bundled_scenario_tip(name, tmp_path, capsys):
    code = main(["simulate", str(SCENARIO_DIR / f"{name}.json"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == f"tip: {GOLDEN_TIPS[name]}"
