"""Golden ledger tips of the bundled scenarios.

The tip digest is a pure function of the scenario, so it pins the canonical
byte format of every message, digest and block the simulation produces. A
change to any of them must show up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import attestnet
from attestnet.cli import EXIT_OK, main

from .conftest import NODES_200, one_signed_message_of_each_type, write_generated_scenario

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


@pytest.mark.parametrize("name", sorted(GOLDEN_TIPS))
def test_bundled_scenario_tip_with_nothing_stored(name, nothing_stored, tmp_path, capsys):
    """Stored values are invisible: with every one computed afresh, both
    bundled scenarios keep their pinned tips."""
    test_bundled_scenario_tip(name, tmp_path, capsys)


def test_signed_messages_store_nothing_with_nothing_stored(
        nothing_stored, rng, attester, env, verifier_identity):
    """The members of evidence, endorsements and results reach `model._once`
    through the module when they run, so with nothing stored, signing,
    encoding, decoding and checking a message of each type leaves no stored
    value on it: the tip test above then covers signed messages too."""
    messages = one_signed_message_of_each_type(rng, attester, env, verifier_identity)
    for message in messages:
        decoded = type(message).from_bytes(message.to_bytes())
        assert decoded == message
        assert message.verify_signature() and decoded.verify_signature()
        assert "_memo" not in vars(message) and "_memo" not in vars(decoded)


def test_generated_200_node_tip(tmp_path, monkeypatch, capsys):
    """200 nodes, 20 products of 3 x 4 KiB images, 10 epochs and a
    flip_sw_byte fault, from the benchmark's generator at seed 11: each epoch
    attests the nodes in several batches, so this pins the batched order."""
    path = write_generated_scenario(tmp_path / "scenario.json", monkeypatch, NODES_200, 11)
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().out == (
        "tip: 4badecafee0e4c9fc3258c35f8fcdaf13d0216082b8b392b43284002985bc40e\n")


# Runs `simulate` on one scenario with the helper off (one CPU reported) and
# on with 1, 16 and 64 nodes per batch, each into its own directory.
_RUNS = """
import os, sys
from attestnet import cli, consortium
for cpus, batch in (({0}, 16), ({0, 1}, 1), ({0, 1}, 16), ({0, 1}, 64)):
    os.sched_getaffinity = lambda pid, cpus=cpus: cpus
    consortium.BATCH_NODES = batch
    out = os.path.join(sys.argv[2], f"{len(cpus)}-{batch}")
    assert cli.main(["simulate", sys.argv[1], "--out", out]) == 0
"""


def test_tip_depends_on_the_scenario_alone(tmp_path, monkeypatch):
    """Which process makes a signature check depends on timing, and string
    hashing on `PYTHONHASHSEED`; neither may reach the ledger. A generated
    40-node, 3-epoch scenario with cloned configurations gives the same
    `ledger.hex` under `PYTHONHASHSEED` 0 and 1, with the helper off, and on
    with 1, 16 and 64 nodes per batch."""
    scenario = write_generated_scenario(tmp_path / "scenario.json", monkeypatch,
                                        (40, 2, 1, 32, 3, "clone_config"), 5)
    src = str(Path(attestnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in ("0", "1"):
        run = subprocess.run([sys.executable, "-c", _RUNS, str(scenario), str(tmp_path / seed)],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
        assert run.returncode == 0, run.stderr
    ledgers = {out.read_bytes() for out in tmp_path.glob("*/*/ledger.hex")}
    assert len(list(tmp_path.glob("*/*/ledger.hex"))) == 8
    assert len(ledgers) == 1
