"""The benchmark in `perfbench/` times and counts attestnet by rebinding
functions and methods by name, and reads a few attributes of the simulation
state. Each test here resolves those names the way the benchmark does, so a
rename or deletion that would break the benchmark fails the suite instead."""

import ast
import importlib
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from attestnet import cli, consortium, scenario

from .conftest import one_signed_message_of_each_type

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tables(name: str, *tables: str) -> list:
    """The (name, module, attribute) rows of the named module-level tuples
    in `perfbench/<name>.py`, read from its source."""
    tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
    values = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in tables
    }
    assert sorted(values) == sorted(tables)
    return [row for table in tables for row in values[table]]


BINDINGS = (_tables("tracing", "LAYERS", "COUNTED")
            + _tables("workloads", "SIM_STAGES", "FLOW_STAGES", "SUPPLY_STAGES"))


@pytest.mark.parametrize("name, module, path", BINDINGS,
                         ids=[f"{module}:{path}" for _, module, path in BINDINGS])
def test_binding_is_own_attribute(name, module, path):
    """`tracing.Tracer.installed` replaces `vars(owner)[attr]`, so the
    attribute must sit in the module's or the class's own namespace, not be
    inherited."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner)[part]
    assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_simulate_builds_through_the_scenario_module(tmp_path, monkeypatch):
    """`workloads.run_sim` swaps `scenario.build_universe` to keep the
    universe, then reads each domain's audit log: its
    `consortium.audit_log_bytes` gauge is the last epoch's audit bytes."""
    built = []
    build = scenario.build_universe
    monkeypatch.setattr(scenario, "build_universe", lambda cfg: built.append(build(cfg)) or built[-1])
    path = Path(scenario.__file__).parent / "scenarios" / "healthy-4nodes.json"
    assert cli.main(["simulate", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(built) == 1
    assert "audit_log" in {f.name for f in fields(consortium.Domain)}
    universe = built[0]
    assert universe.epoch_index > 1
    last_tick = universe.clock - universe.config.epoch_length
    for domain in universe.domains.values():
        nodes = sum(node.domain_id == domain.domain_id for node in universe.nodes.values())
        assert domain.audit_log
        assert len(domain.audit_log) == 4 * nodes
        assert {tick for tick, _ in domain.audit_log} == {last_tick}


def _perfbench_module(name: str, monkeypatch):
    """`perfbench/<name>.py`, imported under a name of its own for this test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_supply_chain_unit_matches_the_benchmark_oracle(monkeypatch):
    """One supply-chain unit (4,000 registrations, 2,000 verifications with
    corrupted, altered and tampered shares), checked by the benchmark's own
    oracle of `verify_product`'s outcomes."""
    workloads = _perfbench_module("workloads", monkeypatch)
    tracing = _perfbench_module("tracing", monkeypatch)
    unit = workloads.run_supply(workloads.generate_supply(1), tracing.Tracer())
    assert unit.failed == 0


def test_flows_unit_matches_the_benchmark_oracle(monkeypatch):
    """One flows unit (500 passport and background-check flows against one
    verifier, with replayed, tampered and stale shares), checked by the
    benchmark's own oracle of each flow's decision."""
    workloads = _perfbench_module("workloads", monkeypatch)
    tracer = _perfbench_module("tracing", monkeypatch).Tracer()
    with tracer.installed(workloads.FLOW_STAGES):
        unit = workloads.run_flows(workloads.generate_flows(1), tracer)
    assert unit.attempted > 0
    assert unit.failed == 0


@pytest.mark.parametrize("shape", ["sim-catalog", "sim-fleet"])
def test_sim_unit_matches_the_benchmark_oracle(shape, tmp_path, monkeypatch):
    """One unit of each sim workload (a whole `attestnet simulate`: 40 nodes
    and 20 products, or 600 nodes with cloned configurations, whose signature
    checks fill 38 helper batches per epoch on a host with two CPUs), checked
    by the benchmark's own oracle of every verdict, each epoch's diversity
    and majority, and the exported chain. The unit counts its epochs from the
    spans of `SIM_STAGES`, so those are installed."""
    workloads = _perfbench_module("workloads", monkeypatch)
    tracer = _perfbench_module("tracing", monkeypatch).Tracer()
    inputs = workloads.generate_sim(workloads.SHAPES[shape], 1)
    path = tmp_path / "scenario.json"
    path.write_text(inputs.scenario_text, encoding="utf-8")
    with tracer.installed(workloads.SIM_STAGES):
        unit = workloads.run_sim(path, tmp_path / "out", inputs, tracer)
    assert unit.attempted > 0
    assert unit.failed == 0


def test_every_binding_wraps_and_restores(monkeypatch, rng, attester, env, verifier_identity):
    """With every `LAYERS` and `COUNTED` binding wrapped, as `run.py --trace
    1` wraps them, one flows unit still matches the oracle, a message of each
    signed type decodes through its wrapped `from_bytes` (one `model.decode`
    span each), and leaving restores every binding. A `from_bytes` that the
    tracer cannot wrap, such as a classmethod, fails here when it is called."""
    workloads = _perfbench_module("workloads", monkeypatch)
    tracing = _perfbench_module("tracing", monkeypatch)

    def bound():
        return [vars(owner)[attr] for owner, attr in (
            tracing._resolve(module, path) for _, module, path in tracing.LAYERS + tracing.COUNTED)]

    originals = bound()
    messages = one_signed_message_of_each_type(rng, attester, env, verifier_identity)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.LAYERS, tracing.COUNTED):
        unit = workloads.run_flows(workloads.generate_flows(1), tracer)
        decodes = sum(span[0] == "model.decode" for span in tracer.spans)
        for message in messages:
            decoded = type(message).from_bytes(message.to_bytes())
            assert decoded == message and decoded.verify_signature()
    assert unit.attempted > 0
    assert unit.failed == 0
    assert sum(span[0] == "model.decode" for span in tracer.spans) == decodes + len(messages)
    assert bound() == originals
