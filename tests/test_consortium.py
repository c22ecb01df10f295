import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from attestnet.consortium import (
    LedgerBlock,
    LedgerRecord,
    SimError,
    audit_digest,
    distribute_policies,
    diversity_metric,
    eligible_nodes,
    export_ledger,
    forge_block,
    import_ledger,
    run_epoch,
    select_validator,
    update_governance,
    verify_chain,
)
from attestnet.model import GeoPoint, ModelError, PolicyRule, digest
from attestnet.scenario import (
    ScenarioError,
    build_universe,
    load_scenario,
    parse_scenario,
)

from .conftest import write_generated_scenario

SCENARIO_DIR = "src/attestnet/scenarios"
CATALOG = (40, 20, 3, 4096, 3, "flip_sw_byte")  # the benchmark's sim-catalog `SimShape`


def base_scenario(**overrides):
    doc = {
        "seed": 99,
        "epochs": 3,
        "epoch_length": 10,
        "fw_min_version": 2,
        "diversity_threshold": 0.5,
        "domains": [{"domain_id": "d1"}],
        "products": [
            {"product_id": "pa", "fw_version": 3, "sw_images": {"img-a": "image a"}},
            {"product_id": "pb", "fw_version": 3, "sw_images": {"img-b": "image b"}},
            {"product_id": "pc", "fw_version": 2, "sw_images": {"img-c": "image c"}},
        ],
        "nodes": [
            {"node_id": "n1", "domain_id": "d1", "product_id": "pa", "stake": 1},
            {"node_id": "n2", "domain_id": "d1", "product_id": "pb", "stake": 3},
            {"node_id": "n3", "domain_id": "d1", "product_id": "pc", "stake": 2},
        ],
    }
    doc.update(overrides)
    return parse_scenario(json.dumps(doc))


def fresh_universe(**overrides):
    universe = build_universe(base_scenario(**overrides))
    distribute_policies(universe)
    return universe


class TestScenarioValidation:
    def test_unknown_domain_rejected(self):
        with pytest.raises(ScenarioError, match="unknown domain"):
            base_scenario(nodes=[{"node_id": "n1", "domain_id": "dX", "product_id": "pa"}])

    def test_unknown_fault_node_rejected(self):
        with pytest.raises(ScenarioError, match="unknown node"):
            base_scenario(faults=[{"tick": 0, "node_id": "zz", "mutation": "change_fw"}])

    def test_missing_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(json.dumps({"epochs": 1}))

    def test_reused_image_name_rejected(self):
        with pytest.raises(ScenarioError, match="reused"):
            base_scenario(
                products=[
                    {"product_id": "pa", "sw_images": {"img": "x"}},
                    {"product_id": "pb", "sw_images": {"img": "y"}},
                ]
            )


class TestDistributePolicies:
    def test_nodes_hold_policies_and_ledger_anchors(self):
        universe = fresh_universe()
        run_epoch(universe)
        records = [r for b in universe.ledger for r in b.records if r.kind == "policy_digest"]
        # consortium policy + domain policy (identical rules but distinct id)
        assert len(records) == 2
        consortium_digest = universe.config.consortium_verifier.policy.digest()
        assert any(r.payload == consortium_digest.value for r in records)

    def test_conflicting_domain_rule_recorded_and_overridden(self):
        """A domain's fw_min_version override is its only rule of its own;
        distributing the policies records one conflict, and the domain
        verifier then holds the consortium's rules."""
        universe = build_universe(base_scenario(
            domains=[{"domain_id": "d1", "fw_min_version": 9}, {"domain_id": "d2"}]))
        consortium_rules = universe.config.consortium_verifier.policy.rules
        d1 = universe.domains["d1"].domain_verifier
        own, *shared = d1.policy.rules
        assert own.rule_id == "fw.min" and own.bound == 9 and own is not consortium_rules[0]
        assert all(a is b for a, b in zip(shared, consortium_rules[1:], strict=True))
        assert universe.domains["d2"].domain_verifier.policy.rules is consortium_rules
        distribute_policies(universe)
        conflicts = [r.payload for r in universe.pending_records if r.kind == "policy.conflict"]
        assert conflicts == [b"d1:fw.min"]
        assert all(a is b for a, b in zip(d1.policy.rules, consortium_rules, strict=True))
        assert d1.policy.rules[0].bound == 2  # consortium parameter wins

    def test_catalog_policies_share_one_rule_set(self, tmp_path, monkeypatch):
        """The benchmark's sim-catalog scenario at seed 1 has a consortium and
        four domain policies of 61 rules each (fw.min and 60 reference_match
        rules). They share one rule set: 61 rules are built, not 305, every
        domain holds the consortium's rules tuple itself, and distributing the
        policies compares no rule field by field (488 comparisons when each
        policy had rules of its own)."""
        counts = {"built": 0, "compared": 0}
        post_init, eq = PolicyRule.__post_init__, PolicyRule.__eq__

        def counting_post_init(self):
            counts["built"] += 1
            post_init(self)

        def counting_eq(self, other):
            counts["compared"] += 1
            return eq(self, other)

        monkeypatch.setattr(PolicyRule, "__post_init__", counting_post_init)
        monkeypatch.setattr(PolicyRule, "__eq__", counting_eq)
        path = write_generated_scenario(tmp_path / "catalog.json", monkeypatch, CATALOG, 1)
        universe = build_universe(load_scenario(path))
        consortium_rules = universe.config.consortium_verifier.policy.rules
        assert len(consortium_rules) == 61 and counts == {"built": 61, "compared": 0}
        distribute_policies(universe)
        assert counts == {"built": 61, "compared": 0}
        assert len(universe.domains) == 4
        for domain in universe.domains.values():
            assert domain.domain_verifier.policy.rules is consortium_rules
        assert not [r for r in universe.pending_records if r.kind == "policy.conflict"]

    def test_domains_with_one_override_share_its_rule(self):
        universe = build_universe(base_scenario(domains=[
            {"domain_id": "d1", "fw_min_version": 9}, {"domain_id": "d2", "fw_min_version": 9}]))
        d1, d2 = (universe.domains[d].domain_verifier.policy.rules for d in ("d1", "d2"))
        assert d1[0] is d2[0] and d1[0].bound == 9
        assert d1[0] is not universe.config.consortium_verifier.policy.rules[0]

    def test_redistribution_idempotent(self):
        universe = fresh_universe()
        before = len([r for r in universe.pending_records if r.kind == "policy_digest"])
        distribute_policies(universe)
        after = len([r for r in universe.pending_records if r.kind == "policy_digest"])
        assert before == after == 2


class TestRunEpoch:
    def test_all_healthy_all_compliant(self):
        universe = fresh_universe()
        report = run_epoch(universe)
        assert set(report.verdicts.values()) == {"compliant"}
        assert set(report.domain_verdicts.values()) == {"compliant"}
        assert report.validator in universe.nodes

    def test_sw_flip_fault_isolates_to_one_node(self):
        universe = fresh_universe(
            faults=[{"tick": 0, "node_id": "n2", "mutation": "flip_sw_byte"}]
        )
        report = run_epoch(universe)
        assert report.verdicts["n2"] == "non_compliant"
        assert report.verdicts["n1"] == report.verdicts["n3"] == "compliant"
        assert "ref.sw.img-b" in universe.nodes["n2"].last_result.reasons

    def test_change_fw_fault(self):
        universe = fresh_universe(
            faults=[{"tick": 0, "node_id": "n1", "mutation": "change_fw", "fw_version": 1}]
        )
        report = run_epoch(universe)
        assert report.verdicts["n1"] == "non_compliant"
        assert "fw.min" in universe.nodes["n1"].last_result.reasons

    def test_geo_fault_with_fence(self):
        fence = {"lat_min": 40.0, "lat_max": 55.0, "lon_min": 5.0, "lon_max": 20.0}
        nodes = [
            {"node_id": "n1", "domain_id": "d1", "product_id": "pa", "geo": [48.0, 11.0, 0.0]},
            {"node_id": "n2", "domain_id": "d1", "product_id": "pb", "geo": [48.5, 11.5, 0.0]},
        ]
        universe = fresh_universe(
            geo_fence=fence,
            nodes=nodes,
            faults=[{"tick": 0, "node_id": "n2", "mutation": "move_geo", "lat": -10.0, "lon": 100.0}],
        )
        report = run_epoch(universe)
        assert report.verdicts["n2"] == "non_compliant"
        assert "geo.fence" in universe.nodes["n2"].last_result.reasons

    def test_audit_digest_on_ledger_recomputes(self):
        universe = fresh_universe()
        run_epoch(universe)
        domain = universe.domains["d1"]
        entries = [e for _, e in domain.audit_log]
        expected = audit_digest("d1", entries)
        anchored = [r for b in universe.ledger for r in b.records if r.kind == "audit_digest"]
        assert anchored and anchored[0].payload == expected.value


TWO_DOMAINS = dict(
    domains=[{"domain_id": "d1"}, {"domain_id": "d2"}, {"domain_id": "idle"}],
    nodes=[
        {"node_id": "n1", "domain_id": "d1", "product_id": "pa", "stake": 1},
        {"node_id": "n2", "domain_id": "d2", "product_id": "pb", "stake": 3},
        {"node_id": "n3", "domain_id": "d1", "product_id": "pc", "stake": 2},
    ],
)


class TestAuditLog:
    """A domain's audit log holds the epoch in progress only; earlier epochs
    are on the ledger as their audit digests."""

    def test_log_holds_its_epoch_and_each_anchored_digest_recomputes(self):
        universe = fresh_universe(**TWO_DOMAINS)
        per_domain = {"d1": 2, "d2": 1, "idle": 0}
        for epoch in range(4):
            report = run_epoch(universe)
            assert report.block_digest == universe.ledger[-1].block_digest
            logs = {d: universe.domains[d].audit_log for d in per_domain}
            assert {d: len(log) for d, log in logs.items()} == {
                d: 4 * n for d, n in per_domain.items()}
            assert {tick for log in logs.values() for tick, _ in log} == {report.tick}
            anchored = [r.payload for r in universe.ledger[-1].records if r.kind == "audit_digest"]
            assert anchored == [audit_digest(d, [e for _, e in logs[d]]).value
                                for d in ("d1", "d2")], epoch
        anchored = [r.payload for b in universe.ledger for r in b.records
                    if r.kind == "audit_digest"]
        assert len(set(anchored)) == 8  # every epoch anchored its own entries

    def test_append_below_the_last_tick_raises_across_epochs(self):
        universe = fresh_universe()
        domain = universe.domains["d1"]
        run_epoch(universe)
        with pytest.raises(SimError, match="tick-ordered"):
            domain.append_audit(-1, b"before the epoch")
        run_epoch(universe)
        assert domain.last_audit_tick == 10
        with pytest.raises(SimError, match="tick-ordered"):
            domain.append_audit(9, b"late")
        domain.audit_log.clear()  # as the next epoch's start does
        with pytest.raises(SimError, match="tick-ordered"):
            domain.append_audit(9, b"late, after the boundary")
        assert domain.audit_log == []
        domain.append_audit(10, b"same tick")
        domain.append_audit(20, b"later")
        assert [tick for tick, _ in domain.audit_log] == [10, 20]

    def test_log_length_stays_constant_over_a_long_run(self):
        universe = fresh_universe(epochs=100)
        domain = universe.domains["d1"]
        lengths = set()
        for _ in range(100):
            run_epoch(universe)
            lengths.add(len(domain.audit_log))
        assert lengths == {12}
        assert len(universe.ledger) == 100


class TestValidatorSelection:
    def test_single_eligible_always_selected(self):
        universe = fresh_universe(
            nodes=[{"node_id": "solo", "domain_id": "d1", "product_id": "pa", "stake": 4}]
        )
        run_epoch(universe)
        for seed in range(100):
            assert select_validator(universe, seed) == "solo"

    def test_stake_proportionality(self):
        universe = fresh_universe(
            nodes=[
                {"node_id": "a", "domain_id": "d1", "product_id": "pa", "stake": 1},
                {"node_id": "b", "domain_id": "d1", "product_id": "pb", "stake": 3},
            ]
        )
        run_epoch(universe)
        rng = random.Random(424242)
        hits = {"a": 0, "b": 0}
        for _ in range(10_000):
            hits[select_validator(universe, rng.getrandbits(64))] += 1
        assert abs(hits["a"] / 10_000 - 0.25) < 0.03
        assert abs(hits["b"] / 10_000 - 0.75) < 0.03

    def test_non_compliant_never_selected(self):
        universe = fresh_universe(
            faults=[{"tick": 0, "node_id": "n2", "mutation": "flip_sw_byte"}]
        )
        run_epoch(universe)
        rng = random.Random(7)
        assert all(
            select_validator(universe, rng.getrandbits(64)) != "n2" for _ in range(10_000)
        )

    def test_no_eligible_outcome(self):
        universe = fresh_universe()
        # no epoch run yet: no results, nobody eligible
        assert eligible_nodes(universe) == []
        assert select_validator(universe, 1) is None

    def test_epoch_without_eligible_node_forges_no_block(self):
        # every node is below fw_min_version in epoch 0 and upgraded at tick 10
        universe = fresh_universe(
            products=[{"product_id": f"p{x}", "fw_version": 1, "sw_images": {f"img-{x}": x}}
                      for x in "abc"],
            faults=[{"tick": 10, "node_id": n, "mutation": "change_fw", "fw_version": 3}
                    for n in ("n1", "n2", "n3")],
        )
        first = run_epoch(universe)
        assert set(first.verdicts.values()) == {"non_compliant"}
        assert first.validator is None and first.block_digest is None
        assert "  validator (none eligible)" in first.render().splitlines()
        assert universe.ledger == []

        second = run_epoch(universe)
        assert second.validator is not None
        [block] = universe.ledger
        assert (block.height, block.tick, block.forger) == (0, 10, second.validator)
        assert second.block_digest == block.block_digest
        kinds = [rec.kind for rec in block.records]
        assert kinds.count("no_eligible") == 1
        # epoch 0's records, its no_eligible record, then epoch 1's
        epoch = ["result_digest"] * 3 + ["audit_digest"]
        assert kinds == ["policy_digest"] * 2 + epoch + ["no_eligible"] + epoch

    def test_stale_result_not_eligible(self):
        universe = fresh_universe()
        run_epoch(universe)
        universe.clock += universe.config.epoch_length + 1
        assert eligible_nodes(universe) == []


class TestLedger:
    def test_genesis_block_conventions(self):
        universe = fresh_universe()
        run_epoch(universe)
        genesis = universe.ledger[0]
        assert genesis.height == 0
        assert genesis.prev_digest.value == b"\x00" * 32
        assert digest(genesis.content_bytes()) == genesis.block_digest

    def test_export_import_round_trip(self):
        universe = fresh_universe()
        for _ in range(2):
            run_epoch(universe)
        text = export_ledger(universe.ledger)
        assert import_ledger(text) == universe.ledger
        assert verify_chain(import_ledger(text)) is None

    def test_chain_verification_catches_tamper(self):
        universe = fresh_universe()
        for _ in range(2):
            run_epoch(universe)
        blocks = list(universe.ledger)
        tampered = LedgerBlock(
            blocks[1].height, blocks[1].prev_digest,
            blocks[1].records + (LedgerRecord("policy_digest", b"inserted"),),
            blocks[1].forger, blocks[1].tick, blocks[1].block_digest,
        )
        assert verify_chain([blocks[0], tampered]) is not None


class TestDiversityAndGovernance:
    def test_all_distinct(self):
        universe = fresh_universe()
        assert diversity_metric(universe) == 1.0

    def test_counting(self):
        # 4 nodes with configs {A, A, B, C} -> 0.75
        universe = fresh_universe(
            products=[
                {"product_id": "pa", "fw_version": 3, "sw_images": {"img-a": "image a"}},
                {"product_id": "pb", "fw_version": 3, "sw_images": {"img-b": "image b"}},
                {"product_id": "pc", "fw_version": 2, "sw_images": {"img-c": "image c"}},
            ],
            nodes=[
                {"node_id": "n1", "domain_id": "d1", "product_id": "pa", "stake": 1},
                {"node_id": "n2", "domain_id": "d1", "product_id": "pa", "stake": 1},
                {"node_id": "n3", "domain_id": "d1", "product_id": "pb", "stake": 1},
                {"node_id": "n4", "domain_id": "d1", "product_id": "pc", "stake": 1},
            ],
        )
        assert diversity_metric(universe) == 0.75

    def test_all_identical(self):
        universe = fresh_universe(
            nodes=[
                {"node_id": f"n{i}", "domain_id": "d1", "product_id": "pa", "stake": 1}
                for i in range(4)
            ]
        )
        assert diversity_metric(universe) == 0.25

    def test_baseline_majority_51(self):
        universe = fresh_universe()
        assert update_governance(universe, diversity_metric(universe)) == 51

    def test_low_diversity_raises_to_70(self):
        universe = fresh_universe(
            nodes=[
                {"node_id": f"n{i}", "domain_id": "d1", "product_id": "pa", "stake": 1}
                for i in range(4)
            ]
        )
        assert update_governance(universe, diversity_metric(universe)) == 70
        governance = [r for r in universe.pending_records if r.kind == "governance"]
        assert governance

    def test_threshold_boundary_strict(self):
        # diversity exactly at the threshold keeps the baseline
        universe = fresh_universe(
            diversity_threshold=0.5,
            nodes=[
                {"node_id": "n1", "domain_id": "d1", "product_id": "pa", "stake": 1},
                {"node_id": "n2", "domain_id": "d1", "product_id": "pa", "stake": 1},
                {"node_id": "n3", "domain_id": "d1", "product_id": "pb", "stake": 1},
                {"node_id": "n4", "domain_id": "d1", "product_id": "pb", "stake": 1},
            ],
        )
        assert diversity_metric(universe) == 0.5
        assert update_governance(universe, diversity_metric(universe)) == 51


class TestHonestSubset:
    """Only the honest subset forges: nodes whose latest consortium result is
    compliant, fresh and from inside the geo fence."""

    def test_stale_or_fenced_out_node_never_forges(self):
        universe = fresh_universe(
            geo_fence={"lat_min": -1.0, "lat_max": 1.0, "lon_min": -1.0, "lon_max": 1.0}
        )
        run_epoch(universe)
        stale = universe.nodes["n2"].last_result
        run_epoch(universe)
        universe.nodes["n2"].last_result = stale  # n2 missed the latest appraisal
        n3 = universe.nodes["n3"]
        n3.target_env = replace(n3.target_env, geo=GeoPoint(10.0, 10.0, 0.0))  # moved out
        assert [n.node_id for n in eligible_nodes(universe)] == ["n1"]
        for round_seed in range(200):
            assert select_validator(universe, round_seed) == "n1"


class TestDeterminism:
    @pytest.mark.parametrize("name", ["healthy-4nodes", "clone-attack"])
    def test_identical_seed_identical_ledger(self, name):
        def run():
            cfg = load_scenario(f"{SCENARIO_DIR}/{name}.json")
            universe = build_universe(cfg)
            distribute_policies(universe)
            for _ in range(cfg.epochs):
                run_epoch(universe)
            return export_ledger(universe.ledger)

        assert run() == run()


@st.composite
def fault_schedules(draw):
    """1 to 8 nodes on products with and without sw images, and a schedule of
    every fault kind, clones of imageless nodes among them."""
    epochs = draw(st.integers(1, 3))
    kinds = st.sampled_from(["imaged", "bare"])
    nodes = [{"node_id": f"n{i}", "domain_id": "d1", "product_id": draw(kinds)}
             for i in range(draw(st.integers(1, 8)))]
    node_ids = st.sampled_from([node["node_id"] for node in nodes])
    faults = st.fixed_dictionaries({
        "node_id": node_ids, "from_node": node_ids, "tick": st.integers(0, 10 * epochs - 1),
        "mutation": st.sampled_from(["flip_sw_byte", "change_fw", "move_geo", "clone_config"]),
        "fw_version": st.integers(0, 3), "lat": st.floats(-90, 90), "lon": st.floats(-180, 180),
    })
    return {"seed": 5, "epochs": epochs, "domains": [{"domain_id": "d1"}], "nodes": nodes,
            "products": [{"product_id": "imaged", "sw_images": {"os": "os image"}},
                         {"product_id": "bare", "sw_images": {}}],
            "faults": draw(st.lists(faults, max_size=6))}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(doc=fault_schedules())
def test_a_universe_that_builds_runs_every_epoch(doc):
    """A fault that cannot apply fails when the universe is built, never in a
    later epoch, so a run that starts also ends."""
    try:
        universe = build_universe(parse_scenario(json.dumps(doc)))
    except (SimError, ScenarioError, ModelError):
        return
    distribute_policies(universe)
    for _ in range(doc["epochs"]):
        run_epoch(universe)
