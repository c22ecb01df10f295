import copy
import json
import math
import random
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from attestnet import cli
from attestnet.cli import (
    EXIT_INTEGRITY,
    EXIT_NON_COMPLIANT,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    EXIT_WRITE,
    load_identity,
    main,
)
from attestnet.model import (
    ClaimSet,
    ClaimValue,
    EvidencePolicy,
    Nonce,
    PolicyRule,
    Role,
    RuleKind,
    SignerIdentity,
    digest,
    make_endorsement,
    new_nonce,
)
from attestnet.consortium import GENESIS_PREV, LedgerBlock, LedgerRecord, SimError, export_ledger
from attestnet.scenario import ScenarioError, build_universe, parse_scenario

SCENARIO_DIR = Path("src/attestnet/scenarios")


class TestKeygen:
    def test_file_reloads_same_key(self, tmp_path, capsys):
        out = tmp_path / "id.bin"
        assert main(["keygen", "attester", "nodeA", "--out", str(out), "--seed", "1"]) == EXIT_OK
        identity = load_identity(out)
        assert identity.entity.public_key.hex() in capsys.readouterr().out

    def test_same_seed_same_keys(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        main(["keygen", "verifier", "v", "--out", str(a), "--seed", "9"])
        main(["keygen", "verifier", "v", "--out", str(b), "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_name_usage_error(self, tmp_path):
        assert main(["keygen", "attester", "", "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_bad_role_usage_error(self, tmp_path):
        assert main(["keygen", "wizard", "n", "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_name_not_utf8_usage_error(self, tmp_path, capsys):
        # the shell's $'n\xff' reaches argv as 'n\udcff' (surrogateescape)
        out = tmp_path / "k.id"
        assert main(["keygen", "attester", "n\udcff", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "keygen: name 'n\\udcff' is not valid UTF-8\n"
        assert captured.out == ""
        assert not out.exists()


@pytest.fixture
def fixture_files(tmp_path, attester, env, rng):
    nonce = new_nonce(0, rng)
    evidence = attester.generate_evidence(env, nonce, 0)
    policy = EvidencePolicy(
        "cli-policy",
        (PolicyRule("ref.os", RuleKind.REFERENCE_MATCH, "sw.os.digest"),),
        freshness_window=10,
    )
    good_refs = ClaimSet({"sw.os.digest": ClaimValue.of_digest(digest(b"os image v3"))})
    bad_refs = ClaimSet({"sw.os.digest": ClaimValue.of_digest(digest(b"different image"))})
    endorser = SignerIdentity.create(Role.ENDORSER, "cli-endorser", rng)

    paths = {
        "evidence": tmp_path / "evidence.bin",
        "policy": tmp_path / "policy.bin",
        "good": tmp_path / "good.end",
        "bad": tmp_path / "bad.end",
    }
    paths["evidence"].write_bytes(evidence.to_bytes())
    paths["policy"].write_bytes(policy.to_bytes())
    paths["good"].write_bytes(make_endorsement(endorser, "p", good_refs, 0).to_bytes())
    paths["bad"].write_bytes(make_endorsement(endorser, "p", bad_refs, 0).to_bytes())
    return paths


class TestAppraise:
    def test_matching_fixture_exit_0(self, fixture_files):
        code = main([
            "appraise", str(fixture_files["evidence"]), str(fixture_files["policy"]),
            "--endorsement", str(fixture_files["good"]),
        ])
        assert code == EXIT_OK

    def test_mismatched_digest_exit_3(self, fixture_files, capsys):
        code = main([
            "appraise", str(fixture_files["evidence"]), str(fixture_files["policy"]),
            "--endorsement", str(fixture_files["bad"]),
        ])
        assert code == EXIT_NON_COMPLIANT
        assert "ref.os" in capsys.readouterr().out

    def test_missing_endorsement_exit_4(self, fixture_files):
        code = main([
            "appraise", str(fixture_files["evidence"]), str(fixture_files["policy"]),
        ])
        assert code == EXIT_UNKNOWN

    def test_malformed_input_exit_2(self, tmp_path, fixture_files):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\xff\x00garbage")
        code = main(["appraise", str(junk), str(fixture_files["policy"])])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("clock", ["-1", str(2**64)])
    def test_clock_outside_u64_exit_2(self, fixture_files, clock, capsys):
        code = main([
            "appraise", str(fixture_files["evidence"]), str(fixture_files["policy"]),
            "--endorsement", str(fixture_files["good"]), "--clock", clock,
        ])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "appraise: --clock must be an integer in [0, 2**64)\n"
        assert captured.out == ""

    def test_clock_at_the_u64_limit_runs(self, tmp_path, fixture_files, capsys):
        from attestnet.model import AttestationResult

        out = tmp_path / "result.bin"
        code = main([
            "appraise", str(fixture_files["evidence"]), str(fixture_files["policy"]),
            "--endorsement", str(fixture_files["good"]), "--clock", str(2**64 - 1),
            "--out", str(out),
        ])
        assert code in (EXIT_OK, EXIT_NON_COMPLIANT, EXIT_UNKNOWN)
        assert capsys.readouterr().out.startswith("verdict: ")
        assert AttestationResult.from_bytes(out.read_bytes()).created_at == 2**64 - 1

    def test_unwritable_out_exit_1(self, tmp_path, fixture_files, capsys):
        out = tmp_path / "missing" / "result.bin"
        code = main([
            "appraise", str(fixture_files["evidence"]), str(fixture_files["policy"]),
            "--endorsement", str(fixture_files["good"]), "--out", str(out),
        ])
        assert code == EXIT_WRITE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"appraise: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert not out.parent.exists()

    def test_result_file_written(self, tmp_path, fixture_files):
        from attestnet.model import AttestationResult, Verdict

        out = tmp_path / "result.bin"
        main([
            "appraise", str(fixture_files["evidence"]), str(fixture_files["policy"]),
            "--endorsement", str(fixture_files["good"]), "--out", str(out),
        ])
        result = AttestationResult.from_bytes(out.read_bytes())
        assert result.verdict == Verdict.COMPLIANT and result.verify_signature()


class TestAppraiseVerifier:
    """`--verifier IDENTITY` signs the result with a `keygen` identity; without
    it, the result is signed with the key that `--seed` builds."""

    def appraise(self, files, tmp_path, *flags):
        out = tmp_path / "result.bin"
        code = main(["appraise", str(files["evidence"]), str(files["policy"]),
                     "--endorsement", str(files["good"]), "--out", str(out), *flags])
        return code, out

    def test_signs_with_the_identity(self, fixture_files, tmp_path, capsys):
        from attestnet.model import AttestationResult

        identity = tmp_path / "verifier.id"
        assert main(["keygen", "verifier", "v1", "--out", str(identity), "--seed", "3"]) == EXIT_OK
        code, out = self.appraise(fixture_files, tmp_path, "--verifier", str(identity))
        assert code == EXIT_OK
        result = AttestationResult.from_bytes(out.read_bytes())
        assert result.verifier == load_identity(identity).entity
        assert result.verify_signature()

    def test_without_it_the_seed_key_signs(self, fixture_files, tmp_path):
        from attestnet.model import AttestationResult

        code, out = self.appraise(fixture_files, tmp_path, "--seed", "7")
        assert code == EXIT_OK
        expected = SignerIdentity.create(Role.VERIFIER, "cli-verifier", random.Random(7))
        assert AttestationResult.from_bytes(out.read_bytes()).verifier == expected.entity

    def test_unreadable_identity_exit_2(self, fixture_files, tmp_path, capsys):
        missing = tmp_path / "missing.id"
        code, out = self.appraise(fixture_files, tmp_path, "--verifier", str(missing))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"appraise: cannot read identity {missing}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("data", [b"", b"\xff\x00garbage"])
    def test_malformed_identity_exit_2(self, fixture_files, tmp_path, data, capsys):
        identity = tmp_path / "verifier.id"
        identity.write_bytes(data)
        code, out = self.appraise(fixture_files, tmp_path, "--verifier", str(identity))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"appraise: cannot read identity {identity}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    def test_identity_of_another_role_exit_2(self, fixture_files, tmp_path, capsys):
        identity = tmp_path / "node.id"
        assert main(["keygen", "attester", "nodeA", "--out", str(identity), "--seed", "1"]) == EXIT_OK
        capsys.readouterr()
        code, out = self.appraise(fixture_files, tmp_path, "--verifier", str(identity))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"appraise: {identity} is not a verifier identity (role attester)\n"
        assert captured.out == ""
        assert not out.exists()


class TestChallengeTick:
    """`--nonce HEX:TICK` gives the challenge's tick, so freshness counts from
    when the challenge was issued, not from the tick the evidence echoes."""

    VALUE = bytes(range(16))

    @pytest.fixture
    def late_echo(self, tmp_path, attester, env):
        """Evidence echoing the challenge's value with the later tick 150,
        and a policy with a freshness window of 10."""
        evidence = attester.generate_evidence(env, Nonce(self.VALUE, 150), 150)
        policy = EvidencePolicy("cli-policy", (), freshness_window=10)
        paths = (tmp_path / "evidence.bin", tmp_path / "policy.bin")
        paths[0].write_bytes(evidence.to_bytes())
        paths[1].write_bytes(policy.to_bytes())
        return [str(path) for path in paths]

    def appraise(self, files, nonce):
        return main(["appraise", *files, "--nonce", nonce, "--clock", "150"])

    def test_a_late_echo_is_neither_the_nonce_nor_fresh(self, late_echo, capsys):
        assert self.appraise(late_echo, f"{self.VALUE.hex()}:100") == EXIT_NON_COMPLIANT
        captured = capsys.readouterr()
        assert captured.out == "verdict: non_compliant\nnonce\nstale\n"
        assert captured.err == ""

    def test_the_honest_echo_is_compliant(self, late_echo, capsys):
        assert self.appraise(late_echo, f"{self.VALUE.hex()}:150") == EXIT_OK
        assert capsys.readouterr() == ("verdict: compliant\n", "")

    def test_a_bare_value_takes_the_echoed_tick_and_says_so(self, late_echo, capsys):
        assert self.appraise(late_echo, self.VALUE.hex()) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "verdict: compliant\n"
        assert captured.err.count("\n") == 1
        assert "no tick" in captured.err

    @pytest.mark.parametrize("tick", ["-1", str(2**64), "x", "1.5", ""])
    def test_a_tick_outside_u64_exits_2(self, late_echo, tick, capsys):
        assert self.appraise(late_echo, f"{self.VALUE.hex()}:{tick}") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("appraise: bad nonce: ")
        assert captured.err.count("\n") == 1


class TestSimulate:
    def test_healthy_scenario(self, tmp_path, capsys):
        code = main([
            "simulate", str(SCENARIO_DIR / "healthy-4nodes.json"), "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK
        reports = (tmp_path / "o" / "epoch_reports.txt").read_text()
        assert "majority 51" in reports and "majority 70" not in reports
        assert "non_compliant" not in reports

    def test_clone_attack_switches_governance(self, tmp_path):
        code = main([
            "simulate", str(SCENARIO_DIR / "clone-attack.json"), "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK
        reports = (tmp_path / "o" / "epoch_reports.txt").read_text()
        assert "majority 70" in reports

    def test_same_scenario_identical_tip(self, tmp_path, capsys):
        tips = []
        for d in ("a", "b"):
            main([
                "simulate", str(SCENARIO_DIR / "healthy-4nodes.json"),
                "--out", str(tmp_path / d),
            ])
            tips.append(capsys.readouterr().out.strip())
        assert tips[0] == tips[1]
        assert (tmp_path / "a" / "ledger.hex").read_text() == (
            tmp_path / "b" / "ledger.hex"
        ).read_text()

    # Faults listed out of order, where order matters: at tick 12, n4 clones
    # n1 after n1's firmware change (node order), and at tick 18 n2 clones n3
    # after n3's change at tick 14 (tick order).
    FAULTS_OUT_OF_ORDER = [
        {"tick": 25, "node_id": "n1", "mutation": "flip_sw_byte"},
        {"tick": 18, "node_id": "n2", "mutation": "clone_config", "from_node": "n3"},
        {"tick": 12, "node_id": "n4", "mutation": "clone_config", "from_node": "n1"},
        {"tick": 14, "node_id": "n3", "mutation": "change_fw", "fw_version": 1},
        {"tick": 12, "node_id": "n1", "mutation": "change_fw", "fw_version": 1},
        {"tick": 3, "node_id": "n3", "mutation": "move_geo", "lat": 10.0, "lon": 20.0},
    ]

    def test_faults_apply_in_tick_and_node_order(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "healthy-4nodes.json").read_text())
        ledgers = []
        for name, faults in (("listed", self.FAULTS_OUT_OF_ORDER),
                             ("sorted", sorted(self.FAULTS_OUT_OF_ORDER,
                                               key=lambda f: (f["tick"], f["node_id"])))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**doc, "faults": faults}))
            assert main(["simulate", str(path), "--out", str(tmp_path / name)]) == EXIT_OK
            assert capsys.readouterr().out == (
                "tip: 157fe4cdba1f520ba9857b0f65c6b1933cc4b94d2fb1cc0ce78fd087f55b5cd2\n")
            ledgers.append((tmp_path / name / "ledger.hex").read_bytes())
            reports = (tmp_path / name / "epoch_reports.txt").read_text().split("\n\n")
            # in epoch 1 every node runs firmware 1, below the minimum of 2
            assert reports[1].count("consortium=non_compliant") == 4
        assert ledgers[0] == ledgers[1]

    def test_out_naming_a_file_exit_1(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        code = main(["simulate", str(SCENARIO_DIR / "healthy-4nodes.json"), "--out", str(out)])
        assert code == EXIT_WRITE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"simulate: cannot write {out}: ")
        assert out.read_text() == "not a directory"

    def test_invalid_scenario_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"epochs": 1}')
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "seed" in capsys.readouterr().err


HEALTHY = json.loads((SCENARIO_DIR / "healthy-4nodes.json").read_text())


def _set(path, value):
    """A copy of the healthy scenario with the field at `path` replaced."""
    def edit(doc):
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    return edit


def _edits(*edits):
    """The edits applied in turn."""
    def edit(doc):
        for one in edits:
            one(doc)
    return edit


BAD_SCENARIOS = {
    # each raised or exited 0 before: ValueError, ModelError x3, SimError,
    # exit 0 with an empty ledger x2, a fault silently ignored
    "fw_version_text": (
        _set(("products", 0, "fw_version"), "x"),
        "product srv-a: fw_version must be an integer in [-9223372036854775808, 2**63)",
    ),
    "latitude_100": (
        _set(("nodes", 0, "geo", 0), 100.0),
        "node n1: latitude 100.0 outside [-90, 90]",
    ),
    "negative_stake": (
        _set(("nodes", 0, "stake"), -3),
        "node n1: stake must be an integer in [0, 2**63)",
    ),
    "majority_30": (
        _set(("majority_parameter",), 30),
        "scenario: majority_parameter must be an integer in [51, 100]",
    ),
    "duplicate_domain": (
        lambda doc: doc["domains"].append({"domain_id": "d2"}),
        "domain d2: domain_id defined more than once",
    ),
    "nan_fence": (
        _set(("geo_fence",), {"lat_min": math.nan, "lat_max": 90.0,
                              "lon_min": -180.0, "lon_max": 180.0}),
        "geo_fence: lat_min must be a finite number",
    ),
    "negative_epochs": (
        _set(("epochs",), -5),
        "scenario: epochs must be an integer in [0, 2**63)",
    ),
    "negative_fault_tick": (
        _set(("faults",), [{"node_id": "n1", "mutation": "change_fw",
                            "fw_version": 1, "tick": -4}]),
        "fault on n1: tick must be an integer in [0, 2**63)",
    ),
    # raised struct.error before: the epoch clock passed the U64 range
    "epoch_length_past_u64_clock": (
        _set(("epoch_length",), 2**63 - 1),
        "scenario: epoch_length * epochs must be at most 2**64",
    ),
    "zero_epoch_length": (
        _set(("epoch_length",), 0),
        "scenario: epoch_length must be an integer in [1, 2**63)",
    ),
    "negative_epoch_length": (
        _set(("epoch_length",), -3),
        "scenario: epoch_length must be an integer in [1, 2**63)",
    ),
    # raised UnicodeEncodeError before: `json` reads a lone surrogate from a
    # \ud800 escape, and such a string has no UTF-8 encoding
    "node_id_lone_surrogate": (
        _set(("nodes", 0, "node_id"), "n\ud800"),
        "node: node_id 'n\\ud800' is not valid UTF-8",
    ),
    "image_name_lone_surrogate": (
        _set(("products", 0, "sw_images"), {"\ud800": "os image"}),
        "product srv-a: sw_images name '\\ud800' is not valid UTF-8",
    ),
    "image_content_lone_surrogate": (
        _set(("products", 0, "sw_images"), {"os": "image \udfff"}),
        "product srv-a: sw_images['os'] is not valid UTF-8",
    ),
    # exited 2 only in the fault's epoch, after every earlier epoch had run
    "flip_without_images": (
        _edits(_set(("products", 0, "sw_images"), {}),
               _set(("faults",), [{"node_id": "n1", "mutation": "flip_sw_byte", "tick": 25}])),
        "fault on n1: flip_sw_byte at tick 25 finds no sw images to flip",
    ),
    "flip_on_a_clone_without_images": (
        _edits(_set(("products", 0, "sw_images"), {}),
               _set(("faults",), [
                   {"node_id": "n2", "mutation": "flip_sw_byte", "tick": 25},
                   {"node_id": "n2", "mutation": "clone_config", "from_node": "n1", "tick": 5},
               ])),
        "fault on n2: flip_sw_byte at tick 25 finds no sw images to flip",
    ),
    # `consortium.faulted` is the one place that names the mutations; the
    # dry run of the faults refuses an unknown one before any epoch runs
    "unknown_mutation": (
        _set(("faults",), [{"node_id": "n1", "mutation": "melt", "tick": 25}]),
        "fault on n1: unknown mutation 'melt'",
    ),
    # exited 0 before: the later definition built the nodes, both were endorsed
    "duplicate_product": (
        lambda doc: doc["products"].append(
            {"product_id": "srv-a", "fw_version": 1, "sw_images": {"other-img": "other"}}),
        "product srv-a: product_id defined more than once",
    ),
    "duplicate_node": (
        lambda doc: doc["nodes"].append(dict(doc["nodes"][1], node_id="n1")),
        "node n1: node_id defined more than once",
    ),
    "raised_majority_below_majority": (
        _set(("majority_parameter",), 80),  # the scenario's raised_majority is 70
        "scenario: raised_majority must be at least majority_parameter",
    ),
    # exited 0 before: the raised majority had no upper bound
    "raised_majority_150": (
        _set(("raised_majority",), 150),
        "scenario: raised_majority must be an integer in [51, 100]",
    ),
    "diversity_threshold_0": (
        _set(("diversity_threshold",), 0),
        "scenario: diversity_threshold must be in (0, 1]",
    ),
    "no_nodes": (
        _set(("nodes",), []),
        "scenario: nodes must list at least one node",
    ),
}


def _simulate(tmp_path, doc) -> int:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return main(["simulate", str(path), "--out", str(tmp_path / "o")])


def test_main_shares_one_parser_and_runs_the_command_bound_when_it_runs(tmp_path, monkeypatch,
                                                                       capsys):
    """The parser is built once per process, and `main` looks up `cmd_<name>`
    as it runs the command, so a command patched after the first call (as the
    benchmark's tracing does) is the one that runs."""
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parse, parsed = parser.parse_args, []
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: parsed.append(argv) or parse(argv))
    scenario = str(SCENARIO_DIR / "healthy-4nodes.json")
    assert main(["simulate", scenario, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert capsys.readouterr().out.startswith("tip: ")
    ran = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: ran.append(args.out) or 42)
    assert main(["simulate", scenario, "--out", str(tmp_path / "b")]) == 42
    assert ran == [str(tmp_path / "b")] and len(parsed) == 2
    assert not (tmp_path / "b").exists()


class TestBadScenario:
    @pytest.mark.parametrize("name", sorted(BAD_SCENARIOS))
    def test_exit_2_without_output(self, name, tmp_path, capsys):
        edit, message = BAD_SCENARIOS[name]
        doc = copy.deepcopy(HEALTHY)
        edit(doc)
        assert _simulate(tmp_path, doc) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"simulate: {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value, named, message", [
        (("products", 0, "fw_version"), "x", "fw_version",
         "product srv-a: fw_version must be an integer in [-9223372036854775808, 2**63)"),
        (("nodes", 0, "geo", 0), 100.0, "latitude", "node n1: latitude 100.0 outside [-90, 90]"),
        (("geo_fence",), {"lat_min": math.nan}, "lat_min",
         "geo_fence: lat_min must be a finite number"),
        (("epochs",), -5, "epochs", "scenario: epochs must be an integer in [0, 2**63)"),
        (("faults",), [{"node_id": "n1", "mutation": "change_fw", "tick": -4}], "tick",
         "fault on n1: tick must be an integer in [0, 2**63)"),
        (("faults",), [{"node_id": "n1", "mutation": "change_fw", "tick": 40}], "tick",
         "fault on n1: tick 40 is after the last tick of the run"),
        (("diversity_threshold",), math.inf, "diversity_threshold",
         "scenario: diversity_threshold must be a finite number"),
    ], ids=["field0-x-fw_version", "field1-100.0-latitude", "field2-value2-lat_min",
            "field3--5-epochs", "field4-value4-tick", "field5-value5-tick",
            "field6-inf-diversity_threshold"])
    def test_error_names_the_field(self, field, value, named, message, tmp_path, capsys):
        doc = copy.deepcopy(HEALTHY)
        _set(field, value)(doc)
        assert _simulate(tmp_path, doc) == EXIT_USAGE
        assert named in message
        assert capsys.readouterr().err == f"simulate: {message}\n"

    def test_last_tick_at_the_u64_clock_limit_runs(self, tmp_path, capsys):
        doc = copy.deepcopy(HEALTHY)
        doc["epoch_length"] = 2**64 // doc["epochs"]
        assert doc["epochs"] * doc["epoch_length"] == 2**64
        assert _simulate(tmp_path, doc) == EXIT_OK

    def test_keys_outside_the_schema_are_ignored(self, tmp_path, capsys):
        doc = copy.deepcopy(HEALTHY)
        doc["permissionless"] = "no longer read"
        doc["nodes"][0]["comment"] = None
        assert _simulate(tmp_path, doc) == EXIT_OK
        tip = capsys.readouterr().out
        assert _simulate(tmp_path, HEALTHY) == EXIT_OK
        assert capsys.readouterr().out == tip

    def test_integer_literal_past_the_digit_limit_exit_2(self, tmp_path, capsys):
        """`json` refuses an integer literal of more than 4,300 digits with a
        `ValueError` that is not a `JSONDecodeError`. Written as text, since
        `json.dumps` cannot write such an int either."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(HEALTHY).replace('"seed": 20260823', '"seed": ' + "1" * 5000))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "simulate: scenario is not valid JSON: Exceeds the "
                                       "limit (4300 digits) for integer string conversion: value "
                                       "has 5000 digits; use sys.set_int_max_str_digits() to "
                                       "increase the limit\n")
        assert not (tmp_path / "o").exists()

    def test_not_utf8_exit_2(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE


def _field_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


SUBSTITUTES = [None, -5, 0, math.nan, math.inf, "x", "", [], {}, [1, 2], True, -1.5, 150, 2**63]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(list(_field_paths(HEALTHY))), value=st.sampled_from(SUBSTITUTES))
@example(field=("nodes", 1, "node_id"), value="n1")  # an id that another node has
@example(field=("domains", 1, "domain_id"), value="d1")
def test_any_single_field_substitution_exits_0_or_2(field, value, tmp_path, capsys):
    """`parse_scenario` makes every check on a scenario's values: a document
    that it passes builds, unless the dry run of its faults refuses one."""
    doc = copy.deepcopy(HEALTHY)
    _set(field, value)(doc)
    assert _simulate(tmp_path, doc) in (EXIT_OK, EXIT_USAGE)
    capsys.readouterr()
    try:
        cfg = parse_scenario(json.dumps(doc))
    except ScenarioError:
        return
    try:
        build_universe(cfg)
    except SimError as exc:
        assert "check_faults" in {frame.name for frame in traceback.extract_tb(exc.__traceback__)}


class TestLedgerCommand:
    @pytest.fixture
    def export(self, tmp_path):
        main([
            "simulate", str(SCENARIO_DIR / "healthy-4nodes.json"), "--out", str(tmp_path / "sim"),
        ])
        return tmp_path / "sim" / "ledger.hex"

    def test_fresh_export_verifies(self, export):
        assert main(["ledger", str(export), "--verify"]) == EXIT_OK

    def test_flipped_byte_exit_5(self, export):
        text = export.read_text()
        pos = len(text) // 2
        flipped = text[:pos] + ("0" if text[pos] != "0" else "1") + text[pos + 1 :]
        export.write_text(flipped)
        assert main(["ledger", str(export), "--verify"]) == EXIT_INTEGRITY

    def test_non_hex_line_exit_5(self, export, capsys):
        export.write_text(export.read_text() + "not hex\n")
        assert main(["ledger", str(export), "--verify"]) == EXIT_INTEGRITY
        assert "not hex" in capsys.readouterr().err

    def test_non_utf8_export_exit_5(self, export):
        export.write_bytes(b"\xff\xfe" + export.read_bytes())
        assert main(["ledger", str(export)]) == EXIT_INTEGRITY

    def test_height_beyond_tip_exit_2(self, export, capsys):
        assert main(["ledger", str(export), "--height", "999"]) == EXIT_USAGE
        assert capsys.readouterr().err == "ledger: height 999 is not in [0, 3]\n"

    @pytest.mark.parametrize("height", ["4", "-1"])
    def test_height_next_to_the_chain_exit_2(self, export, height, capsys):
        assert main(["ledger", str(export), "--height", height]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"ledger: height {height} is not in [0, 3]\n"
        assert captured.out == ""

    def test_height_in_an_empty_export_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.hex"
        empty.write_text("")
        assert main(["ledger", str(empty), "--height", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "ledger: height 0 is not in an empty export\n"

    def test_inspect_prints_blocks(self, export, capsys):
        assert main(["ledger", str(export), "--height", "0"]) == EXIT_OK
        assert "block 0" in capsys.readouterr().out

    def test_a_record_payload_over_32_bytes_prints_its_first_64_hex_digits(self, tmp_path,
                                                                           capsys):
        """A one-block export whose record payload is 40 bytes: the record
        line shows its first 32 bytes in hex, then `...`."""
        payload = bytes(range(40))
        block = LedgerBlock.seal(0, GENESIS_PREV, (LedgerRecord("audit_digest", payload),),
                                 "n1", 10)
        export = tmp_path / "long.hex"
        export.write_text(export_ledger([block]))
        assert main(["ledger", str(export)]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"block 0 tick 10 forger n1\n  prev   {'00' * 32}\n"
            f"  digest {block.block_digest.hex()}\n"
            f"  record audit_digest {payload[:32].hex()}...\n")

    def test_export_prints_every_block_as_simulate_renders_them(self, tmp_path, capsys):
        """With neither --verify nor --height, the command prints each block of
        the export: on clone-attack, the `ledger.txt` that `simulate` wrote,
        byte for byte."""
        scenario, out = SCENARIO_DIR / "clone-attack.json", tmp_path / "clone"
        assert main(["simulate", str(scenario), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["ledger", str(out / "ledger.hex")]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == (out / "ledger.txt").read_text() and captured.err == ""
