"""The four workloads: seeded input generators, outcome oracles, and one
closed-loop unit of work each (set-up, then the measured operations, then the
oracle check). One caller runs units back to back.

Why each workload exists and which layer it isolates:

sim-catalog   Few nodes, many products: 40 nodes in 4 domains, 20 products of
              3 x 4 KiB images, one flip_sw_byte fault. Every appraisal merges
              20 endorsements and evaluates 61 rules, so the verifier
              (reference merging) dominates; caching merged references pays
              off here.
sim-fleet     Many nodes, few products: 600 nodes, 2 products of one small
              image each, clone_config on 60% of nodes in the second epoch,
              which switches governance from 51 to 70. Per-node costs dominate
              (evidence sign/verify, encoding, config digests, audit logs,
              block forging, report rendering), and set-up builds 605
              verifier contexts and 1,800 keys, so per-verifier caches show
              up in setup_s.
flows         Passport and background-check round trips alternate against one
              verifier holding 2 endorsements. A fixed share is denied by
              design (replayed evidence, tampered result bytes, stale
              evidence). Isolates conveyance and the growth of the replay cache.
supply-chain  Registers 4,000 products in the endorsements ledger (writes), then
              verifies products drawn uniformly over the registry (reads),
              with fixed tampered shares. The only workload that measures
              endorsement_ledger; EndorsementsLedger.includes is a linear
              scan, so an index would help reads and cost writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from attestnet import cli, conveyance, endorsement_ledger, scenario
from attestnet.attester import AttestingEnvironment, TargetEnvironment
from attestnet.consortium import import_ledger, verify_chain
from attestnet.model import (
    ClaimSet,
    ClaimValue,
    EvidencePolicy,
    GeoPoint,
    Nonce,
    PolicyRule,
    ResultPolicy,
    Role,
    RuleKind,
    SignerIdentity,
    digest,
    make_endorsement,
)

DEFAULT_SEED = 1

# Ledger tips of the seed commit. A change to the byte format or to the
# simulation shows here before any timing is reported.
BUNDLED_TIPS = {
    "healthy-4nodes": "c3a3c7e18b66d59d852c1a243db5b34a4661e8f6e22e95db3c521bf77210d750",
    "clone-attack": "83435f3303135e4927c8422885ecaafd12763729a0f95d69e52ad2b33a792e9e",
}
DEFAULT_SEED_TIPS = {
    "sim-catalog": "e1f0741a7b18cf3ad832398d16bb265530042315ef603d86b54c70ffd702d58b",
    "sim-fleet": "03b1b00b7bc567a6784ee29e7d3b25d9ea4e1d20d2960ec1feab757fbbc73ed6",
}

EPOCH_LENGTH = 10


Interval = tuple[float, float]  # (start, end) in time.perf_counter() seconds


@dataclass
class Unit:
    """What one unit of work measured and how its outcomes compared. Times are
    raw intervals; run.py turns them into durations."""

    setup: list[Interval]  # summed into setup_s
    wall: Interval
    latencies: list[Interval]  # source of p50_ms
    ops: int  # operations counted by ops_per_s ...
    op_time: list[Interval]  # ... and the time spent in them
    attempted: int
    failed: int
    tip: str  # digest of the outcomes; equal across units of one input
    gauges: dict[str, float] = field(default_factory=dict)


def _intervals(spans, names) -> list[Interval]:
    return [(s[1], s[2]) for s in spans if s[0] in names]


# ---------------------------------------------------------------------------
# sim-catalog and sim-fleet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimShape:
    nodes: int
    products: int
    images: int
    image_bytes: int
    epochs: int
    fault: str  # flip_sw_byte | clone_config


SHAPES = {
    "sim-catalog": SimShape(40, 20, 3, 4096, 3, "flip_sw_byte"),
    "sim-fleet": SimShape(600, 2, 1, 32, 2, "clone_config"),
}
DOMAINS = 4
CLONE_SHARE = 0.6


@dataclass
class SimInputs:
    scenario_text: str
    verdicts: list[dict[str, str]]  # expected verdict per node, per epoch
    diversity: list[float]  # expected diversity per epoch
    majority: list[int]  # expected governance majority per epoch

    def fingerprint(self) -> str:
        return hashlib.sha256(self.scenario_text.encode()).hexdigest()


def generate_sim(shape: SimShape, seed: int) -> SimInputs:
    rng = random.Random(seed)
    products = []
    for p in range(shape.products):
        products.append({
            "product_id": f"prod-{p:02d}",
            "fw_version": rng.randint(2, 5),
            # image bytes are the UTF-8 of the text, so hex doubles the size
            "sw_images": {f"p{p:02d}-img{j}": rng.randbytes(shape.image_bytes // 2).hex()
                          for j in range(shape.images)},
        })
    nodes = []
    for i in range(shape.nodes):
        nodes.append({
            "node_id": f"n{i:04d}",
            "domain_id": f"d{i % DOMAINS}",
            "product_id": f"prod-{i % shape.products:02d}",
            "stake": rng.randint(1, 10),
            # distinct positions keep every node's configuration distinct
            "geo": [rng.uniform(-60, 60), rng.uniform(-170, 170), rng.uniform(0, 1000)],
        })
    node_ids = [n["node_id"] for n in nodes]
    fault_epoch = shape.epochs // 2
    tick = fault_epoch * EPOCH_LENGTH + rng.randrange(EPOCH_LENGTH)
    compliant = {nid: "compliant" for nid in node_ids}
    verdicts = [dict(compliant) for _ in range(shape.epochs)]
    diversity = [1.0] * shape.epochs
    if shape.fault == "flip_sw_byte":
        victim = rng.choice(node_ids)
        faults = [{"node_id": victim, "mutation": "flip_sw_byte", "tick": tick}]
        for epoch in range(fault_epoch, shape.epochs):
            verdicts[epoch][victim] = "non_compliant"
    else:
        source, *others = rng.sample(node_ids, len(node_ids))
        cloned = sorted(others[:int(shape.nodes * CLONE_SHARE)])
        faults = [{"node_id": nid, "mutation": "clone_config", "from_node": source, "tick": tick}
                  for nid in cloned]
        for epoch in range(fault_epoch, shape.epochs):
            diversity[epoch] = (shape.nodes - len(cloned)) / shape.nodes
    doc = {
        "seed": seed,
        "epochs": shape.epochs,
        "epoch_length": EPOCH_LENGTH,
        "fw_min_version": 2,
        "majority_parameter": 51,
        "raised_majority": 70,
        "diversity_threshold": 0.5,
        "geo_fence": None,
        "products": products,
        "domains": [{"domain_id": f"d{d}"} for d in range(DOMAINS)],
        "nodes": nodes,
        "faults": faults,
    }
    majority = [70 if d < 0.5 else 51 for d in diversity]
    return SimInputs(json.dumps(doc, sort_keys=True), verdicts, diversity, majority)


# Calls timed in every sim unit, traced or not.
SIM_STAGES = (
    ("stage.load", "attestnet.scenario", "load_scenario"),
    ("scenario.build_universe", "attestnet.scenario", "build_universe"),
    ("consortium.distribute_policies", "attestnet.consortium", "distribute_policies"),
    ("consortium.run_epoch", "attestnet.consortium", "run_epoch"),
    ("stage.appraisal", "attestnet.conveyance", "VerifierContext.appraise"),
)
SETUP_SPANS = ("stage.load", "scenario.build_universe", "consortium.distribute_policies")


def _check_reports(text: str, inputs: SimInputs) -> tuple[int, int]:
    """Compare epoch_reports.txt with the oracle: every node's consortium and
    domain verdict, and each epoch's diversity and governance majority."""
    attempted = failed = 0
    epochs = text.strip().split("\n\n")
    if len(epochs) != len(inputs.majority):
        return 1, 1
    for epoch, block in enumerate(epochs):
        lines = block.split("\n")
        attempted += 1
        if lines[1] != f"  diversity {inputs.diversity[epoch]:.4f} majority {inputs.majority[epoch]}":
            failed += 1
        seen = {}
        for line in lines[3:]:
            if line.startswith("  node "):
                nid, rest = line[len("  node "):].split(": ", 1)
                seen[nid] = rest
        for nid, verdict in inputs.verdicts[epoch].items():
            attempted += 2
            got = seen.get(nid, "").split(" ")
            failed += (f"consortium={verdict}" not in got) + (f"domain={verdict}" not in got)
    return attempted, failed


def run_sim(path: Path, out_dir: Path, inputs: SimInputs, tracer) -> Unit:
    """One whole `attestnet simulate` call, checked against the oracle and an
    import_ledger / verify_chain round trip of its ledger export."""
    mark = len(tracer.spans)
    universes = []  # kept to read the audit logs after the call
    build = scenario.build_universe

    def capture(cfg):
        universes.append(build(cfg))
        return universes[-1]

    scenario.build_universe = capture
    stdout = io.StringIO()
    try:
        start = time.perf_counter()
        with redirect_stdout(stdout):
            code = cli.main(["simulate", str(path), "--out", str(out_dir)])
        wall = (start, time.perf_counter())
    finally:
        scenario.build_universe = build
    spans = tracer.spans[mark:]
    epochs = _intervals(spans, ("consortium.run_epoch",))
    appraisals = _intervals(spans, ("stage.appraisal",))

    attempted, failed = _check_reports((out_dir / "epoch_reports.txt").read_text(), inputs)
    printed = stdout.getvalue().strip()
    blocks = import_ledger((out_dir / "ledger.hex").read_text())
    attempted += 1
    chain_ok = (code == 0 and verify_chain(blocks) is None and len(blocks) == len(epochs)
                and printed == f"tip: {blocks[-1].block_digest.hex()}")
    failed += not chain_ok
    switches = sum(r.kind == "governance" for b in blocks for r in b.records)
    expected_switches = sum(a != b for a, b in zip([51] + inputs.majority, inputs.majority))
    attempted += 1
    failed += switches != expected_switches
    universe = universes[0]
    audit_bytes = sum(len(e) for d in universe.domains.values() for _, e in d.audit_log)
    return Unit(_intervals(spans, SETUP_SPANS), wall, appraisals, len(appraisals), epochs,
                attempted, failed,
                printed.removeprefix("tip: "),
                {"consortium.governance_switches": switches,
                 "consortium.audit_log_bytes": audit_bytes})


def simulate_tip(path: Path, out_dir: Path) -> str:
    """Ledger tip printed by `attestnet simulate` for a scenario file."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        cli.main(["simulate", str(path), "--out", str(out_dir)])
    return stdout.getvalue().strip().removeprefix("tip: ")


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

FLOWS_PER_UNIT = 500
FLOW_BLOCK = 20
# Variants within every block of 20 flows; each kind is shuffled separately.
PASSPORT_VARIANTS = ["ok"] * 7 + ["replay", "tamper", "stale"]
BACKGROUND_VARIANTS = ["ok"] * 8 + ["replay", "stale"]
FRESHNESS = 5
STALE_AGE = FRESHNESS + 3
FIRST_CLOCK = STALE_AGE
FLOW_IMAGES = 2
FLOW_IMAGE_BYTES = 4096


@dataclass
class FlowInputs:
    seed: int
    images: tuple[tuple[str, bytes], ...]
    schedule: list[tuple[str, str]]  # (passport|background, variant)
    stale_nonces: list[bytes]  # nonce value for each flow, used by stale ones

    def fingerprint(self) -> str:
        h = hashlib.sha256(repr((self.seed, self.images, self.schedule)).encode())
        for n in self.stale_nonces:
            h.update(n)
        return h.hexdigest()


def generate_flows(seed: int) -> FlowInputs:
    rng = random.Random(seed)
    images = tuple((f"flow-img{j}", rng.randbytes(FLOW_IMAGE_BYTES)) for j in range(FLOW_IMAGES))
    schedule = []
    for _ in range(FLOWS_PER_UNIT // FLOW_BLOCK):
        passport = rng.sample(PASSPORT_VARIANTS, len(PASSPORT_VARIANTS))
        background = rng.sample(BACKGROUND_VARIANTS, len(BACKGROUND_VARIANTS))
        for p, b in zip(passport, background):
            schedule += [("passport", p), ("background", b)]
    # a replay needs an earlier granted flow to replay
    first_ok = next(i for i, (_, v) in enumerate(schedule) if v == "ok" and i % 2 == 0)
    schedule[0], schedule[first_ok] = schedule[first_ok], schedule[0]
    stale_nonces = [rng.randbytes(16) for _ in schedule]
    return FlowInputs(seed, images, schedule, stale_nonces)


EXPECTED_DECISIONS = {
    "ok": conveyance.Decision(True),
    "replay": conveyance.Decision(False, ("replay",)),
    "tamper": conveyance.Decision(False, ("result_rejected",)),
    "stale": conveyance.Decision(False, ("nonce", "stale")),
}


def _flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _flow_world(inputs: FlowInputs):
    rng = random.Random(inputs.seed)
    attester = AttestingEnvironment.create("flow-attester", rng)
    env = TargetEnvironment("flow-hw", 3, inputs.images, GeoPoint(48.1, 11.5, 500.0), stake=1)
    endorser = SignerIdentity.create(Role.ENDORSER, "flow-endorser", rng)
    endorsements = [
        make_endorsement(endorser, f"flow-hw-{name}",
                         ClaimSet({f"sw.{name}.digest": ClaimValue.of_digest(digest(image))}), 0)
        for name, image in inputs.images
    ]
    rules = [PolicyRule("fw.min", RuleKind.VERSION_AT_LEAST, "fw.version", 2)]
    rules += [PolicyRule(f"ref.sw.{name}", RuleKind.REFERENCE_MATCH, f"sw.{name}.digest")
              for name, _ in inputs.images]
    policy = EvidencePolicy("flows", tuple(rules), FRESHNESS, required_claims=("config.digest",))
    verifier = conveyance.VerifierContext(
        SignerIdentity.create(Role.VERIFIER, "flow-verifier", rng), policy, endorsements, rng)
    rp = conveyance.RelyingPartyContext(
        SignerIdentity.create(Role.RELYING_PARTY, "flow-rp", rng),
        ResultPolicy((verifier.identity.entity,), max_result_age=FRESHNESS))
    return attester, env, verifier, rp


FLOW_STAGES = (
    ("conveyance.passport", "attestnet.conveyance", "run_passport_flow"),
    ("conveyance.background", "attestnet.conveyance", "run_background_check_flow"),
)


def run_flows(inputs: FlowInputs, tracer) -> Unit:
    """Set up one verifier, then run the whole flow schedule against it."""
    mark = len(tracer.spans)
    start = time.perf_counter()
    attester, env, verifier, rp = _flow_world(inputs)
    setup = [(start, time.perf_counter())]
    failed = replays = 0
    decisions = hashlib.sha256()
    replayable = None
    for i, (kind, variant) in enumerate(inputs.schedule):
        now = FIRST_CLOCK + i
        override = tamper = None
        if variant == "replay":
            override = replayable
        elif variant == "stale":
            old = now - STALE_AGE
            override = attester.generate_evidence(env, Nonce(inputs.stale_nonces[i], old), old)
        elif variant == "tamper":
            tamper = _flip_last_byte
        transport = conveyance.Transport()
        try:
            if kind == "passport":
                decision = conveyance.run_passport_flow(
                    attester, env, verifier, rp, transport, now, override, tamper)
            else:
                decision = conveyance.run_background_check_flow(
                    attester, env, rp, verifier, transport, now, override)
        except Exception as exc:  # an aborted flow is a wrong outcome, not a crash
            decision = exc
        failed += decision != EXPECTED_DECISIONS[variant]
        replays += decision == EXPECTED_DECISIONS["replay"]
        decisions.update(repr(decision).encode())
        if variant == "ok":
            replayable = next(m.evidence for m in transport.log
                              if isinstance(m, conveyance.EvidenceMsg))
    wall = (start, time.perf_counter())
    latencies = _intervals(tracer.spans[mark:], ("conveyance.passport", "conveyance.background"))
    return Unit(setup, wall, latencies, len(latencies), latencies,
                len(inputs.schedule), failed, decisions.hexdigest(),
                {"conveyance.seen_nonces": len(verifier.seen_nonces),
                 "conveyance.replays_rejected": replays})


# ---------------------------------------------------------------------------
# supply-chain
# ---------------------------------------------------------------------------

REGISTRY = 4000
QUERIES = 2000
PRODUCT_BYTES = 256
CORRUPT_SHARE = 0.05  # products whose stored endorsement object is corrupted
QUERY_VARIANTS = ["ok"] * 18 + ["altered", "tampered_record"]
ROOT_CERT = b"perfbench root certificate authority"


@dataclass
class SupplyInputs:
    seed: int
    products: list[bytes]
    corrupted: frozenset[int]
    queries: list[tuple[int, str]]  # (registry position, variant)

    def fingerprint(self) -> str:
        h = hashlib.sha256(repr((self.seed, sorted(self.corrupted), self.queries)).encode())
        for p in self.products:
            h.update(p)
        return h.hexdigest()


def generate_supply(seed: int) -> SupplyInputs:
    rng = random.Random(seed)
    products = [rng.randbytes(PRODUCT_BYTES) for _ in range(REGISTRY)]
    corrupted = frozenset(rng.sample(range(REGISTRY), int(REGISTRY * CORRUPT_SHARE)))
    queries = [(rng.randrange(REGISTRY), rng.choice(QUERY_VARIANTS)) for _ in range(QUERIES)]
    return SupplyInputs(seed, products, corrupted, queries)


def expected_verification(inputs: SupplyInputs, position: int, variant: str):
    """verify_product's (ok, reason), by the order in which it checks."""
    if variant == "tampered_record":
        return False, "ledger_mismatch"
    if position in inputs.corrupted:
        return False, "store_corrupt"
    if variant == "altered":
        return False, "digest_mismatch"
    return True, None


SUPPLY_STAGES = (
    ("endorsement_ledger.register", "attestnet.endorsement_ledger", "register_endorsement"),
    ("endorsement_ledger.verify_product", "attestnet.endorsement_ledger", "verify_product"),
)


def _product_id(position: int) -> str:
    return f"sku-{position:06d}"


def run_supply(inputs: SupplyInputs, tracer) -> Unit:
    """Set up a manufacturer, store and ledger; register every product;
    corrupt the chosen store entries; verify every query."""
    mark = len(tracer.spans)
    start = time.perf_counter()
    manufacturer = SignerIdentity.create(Role.ENDORSER, "manufacturer", random.Random(inputs.seed))
    cert = manufacturer.entity.public_key
    objects = []
    for i, product in enumerate(inputs.products):
        tracer.before_call()  # no timed call runs during set-up to sample the host speed at
        claims = ClaimSet({endorsement_ledger.PRODUCT_DIGEST_CLAIM:
                           ClaimValue.of_digest(digest(product))})
        endorsement = make_endorsement(manufacturer, _product_id(i), claims, issued_at=0)
        objects.append([("endorsement", endorsement.to_bytes()),
                        ("manufacturer_cert", cert), ("root_cert", ROOT_CERT)])
    store = endorsement_ledger.ContentStore()
    ledger = endorsement_ledger.EndorsementsLedger()
    setup = [(start, time.perf_counter())]

    records = [endorsement_ledger.register_endorsement(
        manufacturer, _product_id(i), objs, store, ledger, clock=i)
        for i, objs in enumerate(objects)]
    for i in sorted(inputs.corrupted):
        store._corrupt(dict(records[i].object_refs)["endorsement"], b"corrupted")

    failed = 0
    outcomes = hashlib.sha256()
    for position, variant in inputs.queries:
        product = inputs.products[position]
        record = records[position]
        if variant == "altered":
            product = bytes([product[0] ^ 0x01]) + product[1:]
        elif variant == "tampered_record":
            record = dataclasses.replace(record, registered_at=record.registered_at + len(records))
        try:
            outcome = endorsement_ledger.verify_product(product, record, store, ledger)
        except Exception as exc:  # a raising verification is a wrong outcome
            outcome = exc
        failed += outcome != expected_verification(inputs, position, variant)
        outcomes.update(repr(outcome).encode())
    wall = (start, time.perf_counter())
    spans = tracer.spans[mark:]
    registrations = _intervals(spans, ("endorsement_ledger.register",))
    verify_spans = [mark + k for k, s in enumerate(spans)
                    if s[0] == "endorsement_ledger.verify_product"]
    return Unit(setup, wall, [tuple(tracer.spans[k][1:3]) for k in verify_spans],
                len(registrations), registrations, len(inputs.queries), failed,
                outcomes.hexdigest(), _includes_by_position(inputs, spans, verify_spans))


def _includes_by_position(inputs: SupplyInputs, spans, verify_spans) -> dict[str, float]:
    """Mean EndorsementsLedger.includes time, in ms, for registered records in
    the first and the last tenth of the registry (traced runs only)."""
    includes = {s[3]: s[2] - s[1] for s in spans if s[0] == "endorsement_ledger.includes"}
    tenth = len(inputs.products) // 10
    buckets: dict[str, list[float]] = {"first_decile_ms": [], "last_decile_ms": []}
    for (position, variant), span in zip(inputs.queries, verify_spans):
        if variant == "tampered_record" or span not in includes:
            continue
        if position < tenth:
            buckets["first_decile_ms"].append(includes[span])
        elif position >= len(inputs.products) - tenth:
            buckets["last_decile_ms"].append(includes[span])
    return {f"endorsement_ledger.includes.{name}": 1000 * sum(v) / len(v)
            for name, v in buckets.items() if v}
