"""Scenario configuration: a key-sorted JSON document describing products,
domains, nodes, faults, and consensus parameters, plus the builder that turns
one into a fully wired simulation universe.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .attester import AttestingEnvironment, TargetEnvironment
from .consortium import ConsortiumConfig, Domain, FaultInjection, Node, SimError, Universe
from .conveyance import VerifierContext
from .model import (
    ClaimSet,
    ClaimValue,
    EvidencePolicy,
    GeoFence,
    GeoPoint,
    ModelError,
    PolicyRule,
    Role,
    RuleKind,
    SignerIdentity,
    digest,
    make_endorsement,
)


class ScenarioError(ValueError):
    """Raised when a scenario document fails validation; message names the field."""


@dataclass
class ProductSpec:
    product_id: str
    fw_version: int
    sw_images: tuple[tuple[str, bytes], ...]


@dataclass
class NodeSpec:
    node_id: str
    domain_id: str
    product_id: str
    stake: int
    geo: GeoPoint


@dataclass
class DomainSpec:
    domain_id: str
    fw_min_version: Optional[int] = None  # differing value induces a policy conflict


@dataclass
class ScenarioConfig:
    seed: int
    epochs: int
    epoch_length: int
    fw_min_version: int
    majority_parameter: int
    raised_majority: int
    diversity_threshold: float
    geo_fence: Optional[GeoFence]
    products: list[ProductSpec]
    domains: list[DomainSpec]
    nodes: list[NodeSpec]
    faults: list[FaultInjection] = field(default_factory=list)
    permissionless: bool = False


# Every field is read through one of the typed readers below, so a value of
# the wrong type, a non-finite number or an out-of-range integer raises
# `ScenarioError` naming its field instead of escaping as a `TypeError` later.
_MISSING = object()
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_MUTATIONS = ("flip_sw_byte", "change_fw", "move_geo", "clone_config")
_FENCE_BOUNDS = ("lat_min", "lat_max", "lon_min", "lon_max")


def _field(doc: dict, key: str, where: str, default=_MISSING):
    if key in doc:
        return doc[key]
    if default is _MISSING:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return default


def _integer(doc: dict, key: str, where: str, default=_MISSING, minimum=_INT64_MIN) -> int:
    value = _field(doc, key, where, default)
    if type(value) is not int or not minimum <= value <= _INT64_MAX:
        raise ScenarioError(f"{where}: {key} must be an integer in [{minimum}, 2**63)")
    return value


def _finite(value, name: str):
    """`value` itself, if it is a finite JSON number (`json` reads NaN and
    Infinity, and bools are ints to Python)."""
    if type(value) in (int, float):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an integer beyond the float range
            pass
    raise ScenarioError(f"{name} must be a finite number")


def _number(doc: dict, key: str, where: str, default=_MISSING):
    return _finite(_field(doc, key, where, default), f"{where}: {key}")


def _text(doc: dict, key: str, where: str) -> str:
    value = _field(doc, key, where)
    if type(value) is not str or not value:
        raise ScenarioError(f"{where}: {key} must be a non-empty string")
    return value


def _objects(doc: dict, key: str, where: str, default=_MISSING) -> list:
    value = _field(doc, key, where, default)
    if type(value) is not list or any(type(item) is not dict for item in value):
        raise ScenarioError(f"{where}: {key} must be a list of objects")
    return value


def _checked(where: str, make, *args):
    """`make(*args)`, with a model invariant it breaks reported as a scenario error."""
    try:
        return make(*args)
    except ModelError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def parse_scenario(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise ScenarioError("scenario must be a JSON object")

    seed = _integer(doc, "seed", "scenario")
    epochs = _integer(doc, "epochs", "scenario", minimum=0)
    epoch_length = _integer(doc, "epoch_length", "scenario", 10)

    fence = doc.get("geo_fence")
    if fence is not None:
        if type(fence) is not dict:
            raise ScenarioError("scenario: geo_fence must be an object or null")
        bounds = [_number(fence, k, "geo_fence") for k in _FENCE_BOUNDS]
        fence = _checked("geo_fence", GeoFence, *bounds)

    products = []
    image_names = set()
    for p in _objects(doc, "products", "scenario"):
        pid = _text(p, "product_id", "product")
        where = f"product {pid}"
        sw_images = _field(p, "sw_images", where)
        if type(sw_images) is not dict or any(
            type(content) is not str or not content for content in sw_images.values()
        ):
            raise ScenarioError(f"{where}: sw_images must map names to non-empty strings")
        images = []
        for name, content in sorted(sw_images.items()):
            if name in image_names:
                raise ScenarioError(f"{where}: sw image name {name!r} reused across products")
            image_names.add(name)
            images.append((name, content.encode("utf-8")))
        products.append(ProductSpec(pid, _integer(p, "fw_version", where, 1), tuple(images)))
    product_ids = {p.product_id for p in products}

    domains = []
    for d in _objects(doc, "domains", "scenario"):
        did = _text(d, "domain_id", "domain")
        fw_min = d.get("fw_min_version")  # null or absent: the scenario's own
        if fw_min is not None:
            fw_min = _integer(d, "fw_min_version", f"domain {did}")
        domains.append(DomainSpec(did, fw_min))
    domain_ids = {d.domain_id for d in domains}

    nodes = []
    for n in _objects(doc, "nodes", "scenario"):
        nid = _text(n, "node_id", "node")
        where = f"node {nid}"
        did = _text(n, "domain_id", where)
        pid = _text(n, "product_id", where)
        if did not in domain_ids:
            raise ScenarioError(f"{where}: unknown domain {did!r}")
        if pid not in product_ids:
            raise ScenarioError(f"{where}: unknown product {pid!r}")
        geo = _field(n, "geo", where, [0.0, 0.0, 0.0])
        if type(geo) is not list or len(geo) != 3:
            raise ScenarioError(f"{where}: geo must be [latitude, longitude, altitude]")
        geo = _checked(where, GeoPoint, *(_finite(v, f"{where}: geo") for v in geo))
        nodes.append(NodeSpec(nid, did, pid, _integer(n, "stake", where, 1), geo))
    node_ids = {n.node_id for n in nodes}

    faults = []
    for f in _objects(doc, "faults", "scenario", []):
        nid = _text(f, "node_id", "fault")
        if nid not in node_ids:
            raise ScenarioError(f"fault: unknown node {nid!r}")
        where = f"fault on {nid}"
        mutation = _field(f, "mutation", where)
        if mutation not in _MUTATIONS:
            raise ScenarioError(f"{where}: unknown mutation {mutation!r}")
        from_node = ""
        if mutation == "clone_config":
            from_node = f.get("from_node")
            if type(from_node) is not str or from_node not in node_ids:
                raise ScenarioError(f"{where}: clone_config needs a known from_node")
        tick = _integer(f, "tick", where, minimum=0)
        if tick >= epochs * epoch_length:
            raise ScenarioError(f"{where}: tick {tick} is after the last tick of the run")
        lat, lon = float(_number(f, "lat", where, 0.0)), float(_number(f, "lon", where, 0.0))
        _checked(where, GeoPoint, lat, lon, 0.0)  # move_geo builds this point mid-run
        faults.append(
            FaultInjection(
                tick=tick,
                node_id=nid,
                mutation=mutation,
                lat=lat,
                lon=lon,
                fw_version=_integer(f, "fw_version", where, 0),
                from_node=from_node,
            )
        )

    permissionless = _field(doc, "permissionless", "scenario", False)
    if type(permissionless) is not bool:
        raise ScenarioError("scenario: permissionless must be true or false")
    return ScenarioConfig(
        seed=seed,
        epochs=epochs,
        epoch_length=epoch_length,
        fw_min_version=_integer(doc, "fw_min_version", "scenario", 1),
        majority_parameter=_integer(doc, "majority_parameter", "scenario", 51),
        raised_majority=_integer(doc, "raised_majority", "scenario", 70),
        diversity_threshold=float(_number(doc, "diversity_threshold", "scenario", 0.5)),
        geo_fence=fence,
        products=products,
        domains=domains,
        nodes=nodes,
        faults=faults,
        permissionless=permissionless,
    )


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"scenario is not UTF-8: {exc}") from exc
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# Universe construction
# ---------------------------------------------------------------------------


def _policy_for(cfg: ScenarioConfig, policy_id: str, fw_min: int) -> EvidencePolicy:
    rules = [
        PolicyRule("fw.min", RuleKind.VERSION_AT_LEAST, "fw.version", fw_min),
    ]
    for product in cfg.products:
        for name, _ in product.sw_images:
            rules.append(
                PolicyRule(f"ref.sw.{name}", RuleKind.REFERENCE_MATCH, f"sw.{name}.digest")
            )
    if cfg.geo_fence is not None:
        rules.append(PolicyRule("geo.fence", RuleKind.GEO_FENCE, "geo", fence=cfg.geo_fence))
    return EvidencePolicy(
        policy_id, tuple(rules), cfg.epoch_length, required_claims=("config.digest",)
    )


def build_universe(cfg: ScenarioConfig) -> Universe:
    rng = random.Random(cfg.seed)

    endorser = SignerIdentity.create(Role.ENDORSER, "supply-chain", rng)
    endorsements = []
    for product in cfg.products:
        refs = {
            f"sw.{name}.digest": ClaimValue.of_digest(digest(image))
            for name, image in product.sw_images
        }
        endorsements.append(
            make_endorsement(endorser, product.product_id, ClaimSet(refs), issued_at=0)
        )

    consortium_policy = _policy_for(cfg, "consortium", cfg.fw_min_version)
    cv = VerifierContext(
        SignerIdentity.create(Role.VERIFIER, "consortium-verifier", rng),
        consortium_policy, list(endorsements), rng,
    )
    config = ConsortiumConfig(
        consortium_verifier=cv,
        consortium_policy=consortium_policy,
        majority_parameter=cfg.majority_parameter,
        diversity_threshold=cfg.diversity_threshold,
        raised_majority=cfg.raised_majority,
        geo_fence=cfg.geo_fence,
        epoch_length=cfg.epoch_length,
    )
    universe = Universe(config, cfg.seed, permissionless=cfg.permissionless)
    universe.faults = list(cfg.faults)

    products_by_id = {p.product_id: p for p in cfg.products}
    for dspec in cfg.domains:
        fw_min = dspec.fw_min_version if dspec.fw_min_version is not None else cfg.fw_min_version
        dv = VerifierContext(
            SignerIdentity.create(Role.VERIFIER, f"dv-{dspec.domain_id}", rng),
            _policy_for(cfg, f"domain-{dspec.domain_id}", fw_min), list(endorsements), rng,
        )
        owner = SignerIdentity.create(Role.OWNER, f"owner-{dspec.domain_id}", rng)
        universe.add_domain(Domain(dspec.domain_id, owner, dv))

    for nspec in cfg.nodes:
        product = products_by_id[nspec.product_id]
        env = TargetEnvironment(
            hw_model=product.product_id,
            fw_version=product.fw_version,
            sw_images=product.sw_images,
            geo=nspec.geo,
            stake=nspec.stake,
        )
        attesting = AttestingEnvironment.create(nspec.node_id, rng, [env.config_digest()])
        lv = VerifierContext(
            SignerIdentity.create(Role.VERIFIER, f"lv-{nspec.node_id}", rng),
            consortium_policy, list(endorsements), rng,
        )
        universe.add_node(Node(nspec.node_id, nspec.domain_id, attesting, env, lv))

    if not universe.nodes:
        raise SimError("scenario defines no nodes")
    return universe
