"""Scenario configuration: a key-sorted JSON document describing products,
domains, nodes, faults, and consensus parameters, plus the builder that turns
one into a fully wired simulation universe and dry-runs its fault schedule.

`parse_scenario` makes every check on the document's values; the universe
keeps the checked `ScenarioConfig` itself, and `build_universe` refuses only a
fault that cannot apply, through the dry run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import make_dataclass

from .attester import AttestingEnvironment, TargetEnvironment
from .consortium import Domain, FaultInjection, Node, Universe, check_faults
from .conveyance import VerifierContext
from .model import (
    _INT64_MAX,
    _INT64_MIN,
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
    """Raised when a scenario document fails a check, by `parse_scenario`; the
    message names the object and the field."""


# Each scenario object is declared once, as (key, reader, default) rows; a row
# without a default is required, and keys outside the rows are ignored. A
# reader returns the value it is given, converted, or raises `ScenarioError`
# naming the field, so a value of the wrong type, a non-finite number or an
# out-of-range integer never escapes as a `TypeError` later.
_REQUIRED = object()


def _reader(ok, must: str, convert=None):
    def read(value, where: str, key: str):
        if not ok(value):
            raise ScenarioError(f"{where}: {key} must {must}")
        return value if convert is None else convert(value)
    return read


def _integer(minimum=_INT64_MIN, maximum=_INT64_MAX):
    upper = "2**63)" if maximum == _INT64_MAX else f"{maximum}]"
    return _reader(lambda v: type(v) is int and minimum <= v <= maximum,
                   f"be an integer in [{minimum}, {upper}")


def _is_finite(value) -> bool:
    """False for bools, which are ints to Python, and for NaN, the infinities
    (`json` reads both) and integers beyond the float range."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


_float = _reader(_is_finite, "be a finite number", float)
_objects = _reader(lambda v: type(v) is list and all(type(item) is dict for item in v),
                   "be a list of objects")


def _fraction(value, where: str, key: str) -> float:
    value = _float(value, where, key)
    if not 0 < value <= 1:
        raise ScenarioError(f"{where}: {key} must be in (0, 1]")
    return value


def _utf8(value: str, where: str, what: str) -> bytes:
    """The UTF-8 encoding of `value`. `json` reads a lone surrogate from a
    `\\ud800` escape, and a string holding one cannot be encoded; `what`
    names the field, with any value in it escaped, so that the error prints."""
    try:
        return value.encode("utf-8")
    except UnicodeEncodeError:
        raise ScenarioError(f"{where}: {what} is not valid UTF-8") from None


def _text(value, where: str, key: str) -> str:
    if type(value) is not str or value == "":
        raise ScenarioError(f"{where}: {key} must be a non-empty string")
    if not value.isascii():  # an ASCII string always encodes
        _utf8(value, where, f"{key} {value!r}")
    return value


def _images(value, where: str, key: str) -> tuple[tuple[str, bytes], ...]:
    if type(value) is not dict or not all(type(c) is str and c for c in value.values()):
        raise ScenarioError(f"{where}: {key} must map names to non-empty strings")
    images = []
    for name, content in sorted(value.items()):
        if not name.isascii():
            _utf8(name, where, f"{key} name {name!r}")
        images.append((name, _utf8(content, where, f"{key}[{name!r}]")))
    return tuple(images)


def _or_null(read):
    return lambda value, where, key: None if value is None else read(value, where, key)


def _checked(where: str, make, *args):
    """`make(*args)`, with a model invariant it breaks reported as a scenario error."""
    try:
        return make(*args)
    except ModelError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _fence(value, where: str, key: str) -> GeoFence:
    if type(value) is not dict:
        raise ScenarioError(f"{where}: {key} must be an object or null")
    return _checked(key, GeoFence, *_read(value, key, _FENCE).values())


def _geo(value, where: str, key: str) -> GeoPoint:
    if type(value) is not list or len(value) != 3:
        raise ScenarioError(f"{where}: {key} must be [latitude, longitude, altitude]")
    return _checked(where, GeoPoint, *(_float(v, where, key) for v in value))


def _read(doc: dict, where: str, rows) -> dict:
    """Each row's key, mapped to the value its reader returns for `doc`."""
    fields = {}
    for key, reader, default in rows:
        if key in doc:
            fields[key] = reader(doc[key], where, key)
        elif default is _REQUIRED:
            raise ScenarioError(f"{where}: missing required field {key!r}")
        else:
            fields[key] = default
    return fields


def _items(docs: list, kind: str, rows, label: str = "{} {}") -> list[dict]:
    """The fields of each listed object of `kind`. The first row's value names
    the object, through `label`, in the errors of the other rows."""
    items = []
    for doc in docs:
        first = _read(doc, kind, rows[:1])
        items.append(first | _read(doc, label.format(kind, *first.values()), rows[1:]))
    return items


def _by_id(spec, docs: list, kind: str) -> dict:
    """Each listed object of `kind`, as a `spec`, keyed by its id: the value of
    its first row. An id given twice is refused."""
    specs = {}
    for fields in _items(docs, kind, spec.rows):
        key, spec_id = next(iter(fields.items()))
        if spec_id in specs:
            raise ScenarioError(f"{kind} {spec_id}: {key} defined more than once")
        specs[spec_id] = spec(**fields)
    return specs


def _spec(name: str, *rows):
    """A dataclass with a field per row; it keeps the rows as `rows`."""
    spec = make_dataclass(name, [key for key, _, _ in rows])
    spec.rows = rows
    return spec


_FENCE = tuple((key, _float, _REQUIRED) for key in ("lat_min", "lat_max", "lon_min", "lon_max"))
ScenarioConfig = _spec(
    "ScenarioConfig",
    ("seed", _integer(), _REQUIRED),
    ("epochs", _integer(0), _REQUIRED),
    ("epoch_length", _integer(1), 10),
    ("geo_fence", _or_null(_fence), None),
    ("products", _objects, _REQUIRED),
    ("domains", _objects, _REQUIRED),
    ("nodes", _objects, _REQUIRED),
    ("faults", _objects, ()),
    ("fw_min_version", _integer(), 1),
    # the governance rule: the majority, raised while diversity is below the threshold
    ("majority_parameter", _integer(51, 100), 51),
    ("raised_majority", _integer(51, 100), 70),  # at least majority_parameter
    ("diversity_threshold", _fraction, 0.5),
)
ProductSpec = _spec(
    "ProductSpec",
    ("product_id", _text, _REQUIRED),
    ("sw_images", _images, _REQUIRED),
    ("fw_version", _integer(), 1),
)
DomainSpec = _spec(
    "DomainSpec",
    ("domain_id", _text, _REQUIRED),
    # the domain's own bound; one other than the scenario's is recorded as a conflict, and loses
    ("fw_min_version", _or_null(_integer()), None),
)
NodeSpec = _spec(
    "NodeSpec",
    ("node_id", _text, _REQUIRED),
    ("domain_id", _text, _REQUIRED),
    ("product_id", _text, _REQUIRED),
    ("geo", _geo, GeoPoint(0.0, 0.0, 0.0)),
    ("stake", _integer(0), 1),
)
# The fields of a `FaultInjection` but `from_node`, which only a clone_config
# fault reads, and which `parse_scenario` checks against the node ids.
_FAULT = (
    ("node_id", _text, _REQUIRED),
    ("mutation", _text, _REQUIRED),  # `consortium.faulted` refuses an unknown one
    ("tick", _integer(0), _REQUIRED),
    ("lat", _float, 0.0),
    ("lon", _float, 0.0),
    ("fw_version", _integer(), 0),
)


def parse_scenario(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    # a ValueError besides a JSONDecodeError: an int literal past Python's 4,300 digits
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise ScenarioError("scenario must be a JSON object")
    cfg = ScenarioConfig(**_read(doc, "scenario", ScenarioConfig.rows))
    # the last tick, epochs * epoch_length - 1, is written as a U64 clock
    if cfg.epochs * cfg.epoch_length > 2**64:
        raise ScenarioError("scenario: epoch_length * epochs must be at most 2**64")
    if cfg.raised_majority < cfg.majority_parameter:
        raise ScenarioError("scenario: raised_majority must be at least majority_parameter")

    cfg.products = _by_id(ProductSpec, cfg.products, "product")
    image_names = set()
    for product in cfg.products.values():
        for name, _ in product.sw_images:
            if name in image_names:
                raise ScenarioError(
                    f"product {product.product_id}: sw image name {name!r} reused across products"
                )
            image_names.add(name)

    cfg.domains = _by_id(DomainSpec, cfg.domains, "domain")
    cfg.nodes = _by_id(NodeSpec, cfg.nodes, "node")
    if not cfg.nodes:
        raise ScenarioError("scenario: nodes must list at least one node")
    for node in cfg.nodes.values():
        if node.domain_id not in cfg.domains:
            raise ScenarioError(f"node {node.node_id}: unknown domain {node.domain_id!r}")
        if node.product_id not in cfg.products:
            raise ScenarioError(f"node {node.node_id}: unknown product {node.product_id!r}")

    faults = []
    for raw, fields in zip(cfg.faults, _items(cfg.faults, "fault", _FAULT, "{} on {}")):
        clone = fields["mutation"] == "clone_config"
        fault = FaultInjection(**fields, from_node=raw.get("from_node") if clone else "")
        where = f"fault on {fault.node_id}"
        if fault.node_id not in cfg.nodes:
            raise ScenarioError(f"fault: unknown node {fault.node_id!r}")
        if clone and (type(fault.from_node) is not str or fault.from_node not in cfg.nodes):
            raise ScenarioError(f"{where}: clone_config needs a known from_node")
        if fault.tick >= cfg.epochs * cfg.epoch_length:
            raise ScenarioError(f"{where}: tick {fault.tick} is after the last tick of the run")
        _checked(where, GeoPoint, fault.lat, fault.lon, 0.0)  # move_geo builds this point mid-run
        faults.append(fault)
    cfg.faults = sorted(faults, key=lambda f: (f.tick, f.node_id))  # the order they apply in
    return cfg


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


def _rules(cfg: ScenarioConfig) -> tuple[PolicyRule, ...]:
    """The rules of every verifier's policy, since the consortium sets its
    domains' policy: fw.min at the scenario's bound, one reference_match rule
    per sw image, then the geo_fence rule. The benchmark's sim-catalog
    scenario builds 61 rules for its 5 policies."""
    rules = (PolicyRule("fw.min", RuleKind.VERSION_AT_LEAST, "fw.version", cfg.fw_min_version),)
    rules += tuple(
        PolicyRule(f"ref.sw.{name}", RuleKind.REFERENCE_MATCH, f"sw.{name}.digest")
        for product in cfg.products.values() for name, _ in product.sw_images
    )
    if cfg.geo_fence is not None:
        rules += (PolicyRule("geo.fence", RuleKind.GEO_FENCE, "geo", fence=cfg.geo_fence),)
    return rules


def _policy_for(cfg: ScenarioConfig, policy_id: str, rules) -> EvidencePolicy:
    return EvidencePolicy(policy_id, rules, cfg.epoch_length, required_claims=("config.digest",))


def build_universe(cfg: ScenarioConfig) -> Universe:
    rng = random.Random(cfg.seed)

    endorser = SignerIdentity.create(Role.ENDORSER, "supply-chain", rng)
    endorsements = []
    for product in cfg.products.values():
        refs = {
            f"sw.{name}.digest": ClaimValue.of_digest(digest(image))
            for name, image in product.sw_images
        }
        endorsements.append(
            make_endorsement(endorser, product.product_id, ClaimSet(refs), issued_at=0)
        )

    rules = _rules(cfg)
    cv = VerifierContext(
        SignerIdentity.create(Role.VERIFIER, "consortium-verifier", rng),
        _policy_for(cfg, "consortium", rules), list(endorsements), rng,
    )
    universe = Universe(cfg, cv)

    # Each domain and each node draws one 32-byte key seed that nothing uses
    # (the bare `rng.randbytes(32)` below): the tips are a function of this
    # rng's stream.
    for dspec in cfg.domains.values():
        dv = VerifierContext(
            SignerIdentity.create(Role.VERIFIER, f"dv-{dspec.domain_id}", rng),
            _policy_for(cfg, f"domain-{dspec.domain_id}", rules), list(endorsements), rng,
        )
        rng.randbytes(32)
        universe.domains[dspec.domain_id] = Domain(dspec.domain_id, dv)

    for nspec in cfg.nodes.values():
        product = cfg.products[nspec.product_id]
        env = TargetEnvironment(
            hw_model=product.product_id,
            fw_version=product.fw_version,
            sw_images=product.sw_images,
            geo=nspec.geo,
            stake=nspec.stake,
        )
        attesting = AttestingEnvironment.create(nspec.node_id, rng, [env.config_digest()])
        rng.randbytes(32)
        universe.nodes[nspec.node_id] = Node(nspec.node_id, nspec.domain_id, attesting, env)

    check_faults(universe)
    return universe
