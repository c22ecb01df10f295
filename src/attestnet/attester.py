"""Attester role: measures a target environment into claims, signs plain,
layered and composite evidence through one signer, builds the layer-key chain
that the verifier recomputes, and gates a transaction key on approved config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import (
    BLOB,
    DIGEST,
    GEO,
    I64,
    SIGNING_KEY,
    TEXT,
    U64,
    ClaimSet,
    ClaimValue,
    Digest,
    EntityId,
    Evidence,
    GeoPoint,
    LayerRecord,
    ModelError,
    Nonce,
    Role,
    SigningKey,
    Table,
    _digest_of,
    _once,
    decode,
    digest,
    encode,
    keyed_digest,
    pair,
    seq,
    sign_message,
)


class AttesterError(ValueError):
    """Raised on invalid attester operations (evidence before its challenge, bad components)."""


@dataclass(frozen=True)
class TargetEnvironment:
    hw_model: str
    fw_version: int
    sw_images: tuple[tuple[str, bytes], ...]
    geo: GeoPoint
    gpu_count: int = 0
    stake: int = 0

    def __post_init__(self):
        names = [n for n, _ in self.sw_images]
        if len(set(names)) != len(names):
            raise ModelError("sw image names must be unique")
        if self.gpu_count < 0 or self.stake < 0:
            raise ModelError("gpu count and stake must be non-negative")

    def to_bytes(self) -> bytes:
        return encode(_TARGET, self)

    def config_digest(self) -> Digest:
        return _once(self, "_config_digest", _digest_of)


_TARGET = Table(
    TargetEnvironment,
    ("hw_model", TEXT),
    ("fw_version", I64),
    ("sw_images", seq(pair(TEXT, BLOB))),
    ("geo", GEO),
    ("gpu_count", U64),
    ("stake", U64),
)


def measure(env: TargetEnvironment) -> ClaimSet:
    """Measure a target environment into its standard claim set, stored on
    the environment (`model._once`)."""
    return _once(env, "_claims", _measure)


def _measure(env: TargetEnvironment) -> ClaimSet:
    claims = {
        "hw.model": ClaimValue.of_text(env.hw_model),
        "fw.version": ClaimValue.of_int(env.fw_version),
        "geo": ClaimValue("geo", env.geo),
        "gpu.count": ClaimValue.of_int(env.gpu_count),
        "config.digest": ClaimValue.of_digest(env.config_digest()),
    }
    for name, image in env.sw_images:
        claims[f"sw.{name}.digest"] = ClaimValue.of_digest(digest(image))
    return ClaimSet(claims)


def derive_layer_key(parent_secret: bytes, measurement: Digest) -> bytes:
    """Derive the next layer secret from the parent via the keyed hash."""
    if len(parent_secret) != 32:
        raise AttesterError("parent secret must be 32 bytes")
    return keyed_digest(parent_secret, measurement.value)


def layer_chain(secret: bytes, measurements: Sequence[Digest]) -> list[LayerRecord]:
    """The records of a boot whose layers measure `measurements`, keyed from `secret`."""
    records = []
    for i, measurement in enumerate(measurements):
        secret = derive_layer_key(secret, measurement)
        records.append(LayerRecord(i, measurement, digest(secret)))
    return records


def layer_chain_from_images(device_secret: bytes, layer_images: Sequence[bytes]) -> list[LayerRecord]:
    """Compute the full layer chain for a boot sequence of code images."""
    if not layer_images:
        raise AttesterError("layer chain requires at least one image")
    return layer_chain(device_secret, [digest(image) for image in layer_images])


@dataclass
class AttestingEnvironment:
    """The measuring/signing capability of a node; single-owner mutable state."""

    identity: EntityId
    attestation_key: SigningKey
    device_secret: bytes
    approved_configs: list[Digest] = field(default_factory=list)
    tx_key: Optional[SigningKey] = None

    def __post_init__(self):
        if self.identity.role != Role.ATTESTER:
            raise ModelError("attesting environment identity must have the attester role")
        if len(self.device_secret) != 32:
            raise ModelError("device secret must be 32 bytes")

    @staticmethod
    def create(name: str, rng, approved_configs: Optional[list[Digest]] = None) -> "AttestingEnvironment":
        key = SigningKey.generate(rng)
        return AttestingEnvironment(
            identity=EntityId(Role.ATTESTER, name, key.public_bytes),
            attestation_key=key,
            device_secret=rng.randbytes(32),
            approved_configs=list(approved_configs or []),
            tx_key=SigningKey.generate(rng),
        )

    # -- evidence generation ------------------------------------------------

    def _evidence(self, env: TargetEnvironment, challenge: Nonce, clock: int, **parts) -> Evidence:
        """Every builder's clock check and signature: `parts` adds a layer chain or components."""
        if clock < challenge.issued_at:
            raise AttesterError("clock regression: evidence time precedes challenge issue")
        return sign_message(
            Evidence(self.identity, measure(env), challenge, clock, **parts), self.attestation_key
        )

    def generate_evidence(self, env: TargetEnvironment, challenge: Nonce, clock: int) -> Evidence:
        return self._evidence(env, challenge, clock)

    def build_layered_evidence(
        self, env: TargetEnvironment, layer_images: Sequence[bytes], challenge: Nonce, clock: int
    ) -> Evidence:
        chain = layer_chain_from_images(self.device_secret, layer_images)
        return self._evidence(env, challenge, clock, layer_chain=tuple(chain))

    def collate_composite(
        self,
        own_env: TargetEnvironment,
        component_evidence: Sequence[Evidence],
        challenge: Nonce,
        clock: int,
    ) -> Evidence:
        for i, comp in enumerate(component_evidence):
            if not comp.verify_signature():
                raise AttesterError(f"component {i} evidence signature invalid")
        return self._evidence(own_env, challenge, clock,
                              components=tuple(component_evidence), lead_assertion=True)

    # -- transaction-key gating ----------------------------------------------

    def use_tx_key(self, env: TargetEnvironment, payload: bytes):
        """Sign `payload` with the tx key iff the current config is approved.

        Returns (signature, None) on success or (None, reason) on refusal.
        """
        if env.config_digest() in self.approved_configs:
            return self.tx_key.sign(payload), None
        return None, "unapproved_config"

    @property
    def tx_public_key(self) -> bytes:
        return self.tx_key.public_bytes

    # -- persistence (models reboot as destroy/reconstruct) ------------------

    def to_bytes(self) -> bytes:
        return encode(_STATE, self)

    @staticmethod
    def from_bytes(data: bytes) -> "AttestingEnvironment":
        return decode(_STATE, data)


# The persisted state: the identity is rebuilt from the name and the key.
_STATE = Table(
    lambda name, key, secret, tx_key, approved: AttestingEnvironment(
        EntityId(Role.ATTESTER, name, key.public_bytes), key, secret, list(approved), tx_key
    ),
    ("identity.name", TEXT),
    ("attestation_key", SIGNING_KEY),
    ("device_secret", BLOB),
    ("tx_key", SIGNING_KEY),
    ("approved_configs", seq(DIGEST)),
)
