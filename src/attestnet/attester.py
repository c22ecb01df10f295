"""Attester role: measures a target environment into claims, produces signed
evidence against a nonce, builds layered keyed-hash evidence chains, collates
composite evidence as a lead, and gates a transaction key on approved config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import (
    ClaimSet,
    ClaimValue,
    Decoder,
    Digest,
    Encoder,
    EntityId,
    Evidence,
    GeoPoint,
    LayerRecord,
    ModelError,
    Nonce,
    Role,
    SigningKey,
    _once,
    digest,
    keyed_digest,
    sign_message,
)


class AttesterError(ValueError):
    """Raised on invalid attester operations (clock regression, bad components)."""


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
        enc = Encoder()
        enc.text(self.hw_model)
        enc.i64(self.fw_version)
        enc.u64(len(self.sw_images))
        for name, image in self.sw_images:
            enc.text(name)
            enc.blob(image)
        enc.f64(self.geo.latitude)
        enc.f64(self.geo.longitude)
        enc.f64(self.geo.altitude)
        enc.u64(self.gpu_count)
        enc.u64(self.stake)
        return enc.getvalue()

    def config_digest(self) -> Digest:
        return _once(self, "config_digest", lambda: digest(self.to_bytes()))


def measure(env: TargetEnvironment) -> ClaimSet:
    """Measure a target environment into its standard claim set."""
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


def layer_chain_from_images(device_secret: bytes, layer_images: Sequence[bytes]) -> list[LayerRecord]:
    """Compute the full layer chain for a boot sequence of code images."""
    if not layer_images:
        raise AttesterError("layer chain requires at least one image")
    records = []
    secret = device_secret
    for i, image in enumerate(layer_images):
        measurement = digest(image)
        secret = derive_layer_key(secret, measurement)
        records.append(LayerRecord(i, measurement, digest(secret)))
    return records


@dataclass
class AttestingEnvironment:
    """The measuring/signing capability of a node; single-owner mutable state."""

    identity: EntityId
    attestation_key: SigningKey
    device_secret: bytes
    approved_configs: list[Digest] = field(default_factory=list)
    tx_key: Optional[SigningKey] = None
    tx_sealed: bool = True

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

    def generate_evidence(self, env: TargetEnvironment, challenge: Nonce, clock: int) -> Evidence:
        if clock < challenge.issued_at:
            raise AttesterError("clock regression: evidence time precedes challenge issue")
        return sign_message(
            Evidence(self.identity, measure(env), challenge, clock), self.attestation_key
        )

    def build_layered_evidence(
        self, env: TargetEnvironment, layer_images: Sequence[bytes], challenge: Nonce, clock: int
    ) -> Evidence:
        if clock < challenge.issued_at:
            raise AttesterError("clock regression: evidence time precedes challenge issue")
        chain = layer_chain_from_images(self.device_secret, layer_images)
        return sign_message(
            Evidence(self.identity, measure(env), challenge, clock, layer_chain=tuple(chain)),
            self.attestation_key,
        )

    def collate_composite(
        self,
        own_env: TargetEnvironment,
        component_evidence: Sequence[Evidence],
        challenge: Nonce,
        clock: int,
    ) -> Evidence:
        if clock < challenge.issued_at:
            raise AttesterError("clock regression: evidence time precedes challenge issue")
        for i, comp in enumerate(component_evidence):
            if not comp.verify_signature():
                raise AttesterError(f"component {i} evidence signature invalid")
        return sign_message(
            Evidence(
                self.identity,
                measure(own_env),
                challenge,
                clock,
                components=tuple(component_evidence),
                lead_assertion=True,
            ),
            self.attestation_key,
        )

    # -- transaction-key gating ----------------------------------------------

    def use_tx_key(self, env: TargetEnvironment, payload: bytes):
        """Sign `payload` with the tx key iff the current config is approved.

        Returns (signature, None) on success or (None, reason) on refusal.
        """
        if env.config_digest() in self.approved_configs:
            self.tx_sealed = False
            return self.tx_key.sign(payload), None
        self.tx_sealed = True
        return None, "unapproved_config"

    @property
    def tx_public_key(self) -> bytes:
        return self.tx_key.public_bytes

    # -- persistence (models reboot as destroy/reconstruct) ------------------

    def to_bytes(self) -> bytes:
        enc = Encoder()
        enc.text(self.identity.name)
        enc.blob(self.attestation_key.private_bytes)
        enc.blob(self.device_secret)
        enc.blob(self.tx_key.private_bytes)
        enc.u64(len(self.approved_configs))
        for d in self.approved_configs:
            enc.raw(d.value)
        return enc.getvalue()

    @staticmethod
    def from_bytes(data: bytes) -> "AttestingEnvironment":
        dec = Decoder(data)
        name = dec.text()
        att_key = SigningKey(dec.blob())
        secret = dec.blob()
        tx_key = SigningKey(dec.blob())
        approved = [Digest(dec.raw(32)) for _ in range(dec.u64())]
        dec.done()
        return AttestingEnvironment(
            identity=EntityId(Role.ATTESTER, name, att_key.public_bytes),
            attestation_key=att_key,
            device_secret=secret,
            approved_configs=approved,
            tx_key=tx_key,
        )
