"""Timings scaled to a reference host speed.

On a shared host the speed of one core changes by up to 1.7x within seconds,
as other tenants come and go, so raw wall times of the same work differ from
run to run by more than the changes the benchmark has to resolve. The
Speedometer samples the host speed with a fixed probe whenever the last
sample is more than GAP_S seconds old, and scales each measured interval by
PROBE_REFERENCE_S / (probe time around it). The probe uses no attestnet code
(Ed25519 and SHA-256 from the same libraries, and a Python encoding loop), so a
change to attestnet does not change the scale. The time the probes themselves
take is excluded from every interval.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

GAP_S = 0.05
# Typical probe time on the 2-vCPU 2.1 GHz Xeon VM that the baseline was
# measured on; scaled timings read as wall time at that speed.
PROBE_REFERENCE_S = 0.0007

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(range(256)) * 4
_SIGNATURE = _KEY.sign(_MESSAGE)


def probe() -> float:
    """Run the fixed probe once; return its wall time."""
    start = time.perf_counter()
    for _ in range(2):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
        _KEY.sign(_MESSAGE[:512])
        hashlib.sha256(_MESSAGE * 4).digest()
        fields = {f"claim.{i}.digest": i for i in range(60)}
        b"".join(struct.pack(">Q", len(k)) + k.encode() + struct.pack(">q", v)
                 for k, v in sorted(fields.items()))
    return time.perf_counter() - start


class Speedometer:
    """Probe samples of one run, and intervals scaled by them."""

    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._took: list[float] = []

    def sample(self):
        start = time.perf_counter()
        took = probe()
        self._starts.append(start)
        self._ends.append(start + took)
        self._took.append(took)

    def tick(self):
        """Sample if the last sample is more than GAP_S old."""
        if not self._ends or time.perf_counter() - self._ends[-1] > GAP_S:
            self.sample()

    def duration(self, start: float, end: float, scaled: bool = True) -> float:
        """end - start without the probes inside it, at reference speed unless
        `scaled` is false."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._ends, end)
        raw = end - start - sum(self._took[lo:hi])
        if not scaled:
            return raw
        # the samples inside the interval and the two that bracket it
        near = self._took[max(lo - 1, 0):min(hi + 1, len(self._took))] or self._took
        return raw * PROBE_REFERENCE_S * len(near) / sum(near)
