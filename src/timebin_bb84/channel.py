"""Scalar-transmittance fiber model between the two stations.

Interference in this scheme is insensitive to polarization drift in the
link, so the channel reduces to a wavelength-flat power transmittance:
distance-proportional attenuation plus a fixed insertion term.  The fiber
scales every amplitude by sqrt(transmittance), preserving all relative
phases between bins.  Chromatic dispersion and timing jitter are ignored;
they are orders of magnitude below the 5 ns slot spacing at the lengths of
interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelSpec:
    """Fiber parameters. 0.2 dB/km is the generic telecom value at 1.55 um
    (an assumption; the modeled experiment used a short patch fiber)."""

    length_km: float = 0.0
    atten_db_per_km: float = 0.2
    fixed_insertion_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("length_km", "atten_db_per_km", "fixed_insertion_db"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


def transmittance(spec: ChannelSpec) -> float:
    """Power transmittance 10^-(length*atten + fixed)/10, in (0, 1]."""
    total_db = spec.length_km * spec.atten_db_per_km + spec.fixed_insertion_db
    return 10.0 ** (-total_db / 10.0)

