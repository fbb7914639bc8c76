"""Shared utilities: seeded randomness.

Timing lives in the telemetry span tree (:mod:`repro.core.telemetry`).

These are deliberately dependency-light; every other subpackage may import
from here, but :mod:`repro.utils` imports nothing else from :mod:`repro`.
"""

from repro.utils.rng import ensure_rng, spawn_rngs

__all__ = [
    "ensure_rng",
    "spawn_rngs",
]
