"""Shared utilities: seeded randomness and validation helpers.

Timing lives in the telemetry span tree (:mod:`repro.core.telemetry`).

These are deliberately dependency-light; every other subpackage may import
from here, but :mod:`repro.utils` imports nothing else from :mod:`repro`.
"""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_in_range",
    "check_nonnegative",
    "check_positive",
    "check_probability",
]
