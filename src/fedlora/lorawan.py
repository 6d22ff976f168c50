"""LoRaWAN message budgeting for federated weight exchange.

Each spreading factor caps the application payload per message and, via
duty-cycle rules, imposes a minimum interval between messages. The
planner turns a model's serialized size and a round count into message
counts and minimum air-schedule hours.

Two counting conventions exist: `per_round` fragments every round's
update independently (ceil per round), while `total` spreads the whole
byte volume over messages with a single ceiling. Physical transmission
matches `per_round`; `total` is the arithmetic used by rounded-KB
budget tables.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import autoencoder as ae

CONVENTIONS = ("per_round", "total")
MAX_FRAGMENTS = 65_535  # a 16-bit fragment counter; the largest published plan needs 111


@dataclass(frozen=True)
class LoRaWANProfile:
    """Per-SF payload cap (bytes) and minimum send interval (seconds)."""

    spreading_factor: int
    max_payload: int
    min_periodicity: float

    def __post_init__(self):
        if self.max_payload <= 0 or self.min_periodicity <= 0:
            raise ValueError("payload and periodicity must be positive")


PROFILES = {
    7: LoRaWANProfile(7, 222, 6.2),
    8: LoRaWANProfile(8, 222, 11.3),
    9: LoRaWANProfile(9, 115, 20.6),
    10: LoRaWANProfile(10, 115, 41.2),
    11: LoRaWANProfile(11, 51, 82.3),
    12: LoRaWANProfile(12, 51, 148.3),
}


def profile_for(sf: int) -> LoRaWANProfile:
    try:
        return PROFILES[sf]
    except KeyError:
        raise ValueError(f"spreading factor must be in 7..12, got {sf}")


def messages_required(
    model_bytes: float, rounds: int, profile: LoRaWANProfile, convention: str = "per_round"
) -> int:
    """Uplink messages to ship `rounds` model updates at the given SF.

    `model_bytes` may be fractional, so rounded-KB sizes (KB * 1024)
    reproduce budget-table arithmetic exactly; `per_round` counts a
    fractional byte as a whole one, as `fragmentation_plan` does.
    """
    if not (math.isfinite(model_bytes) and model_bytes > 0):
        raise ValueError(f"model_bytes must be finite and positive, got {model_bytes}")
    if isinstance(rounds, bool) or not isinstance(rounds, numbers.Integral) or rounds < 1:
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    if convention == "per_round":
        return -(-math.ceil(model_bytes) // profile.max_payload) * rounds
    try:
        return math.ceil(model_bytes * rounds / profile.max_payload)
    except OverflowError as exc:  # the byte volume leaves float range
        raise ValueError("model_bytes * rounds is too large for a float byte volume") from exc


def training_hours(n_messages: int, profile: LoRaWANProfile) -> float:
    """Minimum hours to send n_messages at the SF's duty-cycle interval."""
    try:
        hours = n_messages * profile.min_periodicity / 3600.0
    except OverflowError as exc:  # an int beyond float range
        raise ValueError("message count is too large for float hours") from exc
    if not (math.isfinite(hours) and n_messages >= 0):
        raise ValueError(f"message count must be >= 0 and give finite hours, got {n_messages:.6g}")
    return hours


def fragmentation_plan(model_bytes: float, profile: LoRaWANProfile) -> list[int]:
    """Split one update into payload-sized fragments; all but the last full.

    A fractional byte counts as a whole one. More than MAX_FRAGMENTS
    fragments raise ValueError before the list is built.
    """
    if not (math.isfinite(model_bytes) and model_bytes > 0):
        raise ValueError(f"model_bytes must be finite and positive, got {model_bytes}")
    full, rest = divmod(math.ceil(model_bytes), profile.max_payload)
    if full + (rest > 0) > MAX_FRAGMENTS:
        raise ValueError(f"model_bytes {model_bytes} needs more than {MAX_FRAGMENTS} fragments")
    plan = [profile.max_payload] * full
    if rest:
        plan.append(rest)
    return plan


def plan_table(models, spreading_factors, round_counts, convention: str = "per_round") -> list[dict]:
    """Message/hour budget over the Cartesian product of the inputs.

    `models` entries are either ArchSpec instances (sized via their
    float32 parameter payload) or explicit byte sizes. Returns one row
    per cell with the columns used by the plan CSV export.
    """
    if not models or not spreading_factors or not round_counts:
        raise ValueError("plan axes must be non-empty")
    rows = []
    for entry in models:
        if isinstance(entry, ae.ArchSpec):
            params = ae.param_count(entry)
            nbytes = float(params * 4)
            arch = "x".join(str(h) for h in entry.hidden_sizes)
            hidden = entry.hidden_sizes[0]
        else:
            params = ""
            nbytes = float(entry)
            arch = ""
            hidden = ""
        for sf in spreading_factors:
            profile = profile_for(sf)
            for rounds in round_counts:
                nm = messages_required(nbytes, rounds, profile, convention)
                rows.append(
                    {
                        "arch": arch,
                        "hidden": hidden,
                        "params": params,
                        "bytes": nbytes,
                        "sf": sf,
                        "rounds": rounds,
                        "convention": convention,
                        "messages": nm,
                        "hours": training_hours(nm, profile),
                    }
                )
    return rows
