"""Superframe construction with guaranteed time slots.

The coordinator's superframe starts with a beacon in slot 0, followed by
the contention access period, then a contention free period in which
guaranteed time slots are granted first-fit in request order.  Requests
that do not fit are rejected individually; earlier grants stand.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GtsAllocation", "Superframe", "MacError", "build_superframe", "BEACON_SLOT"]

BEACON_SLOT = 0


class MacError(ValueError):
    """Invalid superframe geometry."""


def _check_geometry(total_slots: int, cfp_start: int) -> None:
    if not total_slots > cfp_start >= 1:
        raise MacError(
            f"need total_slots > cfp_start >= 1, got "
            f"total_slots={total_slots} cfp_start={cfp_start}"
        )


@dataclass(frozen=True)
class GtsAllocation:
    owner: int
    start_slot: int
    slot_count: int

    @property
    def slots(self) -> range:
        return range(self.start_slot, self.start_slot + self.slot_count)


@dataclass(frozen=True)
class Superframe:
    total_slots: int
    cfp_start: int
    allocations: tuple = ()
    rejected: tuple = ()

    def __post_init__(self):
        _check_geometry(self.total_slots, self.cfp_start)
        object.__setattr__(self, "allocations", tuple(self.allocations))
        object.__setattr__(self, "rejected", tuple(self.rejected))
        claimed = set()
        for alloc in self.allocations:
            slots = set(alloc.slots)
            if not slots:
                raise MacError(f"empty allocation for owner {alloc.owner}")
            if min(slots) < self.cfp_start or max(slots) >= self.total_slots:
                raise MacError(
                    f"allocation for owner {alloc.owner} leaves the contention free period"
                )
            if claimed & slots:
                raise MacError(f"overlapping allocation for owner {alloc.owner}")
            claimed |= slots

    @property
    def beacon_slot(self) -> int:
        return BEACON_SLOT

    @property
    def cap_slots(self) -> range:
        """Contention access period: everything between beacon and CFP."""
        return range(1, self.cfp_start)

    @property
    def free_cfp_slots(self) -> tuple:
        """CFP slots no grant occupies, in ascending order."""
        used = {s for a in self.allocations for s in a.slots}
        return tuple(s for s in range(self.cfp_start, self.total_slots) if s not in used)


def build_superframe(requests, total_slots: int, cfp_start: int) -> Superframe:
    """Allocate guaranteed time slots first-fit in request order.

    ``requests`` is an iterable of (owner, slot_count) pairs.  A request
    that exceeds the remaining contention free period (or asks for fewer
    than one slot) is rejected; the superframe is still built.
    """
    _check_geometry(total_slots, cfp_start)
    cursor = cfp_start
    granted = []
    rejected = []
    for owner, slot_count in requests:
        if slot_count < 1 or cursor + slot_count > total_slots:
            rejected.append((owner, slot_count))
            continue
        granted.append(GtsAllocation(owner=owner, start_slot=cursor, slot_count=slot_count))
        cursor += slot_count
    return Superframe(
        total_slots=total_slots,
        cfp_start=cfp_start,
        allocations=tuple(granted),
        rejected=tuple(rejected),
    )
