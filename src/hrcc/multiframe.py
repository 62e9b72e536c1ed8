"""51-multiframe layout for the SDCCH/8 and SDCCH/4 configurations.

The frame-number table follows the conventional arrangement: SDCCH
sub-channel k owns frames 4k..4k+3 of every multiframe, SACCH groups
follow with sub-channel ownership alternating between even and odd
multiframes, and the remainder of each multiframe is idle (for SDCCH/4
the idle span stands in for the unmodelled broadcast/common channels).

Modified mode keeps the same frame numbers and shares every 4-frame
group between two users, each owning the group-relative bursts of its
``SubAllocation.burst_positions``, which doubles the number of logical
channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bits import IdentityEnum, SubAllocation, check_int, check_type

FRAMES_PER_MULTIFRAME = 51
GROUP_FRAMES = 4


class ChannelConfig(IdentityEnum):
    SDCCH8 = "sdcch8"
    SDCCH4 = "sdcch4"

    @property
    def subchannels(self) -> int:
        return 8 if self is ChannelConfig.SDCCH8 else 4


class FrameMode(IdentityEnum):
    STANDARD = "standard"
    MODIFIED = "modified"


class ChannelKind(IdentityEnum):
    SDCCH = "sdcch"
    SACCH = "sacch"


@dataclass(frozen=True)
class MultiframeConfig:
    config: ChannelConfig
    mode: FrameMode

    def __post_init__(self):
        check_type(self.config, ChannelConfig, "config")
        check_type(self.mode, FrameMode, "mode")


@dataclass(frozen=True)
class LogicalChannelId:
    kind: ChannelKind
    subchannel: int
    suballoc: SubAllocation | None = None

    def validate(self, cfg: MultiframeConfig) -> None:
        check_type(self.kind, ChannelKind, "kind")
        check_type(self.suballoc, (type(None), SubAllocation), "suballoc")
        config = check_type(cfg, MultiframeConfig, "cfg").config  # "sdcch8" names no mode
        check_int(self.subchannel, "subchannel", 0, config.subchannels)
        if cfg.mode is FrameMode.MODIFIED and self.suballoc is None:
            raise ValueError("modified mode requires a sub-allocation")
        if cfg.mode is FrameMode.STANDARD and self.suballoc is not None:
            raise ValueError("standard mode has no sub-allocations")


@dataclass(frozen=True)
class FrameSlot:
    """One frame of a two-multiframe cycle; parity 0 = even multiframe."""

    multiframe_parity: int
    frame_number: int
    owner: LogicalChannelId | None


def _group_table(config: ChannelConfig, parity: int) -> list[tuple[int, ChannelKind, int]]:
    """(first_frame, kind, subchannel) for every 4-frame group of one multiframe."""
    n = config.subchannels
    groups = [(GROUP_FRAMES * k, ChannelKind.SDCCH, k) for k in range(n)]
    sacch_base = GROUP_FRAMES * n
    half = n // 2
    for g in range(half):
        sub = g + half * parity
        groups.append((sacch_base + GROUP_FRAMES * g, ChannelKind.SACCH, sub))
    return groups


def build_layout(cfg: MultiframeConfig) -> list[FrameSlot]:
    """All 102 slots of a two-multiframe cycle, idle frames included."""
    return list(_layout(check_type(cfg, MultiframeConfig, "cfg")))


@lru_cache(maxsize=None)
def _layout(cfg: MultiframeConfig) -> tuple[FrameSlot, ...]:
    slots: list[FrameSlot] = []
    for parity in (0, 1):
        owners: dict[int, LogicalChannelId] = {}
        for first, kind, sub in _group_table(cfg.config, parity):
            for r in range(GROUP_FRAMES):
                if cfg.mode is FrameMode.MODIFIED:
                    alloc = next(a for a in SubAllocation if r in a.burst_positions)
                    owners[first + r] = LogicalChannelId(kind, sub, alloc)
                else:
                    owners[first + r] = LogicalChannelId(kind, sub)
        for frame in range(FRAMES_PER_MULTIFRAME):
            slots.append(FrameSlot(parity, frame, owners.get(frame)))
    return tuple(slots)


def bursts_for(cfg: MultiframeConfig, chan: LogicalChannelId) -> list[tuple[int, int]]:
    """(cycle_frame, group_burst) pairs owned by ``chan`` in one cycle.

    Cycle frames count 0..101 across the two multiframes; the group burst
    index is the frame's position within its 4-frame group, so a modified
    channel sees the ``burst_positions`` of its sub-allocation.
    """
    check_type(chan, LogicalChannelId, "chan").validate(cfg)
    # Keyed on the fields, which hash and compare in C, not on the dataclasses, whose __hash__
    # and __eq__ run in Python.
    return list(_bursts(cfg.config, cfg.mode, chan.kind, chan.subchannel, chan.suballoc))


@lru_cache(maxsize=None)
def _bursts(config: ChannelConfig, mode: FrameMode, kind: ChannelKind, subchannel: int,
            suballoc: SubAllocation | None) -> tuple[tuple[int, int], ...]:
    chan = LogicalChannelId(kind, subchannel, suballoc)
    return tuple(
        (slot.multiframe_parity * FRAMES_PER_MULTIFRAME + slot.frame_number,
         slot.frame_number % GROUP_FRAMES)
        for slot in _layout(MultiframeConfig(config, mode))
        if slot.owner == chan
    )


@dataclass(frozen=True)
class CapacityReport:
    config: ChannelConfig
    mode: FrameMode
    sdcch_count: int
    sacch_count: int
    idle_frames: int

    def as_text(self) -> str:
        return "\n".join(
            [
                f"config={self.config.value}",
                f"mode={self.mode.value}",
                f"sdcch_count={self.sdcch_count}",
                f"sacch_count={self.sacch_count}",
                f"idle_frames={self.idle_frames}",
            ]
        )


def capacity_report(cfg: MultiframeConfig) -> CapacityReport:
    """Logical channel counts plus idle frames per multiframe."""
    slots = _layout(check_type(cfg, MultiframeConfig, "cfg"))
    sdcch = {s.owner for s in slots if s.owner and s.owner.kind is ChannelKind.SDCCH}
    sacch = {s.owner for s in slots if s.owner and s.owner.kind is ChannelKind.SACCH}
    idle = sum(1 for s in slots if s.multiframe_parity == 0 and s.owner is None)
    return CapacityReport(cfg.config, cfg.mode, len(sdcch), len(sacch), idle)
