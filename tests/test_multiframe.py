import enum
import importlib
import inspect
import itertools
import pkgutil
import re

import numpy as np
import pytest

import hrcc
from hrcc.bits import SubAllocation
from hrcc.multiframe import (
    ChannelConfig,
    ChannelKind,
    FrameMode,
    LogicalChannelId,
    MultiframeConfig,
    build_layout,
    bursts_for,
    capacity_report,
)


def _all_channels(cfg: MultiframeConfig):
    allocs = [None] if cfg.mode is FrameMode.STANDARD else list(SubAllocation)
    for kind in ChannelKind:
        for sub in range(cfg.config.subchannels):
            for alloc in allocs:
                yield LogicalChannelId(kind, sub, alloc)


def test_sdcch8_standard_frame_budget():
    cfg = MultiframeConfig(ChannelConfig.SDCCH8, FrameMode.STANDARD)
    slots = [s for s in build_layout(cfg) if s.multiframe_parity == 0]
    assert len(slots) == 51
    sdcch = [s for s in slots if s.owner and s.owner.kind is ChannelKind.SDCCH]
    sacch = [s for s in slots if s.owner and s.owner.kind is ChannelKind.SACCH]
    idle = [s for s in slots if s.owner is None]
    assert (len(sdcch), len(sacch), len(idle)) == (32, 16, 3)  # 8*4 + 4*4 + 3 == 51


def test_layout_covers_two_multiframes():
    for config, mode in itertools.product(ChannelConfig, FrameMode):
        slots = build_layout(MultiframeConfig(config, mode))
        assert len(slots) == 102
        assert {(s.multiframe_parity, s.frame_number) for s in slots} == {
            (p, f) for p in (0, 1) for f in range(51)
        }


def test_sdcch_subchannels_own_four_consecutive_frames_per_multiframe():
    cfg = MultiframeConfig(ChannelConfig.SDCCH8, FrameMode.STANDARD)
    for sub in range(8):
        chan = LogicalChannelId(ChannelKind.SDCCH, sub)
        frames = [f for f, _ in bursts_for(cfg, chan)]
        assert frames == [4 * sub + r for r in range(4)] + [51 + 4 * sub + r for r in range(4)]


def test_sacch_alternates_by_multiframe_parity():
    cfg = MultiframeConfig(ChannelConfig.SDCCH8, FrameMode.STANDARD)
    low = bursts_for(cfg, LogicalChannelId(ChannelKind.SACCH, 0))
    high = bursts_for(cfg, LogicalChannelId(ChannelKind.SACCH, 4))
    assert [f for f, _ in low] == [32, 33, 34, 35]  # even multiframe only
    assert [f for f, _ in high] == [51 + 32, 51 + 33, 51 + 34, 51 + 35]  # odd only


def test_standard_control_frames_use_all_four_bursts():
    cfg = MultiframeConfig(ChannelConfig.SDCCH4, FrameMode.STANDARD)
    pairs = bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 2))
    assert [b for _, b in pairs] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_modified_suballocations_split_each_group():
    cfg = MultiframeConfig(ChannelConfig.SDCCH8, FrameMode.MODIFIED)
    even = bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 3, SubAllocation.EVEN))
    odd = bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 3, SubAllocation.ODD))
    assert [b for _, b in even] == [0, 2, 0, 2]
    assert [b for _, b in odd] == [1, 3, 1, 3]
    # the two users share the group without collisions and cover it fully
    assert not set(even) & set(odd)
    group_frames = {f for f, _ in even} | {f for f, _ in odd}
    assert group_frames == {12, 13, 14, 15, 63, 64, 65, 66}


def test_no_frame_is_owned_twice_and_channels_get_whole_control_frames():
    for config, mode in itertools.product(ChannelConfig, FrameMode):
        cfg = MultiframeConfig(config, mode)
        seen = {}
        per_frame_bursts = 4 if mode is FrameMode.STANDARD else 2
        for chan in _all_channels(cfg):
            pairs = bursts_for(cfg, chan)
            assert len(pairs) % per_frame_bursts == 0
            for key in pairs:
                assert key not in seen, f"{key} owned by {seen.get(key)} and {chan}"
                seen[key] = chan
        owned = sum(1 for s in build_layout(cfg) if s.owner is not None)
        assert len(seen) == owned


@pytest.mark.parametrize(
    "config,standard_count",
    [(ChannelConfig.SDCCH8, 8), (ChannelConfig.SDCCH4, 4)],
)
def test_capacity_doubles_in_modified_mode(config, standard_count):
    std = capacity_report(MultiframeConfig(config, FrameMode.STANDARD))
    mod = capacity_report(MultiframeConfig(config, FrameMode.MODIFIED))
    assert std.sdcch_count == standard_count
    assert std.sacch_count == standard_count
    assert mod.sdcch_count == 2 * standard_count
    assert mod.sacch_count == 2 * standard_count
    assert std.idle_frames == mod.idle_frames


def test_capacity_report_text_contract():
    text = capacity_report(
        MultiframeConfig(ChannelConfig.SDCCH8, FrameMode.MODIFIED)
    ).as_text()
    assert "sdcch_count=16" in text
    assert "sacch_count=16" in text
    assert "idle_frames=3" in text


def test_channel_validation():
    cfg = MultiframeConfig(ChannelConfig.SDCCH4, FrameMode.STANDARD)
    with pytest.raises(ValueError):
        bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 4))
    with pytest.raises(ValueError):
        bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 0, SubAllocation.EVEN))
    modified = MultiframeConfig(ChannelConfig.SDCCH4, FrameMode.MODIFIED)
    with pytest.raises(ValueError):
        bursts_for(modified, LogicalChannelId(ChannelKind.SDCCH, 0))
    with pytest.raises(TypeError):
        bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 1.5))
    # Unchecked, both owned no burst and bursts_for returned [].
    with pytest.raises(TypeError, match="suballoc must be"):
        bursts_for(modified, LogicalChannelId(ChannelKind.SDCCH, 1, "even"))
    with pytest.raises(TypeError, match="kind must be"):
        bursts_for(cfg, LogicalChannelId("sdcch", 1))
    one = LogicalChannelId(ChannelKind.SDCCH, np.int64(1))  # numpy integers still pass
    assert bursts_for(cfg, one) == bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 1)) != []


def test_config_fields_must_be_their_enums():
    # Unchecked, "sdcch8" and "standard" failed later with an AttributeError.
    with pytest.raises(TypeError, match="config must be a ChannelConfig, got 'sdcch8'"):
        MultiframeConfig("sdcch8", "standard")
    with pytest.raises(TypeError, match="mode must be a FrameMode, got 'modified'"):
        MultiframeConfig(ChannelConfig.SDCCH8, "modified")
    with pytest.raises(TypeError, match="config must be a ChannelConfig, got <FrameMode"):
        MultiframeConfig(FrameMode.STANDARD, ChannelConfig.SDCCH8)


@pytest.mark.parametrize("bad", ["sdcch8", ChannelConfig.SDCCH8, None])
def test_layout_functions_take_only_a_multiframe_config(bad):
    # Each raised AttributeError: 'str' object has no attribute 'config'.
    calls = [build_layout, capacity_report, LogicalChannelId(ChannelKind.SDCCH, 1).validate,
             lambda cfg: bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 1))]
    for call in calls:
        with pytest.raises(TypeError, match=f"cfg must be a MultiframeConfig, got {bad!r}"):
            call(bad)


@pytest.mark.parametrize("bad", [(ChannelKind.SDCCH, 1), "sdcch", None])
def test_bursts_for_takes_only_a_logical_channel_id(bad):
    # Each raised AttributeError: ... has no attribute 'validate'.
    cfg = MultiframeConfig(ChannelConfig.SDCCH8, FrameMode.STANDARD)
    with pytest.raises(TypeError, match=re.escape(f"chan must be a LogicalChannelId, got {bad!r}")):
        bursts_for(cfg, bad)


def test_callers_get_their_own_lists():
    cfg = MultiframeConfig(ChannelConfig.SDCCH8, FrameMode.MODIFIED)
    chan = LogicalChannelId(ChannelKind.SDCCH, 3, SubAllocation.ODD)
    layout, bursts = build_layout(cfg), bursts_for(cfg, chan)
    expected_layout, expected_bursts = list(layout), list(bursts)
    layout.clear()
    bursts.append((0, 0))
    assert build_layout(cfg) == expected_layout
    assert bursts_for(cfg, chan) == expected_bursts


def _hrcc_enums() -> list[type[enum.Enum]]:
    """Every Enum subclass defined in an hrcc module."""
    modules = [importlib.import_module(f"hrcc.{info.name}")
               for info in pkgutil.iter_modules(hrcc.__path__)]
    return [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, enum.Enum) and cls.__module__ == module.__name__]


def test_every_hrcc_enum_hashes_by_identity():
    # Enum's own __hash__ hashes the member's name in Python, on every dict and cache lookup.
    enums = _hrcc_enums()
    assert {cls.__name__ for cls in enums} >= {"SchemeId", "InterleaveMode", "SubAllocation",
                                               "ChannelConfig", "FrameMode", "ChannelKind"}
    assert [cls for cls in enums if cls.__hash__ is not object.__hash__] == []


@pytest.mark.parametrize("mode", list(FrameMode))
def test_equal_channels_built_apart_get_equal_bursts(mode):
    for config in ChannelConfig:
        cfg = MultiframeConfig(config, mode)
        for chan in _all_channels(cfg):
            twin_cfg = MultiframeConfig(ChannelConfig(config.value), FrameMode(mode.value))
            twin = LogicalChannelId(ChannelKind(chan.kind.value), np.int64(chan.subchannel),
                                    chan.suballoc)
            assert twin_cfg is not cfg and twin is not chan
            assert bursts_for(twin_cfg, twin) == bursts_for(cfg, chan) != []
