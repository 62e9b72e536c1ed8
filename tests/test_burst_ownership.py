"""Each array the burst path returns is the caller's own.

``interleave``'s sub-blocks, ``transmit``'s received values and the soft values of
``demap_burst`` and ``deinterleave`` are fresh arrays, and a ``Burst``'s payload is a
read-only copy: writing into one result changes no other result, no input, no
``Burst`` and nothing a later call returns.  A buffer kept from call to call, the
shortcut that saving an allocation tempts, fails here.  ``transmit`` runs whichever
channel ``kernels.channel`` is, so each test runs once per channel backend.
"""

import numpy as np
import pytest

from hrcc import kernels
from hrcc.bits import Burst
from hrcc.interleaving import InterleaveMode, deinterleave, demap_burst, interleave, map_to_burst
from hrcc.simulation import transmit

CHANNELS = [
    pytest.param(kernels.channel_np, id="numpy"),
    pytest.param(kernels.channel_c, id="c",
                 marks=pytest.mark.skipif(kernels.channel_c is None, reason="no compiled kernel")),
]
WRITABLE = ("subs", "received", "demapped", "lifted", "soft")


def _burst_path(mode: InterleaveMode, coded: np.ndarray) -> dict[str, list]:
    """Every result of one coded block's trip: its sub-blocks, their bursts, each burst's received
    values and their demapped copies, each burst's bits lifted to soft values, and the block's
    soft values."""
    subs = interleave(mode, coded)
    bursts = [map_to_burst(sub) for sub in subs]
    rng = np.random.default_rng(9)
    received = [transmit(burst.payload, 0.8, rng) for burst in bursts]
    demapped = [demap_burst(values) for values in received]
    return {"subs": subs, "bursts": bursts, "received": received, "demapped": demapped,
            "lifted": [demap_burst(burst) for burst in bursts],
            "soft": [deinterleave(mode, demapped)]}


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("mode", list(InterleaveMode))
def test_writing_into_a_burst_path_result_changes_no_other_array(monkeypatch, channel, mode):
    monkeypatch.setattr(kernels, "channel", channel)
    coded = np.random.default_rng(5).integers(0, 2, mode.block_bits, dtype=np.uint8)
    kept = coded.copy()
    want = {key: [np.copy(a) for a in arrays] for key, arrays in _burst_path(mode, coded).items()
            if key in WRITABLE}
    got = _burst_path(mode, coded)
    bursts = got["bursts"]
    payloads = [burst.payload.copy() for burst in bursts]
    written = [(key, n) for key in WRITABLE for n in range(len(got[key]))]
    for i, (key, n) in enumerate(written):
        got[key][n][...] = 7
        # Each pair is seen once: the second array of it has not been written yet.
        for other, m in written[i + 1:]:
            assert np.array_equal(got[other][m], want[other][m]), f"{key}[{n}] wrote {other}[{m}]"
        assert all(np.array_equal(b.payload, p) for b, p in zip(bursts, payloads)), key
        assert np.array_equal(coded, kept), key
    again = _burst_path(mode, coded)  # a later call gives what the first one gave
    for key in WRITABLE:
        assert all(np.array_equal(a, b) for a, b in zip(again[key], want[key], strict=True)), key
    assert again["bursts"] == [Burst(p) for p in payloads]


def test_a_burst_payload_stays_read_only():
    sub = np.zeros(114, np.uint8)
    burst = map_to_burst(sub)
    assert not burst.payload.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        burst.payload[0] = 1
    with pytest.raises(ValueError):
        burst.payload.flags.writeable = True  # a copy over bytes: nothing can make it writable
    sub[0] = 1  # the caller's block stays the caller's
    assert burst.payload[0] == 0 and sub.flags.writeable
