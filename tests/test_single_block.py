"""Every single-block function against one table of malformed blocks.

Each function takes one block: a 1-D, non-empty sequence of bits (0/1) or
of finite soft values, of a fixed length where the function has one.  Each
malformed input below raises a ValueError, unless the function takes it
(a soft value of 2, 0.5 or -1; a bit block of any length for ``transmit``
and ``to_hex``).  NaN and infinite bits are cast before the 0/1 check
refuses them, and the cast warns first; the warning is not what is tested.
A shape error names the block's own shape, and a function with a batch
twin checks its scheme or mode once, in the twin.
"""

import sys

import numpy as np
import pytest

from hrcc import bits, coding, interleaving, simulation
from hrcc.bits import Burst, to_hex
from hrcc.interleaving import InterleaveMode
from hrcc.schemes import SchemeId, decode_block, encode_block

SOFT_VALUES = {"a 2", "a 0.5", "a -1"}
ANY_LENGTH = {"short", "long"}

# name: (function, block length, soft, the malformed inputs it takes)
FUNCTIONS = {
    "encode_block": (lambda x: encode_block(SchemeId.STANDARD_456, x), 184, False, set()),
    "decode_block": (lambda x: decode_block(SchemeId.M2_REDUCED, x), 228, True, SOFT_VALUES),
    "interleave": (lambda x: interleaving.interleave(InterleaveMode.STD4, x), 456, False, set()),
    # The first of two sub-blocks.
    "deinterleave": (lambda x: interleaving.deinterleave(InterleaveMode.MOD2, [x, np.zeros(114)]),
                     114, True, SOFT_VALUES),
    "BlockCode.encode": (coding.FIRE_CODE.encode, 184, False, set()),
    "BlockCode.check": (coding.PARITY20_CODE.check, 110, False, set()),
    "viterbi_decode": (lambda x: coding.viterbi_decode(coding.CONV_RATE_12, x), 20, True,
                       SOFT_VALUES),
    "demap_burst": (interleaving.demap_burst, 114, True, SOFT_VALUES),
    "transmit": (lambda x: simulation.transmit(x, 0.8, np.random.default_rng(1)), 114, False,
                 ANY_LENGTH),
    "to_hex": (to_hex, 8, False, ANY_LENGTH),
    "Burst": (Burst, 114, False, set()),
}


def _one(n, value):
    block = np.zeros(n)
    block[n // 2] = value
    return block


# name: block of length n, soft or not
INPUTS = {
    "0-d": lambda n, soft: np.asarray(0.0 if soft else 0),
    "2-D": lambda n, soft: np.zeros((1, n)),
    "empty": lambda n, soft: np.zeros(0),
    "short": lambda n, soft: np.zeros(n - 1),
    "long": lambda n, soft: np.zeros(n + 1),
    "a 2": lambda n, soft: _one(n, 2),
    "a 0.5": lambda n, soft: _one(n, 0.5),
    "a -1": lambda n, soft: _one(n, -1),
    "NaN": lambda n, soft: _one(n, np.nan),
    "+inf": lambda n, soft: _one(n, np.inf),
    "-inf": lambda n, soft: _one(n, -np.inf),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("bad", INPUTS)
@pytest.mark.parametrize("name", FUNCTIONS)
def test_single_block_functions_refuse_malformed_blocks(name, bad):
    function, n, soft, takes = FUNCTIONS[name]
    block = INPUTS[bad](n, soft)
    if bad in takes:
        function(block)
    else:
        with pytest.raises(ValueError):
            function(block)


@pytest.mark.parametrize("subs", [[], [np.zeros(114)], [np.zeros(114)] * 3, [np.zeros(228)],
                                  [np.zeros(113), np.zeros(115)]],
                         ids=["none", "one short", "one long", "one joined", "uneven"])
def test_deinterleave_refuses_a_wrong_sub_block_count(subs):
    with pytest.raises(ValueError):
        interleaving.deinterleave(InterleaveMode.MOD2, subs)


def test_deinterleave_takes_its_sub_blocks_as_the_rows_of_an_array():
    subs = interleaving.interleave(InterleaveMode.MOD2, np.ones(228, np.uint8))
    soft = interleaving.deinterleave(InterleaveMode.MOD2, 1.0 - 2.0 * np.array(subs))
    assert np.array_equal(soft, -np.ones(228))


ANY_LENGTH_FUNCTIONS = {"transmit", "to_hex", "viterbi_decode"}  # the decoder: whole steps
SHAPE_CASES = [(name, bad) for name in FUNCTIONS for bad in ("0-d", "2-D", "empty", "short", "long")
               if name not in ANY_LENGTH_FUNCTIONS or bad not in ("short", "long")]


@pytest.mark.parametrize("name, bad", SHAPE_CASES)
def test_single_block_shape_errors_name_the_length_and_the_shape_given(name, bad):
    # The block's own shape, not the (1, n) of the batch of one row it is checked as.
    function, n, soft, _ = FUNCTIONS[name]
    block = INPUTS[bad](n, soft)
    with pytest.raises(ValueError) as error:
        function(block)
    message = str(error.value)
    assert f"got shape {block.shape}" in message
    assert name in ANY_LENGTH_FUNCTIONS or f"{n} values" in message


def test_deinterleave_names_the_length_of_its_joined_sub_blocks():
    with pytest.raises(ValueError, match=r"mod2 permutes one 1-D block of 228 values; got shape \(342,\)"):
        interleaving.deinterleave(InterleaveMode.MOD2, [np.zeros(114)] * 3)


@pytest.mark.parametrize("call", [
    lambda: encode_block(SchemeId.STANDARD_456, np.zeros(184, np.uint8)),
    lambda: decode_block(SchemeId.M2_REDUCED, np.ones(228)),
    lambda: interleaving.interleave(InterleaveMode.STD4, np.zeros(456, np.uint8)),
    lambda: interleaving.deinterleave(InterleaveMode.MOD2, [np.ones(114)] * 2),
], ids=["encode_block", "decode_block", "interleave", "deinterleave"])
def test_single_block_functions_check_their_scheme_or_mode_once(call):
    # Each took its width from the scheme or mode, then its batch twin checked it again.
    checks = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is bits.check_type.__code__:
            checks.append(frame.f_locals["name"])

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    assert len(checks) == 1 and checks[0] in ("scheme", "mode")
