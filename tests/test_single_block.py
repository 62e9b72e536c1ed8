"""Every single-block function against one table of malformed blocks.

Each function takes one block: a 1-D, non-empty sequence of bits (0/1) or
of finite soft values, of a fixed length where the function has one.  Each
malformed input below raises a ValueError, unless the function takes it
(a soft value of 2, 0.5 or -1; a bit block of any length for ``transmit``
and ``to_hex``).  NaN and infinite bits raise it too, with no warning first,
which the suite's ``-W error`` setting would turn into the failure.
A shape error names the block's own shape, and a function with a batch
twin checks its scheme or mode once, at its own boundary, and then runs
only the twin's body.
"""

import hashlib
import sys

import numpy as np
import pytest

from hrcc import bits, coding, interleaving, kernels, messages, simulation
from hrcc.bits import Burst, to_hex
from hrcc.interleaving import InterleaveMode
from hrcc.schemes import SchemeId, decode_block, encode_block, interleave_mode, message_bits

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


@pytest.mark.parametrize("count", [3, 0])  # none raised numpy's "need at least one array"
def test_deinterleave_names_the_length_of_its_joined_sub_blocks(count):
    with pytest.raises(ValueError, match=rf"mod2 permutes one 1-D block of 228 values; "
                                         rf"got shape \({114 * count},\)"):
        interleaving.deinterleave(InterleaveMode.MOD2, [np.zeros(114)] * count)


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


# Each array rule, by the code it runs; _one_block and rows state the one shape rule.
ARRAY_RULES = {bits.binary_uint8.__code__: "binary_uint8", bits.finite.__code__: "finite",
               bits.real_float64.__code__: "real_float64", bits._one_block.__code__: "shape",
               bits.rows.__code__: "shape"}


def _address(arr) -> int:
    return arr.__array_interface__["data"][0]


def _rules_run(call) -> list[tuple[str, int]]:
    """(rule, address of the values it checked) for each array rule that ``call()`` runs."""
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in ARRAY_RULES:
            checked = np.asarray(frame.f_locals[frame.f_code.co_varnames[0]])
            seen.append((ARRAY_RULES[frame.f_code], _address(checked)))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


_CODED = encode_block(SchemeId.M2_REDUCED, np.zeros(90, np.uint8))
_SUBS = [np.ones(114), -np.ones(114)]
_BURST = Burst(np.zeros(114, np.uint8))

# name: (call, the blocks it takes); every block is handed in as an array of its own.
ONE_SCAN_CALLS = {
    "encode_block": (lambda b: encode_block(SchemeId.STANDARD_456, b), [np.zeros(184, np.uint8)]),
    "encode_block of int64": (lambda b: encode_block(SchemeId.M2_REDUCED, b), [np.zeros(90, int)]),
    "decode_block": (lambda b: decode_block(SchemeId.M2_REDUCED, b), [np.ones(228)]),
    "interleave": (lambda b: interleaving.interleave(InterleaveMode.MOD2, b), [_CODED]),
    "deinterleave": (lambda *subs: interleaving.deinterleave(InterleaveMode.MOD2, subs), _SUBS),
    "map_to_burst": (interleaving.map_to_burst, [np.zeros(114, np.uint8)]),
    "Burst": (Burst, [_BURST.payload]),
    "demap_burst": (interleaving.demap_burst, [np.ones(114)]),
    "transmit": (lambda b: simulation.transmit(b, 0.8, np.random.default_rng(1)), [_BURST.payload]),
    "decode_immediate_assignment": (messages.decode_immediate_assignment, [
        messages.encode_immediate_assignment(messages.ChannelAssignment(
            1, 2, 3, 4, bits.SubAllocation.ODD))]),
    "decode_lapdm_tailored": (messages.decode_lapdm_tailored,
                              [messages.encode_lapdm_tailored(b"m2m", 1, 3)]),
    "to_hex": (to_hex, [np.zeros(8, np.uint8)]),
}
NUMPY_STAGES = {"encode_block", "encode_block of int64", "decode_block"}


@pytest.mark.parametrize("name", ONE_SCAN_CALLS)
def test_single_block_functions_run_each_array_rule_once_on_their_block(name):
    # Each block was checked as a block, then again as its batch twin's row, and again
    # by the kernel's own operand check.
    if name in NUMPY_STAGES and kernels.BACKEND == "numpy":
        pytest.skip("the numpy stages are public functions that check their own operands")
    call, blocks = ONE_SCAN_CALLS[name]
    seen = _rules_run(lambda: call(*blocks))
    assert len(seen) == len(set(seen)), seen
    assert ("shape", _address(blocks[0])) in seen


def _exchange_transcript(exchanges: int = 20) -> list[str]:
    """Each decoded message and check, and a digest of its soft values, of ``exchanges`` blocks
    sent through every single-block function in turn, 3 reduced to 1 standard."""
    rng = np.random.default_rng(2024)
    lines = []
    for n in range(exchanges):
        scheme = SchemeId.STANDARD_456 if n % 4 == 0 else SchemeId.M2_REDUCED
        mode = interleave_mode(scheme)
        msg = rng.integers(0, 2, message_bits(scheme), dtype=np.uint8)
        received = [simulation.transmit(interleaving.map_to_burst(sub).payload, 0.8, rng)
                    for sub in interleaving.interleave(mode, encode_block(scheme, msg))]
        soft = interleaving.deinterleave(mode, [interleaving.demap_burst(r) for r in received])
        outcome = decode_block(scheme, soft)
        lines.append(f"{to_hex(outcome.message)} {outcome.ok} "
                     f"{hashlib.sha256(soft.tobytes()).hexdigest()}")
    return lines


def _malformed_outcomes() -> dict[str, str]:
    """The exception type, or "ok", of each function above on each malformed input."""
    outcomes = {}
    for name, (function, n, soft, _) in FUNCTIONS.items():
        for bad, make in INPUTS.items():
            try:
                function(make(n, soft))
                outcomes[f"{name}: {bad}"] = "ok"
            except (TypeError, ValueError) as exc:
                outcomes[f"{name}: {bad}"] = type(exc).__name__
    return outcomes


def _transmits_that_drew() -> list[str]:
    """Each transmit of a malformed block or sigma that did not raise, or that moved its
    generator before it raised."""
    cases = [(f"block {bad}", INPUTS[bad](114, False), 0.8) for bad in INPUTS
             if bad not in ANY_LENGTH]
    cases += [(f"sigma {sigma!r}", np.zeros(114, np.uint8), sigma)
              for sigma in (np.nan, np.inf, 0.0, -0.8, 1e-200, 1e200, 1e-154, "0.8", None)]
    drew = []
    for case, block, sigma in cases:
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        try:
            simulation.transmit(block, sigma, rng)
            drew.append(f"{case}: accepted")
        except (TypeError, ValueError):
            if rng.bit_generator.state != state:
                drew.append(case)
    return drew


def backend_results() -> dict:
    """What the single-block functions give on this interpreter's backend, as JSON values;
    ``tests/test_kernels.py`` compares it with a run without a compiler."""
    return {"transcript": _exchange_transcript(), "malformed": _malformed_outcomes(),
            "transmits that drew": _transmits_that_drew()}


def test_a_rejected_transmit_leaves_its_generator_untouched():
    # The bits and sigma are checked before the draw; the numpy backend runs this too,
    # through backend_results in a fresh interpreter without a compiler.
    assert _transmits_that_drew() == []
