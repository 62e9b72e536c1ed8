"""Independent reference implementations used to pin expected values.

Deliberately built on different primitives than the package (bit lists,
shift registers and plain int arithmetic instead of matrices and packed
numpy arrays) so the two sides cannot share a bug.
"""

import numpy as np

from hrcc import coding, interleaving, schemes
from hrcc.schemes import SchemeId
from hrcc.simulation import BlerReport, noise_sigma


def _poly_bits(degrees, degree):
    bits = [0] * (degree + 1)
    for d in degrees:
        bits[degree - d] = 1
    return bits


# g(D) = (D^23 + 1)(D^17 + D^3 + 1), highest degree first
FIRE_GEN_BITS = _poly_bits((40, 26, 23, 17, 3, 0), 40)
# g(D) = (D^3 + D + 1)(D^17 + D^3 + 1)
PARITY20_GEN_BITS = _poly_bits((20, 18, 17, 6, 4, 1, 0), 20)

# Coefficient tuples (D^0..D^4); tap k multiplies x[t-k].
GEN_RATE_12 = ((1, 0, 0, 1, 1), (1, 1, 0, 1, 1))
GEN_RATE_13 = ((1, 1, 0, 1, 1), (1, 0, 1, 0, 1), (1, 1, 1, 1, 1))


def poly_remainder_bits(dividend, generator):
    """Schoolbook GF(2) long division; bit lists, highest degree first."""
    rem = list(dividend)
    glen = len(generator)
    for i in range(len(rem) - glen + 1):
        if rem[i]:
            for j in range(glen):
                rem[i + j] ^= generator[j]
    return rem[len(rem) - (glen - 1) :]


def cyclic_parity(msg_bits, generator_bits):
    """Systematic parity: remainder of msg(D) * D^r divided by g(D)."""
    r = len(generator_bits) - 1
    return poly_remainder_bits(list(msg_bits) + [0] * r, generator_bits)


def conv_encode_ref(bits, generators):
    """Shift-register convolutional encoder, streams interleaved."""
    reg = [0, 0, 0, 0]
    out = []
    for x in bits:
        window = [int(x)] + reg
        for g in generators:
            out.append(sum(a & b for a, b in zip(g, window)) % 2)
        reg = [int(x)] + reg[:3]
    return out


def paper_punctures(chain, rows, undo=False):
    """``rows`` through a chain's puncture steps, applied one at a time as the paper states them.

    Mother-code rows are punctured down to the coded block with ``puncture_batch``; with
    ``undo``, coded soft rows are widened back, step by step in reverse, with
    ``depuncture_batch``, each deleted bit an erasure (0.0).  Without steps, ``rows``.
    """
    for step in reversed(chain.punctures) if undo else chain.punctures:
        rows = (coding.depuncture_batch if undo else coding.puncture_batch)(step, rows)
    return rows


def to_hex_ref(bits):
    """Int-arithmetic reimplementation of the LEN:HEX serialization."""
    n = len(bits)
    nbytes = (n + 7) // 8
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    value <<= nbytes * 8 - n
    return f"{n}:" + format(value, f"0{nbytes * 2}X")


def from_hex_ref(text):
    """Int-arithmetic reimplementation of the LEN:HEX parser."""
    head, _, body = text.partition(":")
    n = int(head)
    total = len(body) * 4
    value = int(body, 16) if body else 0
    bits = [(value >> (total - 1 - i)) & 1 for i in range(total)]
    if any(bits[n:]):
        raise ValueError("nonzero padding")
    return bits[:n]


def build_rate12_codebook(info_bits):
    """All codewords of the tailed rate-1/2 code for short messages.

    Returns (messages, codewords) as uint8 arrays of shape (2^k, k) and
    (2^k, 2*(k+4)).
    """
    count = 1 << info_bits
    msgs = np.zeros((count, info_bits), dtype=np.uint8)
    cws = np.zeros((count, 2 * (info_bits + 4)), dtype=np.uint8)
    for value in range(count):
        msg = [(value >> (info_bits - 1 - i)) & 1 for i in range(info_bits)]
        msgs[value] = msg
        cws[value] = conv_encode_ref(msg + [0, 0, 0, 0], GEN_RATE_12)
    return msgs, cws


def ml_decode_bruteforce(soft, msgs, cws):
    """Exhaustive maximum-likelihood search over a codeword table."""
    metrics = (1.0 - 2.0 * cws.astype(np.float64)) @ np.asarray(soft, dtype=np.float64)
    return msgs[int(np.argmax(metrics))]


def run_bler_whole_chunks(scheme, ebno_points, min_frames, min_errors, seed):
    """``simulation.run_bler`` as first written: decode whole chunks, then count frame by frame.

    Uses the package's encoder and decoder but its own point seeding, the
    table interleaver and ``Generator.normal`` in place of the compiled
    channel, one decode per chunk, and a per-frame loop for the stop rule.
    """
    reports = []
    for ebno_db in ebno_points:
        ebno_db = float(ebno_db) + 0.0
        sigma = noise_sigma(ebno_db, schemes.info_rate(scheme))
        ebno_bits = int(np.float64(ebno_db).view(np.uint64))
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, list(SchemeId).index(scheme), ebno_bits)))
        frames = errors = bit_errors = undetected = 0
        while frames < min_frames and errors < min_errors:
            chunk = min(512, min_frames - frames)
            msgs = rng.integers(0, 2, size=(chunk, schemes.message_bits(scheme)), dtype=np.uint8)
            mode = schemes.interleave_mode(scheme)
            bursts = interleaving.interleave_batch(mode, schemes.encode_blocks(scheme, msgs))
            symbols = 1.0 - 2.0 * bursts.astype(np.float64)
            soft = 2.0 * (symbols + rng.normal(0.0, sigma, size=symbols.shape)) / (sigma * sigma)
            decoded, ok = schemes.decode_blocks(scheme, interleaving.deinterleave_batch(mode, soft))
            for sent, got, checked in zip(msgs, decoded, ok):
                if errors == min_errors:
                    break
                wrong = int(np.count_nonzero(sent != got))
                frames += 1
                errors += wrong > 0
                bit_errors += wrong
                undetected += wrong > 0 and bool(checked)
        reports.append(BlerReport(scheme, ebno_db, frames, errors, bit_errors, undetected))
    return reports
