"""Command-line front end.

Commands: encode, decode, roundtrip, bler, capacity, msg, imsi, info.  Bit
blocks cross the boundary as "LEN:HEX" strings (pass "-" to read one from
stdin).  A flat key=value config file can pre-seed any flag; explicit
flags win.  Failures print the violated precondition on stderr and exit
nonzero instead of dumping a stack trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__, interleaving, kernels, messages, multiframe, simulation
from .bits import HexFormatError, SubAllocation, antipodal, from_hex, to_hex
from .multiframe import ChannelConfig, FrameMode, MultiframeConfig
from .schemes import (
    decode_block,
    decode_blocks,
    encode_block,
    encode_blocks,
    interleave_mode,
    message_bits,
    scheme_from_name,
)
from .simulation import DEFAULT_MIN_ERRORS, DEFAULT_MIN_FRAMES, DEFAULT_SEED


class CliError(ValueError):
    pass


# Most points a start:step:stop range may expand to.
MAX_EBNO_POINTS = 10_000


def parse_ebno_spec(spec: str) -> list[float]:
    """Operating points from "start:step:stop" or a comma list."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliError(f"range must be start:step:stop, got {spec!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise CliError(f"range start, step and stop must be finite, got {spec!r}")
        if step <= 0:
            raise CliError("range step must be positive")
        if stop < start:
            raise CliError("range stop must not precede start")
        # Checked as a float: the quotient may be huge or overflow to inf.
        spans = (stop - start) / step + 1e-9
        if spans >= MAX_EBNO_POINTS:
            raise CliError(f"range {spec!r} has more than {MAX_EBNO_POINTS} points")
        count = math.floor(spans) + 1
        return [start + i * step for i in range(count)]
    try:
        return [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise CliError(f"bad Eb/N0 list {spec!r}") from None


def seed(text: str) -> int:
    """The argparse type of every --seed: an integer in [0, 2**64)."""
    value = int(text)  # argparse reports a ValueError here as "invalid seed value"
    try:
        return simulation.check_seed(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_block_arg(value: str) -> np.ndarray:
    if value == "-":
        value = sys.stdin.readline()
    return from_hex(value)


# Options a config file may set, by destination; other commands' keys are ignored.
_CONFIG_KEYS = frozenset(("scheme", "ebno", "frames", "errors", "seed", "output", "msg", "block",
                         "config", "mode", "value", "mnc_len", "m2m_mnc"))


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise CliError(f"{path}:{lineno}: expected key=value")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    return values


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"missing required option --{name.replace('_', '-')}")


def _cmd_encode(args) -> int:
    _require(args, "scheme", "msg")
    scheme = scheme_from_name(args.scheme)
    msg = _read_block_arg(args.msg)
    print(to_hex(encode_block(scheme, msg)))
    return 0


def _cmd_decode(args) -> int:
    _require(args, "scheme", "block")
    scheme = scheme_from_name(args.scheme)
    outcome = decode_block(scheme, antipodal(_read_block_arg(args.block)))
    print(f"message={to_hex(outcome.message)}")
    print(f"integrity={'ok' if outcome.ok else 'corrupted'}")
    return 0


def _cmd_roundtrip(args) -> int:
    _require(args, "scheme")
    scheme = scheme_from_name(args.scheme)
    if args.frames < 1:
        raise CliError("--frames must be at least 1")
    rng = np.random.default_rng(args.seed)
    mode = interleave_mode(scheme)
    kbits = message_bits(scheme)
    errors = 0
    # Batches of at most one simulation chunk bound the memory per batch.
    for done in range(0, args.frames, simulation._CHUNK_FRAMES):
        msgs = rng.integers(0, 2, size=(min(simulation._CHUNK_FRAMES, args.frames - done), kbits),
                            dtype=np.uint8)
        stream = interleaving.interleave_batch(mode, encode_blocks(scheme, msgs))
        decoded, ok = decode_blocks(scheme, antipodal(stream), interleaved=True)
        errors += int((~ok | (decoded != msgs).any(axis=1)).sum())
    print(f"frames={args.frames}")
    print(f"errors={errors}")
    return 0 if errors == 0 else 1


def _cmd_bler(args) -> int:
    _require(args, "scheme", "ebno")
    scheme_list = [scheme_from_name(s.strip()) for s in args.scheme.split(",") if s.strip()]
    if not scheme_list:
        raise CliError("no schemes given")
    points = parse_ebno_spec(args.ebno)
    if not points:
        raise CliError("no Eb/N0 points given")
    reports = simulation.sweep(
        scheme_list,
        points,
        min_frames=args.frames,
        min_errors=args.errors,
        seed=args.seed,
    )
    csv_text = simulation.reports_to_csv(reports)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
        except OSError as exc:
            raise CliError(f"cannot write CSV: {exc}") from None
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_capacity(args) -> int:
    _require(args, "config", "mode")
    try:
        cfg = MultiframeConfig(ChannelConfig(args.config), FrameMode(args.mode))
    except ValueError:
        raise CliError(
            f"config must be one of sdcch8/sdcch4 and mode standard/modified, "
            f"got {args.config!r}/{args.mode!r}"
        ) from None
    print(multiframe.capacity_report(cfg).as_text())
    return 0


def _parse_fields(pairs: list[str]) -> dict[str, str]:
    fields = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise CliError(f"fields must be key=value, got {pair!r}")
        fields[key.strip()] = value.strip()
    return fields


def _field_int(fields: dict[str, str], name: str) -> int:
    if name not in fields:
        raise CliError(f"missing field {name}=")
    try:
        return int(fields[name], 0)
    except ValueError:
        raise CliError(f"field {name} must be an integer, got {fields[name]!r}") from None


def _cmd_msg(args) -> int:
    if args.op == "encode":
        fields = _parse_fields(args.fields)
        if args.type == "assignment":
            suballoc = fields.get("suballoc", "")
            try:
                alloc = SubAllocation(suballoc)
            except ValueError:
                raise CliError("field suballoc must be 'even' or 'odd'") from None
            names = [f.name for f in dataclasses.fields(messages.ChannelAssignment)]
            assignment = messages.ChannelAssignment(
                **{name: _field_int(fields, name) for name in names if name != "suballoc"},
                suballoc=alloc,
            )
            print(to_hex(messages.encode_immediate_assignment(assignment)))
        else:
            payload_hex = fields.get("payload", "")
            try:
                payload = bytes.fromhex(payload_hex)
            except ValueError:
                raise CliError(f"field payload must be hex octets, got {payload_hex!r}") from None
            frame = messages.encode_lapdm_tailored(
                payload,
                address=_field_int(fields, "address"),
                control=_field_int(fields, "control"),
            )
            print(to_hex(frame))
        return 0
    _require(args, "block")
    block = _read_block_arg(args.block)
    if args.type == "assignment":
        a = messages.decode_immediate_assignment(block)
        for f in dataclasses.fields(a):
            value = getattr(a, f.name)
            print(f"{f.name}={value.value if isinstance(value, SubAllocation) else value}")
    else:
        payload, address, control = messages.decode_lapdm_tailored(block)
        print(f"address={address}")
        print(f"control={control}")
        print(f"payload={payload.hex().upper()}")
    return 0


def _cmd_imsi(args) -> int:
    _require(args, "value")
    imsi = messages.parse_imsi(args.value, args.mnc_len)
    m2m = {m.strip() for m in (args.m2m_mnc or "").split(",") if m.strip()}
    capable = messages.is_halfrate_capable(imsi, m2m)
    print(f"mcc={imsi.mcc}")
    print(f"mnc={imsi.mnc}")
    print(f"msin={imsi.msin}")
    print(f"class={'m2m_halfrate_capable' if capable else 'ordinary'}")
    return 0


def _cmd_info(args) -> int:
    paths = {4: "avx2 (4 lanes)", 1: "scalar (1 lane)", 0: "none"}
    print(f"version={__version__}")
    print(f"backend={kernels.BACKEND}")
    print(f"c_path={paths[kernels.LANES]}")
    print(f"numpy={np.__version__}")
    print(f"cpus={os.cpu_count()}")
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and each command's subparser, which states its options' types and defaults."""
    parser = argparse.ArgumentParser(
        prog="hrcc",
        description="Half-rate control-channel codecs, capacity reports and AWGN sweeps.",
    )
    parser.add_argument("--config-file", help="flat key=value file supplying default flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a message block for a scheme")
    p.add_argument("--scheme")
    p.add_argument("--msg", help='"LEN:HEX" message block, or - for stdin')
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a hard-bit coded block")
    p.add_argument("--scheme")
    p.add_argument("--block", help='"LEN:HEX" coded block, or - for stdin')
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("roundtrip", help="zero-noise encode/interleave/decode identity check")
    p.add_argument("--scheme")
    p.add_argument("--frames", type=int, default=1000, help="frames (default %(default)s)")
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED, help="seed (default %(default)s)")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("bler", help="Monte Carlo AWGN sweep, CSV output")
    p.add_argument("--scheme", help="comma-separated scheme names")
    p.add_argument("--ebno", help="Eb/N0 points: start:step:stop or comma list")
    p.add_argument("--frames", type=int, default=DEFAULT_MIN_FRAMES,
                   help="frame floor per point (default %(default)s)")
    p.add_argument("--errors", type=int, default=DEFAULT_MIN_ERRORS,
                   help="early-stop error count (default %(default)s)")
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED,
                   help="master seed (default %(default)s)")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_bler)

    p = sub.add_parser("capacity", help="multiframe logical-channel report")
    p.add_argument("--config", help="sdcch8 or sdcch4")
    p.add_argument("--mode", help="standard or modified")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("msg", help="signaling message codecs")
    p.add_argument("op", choices=("encode", "decode"))
    p.add_argument("--type", required=True, choices=("assignment", "lapdm"))
    p.add_argument("--block", help='"LEN:HEX" image to decode, or - for stdin')
    p.add_argument("--fields", nargs="*", default=[], help="key=value fields for encoding")
    p.set_defaults(func=_cmd_msg)

    p = sub.add_parser("imsi", help="split an IMSI and classify the terminal")
    p.add_argument("--value", help="15-digit IMSI")
    p.add_argument("--mnc-len", dest="mnc_len", type=int, choices=(2, 3), default=3,
                   help="MNC digits (default %(default)s)")
    p.add_argument("--m2m-mnc", dest="m2m_mnc", help="comma-separated half-rate capable MNCs")
    p.set_defaults(func=_cmd_imsi)

    p = sub.add_parser("info", help="package version, kernel backend and machine")
    p.set_defaults(func=_cmd_info)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config_file:
            values = _load_config_file(args.config_file)
            for key in values:
                if key not in _CONFIG_KEYS:
                    raise CliError(f"unknown config key {key!r}")
            # Each value becomes its flag's default, parsed by the flag's type; flags still win.
            commands[args.command].set_defaults(
                **{k: v for k, v in values.items() if hasattr(args, k)})
            args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, HexFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
