import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hrcc
from hrcc import cli, kernels, schemes
from hrcc.bits import from_hex, to_hex
from hrcc.cli import MAX_EBNO_POINTS, main, parse_ebno_spec
from hrcc.schemes import SchemeId, encode_block


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ebno_spec():
    assert parse_ebno_spec("0:1:8") == [float(x) for x in range(9)]
    assert parse_ebno_spec("1.5:0.5:3") == [1.5, 2.0, 2.5, 3.0]
    assert parse_ebno_spec("0,2,4") == [0.0, 2.0, 4.0]
    for bad in ("0:1", "0:-1:8", "8:1:0", "a,b"):
        with pytest.raises(ValueError):
            parse_ebno_spec(bad)


@pytest.mark.parametrize("spec", ["0:1:inf", "-inf:1:0", "0:inf:1", "nan:1:2", "0:nan:1", "0:1:nan"])
def test_bler_rejects_a_non_finite_range(capsys, spec):
    code, out, err = run_cli(capsys, "bler", "--scheme", "m2-reduced", f"--ebno={spec}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["0:1e-300:1", "-1e308:1:1e308", f"0:1:{MAX_EBNO_POINTS}"])
def test_bler_rejects_a_range_over_the_point_limit(capsys, spec):
    # Each would otherwise build an enormous list (or overflow) before running.
    code, out, err = run_cli(capsys, "bler", "--scheme", "m2-reduced", f"--ebno={spec}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(MAX_EBNO_POINTS) in err


def test_equal_ebno_values_give_equal_rows(capsys):
    def rows(scheme, spec):
        code, out, err = run_cli(capsys, "bler", "--scheme", scheme, f"--ebno={spec}",
                                 "--frames", "300", "--seed", "7")
        assert code == 0 and not err
        return out.splitlines()[1:]

    # Summed as floats, the range ended at 0.30000000000000004, printed as 0.3.
    assert parse_ebno_spec("0:0.1:0.3") == [0.0, 0.1, 0.2, 0.3]
    assert rows("m1-cs12-p12", "0:0.1:0.3")[-1] == rows("m1-cs12-p12", "0.3")[0]
    # -0 drew its own stream and printed -0.
    assert rows("m2-reduced", "-0") == rows("m2-reduced", "0") == rows("m2-reduced", "-0:1:0")


def test_a_range_at_the_point_limit_is_accepted():
    points = parse_ebno_spec(f"0:1:{MAX_EBNO_POINTS - 1}")
    assert len(points) == MAX_EBNO_POINTS and points[-1] == MAX_EBNO_POINTS - 1


def test_info_command(capsys):
    code, out, err = run_cli(capsys, "info")
    assert code == 0 and not err
    fields = dict(line.split("=", 1) for line in out.strip().split("\n"))
    path = {8: "avx512 (8 lanes)", 4: "avx2 (4 lanes)", 1: "scalar (1 lane)",
            0: "none"}[kernels.LANES]
    assert fields == {
        "version": hrcc.__version__,
        "backend": kernels.BACKEND,
        "c_path": path,
        "normals": kernels.NORMALS,
        "bits": kernels.BITS,
        "numpy": np.__version__,
        "cpus": str(os.cpu_count()),
    }


def test_info_says_numpy_fills_the_normals_without_a_compiler(tmp_path):
    pkg_root = str(Path(hrcc.__file__).resolve().parents[1])
    env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", "from hrcc.cli import main; main(['info'])"],
                            capture_output=True, text=True, env=env, check=True)
    assert "backend=numpy\nc_path=none\nnormals=numpy\nbits=numpy\n" in result.stdout


def test_capacity_command(capsys):
    code, out, err = run_cli(capsys, "capacity", "--config", "sdcch8", "--mode", "modified")
    assert code == 0 and not err
    assert "sdcch_count=16" in out
    code, out, _ = run_cli(capsys, "capacity", "--config", "sdcch4", "--mode", "standard")
    assert code == 0
    assert "sdcch_count=4" in out


def test_roundtrip_command(capsys):
    code, out, err = run_cli(
        capsys, "roundtrip", "--scheme", "m2-reduced", "--frames", "50", "--seed", "7"
    )
    assert code == 0 and not err
    assert "errors=0" in out
    assert "frames=50" in out


@pytest.mark.parametrize("scheme", ["standard", "m1-cs23-p13", "m1-cs13-p23"])
def test_roundtrip_command_over_several_batches(capsys, scheme):
    code, out, err = run_cli(capsys, "roundtrip", "--scheme", scheme, "--frames", "1030")
    assert (code, out, err) == (0, "frames=1030\nerrors=0\n", "")


def test_roundtrip_command_counts_each_failed_frame(capsys, monkeypatch):
    decode_blocks = cli.decode_blocks

    def corrupt(scheme, softs):
        msgs, ok = decode_blocks(scheme, softs)
        if len(msgs) == 512:  # frames 0-511
            msgs[88] ^= 1
        else:  # frames 512-699
            msgs[0] ^= 1
            ok[0] = False  # wrong and flagged: still one error
            ok[5] = False
        return msgs, ok

    monkeypatch.setattr(cli, "decode_blocks", corrupt)
    code, out, err = run_cli(capsys, "roundtrip", "--scheme", "m2-reduced", "--frames", "700")
    assert code == 1 and not err
    assert out == "frames=700\nerrors=3\n"


def test_encode_decode_commands_roundtrip(capsys):
    rng = np.random.default_rng(71)
    msg = rng.integers(0, 2, size=90, dtype=np.uint8)
    code, out, _ = run_cli(capsys, "encode", "--scheme", "m2-reduced", "--msg", to_hex(msg))
    assert code == 0
    coded_hex = out.strip()
    assert coded_hex.startswith("228:")
    assert np.array_equal(from_hex(coded_hex), encode_block(SchemeId.M2_REDUCED, msg))
    code, out, _ = run_cli(capsys, "decode", "--scheme", "m2-reduced", "--block", coded_hex)
    assert code == 0
    assert f"message={to_hex(msg)}" in out
    assert "integrity=ok" in out


def test_bler_command_row_count_and_reproducibility(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "bler",
        "--scheme",
        "standard,m1-cs12-p12",
        "--ebno",
        "0:1:8",
        "--frames",
        "5",
        "--errors",
        "3",
        "--seed",
        "7",
    ]
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--output", str(out_b)]) == 0
    capsys.readouterr()
    text = out_a.read_text()
    lines = text.strip().split("\n")
    assert len(lines) == 19  # header + 2 schemes x 9 points
    assert out_a.read_bytes() == out_b.read_bytes()


def test_bler_command_writes_stdout_by_default(capsys):
    code, out, _ = run_cli(
        capsys,
        "bler",
        "--scheme",
        "m2-reduced",
        "--ebno",
        "30,40",
        "--frames",
        "5",
        "--errors",
        "3",
    )
    assert code == 0
    assert out.startswith("scheme,ebno_db,")
    assert len(out.strip().split("\n")) == 3


def test_msg_assignment_cli_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "msg",
        "encode",
        "--type",
        "assignment",
        "--fields",
        "channel_type=9",
        "timeslot=3",
        "training_seq=5",
        "arfcn=600",
        "suballoc=odd",
    )
    assert code == 0
    block_hex = out.strip()
    assert block_hex.startswith("32:")
    code, out, _ = run_cli(capsys, "msg", "decode", "--type", "assignment", "--block", block_hex)
    assert code == 0
    assert "arfcn=600" in out
    assert "suballoc=odd" in out


def test_msg_lapdm_cli_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "msg",
        "encode",
        "--type",
        "lapdm",
        "--fields",
        "address=3",
        "control=33",
        "payload=DEADBEEF",
    )
    assert code == 0
    block_hex = out.strip()
    assert block_hex.startswith("90:")
    code, out, _ = run_cli(capsys, "msg", "decode", "--type", "lapdm", "--block", block_hex)
    assert code == 0
    assert "payload=DEADBEEF" in out
    assert "address=3" in out


def test_imsi_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "imsi",
        "--value",
        "262011234567890",
        "--mnc-len",
        "3",
        "--m2m-mnc",
        "201,202",
    )
    assert code == 0
    assert "mnc=201" in out
    assert "class=m2m_halfrate_capable" in out
    code, out, _ = run_cli(capsys, "imsi", "--value", "262011234567890")
    assert "class=ordinary" in out


def test_config_file_provides_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=m2-reduced\nframes=20\nseed=7\n")
    code, out, _ = run_cli(capsys, "--config-file", str(cfg), "roundtrip")
    assert code == 0
    assert "frames=20" in out
    code, out, _ = run_cli(
        capsys, "--config-file", str(cfg), "roundtrip", "--frames", "10"
    )
    assert code == 0
    assert "frames=10" in out  # explicit flag overrides the file


def test_config_values_go_through_each_flags_type(tmp_path, capsys):
    cfg = tmp_path / "bler.cfg"
    cfg.write_text("scheme=m2-reduced\nebno=30,40\nframes=5\nerrors=3\nseed=7\n")
    code, from_file, _ = run_cli(capsys, "--config-file", str(cfg), "bler")
    assert code == 0
    code, from_flags, _ = run_cli(
        capsys, "bler", "--scheme", "m2-reduced", "--ebno", "30,40", "--frames", "5",
        "--errors", "3", "--seed", "7",
    )
    assert code == 0 and from_file == from_flags


def test_config_value_of_the_wrong_type_exits_2_without_a_traceback(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=m2-reduced\nframes=abc\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["--config-file", str(cfg), "roundtrip"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "argument --frames: invalid int value: 'abc'" in captured.err
    assert "Traceback" not in captured.err
    # An explicit flag wins, so the file's value is never parsed.
    code, out, _ = run_cli(capsys, "--config-file", str(cfg), "roundtrip", "--frames", "10")
    assert (code, out) == (0, "frames=10\nerrors=0\n")


def test_config_file_skips_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a short run\n\n  scheme = m2-reduced  \n   # frames=5\n\t\nframes=20\n")
    code, out, err = run_cli(capsys, "--config-file", str(cfg), "roundtrip")
    assert (code, out, err) == (0, "frames=20\nerrors=0\n", "")


def test_config_file_line_without_a_value_or_a_missing_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=m2-reduced\n# frames 20\nframes 20\n")
    code, out, err = run_cli(capsys, "--config-file", str(cfg), "roundtrip")
    assert (code, out, err) == (2, "", f"error: {cfg}:3: expected key=value\n")
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(capsys, "--config-file", str(missing), "roundtrip")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read config file: ") and str(missing) in err


@pytest.mark.parametrize("frames", ["0", "-1"])
def test_roundtrip_of_no_frames_exits_2(capsys, frames):
    code, out, err = run_cli(capsys, "roundtrip", "--scheme", "m2-reduced", "--frames", frames)
    assert (code, out, err) == (2, "", "error: --frames must be at least 1\n")


@pytest.mark.parametrize("option, value, message", [
    ("--scheme", ",", "no schemes given"),
    ("--scheme", " , ", "no schemes given"),
    ("--ebno", ",", "no Eb/N0 points given"),
    ("--ebno", " ,, ", "no Eb/N0 points given"),
])
def test_bler_of_empty_lists_exits_2(capsys, option, value, message):
    argv = {"--scheme": "m2-reduced", "--ebno": "20", option: value}
    code, out, err = run_cli(capsys, "bler", *(a for pair in argv.items() for a in pair))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_bler_output_that_fails_to_write_exits_2(capsys):
    # /dev/full opens, and every write to it fails with ENOSPC.
    code, out, err = run_cli(capsys, "bler", "--scheme", "m2-reduced", "--ebno", "20",
                             "--frames", "10", "--output", "/dev/full")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write CSV: ") and "Traceback" not in err


ASSIGNMENT_FIELDS = {"channel_type": "9", "timeslot": "3", "training_seq": "5", "arfcn": "600",
                     "suballoc": "odd"}


@pytest.mark.parametrize("msg_type, fields, message", [
    ("assignment", [*(f"{k}={v}" for k, v in ASSIGNMENT_FIELDS.items()), "arfcn600"],
     "fields must be key=value, got 'arfcn600'"),
    ("assignment", [f"{k}={v}" for k, v in ASSIGNMENT_FIELDS.items() if k != "arfcn"],
     "missing field arfcn="),
    ("assignment", [f"{k}={'six' if k == 'arfcn' else v}" for k, v in ASSIGNMENT_FIELDS.items()],
     "field arfcn must be an integer, got 'six'"),
    ("lapdm", ["address=3", "control=33", "payload=DEADBEEG"],
     "field payload must be hex octets, got 'DEADBEEG'"),
    ("lapdm", ["address=3", "payload=DEADBEEF"], "missing field control="),
])
def test_msg_encode_field_errors_exit_2(capsys, msg_type, fields, message):
    code, out, err = run_cli(capsys, "msg", "encode", "--type", msg_type, "--fields", *fields)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=m2-reduced\nframe=20\n")
    code, out, err = run_cli(capsys, "--config-file", str(cfg), "roundtrip")
    assert (code, out, err) == (2, "", "error: unknown config key 'frame'\n")


def test_config_keys_of_other_commands_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # errors and mnc_len belong to bler and imsi; not even their types are checked here.
    cfg.write_text("scheme=m2-reduced\nframes=20\nmode=modified\nerrors=abc\nmnc_len=x\n")
    code, out, err = run_cli(capsys, "--config-file", str(cfg), "roundtrip")
    assert (code, out, err) == (0, "frames=20\nerrors=0\n", "")


@pytest.mark.parametrize("command, defaults", [
    ("bler", ["5000", "100", "12345"]),
    ("roundtrip", ["1000", "12345"]),
])
def test_help_shows_the_defaults(capsys, command, defaults):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exit_info.value.code == 0
    for value in defaults:
        assert f"(default {value})" in out


def test_imsi_command_rejects_digits_outside_ascii(capsys):
    code, out, err = run_cli(capsys, "imsi", "--value", "\u00b2" * 15)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_error_paths_exit_nonzero_with_a_diagnostic(capsys):
    cases = [
        ("roundtrip", "--scheme", "bogus"),
        ("encode", "--scheme", "standard", "--msg", "4:B1"),
        ("encode", "--scheme", "standard", "--msg", "8:00"),
        ("bler", "--scheme", "standard", "--ebno", "0:-1:8"),
        ("bler", "--ebno", "0:1:2"),
        ("capacity", "--config", "sdcch9", "--mode", "standard"),
        ("imsi", "--value", "262011234567890", "--mnc-len", "2"),
        ("msg", "encode", "--type", "assignment", "--fields", "timeslot=3"),
        ("msg", "decode", "--type", "lapdm", "--block", "90:" + "0" * 24),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code != 0, argv
        assert err.startswith("error:"), argv
        assert "Traceback" not in err


def test_decode_rejects_a_bit_count_that_is_not_plain_digits(capsys):
    block = to_hex(np.zeros(228, dtype=np.uint8))
    code, out, err = run_cli(capsys, "decode", "--scheme", "m2-reduced", "--block", "+" + block)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "bit count" in err and "Traceback" not in err


def test_decode_rejects_a_bit_count_with_leading_zeros(capsys):
    block = to_hex(np.zeros(456, dtype=np.uint8))
    code, out, err = run_cli(capsys, "decode", "--scheme", "standard", "--block", "0" + block)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "bit count" in err and "Traceback" not in err


def test_bler_rejects_nan_ebno_without_writing_a_row(tmp_path, capsys):
    out_path = tmp_path / "nan.csv"
    code, out, err = run_cli(
        capsys, "bler", "--scheme", "m2-reduced", "--ebno", "nan", "--output", str(out_path)
    )
    assert code != 0
    assert err.startswith("error:") and "finite" in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("ebno", ["3060", "3078", "3085", "-3200", "-3300"])
def test_bler_rejects_ebno_outside_the_float_range(tmp_path, capsys, ebno):
    out_path = tmp_path / "edge.csv"
    code, out, err = run_cli(
        capsys, "bler", "--scheme", "m2-reduced", f"--ebno={ebno}", "--frames", "20",
        "--output", str(out_path),
    )
    assert code == 2
    assert err.startswith("error:") and "out of range" in err and "Traceback" not in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seeds_outside_0_to_2_pow_64_exit_2_without_writing(tmp_path, capsys, seed):
    out_path = tmp_path / "seed.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scheme=m2-reduced\nebno=30\nframes=5\nseed={seed}\n")
    for argv in (
        ["bler", "--scheme", "m2-reduced", "--ebno", "30", "--frames", "5", "--seed", seed,
         "--output", str(out_path)],
        ["--config-file", str(cfg), "bler", "--output", str(out_path)],
        ["roundtrip", "--scheme", "m2-reduced", "--frames", "5", "--seed", seed],
        ["--config-file", str(cfg), "roundtrip"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == "", argv
        assert f"argument --seed: seed must lie in [0, {2**64}), got {seed}" in captured.err
        assert not out_path.exists()


def test_bler_output_to_an_unwritable_path_is_an_error(tmp_path, capsys, monkeypatch):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(
        capsys, "bler", "--scheme", "m2-reduced", "--ebno", "20", "--frames", "10",
        "--output", str(target),
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""
    assert not target.exists()
    # The missing directory is found before any point runs, not after the sweep.
    swept = []
    monkeypatch.setattr(cli.simulation, "sweep", lambda *args, **kwargs: swept.append(args))
    code, _, err = run_cli(
        capsys, "bler", "--scheme", "standard", "--ebno", "0:1:3", "--frames", "4000",
        "--errors", "100000", "--output", str(target),
    )
    assert code == 2 and err.startswith("error: cannot write CSV")
    assert not swept and not target.exists()


def test_bler_output_naming_a_directory_is_refused_before_any_point_runs(tmp_path, capsys, monkeypatch):
    # Unchecked, the whole sweep ran before open() failed with "Is a directory".
    decoded = []
    monkeypatch.setattr(schemes, "decode_blocks", lambda *args, **kwargs: decoded.append(args))
    code, out, err = run_cli(
        capsys, "bler", "--scheme", "standard", "--ebno", "0:1:3", "--frames", "4000",
        "--errors", "100000", "--output", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write CSV") and "is a directory" in err
    assert not decoded and not os.listdir(tmp_path)


def test_stdin_block_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_hex(np.zeros(90, dtype=np.uint8)) + "\n"))
    code, out, _ = run_cli(capsys, "encode", "--scheme", "m2-reduced", "--msg", "-")
    assert code == 0
    assert out.strip() == "228:" + "0" * 58
