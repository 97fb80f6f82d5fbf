"""Command-line behavior: outputs, exit codes, environment config."""

import os
import random
import signal
import subprocess
import sys
import time

import pytest

from collatzbin import cli, summarize, verify_range
from collatzbin.cli import main
from collatzbin.traceio import parse_machine
from collatzbin.verify import checkpoint_load


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "97")
    assert code == 0
    assert out == "mixed-odd 1100001\n"


def test_classify_binary_input(capsys):
    code, out, _ = run(capsys, "classify", "1100001", "--binary")
    assert (code, out) == (0, "mixed-odd 1100001\n")


def test_stopping_time(capsys):
    code, out, _ = run(capsys, "stopping-time", "255")
    assert (code, out) == (0, "47\n")


def test_stopping_time_truncated_is_success(capsys):
    code, out, _ = run(capsys, "stopping-time", "27", "--cap", "10")
    assert (code, out) == (0, "truncated\n")


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "stopping-time", "0")
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stopping-time"])  # missing argument
    assert exc.value.code == 2


def test_resume_requires_checkpoint(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "1", "10", "--resume"])
    assert exc.value.code == 2


def test_path(capsys):
    code, out, _ = run(capsys, "path", "21")
    assert (code, out) == (0, "1 2 5 10 21 / EOEO\n")
    code, out, _ = run(capsys, "path", "1")
    assert (code, out) == (0, "1 /\n")


def test_trace_points(capsys):
    code, out, _ = run(capsys, "trace", "5", "--format", "points")
    assert code == 0
    assert out.splitlines() == ["0,5", "1,16", "2,8", "3,4", "4,2", "5,1"]


def test_trace_table(capsys):
    code, out, _ = run(capsys, "trace", "67", "--format", "table")
    assert code == 0
    assert len(out.splitlines()) == 8
    assert out.splitlines()[-1] == "5=(101)₂ → (10000)₂"


def test_trace_scratch_default(capsys):
    code, out, _ = run(capsys, "trace", "16")
    assert code == 0
    assert out.splitlines()[0] == "· 16 = (10000)₂"


def test_trace_machine_parses(capsys):
    code, out, _ = run(capsys, "trace", "7", "--format", "machine")
    assert code == 0
    records = parse_machine(out)
    assert records[0].decimal == "7"
    assert records[-1].decimal == "1"


def test_trace_truncation_marker(capsys):
    code, out, _ = run(capsys, "trace", "27", "--cap", "5", "--format", "scratch")
    assert code == 0
    assert out.splitlines()[-1] == "... truncated"
    code, out, _ = run(capsys, "trace", "27", "--cap", "5", "--format", "table")
    assert (code, out) == (0, "truncated\n")


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "5")
    assert code == 0
    assert out == "5 = {2,0} -> {3,2,1,0,0} -> {4} -> shift 4 -> 1\n"


def test_decompose_machine(capsys):
    code, out, _ = run(capsys, "decompose", "67", "--format", "machine")
    assert code == 0
    assert len(out.splitlines()) == 8
    assert parse_machine(out)[0].kind == "merge"


def test_hard(capsys):
    code, out, _ = run(capsys, "hard", "3")
    assert code == 0
    assert out.splitlines() == [
        "a_3 = 21 (10101)",
        "T(a_3) = 64 (1000000)",
        "T^7(a_3) = 1: ok",
    ]
    assert run(capsys, "hard", "0")[0] == 1


def test_verify_summary(capsys):
    code, out, _ = run(capsys, "verify", "1", "1000", "--jobs", "1")
    assert code == 0
    assert "verified: 999" in out
    assert "max stopping time: 178 at 871" in out


def test_verify_checkpoint_flow(tmp_path, capsys):
    ck = tmp_path / "state.txt"
    code, first, _ = run(
        capsys, "verify", "1", "5000", "--jobs", "1", "--chunk", "512", "--checkpoint", str(ck)
    )
    assert code == 0 and ck.exists()
    code, second, _ = run(
        capsys, "verify", "1", "5000", "--resume", "--checkpoint", str(ck), "--jobs", "1"
    )
    assert code == 0
    assert second == first


def test_verify_resume_range_mismatch(tmp_path, capsys):
    ck = tmp_path / "state.txt"
    assert run(capsys, "verify", "1", "5000", "--jobs", "1", "--chunk", "512",
               "--checkpoint", str(ck))[0] == 0
    code, _, err = run(capsys, "verify", "1", "6000", "--resume", "--checkpoint", str(ck))
    assert code == 1
    assert "checkpoint covers" in err


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("COLLATZBIN_CAP", "10")
    code, out, _ = run(capsys, "stopping-time", "27")
    assert (code, out) == (0, "truncated\n")
    # explicit flag wins over the environment
    code, out, _ = run(capsys, "stopping-time", "27", "--cap", "200")
    assert (code, out) == (0, "111\n")
    monkeypatch.setenv("COLLATZBIN_CAP", "zero")
    assert run(capsys, "stopping-time", "27")[0] == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "collatzbin", "classify", "97"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "mixed-odd 1100001\n"


def test_console_script():
    proc = subprocess.run(
        ["collatzbin", "stopping-time", "255"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "47\n"


def test_identical_invocations_identical_bytes(capsys):
    a = run(capsys, "trace", "97", "--format", "machine")
    b = run(capsys, "trace", "97", "--format", "machine")
    assert a == b


def test_verify_resume_rejects_conflicting_settings(tmp_path, capsys):
    ck = tmp_path / "state.txt"
    assert run(capsys, "verify", "1", "5000", "--jobs", "1", "--chunk", "512",
               "--checkpoint", str(ck))[0] == 0
    saved = ck.read_bytes()
    for flag, value in (("--cap", "5"), ("--chunk", "1024")):
        code, out, err = run(
            capsys, "verify", "1", "5000", "--resume", "--checkpoint", str(ck), flag, value
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} {value} conflicts")
    assert ck.read_bytes() == saved
    # repeating the saved settings is not a conflict
    code, _, _ = run(capsys, "verify", "1", "5000", "--resume", "--checkpoint", str(ck),
                     "--jobs", "1", "--cap", "100000", "--chunk", "512")
    assert code == 0


def test_verify_resume_rejects_edited_checkpoint(tmp_path, capsys):
    ck = tmp_path / "state.txt"
    assert run(capsys, "verify", "1", "5000", "--jobs", "1", "--chunk", "512",
               "--checkpoint", str(ck))[0] == 0
    whole = ck.read_text()
    for old, new in (("chunk_size 512", "chunk_size 0"), ("next 5000", "next 1000")):
        ck.write_text(whole.replace(old, new))
        code, out, err = run(capsys, "verify", "1", "5000", "--resume", "--checkpoint", str(ck))
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed checkpoint")


def test_default_jobs_follow_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert cli._default_jobs() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._default_jobs() == (os.cpu_count() or 1)


def test_big_inputs_truncate_under_cap(capsys):
    # 20,000 bits is past 4,300 decimal digits, CPython's default int/str limit
    n = format(random.Random(20000).getrandbits(19999) | 1 << 19999 | 1, "b")
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            for command in (("stopping-time",), ("trace", "--format", "table"), ("decompose",)):
                code, out, err = run(capsys, *command, n, "--binary", "--cap", "20")
                assert (code, out, err) == (0, "truncated\n", "")
    finally:
        sys.set_int_max_str_digits(limit)


def test_ctrl_c_stops_a_parallel_run_cleanly(tmp_path):
    ck = tmp_path / "ck.txt"
    # 200 chunks: the run is still going when the first checkpoint appears
    lo, hi, chunk = 1, 4 * 10**6, 20000
    argv = [sys.executable, "-m", "collatzbin", "verify", str(lo), str(hi),
            "--jobs", "2", "--chunk", str(chunk), "--checkpoint", str(ck)]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        deadline = time.monotonic() + 60
        while not ck.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
    # no worker outlives the run
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert checkpoint_load(ck).next_unprocessed < hi
    resumed = subprocess.run(argv + ["--resume"], capture_output=True, text=True)
    assert (resumed.returncode, resumed.stderr) == (0, "")
    assert resumed.stdout == summarize(verify_range(lo, hi, chunk_size=chunk))
