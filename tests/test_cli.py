"""Command-line behavior: outputs, exit codes, environment config."""

import hashlib
import importlib
import io
import json
import os
import pkgutil
import random
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import collatzbin
from collatzbin import cli, summarize, verify_range
from collatzbin.cli import main
from collatzbin.traceio import parse_machine
from collatzbin.verify import checkpoint_load

OUTPUTS = Path(__file__).parent / "goldens" / "cli_outputs.txt"
SRC = str(Path(cli.__file__).resolve().parents[1])


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


def _one_bits(v):
    return [i for i in range(v.bit_length() - 1, -1, -1) if v >> i & 1]


def _derivation_oracle(n):
    """(v, exps of v, exps of 2v and v plus {0}, exps of 3v+1, shift, next odd) per step."""
    steps, v = [], n
    while True:
        t = 3 * v + 1
        h = (t & -t).bit_length() - 1
        raw = sorted(_one_bits(2 * v) + _one_bits(v) + [0], reverse=True)
        steps.append((v, _one_bits(v), raw, _one_bits(t), h, t >> h))
        v = t >> h
        if v == 1:
            return steps


def test_decompose_matches_a_plain_int_oracle(capsys):
    rng = random.Random(31)
    odds = [1, 5, 27, 67, 10027] + [rng.getrandbits(b - 1) | 1 << (b - 1) | 1 for b in (64, 200, 500)]
    for n in odds:
        steps = _derivation_oracle(n)
        text = "".join(
            "%d = {%s} -> {%s} -> {%s} -> shift %d -> %d\n"
            % (v, ",".join(map(str, e)), ",".join(map(str, raw)), ",".join(map(str, after)), h, nxt)
            for v, e, raw, after, h, nxt in steps
        )
        machine = "".join(
            "%d,%d,%s,merge,raw:%s after:%s shift:%d\n"
            % (i, v, format(v, "b"), "+".join(map(str, raw)), "+".join(map(str, after)), h)
            for i, (v, e, raw, after, h, nxt) in enumerate(steps)
        )
        assert run(capsys, "decompose", str(n)) == (0, text, ""), n
        assert run(capsys, "decompose", str(n), "--format", "machine") == (0, machine, ""), n


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


def _sha(stream):
    return hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()


def test_outputs_match_goldens(monkeypatch):
    # argparse wraps usage and help text at $COLUMNS
    monkeypatch.delenv("COLLATZBIN_CAP", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    values, replayed, changed = {}, 0, []
    for line in OUTPUTS.read_text(encoding="utf-8").splitlines():
        if line.startswith("= "):
            _, name, value = line.split(" ", 2)
            values["$" + name] = value
        elif line and not line.startswith("#"):
            code, out_sha, err_sha, argv = line.split(" ", 3)
            argv = json.loads(argv)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    got = main([values.get(a, a) for a in argv])
                except SystemExit as exc:
                    got = exc.code
            replayed += 1
            if (str(got), _sha(out), _sha(err)) != (code, out_sha, err_sha):
                changed.append(argv)
    assert replayed == 100
    assert changed == []


def _python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_numpy_loads_only_with_the_verifier():
    proc = _python(
        "import sys\n"
        "import collatzbin.cli\n"
        "assert collatzbin.cli.main(['stopping-time', '27']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "import collatzbin\n"
        "collatzbin.verify_range(1, 10)\n"
        "assert 'numpy' in sys.modules\n"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "111\n", "")


def test_every_export_resolves():
    names = [(collatzbin, name) for name in collatzbin.__all__]
    for info in pkgutil.iter_modules(collatzbin.__path__):
        if info.name != "__main__":
            mod = importlib.import_module(f"collatzbin.{info.name}")
            names += [(mod, name) for name in getattr(mod, "__all__", ())]
    missing = [f"{mod.__name__}.{name}" for mod, name in names if not hasattr(mod, name)]
    assert missing == []


def test_ctrl_c_while_the_verifier_loads():
    proc = _python(
        "import sys\n"
        "class Interrupt:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'collatzbin.verify':\n"
        "            raise KeyboardInterrupt\n"
        "sys.meta_path.insert(0, Interrupt())\n"
        "from collatzbin.cli import main\n"
        "sys.exit(main(['verify', '1', '10']))\n"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "error: interrupted\n")


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


def test_every_command_past_the_int_str_limit(capsys):
    # 14,400 bits is ~4,335 decimal digits; the caps are perfbench's BIG_CAPS
    n = format(random.Random(14400).getrandbits(14399) | 1 << 14399 | 1, "b")
    hi = format(int(n, 2) + 2, "b")
    answers = [
        (("classify", n, "--binary"), f"mixed-odd {n}\n"),
        (("stopping-time", n, "--binary", "--cap", "64"), "truncated\n"),
        (("trace", n, "--binary", "--cap", "8", "--format", "table"), "truncated\n"),
        (("decompose", n, "--binary", "--cap", "2"), "truncated\n"),
        (("decompose", n, "--binary", "--cap", "2", "--format", "machine"), "truncated\n"),
    ]
    failures = [
        ("trace", n, "--binary", "--cap", "32", "--format", "points"),
        ("trace", n, "--binary", "--cap", "32", "--format", "machine"),
        ("trace", n, "--binary", "--cap", "32", "--format", "scratch"),
        ("hard", "7200"),
        ("verify", n, hi, "--binary", "--cap", "10"),
    ]
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            for argv, want in answers:
                assert run(capsys, *argv) == (0, want, ""), argv
            # path converts every prefix, slow under the default limit
            for argv in failures + [("path", n, "--binary")] * (digits == 640):
                code, out, err = run(capsys, *argv)
                assert (code, out, err.count("\n")) == (1, "", 1), argv
                assert err.startswith("error: ") and f"{digits}-digit" in err, argv
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
