"""Command-line behavior: outputs, exit codes, environment config."""

import ast
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

import pytest

import collatzbin
from collatzbin import cli, summarize, verify_range
from collatzbin.cli import main
from collatzbin.verify import checkpoint_load

OUTPUTS = Path(__file__).parent / "goldens" / "cli_outputs.txt"
README = Path(__file__).parents[1] / "README.md"
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


def _main_bytes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_matches_a_fresh_one(monkeypatch):
    # main builds its parser once; help and usage still wrap at the
    # $COLUMNS of each call, and an error leaves nothing behind
    calls = [
        ("100", ["--help"]),
        ("40", ["--help"]),
        ("40", ["decompose", "--help"]),
        ("60", ["decompose", "5", "--format", "nope"]),
        ("60", ["decompose", "5"]),
        ("80", ["verify", "1", "10", "--resume"]),
        ("80", ["no-such-command"]),
        ("80", ["stopping-time", "27", "--cap", "200"]),
        ("80", ["stopping-time", "27"]),
    ]
    monkeypatch.delenv("COLLATZBIN_CAP", raising=False)
    reused, fresh = [], []
    for columns, argv in calls:
        monkeypatch.setenv("COLUMNS", columns)
        reused.append(_main_bytes(argv))
    for columns, argv in calls:
        monkeypatch.setenv("COLUMNS", columns)
        cli._build_parser.cache_clear()
        fresh.append(_main_bytes(argv))
    assert reused == fresh
    assert reused[0] != reused[1]  # the wrap width did change
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 2, 2, 0, 0]


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of each `$ collatzbin ...` line in README's text blocks."""
    examples = []
    for block in README.read_text(encoding="utf-8").split("```text\n")[1:]:
        body = block.split("```", 1)[0]
        for example in body.split("$ collatzbin ")[1:]:
            command, _, out = example.partition("\n")
            examples.append((command.split(), out.rstrip("\n") + "\n"))
    return examples


def test_readme_examples(capsys, monkeypatch):
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    examples = readme_examples()
    assert len(examples) == 7
    for argv, out in examples:
        assert run(capsys, *argv) == (0, out, ""), argv


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
    # an even input starts from its odd part, 12 from 3 and 16 from 1
    assert run(capsys, "trace", "12", "--format", "table") == (
        0, "3=(11)₂ → (1010)₂\n5=(101)₂ → (10000)₂\n", ""
    )
    assert run(capsys, "trace", "16", "--format", "table") == (0, "1=(1)₂\n", "")


def _table_oracle(n, cap):
    """`trace --format table` text: one row per odd value from the odd part
    of n, or "truncated" when the walk is still open after cap rows."""
    v = n >> ((n & -n).bit_length() - 1)
    if v == 1:
        return "1=(1)₂\n"
    rows = []
    while v != 1:
        if len(rows) == cap:
            return "truncated\n"
        t = 3 * v + 1
        rows.append(f"{v}=({v:b})₂ → ({t:b})₂\n")
        v = t >> ((t & -t).bit_length() - 1)
    return "".join(rows)


def test_trace_table_matches_a_plain_int_oracle(capsys):
    # every n < 2^10, 1 and 16 and the even values among them included
    rng = random.Random(47)
    values = list(range(1, 1 << 10))
    values += [rng.getrandbits(b - 1) | 1 << (b - 1) for b in (64, 500, 2000) for _ in range(3)]
    cases = [((str(n),), n, collatzbin.DEFAULT_CAP) for n in values]
    # 27 lands on 1 in exactly 41 reduced steps: truncated at cap 40
    cases += [((str(27), "--cap", str(cap)), 27, cap) for cap in (40, 41)]
    assert _table_oracle(27, 40) == "truncated\n"
    for args, n, cap in cases:
        text = _table_oracle(n, cap)
        assert run(capsys, "trace", *args, "--format", "table") == (0, text, ""), n


def test_trace_scratch_default(capsys):
    code, out, _ = run(capsys, "trace", "16")
    assert code == 0
    assert out.splitlines()[0] == "· 16 = (10000)₂"


def test_trace_machine_parses(capsys):
    code, out, _ = run(capsys, "trace", "7", "--format", "machine")
    assert code == 0
    decimals = [line.split(",", 4)[1] for line in out.splitlines()]
    assert decimals[0] == "7"
    assert decimals[-1] == "1"


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
    bits = format(v, "b")
    top = len(bits) - 1
    return [top - i for i, c in enumerate(bits) if c == "1"]


def _derivation_oracle(n, cap):
    """(v, exps of v, exps of 2v and v plus {0}, exps of 3v+1, shift) per
    step, each exponent list comma-joined, or None when the orbit is still
    open after cap steps."""
    steps, v = [], n
    while len(steps) < cap:
        t = 3 * v + 1
        h = (t & -t).bit_length() - 1
        e = _one_bits(v)
        raw = sorted([x + 1 for x in e] + e + [0], reverse=True)
        steps.append((v, *(",".join(map(str, x)) for x in (e, raw, _one_bits(t))), h))
        v = t >> h
        if v == 1:
            return steps
    return None


def test_decompose_matches_a_plain_int_oracle(capsys):
    rng = random.Random(31)
    odds = [1, 5, 27, 67, 10027] + [rng.getrandbits(b - 1) | 1 << (b - 1) | 1 for b in (64, 200, 500, 2000)]
    # the hard numbers (4^k - 1)/3: one record, carried all the way to 2^(2k)
    odds += [(4**k - 1) // 3 for k in (1, 2, 6, 31, 70)]
    cases = [((str(n),), n, collatzbin.DEFAULT_CAP) for n in odds]
    # perfbench's 20,000-bit decompose: past the int/str limit, under its cap
    big = rng.getrandbits(19999) | 1 << 19999 | 1
    cases.append(((format(big, "b"), "--binary", "--cap", "2"), big, 2))
    for args, n, cap in cases:
        steps = _derivation_oracle(n, cap)
        if steps is None:
            text = machine = "truncated\n"
        else:
            nexts = [step[0] for step in steps[1:]] + [1]
            text = "".join(
                "%d = {%s} -> {%s} -> {%s} -> shift %d -> %d\n" % (*step, nxt)
                for step, nxt in zip(steps, nexts)
            )
            machine = "".join(
                "%d,%d,%s,merge,raw:%s after:%s shift:%d\n"
                % (i, v, format(v, "b"), raw.replace(",", "+"), after.replace(",", "+"), h)
                for i, (v, e, raw, after, h) in enumerate(steps)
            )
        assert run(capsys, "decompose", *args) == (0, text, ""), n.bit_length()
        assert run(capsys, "decompose", *args, "--format", "machine") == (0, machine, ""), n.bit_length()


def test_decompose_machine(capsys):
    code, out, _ = run(capsys, "decompose", "67", "--format", "machine")
    assert code == 0
    assert len(out.splitlines()) == 8
    assert out.splitlines()[0].split(",", 4)[3] == "merge"


def test_hard(capsys):
    code, out, _ = run(capsys, "hard", "3")
    assert code == 0
    assert out.splitlines() == [
        "a_3 = 21 (10101)",
        "T(a_3) = 64 (1000000)",
        "T^7(a_3) = 1: ok",
    ]
    assert run(capsys, "hard", "0")[0] == 1
    # past memory and past the longest indexable string: one error line each
    for k in (10**18, 10**20):
        code, out, err = run(capsys, "hard", str(k))
        assert (code, out) == (1, "")
        assert err == f"error: the {2 * k - 1}-digit hard number a_{k} does not fit in memory\n"


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


def test_verify_resume_reads_the_checkpoint_once(tmp_path, capsys, monkeypatch):
    # the resume branch loaded the file to compare it with the command line,
    # then the runner loaded, parsed and checked it again
    ck = tmp_path / "state.txt"
    assert run(capsys, "verify", "1", "5000", "--jobs", "1", "--chunk", "512",
               "--checkpoint", str(ck))[0] == 0
    loads = []

    def load(path):
        loads.append(path)
        return checkpoint_load(path)

    monkeypatch.setattr("collatzbin.verify.checkpoint_load", load)
    code, _, _ = run(
        capsys, "verify", "1", "5000", "--resume", "--checkpoint", str(ck), "--jobs", "1"
    )
    assert (code, loads) == (0, [str(ck)])


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
    # a budget below 1 is refused from either source
    monkeypatch.setenv("COLLATZBIN_CAP", "0")
    assert run(capsys, "stopping-time", "27") == (1, "", "error: COLLATZBIN_CAP must be >= 1, got 0\n")
    monkeypatch.delenv("COLLATZBIN_CAP")
    for command in ("stopping-time", "trace", "decompose"):
        for cap in ("0", "-1"):
            assert run(capsys, command, "7", "--cap", cap) == (1, "", f"error: --cap must be >= 1, got {cap}\n")


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


def _env():
    """The environment with the package source first on PYTHONPATH, so that
    a child interpreter imports the collatzbin under test."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def _python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env())


def test_numpy_loads_only_with_the_verifier():
    proc = _python(
        "import sys\n"
        "import collatzbin.cli\n"
        "assert collatzbin.cli.main(['stopping-time', '27']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'dataclasses' not in sys.modules\n"
        "import collatzbin\n"
        "collatzbin.verify_range(1, 10)\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
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


def _loaded_names(paths) -> set:
    """Every bare name and attribute read in the sources at paths; __all__
    strings and import aliases are not loads."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_has_a_caller():
    # every exported name is read somewhere in the package source
    loaded = _loaded_names(Path(collatzbin.__file__).parent.glob("*.py"))
    modules = [collatzbin] + [
        importlib.import_module(f"collatzbin.{info.name}")
        for info in pkgutil.iter_modules(collatzbin.__path__)
        if info.name != "__main__"
    ]
    uncalled = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not (name.startswith("__") and name.endswith("__")) and name not in loaded
    ]
    # and every public BinaryNat member in the package or the benchmark,
    # which times from_int and half. A member named like an int method
    # (bit_length, say) would pass on the int's reads: this cannot see it
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    loaded |= _loaded_names(perfbench.glob("*.py"))
    uncalled += [
        f"BinaryNat.{name}"
        for name in vars(collatzbin.BinaryNat)
        if not name.startswith("_") and name not in loaded
    ]
    assert uncalled == []


def test_only_bitnat_names_the_raw_constructor():
    # BinaryNat._raw skips the >= 1 check: every other module builds a
    # BinaryNat through a checked constructor, or hands back plain ints
    naming = sorted(
        path.name
        for path in Path(collatzbin.__file__).parent.glob("*.py")
        if path.name != "bitnat.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "_raw")
        or (isinstance(node, ast.Name) and node.id == "_raw")
    )
    assert naming == []


def _ctrl_c_while_loading(module, code):
    # code runs with Ctrl-C raised where module is imported: one error: line, exit 130
    proc = _python(
        "import runpy, sys\n"
        "class Interrupt:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        f"        if name == {module!r}:\n"
        "            raise KeyboardInterrupt\n"
        "sys.meta_path.insert(0, Interrupt())\n" + code
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "error: interrupted\n")


def test_ctrl_c_while_the_cli_loads():
    # python -m collatzbin, interrupted before main's own handler exists
    _ctrl_c_while_loading("collatzbin.cli", "sys.argv = ['collatzbin', 'classify', '7']\n"
                          "runpy.run_module('collatzbin', run_name='__main__', alter_sys=True)\n")


def test_ctrl_c_while_the_verifier_loads():
    _ctrl_c_while_loading("collatzbin.verify", "from collatzbin.cli import main\nsys.exit(main(['verify', '1', '10']))\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "collatzbin", "classify", "97"],
        capture_output=True,
        text=True,
        env=_env(),
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
    handler = signal.getsignal(signal.SIGTERM)
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
    # every verify, refused or run, gives the caller's SIGTERM handler back
    assert signal.getsignal(signal.SIGTERM) is handler


def test_verify_resume_checks_jobs(tmp_path, capsys):
    ck = tmp_path / "state.txt"
    assert run(capsys, "verify", "1", "5000", "--jobs", "1", "--chunk", "512",
               "--checkpoint", str(ck))[0] == 0
    for jobs in ("0", "-5"):
        code, out, err = run(
            capsys, "verify", "1", "5000", "--resume", "--checkpoint", str(ck), "--jobs", jobs
        )
        assert (code, out, err) == (1, "", f"error: jobs must be >= 1, got {jobs}\n")


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


def test_verify_resume_refuses_an_empty_range(tmp_path, capsys):
    # a self-consistent file for [5, 5): it resumed into a report, where
    # verify 5 5 without it is refused
    ck = tmp_path / "state.txt"
    ck.write_text(
        "collatzbin-checkpoint v1\nrange 5 5\nstep_cap 100000\nchunk_size 65536\nnext 5\n"
        "verified 0\nmax_sigma - -\nmax_excursion - -\nhist 0 0 0 0 0\nend\n"
    )
    code, out, err = run(capsys, "verify", "5", "5", "--resume", "--checkpoint", str(ck))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed checkpoint") and err.count("\n") == 1
    assert run(capsys, "verify", "5", "5")[:2] == (1, "")


def test_verify_checkpoint_write_errors(tmp_path, capsys):
    # a missing directory, and a path that is itself a directory
    directory = tmp_path / "dir"
    directory.mkdir()
    for target in (tmp_path / "missing" / "state.txt", directory):
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "verify", "1", "100", "--jobs", jobs, "--chunk", "25",
                                 "--checkpoint", str(target))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: cannot write checkpoint {target}: ")
            assert err.count("\n") == 1 and err.endswith("\n")
    assert not list(tmp_path.rglob("*.tmp"))


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
        ("path", n, "--binary"),
    ]
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            for argv, want in answers:
                assert run(capsys, *argv) == (0, want, ""), argv
            for argv in failures:
                code, out, err = run(capsys, *argv)
                assert (code, out, err.count("\n")) == (1, "", 1), argv
                assert err.startswith("error: ") and f"{digits}-digit" in err, argv
    finally:
        sys.set_int_max_str_digits(limit)


def _climbs_past(digits):
    # an odd value under `digits` decimal digits whose short orbit climbs
    # past them: walk back from 5 (5 -> 16 -> 1) by odd predecessors
    # (v * 2^h - 1)/3, ~100 bits a step, to the first one v past 10^digits;
    # keep it when its own predecessor (2v - 1)/3 fits
    lo, rng = 10**digits, random.Random(digits)
    while True:
        v = 5
        while v < lo:
            h = rng.randrange(60, 140)
            h += (v << h) % 3 != 1  # v * 2^h must be 1 mod 3
            while h > 2 and ((v << (h - 2)) - 1) // 3 >= lo:
                h -= 2
            while ((v << h) - 1) // 3 < lo and ((v << h) - 1) // 3 % 3 == 0:
                h += 2  # a multiple of 3 has no odd predecessor
            v = ((v << h) - 1) // 3
        if v < lo * 3 // 2 and v % 3 == 2:
            return (2 * v - 1) // 3


def test_decompose_past_the_int_str_limit_prints_only_the_error(capsys):
    # a derivation that completes under the cap but holds a decimal past
    # the limit: converted in full before the first write, so stdout stays
    # empty whether the first value or a later one is the one too long
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            k = math.ceil(digits / math.log10(4)) + 1  # (4^k - 1)/3 has more digits
            for n in ((4**k - 1) // 3, _climbs_past(digits)):
                for fmt in ("text", "machine"):
                    argv = ("decompose", format(n, "b"), "--binary", "--format", fmt)
                    code, out, err = run(capsys, *argv)
                    assert (code, out, err.count("\n")) == (1, "", 1), (digits, n.bit_length(), fmt)
                    assert err.startswith("error: ") and f"{digits}-digit" in err
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_peak_past_the_int_str_limit(tmp_path, capsys):
    # the bounds 2^k - 1 and 2^k fit the limit; the all-ones start climbs
    # past 3^k, beyond it, and converges under the cap
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            k = math.ceil(digits / math.log10(2)) - 1
            assert len(str(1 << k)) == digits
            ck = tmp_path / "ck.txt"
            for extra in ((), ("--checkpoint", str(ck))):
                argv = ("verify", "1" * k, "1" + "0" * k, "--binary", "--cap", "1000000", *extra)
                code, out, err = run(capsys, *argv)
                assert (code, out, err.count("\n")) == (1, "", 1), argv
                assert err.startswith("error: ") and f"{digits}-digit" in err, argv
                # the first save fails before its temp file opens
                assert list(tmp_path.iterdir()) == [], argv
    finally:
        sys.set_int_max_str_digits(limit)


def _live_in_group(pgid):
    """The pids of process group pgid in any state but Z (zombie), read from /proc."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with suppress(OSError, ValueError):
            # the fields after the command's closing parenthesis: state, ppid, pgrp
            state, _, group = stat.read_text().rpartition(")")[2].split()[:3]
            if int(group) == pgid and state != "Z":
                live.append(int(stat.parent.name))
    return live


def _stop_a_parallel_run(tmp_path, stop, killed=False):
    # a run on two jobs in a session of its own, stopped by stop(pid) once it
    # saves a chunk; killed: by SIGKILL to the parent, which it cannot handle
    ck = tmp_path / "ck.txt"
    # 200 chunks: the run is still going when the first checkpoint appears
    lo, hi, chunk = 1, 4 * 10**6, 20000
    argv = [sys.executable, "-m", "collatzbin", "verify", str(lo), str(hi),
            "--jobs", "2", "--chunk", str(chunk), "--checkpoint", str(ck)]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env=_env(),
    )
    try:
        deadline = time.monotonic() + 60
        while not ck.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        stop(proc.pid)
        if killed:
            # the workers die with the parent: within 5 s no process of the group
            # is left but zombies, which an init process may reap late, so that
            # os.killpg still finds them
            deadline = time.monotonic() + 5
            while _live_in_group(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _live_in_group(proc.pid) == []
        out, err = proc.communicate(timeout=60)
        if not killed:
            # no worker outlives the run
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if killed:
        assert (proc.returncode, out, err) == (-signal.SIGKILL, "", "")
    else:
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]
    assert checkpoint_load(ck).next_unprocessed < hi
    resumed = subprocess.run(argv + ["--resume"], capture_output=True, text=True, env=_env())
    assert (resumed.returncode, resumed.stderr) == (0, "")
    assert resumed.stdout == summarize(verify_range(lo, hi, chunk_size=chunk))
    # a save cut by SIGKILL may leave its temporary file: the resumed run's first save replaces it
    assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]


def test_ctrl_c_stops_a_parallel_run_cleanly(tmp_path):
    _stop_a_parallel_run(tmp_path, lambda pid: os.killpg(pid, signal.SIGINT))


@pytest.mark.parametrize("kill", [os.kill, os.killpg], ids=["parent", "group"])
def test_sigterm_stops_a_parallel_run_cleanly(tmp_path, kill):
    # SIGTERM to the parent alone, or to its whole group, ends the run as Ctrl-C does
    _stop_a_parallel_run(tmp_path, lambda pid: kill(pid, signal.SIGTERM))


@pytest.mark.skipif(sys.platform != "linux", reason="workers die with their parent on Linux only")
def test_sigkill_to_the_parent_ends_its_workers(tmp_path):
    _stop_a_parallel_run(tmp_path, lambda pid: os.kill(pid, signal.SIGKILL), killed=True)


def test_a_killed_worker_ends_the_run_in_one_error_line(tmp_path):
    # the worker that takes the third chunk waits until a chunk is saved,
    # then SIGKILLs itself, as the OOM killer would
    ck = tmp_path / "ck.txt"
    lo, hi, chunk = 1, 200000, 20000
    argv = ["verify", str(lo), str(hi), "--jobs", "2", "--chunk", str(chunk), "--checkpoint", str(ck)]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, signal, sys, time\n"
         "from collatzbin import verify\n"
         "from collatzbin.cli import main\n"
         "real = verify._chunk_stats\n"
         "def chunk(bounds, cap):\n"
         f"    if bounds[0] == {lo + 2 * chunk}:\n"
         "        deadline = time.monotonic() + 30\n"
         f"        while not os.path.exists({str(ck)!r}) and time.monotonic() < deadline:\n"
         "            time.sleep(0.01)\n"
         "        os.kill(os.getpid(), signal.SIGKILL)\n"
         "    return real(bounds, cap)\n"
         "verify._chunk_stats = chunk\n"
         f"sys.exit(main({argv!r}))\n"],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: chunk [") and proc.stderr.count("\n") == 1, proc.stderr
    assert "failed in a worker: BrokenProcessPool" in proc.stderr and "Traceback" not in proc.stderr
    # the file keeps the last merged state, and no temporary file is left
    assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]
    assert checkpoint_load(ck).next_unprocessed < hi
    resumed = subprocess.run(
        [sys.executable, "-m", "collatzbin", *argv, "--resume"], capture_output=True, text=True, env=_env()
    )
    assert (resumed.returncode, resumed.stderr) == (0, "")
    assert resumed.stdout == summarize(verify_range(lo, hi, chunk_size=chunk))
