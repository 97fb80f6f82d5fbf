"""Range engine: oracles, determinism, checkpoints."""

import concurrent.futures
import dataclasses
import functools
import importlib.util
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collatzbin import (
    CheckpointError,
    DomainError,
    NumberClass,
    classify,
    stopping_time,
    summarize,
    verify_range,
)
from collatzbin.verify import (
    Checkpoint,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_STEP_CAP,
    checkpoint_load,
    checkpoint_save,
    run,
)
from collatzbin import verify as verify_mod
from collatzbin.classify import class_counts

from conftest import bn, past_limit
from windows import (
    BASES,
    GATE_EDGE,
    GATE_FREE,
    HIGH_FIRST,
    OWN_GATE,
    PAST_2P117,
    PAST_2P64,
    TWICE_BACK,
    W9,
    WIDE_2P50,
    WIDE_CLASS,
    WINDOWS,
    Window,
    check,
    draw,
    oracle_report,
    oracle_walks,
    orbit_oracle,
    rows,
    stepped_table,
)

GOLDENS = Path(__file__).parent / "goldens"


def block_walk(n: int, k: int = 16):
    """(value, plain steps, peak) of n's walk through its k-th halving."""
    steps, peak, halvings = 0, n, 0
    while halvings < k:
        if n & 1:
            n = 3 * n + 1
        else:
            n >>= 1
            halvings += 1
        steps += 1
        peak = max(peak, n)
    return n, steps, peak


def test_tiny_ranges():
    r = verify_range(1, 10)
    assert r.verified_count == 9
    assert not r.truncated
    # brute force over 1..9: sigma(9) = 19 tops sigma(7) = 16
    best = max(range(1, 10), key=lambda n: (orbit_oracle(n)[0], -n))
    assert (r.max_stopping_time, r.max_stopping_time_at) == (19, 9)
    assert r.max_stopping_time == orbit_oracle(best)[0]
    # 7 and 9 both peak at 52; the tie goes to the smaller n
    assert (r.max_excursion, r.max_excursion_at) == (52, 7)
    assert r.histogram[list(NumberClass).index(NumberClass.ORIGIN)] == 1
    assert sum(r.histogram) == 9

    r1 = verify_range(1, 2)
    assert r1.verified_count == 1
    assert (r1.max_stopping_time, r1.max_stopping_time_at) == (0, 1)
    assert (r1.max_excursion, r1.max_excursion_at) == (1, 1)

    r255 = verify_range(255, 256)
    assert r255.max_stopping_time == 47
    assert r255.max_excursion == 13120


def test_invalid_ranges():
    with pytest.raises(DomainError):
        verify_range(0, 5)
    with pytest.raises(DomainError):
        verify_range(5, 5)
    with pytest.raises(DomainError):
        verify_range(1, 10, step_cap=0)
    with pytest.raises(DomainError):
        verify_range(1, 10, chunk_size=0)
    with pytest.raises(DomainError):
        verify_range(1, 10, jobs=0)


def test_report_independent_of_chunk_size():
    reports = [
        verify_range(1, 20000, chunk_size=c)
        for c in (64, 999, 4096, DEFAULT_CHUNK_SIZE)
    ]
    # the states differ only in the chunk size they record
    assert all(
        dataclasses.replace(r, chunk_size=DEFAULT_CHUNK_SIZE) == reports[-1] for r in reports
    )


def test_report_independent_of_workers():
    serial = verify_range(1, 200000)
    for jobs in (2, 4):
        assert verify_range(1, 200000, jobs=jobs) == serial


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # a stand-in pool that records its size, runs each submit in this
    # process, and counts the futures submitted and not yet read
    sizes = []
    futures = {"live": 0, "peak": 0}

    class Future:
        def __init__(self, value):
            self.value = value

        def result(self):
            futures["live"] -= 1
            return self.value

    class Pool:
        def __init__(self, max_workers, *args):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            futures["live"] += 1
            futures["peak"] = max(futures["peak"], futures["live"])
            return Future(fn(*args))

        def shutdown(self, cancel_futures=False):
            pass

    # run imports the pool only for more than one worker, from here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert verify_range(1, 4, chunk_size=1, jobs=64) == verify_range(1, 4, chunk_size=1)
    assert sizes == [3]
    # 100 chunks on 3 workers: at most two chunks per worker in flight
    assert verify_range(1, 101, chunk_size=1, jobs=3) == verify_range(1, 101, chunk_size=1)
    assert sizes == [3, 3]
    assert futures == {"live": 0, "peak": 6}


def test_run_makes_chunk_bounds_as_it_goes(monkeypatch):
    # a run of 2^18 one-value chunks stopped on its second chunk: bounds
    # listed up front would take ~33 MB before the first chunk ran
    real, calls = verify_mod._chunk_stats, []

    class Stop(Exception):
        pass

    def chunk_stats(bounds, cap):
        calls.append(bounds)
        if len(calls) == 2:
            raise Stop
        return real(bounds, cap)

    monkeypatch.setattr(verify_mod, "_chunk_stats", chunk_stats)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            verify_range(1, 1 + 2**18, chunk_size=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [(1, 2), (2, 3)]
    assert peak < 1 << 20


def test_window_reports_match_oracle():
    # most n are past the 2^16 table and walk in the kernel; the rest read their entry
    rng = random.Random(31337)
    for n in [rng.randrange(2, 10**6) for _ in range(60)]:
        r = verify_range(n, n + 1)
        sigma, peak = orbit_oracle(n)
        assert r.max_stopping_time == sigma
        assert r.max_excursion == peak
        assert r.verified_count == 1


def test_engine_agrees_with_bit_string_walk():
    # dual route: numpy kernel vs the BinaryNat iteration
    rng = random.Random(2024)
    for n in [rng.randrange(2, 10**6) for _ in range(40)]:
        assert verify_range(n, n + 1).max_stopping_time == stopping_time(bn(n))


def test_truncation_is_reported_not_raised():
    r = verify_range(27, 28, step_cap=5)
    assert r.verified_count == 0
    assert r.truncated == [27]
    assert r.max_stopping_time is None and r.max_excursion is None
    assert sum(r.histogram) == 1
    text = summarize(r)
    assert "truncated: 1" in text and "truncated inputs: 27" in text


def test_histogram_and_counts_add_up():
    r = verify_range(1, 5000, step_cap=30)
    assert r.verified_count + len(r.truncated) == 4999
    assert sum(r.histogram) == 4999
    # every listed truncation really does exceed the cap
    for t in r.truncated[:20]:
        assert orbit_oracle(t, cap=30)[0] is None


def test_int64_overflow_fallback():
    # orbits straddling 2**62 pass their int64 gates mid-walk, jump on two
    # uint64 limbs and come back to the int64 arrays; every start converges,
    # and each maximum goes to the smallest n that reaches it
    lo = 2**62 - 2
    assert _matches_oracle(Window(lo, lo + 4)).verified_count == 4


def test_python_path_beyond_int64():
    # starts past 2**63 take their first jumps on two uint64 limbs
    lo = 2**64 + 1
    assert _matches_oracle(Window(lo, lo + 2)).verified_count == 2


def test_summarize_layout():
    cases = [
        (
            (1, 10),
            {},
            "range: [1, 10)\n"
            "step cap: 100000\n"
            "verified: 9\n"
            "truncated: 0\n"
            "max stopping time: 19 at 9\n"
            "max excursion: 52 at 7\n"
            "classes: origin 1, pure-even 3, pure-odd 2, mixed-even 1, mixed-odd 2\n",
        ),
        (
            # past 2^64: inputs and maxima are plain-integer values
            (2**64 + 1, 2**64 + 3),
            {},
            "range: [18446744073709551617, 18446744073709551619)\n"
            "step cap: 100000\n"
            "verified: 2\n"
            "truncated: 0\n"
            "max stopping time: 483 at 18446744073709551617\n"
            "max excursion: 55340232221128654852 at 18446744073709551617\n"
            "classes: origin 0, pure-even 0, pure-odd 0, mixed-even 1, mixed-odd 1\n",
        ),
        (
            # 4,275 truncated inputs on one line
            (1, 5000),
            {"step_cap": 30},
            (GOLDENS / "summary_1_5000_cap30.txt").read_text(encoding="utf-8"),
        ),
    ]
    for (lo, hi), kwargs, expected in cases:
        assert summarize(verify_range(lo, hi, **kwargs)) == expected
    # a mid-run state is not a report over its whole range
    state = verify_mod._merge(Checkpoint(1, 10, DEFAULT_STEP_CAP, 4, 1), verify_range(1, 5))
    assert state.next_unprocessed == 5
    with pytest.raises(DomainError, match="unfinished"):
        summarize(state)


# -- checkpoints

def _fresh_state(lo, hi, chunk):
    # no maxima and no truncated inputs yet
    return Checkpoint(lo, hi, DEFAULT_STEP_CAP, chunk, lo)


def test_checkpoint_save_load_roundtrip(tmp_path):
    path = tmp_path / "ck.txt"
    state = _fresh_state(1, 100000, 4096)
    # a mid-run state that passes the load-time consistency checks
    state.next_unprocessed = 20
    state.max_stopping_time = 19
    state.max_stopping_time_at = 9
    state.max_excursion = 52
    state.max_excursion_at = 7
    state.truncated = [12, 15]
    checkpoint_save(state, path)
    assert checkpoint_load(path) == state
    assert not list(tmp_path.glob("*.tmp"))  # rename completed


def test_checkpoint_save_interrupted_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "ck.txt"
    before = verify_range(1, 100, checkpoint_path=path)

    def interrupt(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify_mod.os, "fsync", interrupt)
    with pytest.raises(KeyboardInterrupt):
        checkpoint_save(verify_range(1, 100, step_cap=5), path)
    assert not list(tmp_path.glob("*.tmp"))
    # the previous checkpoint is still whole
    assert checkpoint_load(path) == before


def test_checkpoint_interrupted_run_matches_straight_run(tmp_path):
    path = tmp_path / "ck.txt"
    chunk = 2048
    state = _fresh_state(1, 20000, chunk)
    bounds = [
        (a, min(a + chunk, state.hi)) for a in range(state.lo, state.hi, chunk)
    ]
    for b in bounds[:4]:  # simulate dying mid-run
        verify_mod._merge(state, verify_mod._chunk_stats(b, state.step_cap))
    checkpoint_save(state, path)
    resumed = run(checkpoint_load(path), 1, path)
    straight = verify_range(1, 20000, chunk_size=chunk)
    assert resumed == straight
    assert summarize(resumed) == summarize(straight)
    # the file now records a finished run
    assert checkpoint_load(path).next_unprocessed == 20000


def test_checkpoint_written_during_verify(tmp_path, monkeypatch):
    path = tmp_path / "ck.txt"
    writes = []

    def save(state, path):
        writes.append(state.next_unprocessed)
        checkpoint_save(state, path)

    monkeypatch.setattr(verify_mod, "checkpoint_save", save)
    r = verify_range(1, 9000, chunk_size=1000, checkpoint_path=path)
    saved = checkpoint_load(path)
    assert saved.next_unprocessed == 9000
    assert saved.verified_count == r.verified_count
    # one write per merged chunk (9), none after the last
    assert writes == [*range(1001, 9000, 1000), 9000]


def test_checkpoint_resume_checks_jobs(tmp_path):
    path = tmp_path / "ck.txt"
    verify_range(1, 5000, chunk_size=512, checkpoint_path=path)
    saved = path.read_bytes()
    for jobs in (0, -5):
        with pytest.raises(DomainError, match="jobs must be >= 1"):
            run(checkpoint_load(path), jobs, path)
    for jobs, kind in ((2.5, "float"), ("2", "str"), (True, "bool")):
        with pytest.raises(DomainError, match=f"jobs must be an integer value, got {kind}"):
            run(checkpoint_load(path), jobs, path)
    assert path.read_bytes() == saved


def test_checkpoint_missing_file():
    with pytest.raises(CheckpointError):
        checkpoint_load("/nonexistent/nope.txt")
    with pytest.raises(CheckpointError):
        run(checkpoint_load("/nonexistent/nope.txt"), 1, "/nonexistent/nope.txt")


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "ck.txt"
    state = _fresh_state(1, 100, 10)
    checkpoint_save(state, path)
    text = path.read_text().replace("checkpoint v1", "checkpoint v99")
    path.write_text(text)
    with pytest.raises(CheckpointError, match="v99"):
        checkpoint_load(path)
    path.write_text("")
    with pytest.raises(CheckpointError, match="unsupported checkpoint header ''"):
        checkpoint_load(path)


def test_checkpoint_detects_torn_write(tmp_path):
    path = tmp_path / "ck.txt"
    state = _fresh_state(1, 100, 10)
    checkpoint_save(state, path)
    whole = path.read_text()
    path.write_text(whole[: len(whole) // 2])
    with pytest.raises(CheckpointError):
        checkpoint_load(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_text("collatzbin-checkpoint v1\nrange x y\nend\n")
    with pytest.raises(CheckpointError):
        checkpoint_load(path)
    path.write_bytes(b"collatzbin-checkpoint v1\nrange \xff 2\nend\n")
    with pytest.raises(CheckpointError, match="cannot read"):
        checkpoint_load(path)


def _stopped():
    # [2, 400) at cap 30, stopped after [2, 200) with 79 inputs truncated:
    # sigma 30 at 86, peak 1024 at 151
    return verify_mod._merge(Checkpoint(2, 400, 30, 200, 2), verify_range(2, 200, step_cap=30))


def test_checkpoint_load_checks_consistency(tmp_path):
    path = tmp_path / "ck.txt"
    finished = verify_range(1, 5000, chunk_size=512)
    runs = [
        (
            finished,
            [
                ("chunk_size 512", "chunk_size 0"),  # resume used to die inside range()
                ("next 5000", "next 1000"),  # resume used to report 8999 verified
                ("next 5000", "next 5001"),
                ("range 1 5000", "range 0 5000"),
                ("step_cap 100000", "step_cap 0"),
                ("verified 4999", "verified 4998"),
                ("hist 1 12 11 2487 2488", "hist 1 12 11 2487 2487"),
                # the sum is kept, but mixed-even and mixed-odd are swapped
                ("hist 1 12 11 2487 2488", "hist 1 12 11 2488 2487"),
                ("max_excursion 8153620 4591", "max_excursion - -"),
                ("max_excursion 8153620 4591", "max_excursion 8153620 5000"),
                ("max_sigma 237 3711", "max_sigma 237 0"),
            ],
        ),
        (
            _stopped(),
            [
                ("trunc 27\n", "trunc 999999\n"),  # used to be listed in the report
                ("trunc 27\n", "trunc 250\n"),  # inside the range, but not done yet
                ("trunc 27\ntrunc 31\n", "trunc 31\ntrunc 27\n"),
                ("trunc 27\n", "trunc 1\n"),
                ("trunc 27\n", "trunc 31\n"),
                ("max_sigma 30 86", "max_sigma 30 300"),
                # maxima that are not their input's own walk used to resume
                # into a report that carried them
                ("max_sigma 30 86", "max_sigma 29 86"),
                ("max_sigma 30 86", "max_sigma 30 27"),  # 27 is truncated
                ("max_excursion 1024 151", "max_excursion 1023 151"),
                ("max_excursion 1024 151", "max_excursion 1025 151"),
                # used to report "step cap: 20" with a max stopping time of 30
                ("step_cap 30\n", "step_cap 20\n"),
                # not the saved text; the repeated step_cap used to resume
                # into "step cap: 1000" with 79 cap-30 truncations
                ("trunc 27\n", "trunc 27 99\n"),
                ("trunc 27\n", "trunc 027\n"),
                ("step_cap 30\n", "step_cap 30 7\n"),
                ("step_cap 30\n", "step_cap 30\nstep_cap 1000\n"),
                ("hist 0 7 6 92 93\n", "hist 0 7 6 92 93\nbogus 1\n"),
                ("next 200\n", "next 200\nnext 200\n"),
                ("next 200\n", "next 2_00\n"),
                ("next 200\n", "next +200\n"),
                ("collatzbin-checkpoint v1\n", "collatzbin-checkpoint v1\r\n"),
                ("\n", "\r\n"),
            ],
        ),
    ]
    for state, edits in runs:
        checkpoint_save(state, path)
        assert checkpoint_load(path) == state
        whole = path.read_text()
        for old, new in edits:
            assert old in whole
            path.write_text(whole.replace(old, new))
            with pytest.raises(CheckpointError, match="malformed"):
                checkpoint_load(path)


@settings(max_examples=60)
@given(
    lo=st.one_of(st.integers(1, 5000), st.sampled_from([(1 << 62) - 40, (1 << 64) + 1])),
    size=st.integers(1, 400),
    cap=st.sampled_from([5, 30, 300, DEFAULT_STEP_CAP]),
    chunk=st.integers(1, 150),
    data=st.data(),
)
def test_checkpoint_round_trip_on_reachable_states(tmp_path_factory, lo, size, cap, chunk, data):
    # a run over [lo, lo + size) stopped after some number of chunks
    hi = lo + size
    starts = range(lo, hi, chunk)
    state = Checkpoint(lo, hi, cap, chunk, lo)
    for a in starts[: data.draw(st.integers(0, len(starts)), label="chunks")]:
        verify_mod._merge(state, verify_mod._chunk_stats((a, min(a + chunk, hi)), cap))
    path = tmp_path_factory.mktemp("ck") / "ck.txt"
    checkpoint_save(state, path)
    saved = path.read_bytes()
    loaded = checkpoint_load(path)
    assert loaded == state
    checkpoint_save(loaded, path)
    assert path.read_bytes() == saved


# the file a run writes before its first chunk, written out by hand
FRESH_CHECKPOINT = """\
collatzbin-checkpoint v1
range {lo} {hi}
step_cap {cap}
chunk_size {chunk}
next {lo}
verified 0
max_sigma - -
max_excursion - -
hist 0 0 0 0 0
end
"""


@settings(max_examples=200)
@given(
    lo=st.integers(-2, 40),
    hi=st.integers(-2, 40),
    cap=st.sampled_from([-1, 0, 1, 7]),
    chunk=st.sampled_from([-1, 0, 1, 7]),
)
# the empty range at the default settings: the file loaded, though
# verify_range(5, 5) is refused
@example(lo=5, hi=5, cap=DEFAULT_STEP_CAP, chunk=DEFAULT_CHUNK_SIZE)
def test_verify_range_and_checkpoint_load_share_one_validator(
    tmp_path_factory, lo, hi, cap, chunk
):
    path = tmp_path_factory.mktemp("ck") / "ck.txt"
    path.write_text(FRESH_CHECKPOINT.format(lo=lo, hi=hi, cap=cap, chunk=chunk))
    try:
        verify_range(lo, hi, cap, chunk)
        refused = False
    except DomainError:
        refused = True
    if refused:
        with pytest.raises(CheckpointError, match="malformed"):
            checkpoint_load(path)
    else:
        assert checkpoint_load(path) == Checkpoint(lo, hi, cap, chunk, lo)
    # run checks the state it is given with the same rule
    try:
        run(Checkpoint(lo, hi, cap, chunk, lo))
    except DomainError:
        assert refused
    else:
        assert not refused


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"next_unprocessed": 401}, "need lo <= next <= hi, got 2, 401, 400"),
        (
            {"truncated": lambda t: t[::-1]},
            r"truncated inputs must ascend strictly inside \[2, 200\)",
        ),
        (
            {"max_stopping_time": None, "max_stopping_time_at": None},
            "maxima must be present exactly when some value is verified",
        ),
        ({"max_stopping_time": 31}, "max stopping time 31 exceeds step_cap 30"),
        ({"max_stopping_time": 29}, "86 does not stop in 29 steps at cap 30"),
        ({"max_excursion": 1023}, "151 does not peak at 1023 within cap 30"),
    ],
    ids=["next-past-hi", "truncated-unordered", "maxima-missing", "sigma-over-cap",
         "sigma-not-the-kernels", "peak-not-the-kernels"],
)
def test_run_and_checkpoint_load_refuse_an_unreachable_state(tmp_path, edit, message):
    state = _stopped()
    for name, value in edit.items():
        setattr(state, name, value(getattr(state, name)) if callable(value) else value)
    with pytest.raises(DomainError, match=f"^{message}$") as refused:
        run(state)
    path = tmp_path / "ck.txt"
    checkpoint_save(state, path)
    with pytest.raises(CheckpointError) as malformed:
        checkpoint_load(path)
    assert str(malformed.value) == f"malformed checkpoint {path}: {refused.value}"


@pytest.mark.parametrize(
    "call, template",
    [
        (lambda: verify_range(2**20000, 2**20000), "need 1 <= lo < hi, got [{}, {})"),
        (lambda: verify_range(-(2**20000), 5), "lo must be >= 1, got {}"),
        (
            lambda: summarize(Checkpoint(2**20000, 2**20000 + 5, 1, 1, 2**20000)),
            "run [{}, {}) unfinished at {}",
        ),
    ],
    ids=["empty-range", "negative-lo", "unfinished-summary"],
)
def test_messages_past_the_digit_limit_raise_domain_error(call, template):
    # the messages printed the numbers with str(), a raw ValueError past 4,300
    # digits; then the digit-limit text alone replaced the whole message. Such
    # a number is named by its sign and bit length, and the message keeps its words
    with pytest.raises(DomainError, match=past_limit(template)):
        call()


def test_negative_lo_past_the_digit_limit_names_lo():
    # the digit-limit message alone did not say which argument was wrong
    with pytest.raises(DomainError) as refused:
        verify_range(-(2**20000), 5)
    assert str(refused.value).startswith("lo must be >= 1")
    assert "digit limit for int/str conversion" in str(refused.value)


def test_verify_range_takes_plain_ints():
    with pytest.raises(DomainError, match="lo must be an integer value, got BinaryNat"):
        verify_range(bn(1), 10)
    with pytest.raises(DomainError, match="hi must be an integer value, got float"):
        verify_range(1, 10.0)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        # a bool is an int to isinstance: True printed as "range: [True, 3)",
        # and the checkpoint it saved did not load
        ((True, 3), {}, "lo must be an integer value, got bool"),
        # printed as "step cap: True" and "step cap: 20.5"
        ((1, 10), {"step_cap": True}, "step_cap must be an integer value, got bool"),
        ((1, 10), {"step_cap": 20.5}, "step_cap must be an integer value, got float"),
        # raised a raw TypeError
        ((1, 10), {"chunk_size": 7.0}, "chunk_size must be an integer value, got float"),
        ((1, 100), {"chunk_size": 10, "jobs": 2.5}, "jobs must be an integer value, got float"),
        ((1, 100), {"chunk_size": 10, "jobs": "2"}, "jobs must be an integer value, got str"),
        # ran as one job
        ((1, 100), {"chunk_size": 10, "jobs": True}, "jobs must be an integer value, got bool"),
    ],
)
def test_verify_range_rejects_bools_and_floats(args, kwargs, message):
    with pytest.raises(DomainError, match=message):
        verify_range(*args, **kwargs)


# -- one class partition, one run-state type, one table


def test_class_partition_matches_classify():
    def counted(lo, hi):
        return Counter(classify(bn(n)) for n in range(lo, hi))

    # every window inside [1, 64], and every window among 2^k - 3 ... 2^k + 3
    windows = [(a, b) for b in range(2, 65) for a in range(1, b)]
    for k in range(71):
        edge = [x for x in range(2**k - 3, 2**k + 4) if x >= 1]
        windows += [(a, b) for a in edge for b in edge if a < b]
    for a, b in windows:
        expected = counted(a, b)
        assert class_counts(a, b) == {cls: expected[cls] for cls in NumberClass}
    with pytest.raises(DomainError):
        class_counts(0, 5)
    # the verifier's histogram, in NumberClass order, below, across and past 2^63
    for lo, hi in [
        (1, 1 << 12),
        ((1 << 62) - 300, (1 << 62) + 300),
        ((1 << 63) - 300, 1 << 63),
        ((1 << 63) - 300, (1 << 63) + 300),
        ((1 << 64) - 300, (1 << 64) + 300),
    ]:
        expected = counted(lo, hi)
        assert verify_range(lo, hi).histogram == tuple(expected[cls] for cls in NumberClass)


@settings(max_examples=40)
@given(
    base=st.sampled_from(BASES["merge"]),
    offset=st.integers(0, 300),
    size=st.integers(1, 200),
    cap=st.sampled_from([8, 60, DEFAULT_STEP_CAP]),
    cuts=st.lists(st.integers(1, 199), max_size=8),
    rnd=st.randoms(use_true_random=False),
)
def test_shuffled_chunk_merge_matches_straight_run(base, offset, size, cap, cuts, rnd):
    lo = base + offset
    hi = lo + size
    straight = verify_range(lo, hi, step_cap=cap)
    edges = sorted({lo, hi, *(lo + c for c in cuts if c < size)})
    parts = [verify_mod._chunk_stats(b, cap) for b in zip(edges, edges[1:])]
    rnd.shuffle(parts)
    state = Checkpoint(lo, hi, cap, DEFAULT_CHUNK_SIZE, lo)
    for part in parts:
        verify_mod._merge(state, part)
    assert state.next_unprocessed == hi
    assert state == straight


def test_tables_shared_across_caps():
    verify_range(10**6, 10**6 + 100)
    tables = verify_mod._SIG, verify_mod._PK
    for cap in (5, 300, DEFAULT_STEP_CAP):
        verify_range(10**6 + 7, 10**6 + 50, step_cap=cap)
        verify_range(3, 900, step_cap=cap)
    # one table serves every cap and every range
    assert verify_mod._SIG is tables[0] and verify_mod._PK is tables[1]


def test_merge_ties_go_to_smaller_n():
    # 27 and 31 both peak at 9232; 12 and 13 both stop after 9 steps
    for (a, b), key in (((27, 31), "max_excursion"), ((12, 13), "max_stopping_time")):
        for first, second in ((a, b), (b, a)):
            state = Checkpoint(a, b + 1, DEFAULT_STEP_CAP, 1, a)
            for n in (first, second):
                verify_mod._merge(state, verify_mod._chunk_stats((n, n + 1), DEFAULT_STEP_CAP))
            assert getattr(state, key + "_at") == a


def test_cap_boundary_is_exact_on_every_path():
    # kernel lanes, lanes that leave int64 and come back (twice for
    # TWICE_BACK), and starts past 2^63 agree on the cap edge
    for n in (27, 10**6 + 1, (1 << 60) + 3, (1 << 62) + 1, TWICE_BACK, (1 << 64) + 1):
        sigma, _ = orbit_oracle(n)
        assert verify_range(n, n + 1, step_cap=sigma).verified_count == 1
        assert verify_range(n, n + 1, step_cap=sigma - 1).truncated == [n]


# -- the k-step jump kernel and the base table behind it


def _jump_rows():
    """The jump table's rows A, B, S, M1, M2, LIM as lists of ints."""
    return verify_mod._JUMP.tolist()


def test_jump_table_matches_direct_walk():
    A, B, S, M1, M2, LIM = _jump_rows()
    k = verify_mod._K
    assert len(A) == 1 << k
    # with a = 2^64 every term of a block value a*an + bn separates: the
    # end value gives A and B, the peak gives M1 and M2 together: one value
    # of the jump has both; with a = 0 the peak is M2
    big = 1 << 64
    for b in range(1 << k):
        end, steps, peak = block_walk((big << k) | b)
        assert (end // big, end % big, steps) == (A[b], B[b], S[b])
        assert peak == M1[b] * big + M2[b]
        end0, steps0, peak0 = block_walk(b)
        assert (end0, steps0, peak0) == (B[b], S[b], M2[b])
        # LIM is the largest a whose block bound a*M1 + M2 fits in int64
        assert LIM[b] * M1[b] + M2[b] <= 2**63 - 1 < (LIM[b] + 1) * M1[b] + M2[b]


@settings(max_examples=60)
@given(b=st.integers(0, (1 << 16) - 1), a=st.integers(1, 1 << 48))
def test_jump_is_the_parity_vector_identity(b, a):
    A, B, S, M1, M2, LIM = (row[b] for row in _jump_rows())
    end, steps, peak = block_walk((a << 16) | b)
    assert end == A * a + B and steps == S
    assert peak == a * M1 + M2


def test_jump_gate_at_the_int64_limit():
    A, B, S, M1, M2, LIM = _jump_rows()
    # for b = 2^16 - 1 every step of the block is odd, so its peak is
    # exactly a*M1 + M2: a jump at a = LIM + 1 would wrap past 2^63
    b = (1 << 16) - 1
    assert block_walk((LIM[b] << 16) | b)[2] == LIM[b] * M1[b] + M2[b]
    cases = [
        (b, a) for b in ((1 << 16) - 1, (1 << 15) - 1, 12345, 27) for a in (LIM[b], LIM[b] + 1)
    ]
    # b = 0 halves 16 times: its a = LIM puts n at 2^63 - 2^16, past
    # (2^63 - 2) // 3, the largest v whose 3v + 1 fits in int64, and the
    # lane still jumps
    assert (LIM[0] << 16) > (2**63 - 2) // 3
    cases.append((0, LIM[0]))
    for b, a in cases:
        n = (a << 16) | b
        # the lane starts inside the kernel, so the gate decides its first move
        assert 1 << 16 <= n < 2**63
        _matches_oracle(Window(n, n + 1))


def test_two_limb_bit_budget():
    # the two-limb tier's bound follows from the widths of _JUMP's rows: A
    # and B have 26 bits, M1 and M2 27, so below 2^117 a = v >> 16 < 2^101,
    # and a·M1(b) + M2(b) and A(b)·a + B(b) stay below 2^128
    widths = [int(row.max()).bit_length() for row in verify_mod._JUMP]
    assert widths[:2] + widths[3:5] == [26, 26, 27, 27]
    assert verify_mod._LIMBS == 128 + 16 - 27 == 117
    top = (1 << 101) - 1
    assert top * (2**27 - 1) + (2**27 - 1) < 1 << 128
    # the limb jump is the plain-integer one: at the top of the range, across
    # 2^64 in a, on the residues of each row's widest entry, at random, and
    # where the low limb of a·M + C carries: a·M = -C mod 2^64, for odd M
    A, B, S, M1, M2, LIM = _jump_rows()
    rng = random.Random(7)
    widest = [int(np.argmax(row)) for row in verify_mod._JUMP[:5]]
    cases = [(a, b) for a in (top, 2**64 - 1, 2**64, 2**47 + 5, 1) for b in (*widest, 0, 2**16 - 1)]
    cases += [(rng.randrange(1, 1 << rng.randrange(1, 102)), rng.randrange(1 << 16)) for _ in range(2000)]
    for b in (*widest, *(rng.randrange(1 << 16) for _ in range(200))):
        for mul, add in ((M1[b], M2[b]), (A[b], B[b])):
            if mul & 1:
                low = -add * pow(mul, -1, 2**64) % 2**64
                cases += [(low, b), (rng.randrange(1 << 37) << 64 | low, b)]
    a, b = zip(*cases)
    a_low = np.array([x & (2**64 - 1) for x in a], dtype=np.uint64)
    a_high = np.array([x >> 64 for x in a], dtype=np.uint64)
    got = verify_mod._jump_limbs(a_low, np.array(b, dtype=np.int64), a_high)
    top_h, top_l, land_h, land_l = (x.tolist() for x in got)
    for i, (x, r) in enumerate(cases):
        assert (top_h[i] << 64 | top_l[i]) == x * M1[r] + M2[r]
        assert (land_h[i] << 64 | land_l[i]) == A[r] * x + B[r]


def test_peak_codes_order_peaks_at_every_size():
    # _code never decreases as a peak grows, at any size, and fits in uint64;
    # a code from two limbs lies within half the margin of _code, so the
    # starts within the margin of a block's largest code hold its peak
    rng = random.Random(4001)
    edges = [2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**117, 2**128 - 1]
    edges += [2**1023 - 1, 2**1023, 2**1023 + 1, 2**1024, 2**5000 - 2**4990, 2**5000 + 2**4990]
    xs = sorted(edges + [rng.getrandbits(rng.randint(1, 5100)) for _ in range(20000)])
    codes = [verify_mod._code(x) for x in xs]
    assert codes == sorted(codes) and codes[-1] < 2**64
    # nor does it saturate: peaks of 1,024, 1,025 and 5,000 bits stay apart
    assert len({verify_mod._code(2**k) for k in (1023, 1024, 4999)}) == 3
    # values below 2^128 in every binade from 2^63, and each binade's edges
    xs = [rng.randrange(2**63, 2 ** rng.randint(64, 128)) for _ in range(50000)]
    xs += [2**k + d for k in range(64, 128) for d in (-1, 0, 1)] + [2**63, 2**128 - 1]
    high = np.array([x >> 64 for x in xs], dtype=np.uint64)
    low = np.array([x & (2**64 - 1) for x in xs], dtype=np.uint64)
    got = verify_mod._codes(high, low).tolist()
    assert max(abs(c - verify_mod._code(x)) for c, x in zip(got, xs)) <= verify_mod._MARGIN // 2


def test_base_table_matches_plain_walk():
    # every entry the import builds, against a walk one plain step at a time
    sig, pk = stepped_table(1 << 16)
    assert np.array_equal(verify_mod._SIG, sig) and np.array_equal(verify_mod._PK, pk)
    # the table holds stopping times as int16
    assert verify_mod._SIG.dtype == np.int16 and sig.max() < 2**15


def test_runs_leave_the_import_table_as_built(tmp_path):
    # the import builds 2^16 entries, all a walk needs (in a fresh process)
    src = str(Path(verify_mod.__file__).parents[1])
    code = f"import sys; sys.path[:0] = [{src!r}]; import collatzbin.verify as v; print(v._SIG.size, v._PK.size)"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (fresh.stdout, fresh.stderr) == ("65536 65536\n", "")
    # runs that start inside the table, on one job or two, and a checkpoint
    # resume inside it; then a run past it and a checkpoint load
    tables = verify_mod._SIG, verify_mod._PK
    built = [t.tobytes() for t in tables]
    straight = verify_range(1, 10**5, chunk_size=10**4)
    assert verify_range(1, 10**5, chunk_size=10**4, jobs=2) == straight
    path = tmp_path / "ck.txt"
    checkpoint_save(dataclasses.replace(verify_range(1, 3 * 10**4, chunk_size=10**4), hi=10**5), path)
    assert run(checkpoint_load(path), 1, path) == straight
    state = verify_range(10**9, 10**9 + (1 << 17))
    checkpoint_save(state, path)
    assert checkpoint_load(path) == state
    # none of them wrote to the tables or replaced them
    assert verify_mod._SIG is tables[0] and verify_mod._PK is tables[1]
    assert [t.tobytes() for t in tables] == built


@settings(max_examples=200)
@given(
    base=st.sampled_from(BASES["one-value"]),
    offset=st.integers(0, 1 << 16),
    cap=st.sampled_from([7, 60, 300, DEFAULT_STEP_CAP]),
)
def test_one_value_block_is_the_plain_walk(base, offset, cap):
    # the stopping time and the exact peak, or truncated past the cap: the
    # block checkpoint_load checks each saved maximum with
    n = base + offset
    sigma, peak = orbit_oracle(n, cap)
    got = verify_mod._chunk_stats((n, n + 1), cap)
    if sigma is None:
        assert got.truncated == [n]
    else:
        assert (got.max_stopping_time, got.max_excursion) == (sigma, peak)


def _matches_oracle(w):
    """Each run of the window w gives oracle_report's report, which is returned."""
    assert check(w) is None
    return oracle_report(w.lo, w.hi, w.cap)


SEEDS = range(100)


@pytest.mark.parametrize("seed", SEEDS)
def test_drawn_windows_match_oracle(seed):
    # the oracle campaign's draws, seeded: a failure names its window
    assert check(draw(random.Random(seed))) is None


def test_drawn_windows_cover_every_kind():
    # the seeded draws reach every tier, every mix of truncated and
    # converged starts, and every way a window runs
    seen = set()
    for seed in SEEDS:
        w = draw(random.Random(seed))
        r = oracle_report(w.lo, w.hi, w.cap)
        ((chunk, jobs),) = w.runs
        kinds = {
            "a class block": 1 << 16 <= w.lo and w.hi <= GATE_FREE and min(w.hi - w.lo, chunk) >= w.tail,
            "an int64 window past GATE_FREE": GATE_FREE <= w.lo and w.hi <= 1 << 63,
            "two-limb starts": w.lo < 1 << 117 and w.hi > 1 << 63,
            "a start past 2^117": w.hi > 1 << 117,
            "every start truncated": r.verified_count == 0,
            "some truncated, some converged": bool(r.truncated) and r.verified_count > 0,
            "a converged peak past 2^63 - 1": (r.max_excursion or 0) > 2**63 - 1,
            "_TAIL 0": w.tail == 0,
            "two jobs": jobs == 2,
            "a resume at a cut": w.cut is not None,
            "chunk 1": chunk == 1,
        }
        seen |= {kind for kind, has in kinds.items() if has}
        if seen == set(kinds):
            break
    assert set(kinds) - seen == set()


def test_tied_peaks_at_2p58():
    # lanes whose orbits merge share their peak: 15 lanes of this window
    # tie on the maximum, which goes to the smallest; some lanes reach
    # their int64 gate, the rest stay in the kernel
    (w,) = rows("tied")
    want = _matches_oracle(w)
    assert sum(peak == want.max_excursion for _, peak in oracle_walks(w.lo, w.hi)) == 15


def test_peak_scan_keeps_the_smaller_n_of_a_tie():
    # 8k+4 and 8k+5 share their peak: their first jumps land on one node,
    # or, in a pass of fewer than _TAIL nodes, each walks on plain
    # integers. Either way the tie goes to the smaller n
    n = 1125899906842732
    peak = orbit_oracle(n)[1]
    assert orbit_oracle(n + 1)[1] == peak
    for tail in (0, verify_mod._TAIL):
        got = _matches_oracle(Window(n, n + 2, runs=((1, 1), (2, 1)), tail=tail))
        assert (got.max_excursion, got.max_excursion_at) == (peak, n)


def test_excursion_tie_above_the_table_bound():
    # 8k+4 and 8k+5 meet at 6k+4 after 3 steps, and the common tail climbs
    # past 24k+16: both maxima tie, and go to the smaller n
    for n in (1048684, 1099511627884, 1125899906842732):
        assert n % 8 == 4 and n >= 1 << 16
        assert orbit_oracle(n) == orbit_oracle(n + 1)
        r = _matches_oracle(Window(n, n + 2))
        assert r.max_excursion_at == r.max_stopping_time_at == n


def test_peak_inside_a_jump_of_a_lane_that_leaves_int64():
    # the first lane jumps past (2^63 - 2) // 3 and stays in the kernel: its
    # peak, 0.93 * 2^63, is a 3v+1 value inside a jump, above everything the
    # rest of the walk reaches. The second jumps four times, then its next
    # jump could pass 2^63 - 1 (its peak, 1.06 * 2^63, lies inside it): it
    # leaves at the gate, jumps on two limbs and comes back. Alone in a
    # block each walks on plain integers; with _TAIL 0, in the kernel
    for tail in (0, verify_mod._TAIL):
        for n in (72057594037928009, 72057594037928033):
            _matches_oracle(Window(n, n + 1, tail=tail))


def test_plain_walk_ends_at_its_budget():
    # a walk that has taken limit steps and not landed below the table ends
    # with _NEVER steps, even one jump before its landing; with one step
    # more of budget it lands and ends on 1, its steps and peak exact
    bound = verify_mod._SIG.size
    n = (1 << 63) + 12345
    walk = [(n, 0)]
    while walk[-1][0] >= bound:
        v, steps, _ = block_walk(walk[-1][0])
        walk.append((v, walk[-1][1] + steps))
    before = walk[-2][1]
    assert verify_mod._jump_plain([n], before)[0] == [verify_mod._NEVER]
    sigma, peak = orbit_oracle(n)
    assert verify_mod._jump_plain([n], before + 1) == ([sigma], [peak])


def _count_plain_jumps(monkeypatch):
    """Wrap the plain-int jumper: count its jumps (its reads of A) and its walks
    stopped at their budget, with _NEVER steps, and list the peak of each walk
    that ends on 1. The calls with limit _NEVER are left out: they walk a
    block's top starts again for their exact peaks, and are not passes."""
    seen, peaks = Counter(), []
    real = verify_mod._jump_plain

    class Counted:
        def __init__(self, row):
            self.row = row

        def __getitem__(self, b):
            seen["jumps"] += 1
            return self.row[b]

    def jump(vs, limit):
        if limit == verify_mod._NEVER:
            return real(vs, limit)
        views = verify_mod._VIEWS
        verify_mod._VIEWS = (Counted(views[0]), *views[1:])
        try:
            steps, walk_peaks = real(vs, limit)
        finally:
            verify_mod._VIEWS = views
        for s, peak in zip(steps, walk_peaks):
            if s == verify_mod._NEVER:
                seen["stopped"] += 1
            else:
                peaks.append(peak)
        return steps, walk_peaks

    monkeypatch.setattr(verify_mod, "_jump_plain", jump)
    return seen, peaks


def _count_limb_jumps(monkeypatch):
    """Wrap the two-limb jumper: the values each call jumps, as ints."""
    calls = []
    real = verify_mod._jump_limbs

    def jump(a_low, b, a_high):
        high = [0] * b.size if a_high is None else a_high.tolist()
        calls.append([(h << 64 | x) << 16 | r for h, x, r in zip(high, a_low.tolist(), b.tolist())])
        return real(a_low, b, a_high)

    monkeypatch.setattr(verify_mod, "_jump_limbs", jump)
    return calls


def test_kernel_keeps_lanes_up_to_their_gate_past_2p62(monkeypatch):
    # a start below 2^_LIMBS begins in the kernel. Past its int64 gate a node
    # jumps on two limbs, once per pass; only the last nodes of the block
    # walk on plain integers, to the end
    seen, _ = _count_plain_jumps(monkeypatch)
    calls = _count_limb_jumps(monkeypatch)
    lo = (1 << 62) + 12345
    _matches_oracle(Window(lo, lo + 512))
    assert seen["jumps"] < 2 * 512
    # one call per pass, which jumps each of its nodes once; no start is
    # jumped twice
    assert calls and all(len(set(vs)) == len(vs) for vs in calls)
    starts = Counter(v for vs in calls for v in vs if lo <= v < lo + 512)
    assert starts and max(starts.values()) == 1
    # landings past 2^63 - 1 merge with the rest of their pass: no call
    # jumps a value twice, where most nodes leave int64 or start past it
    for lo in ((1 << 62) + 12345678901, (1 << 63) + 12345):
        calls.clear()
        verify_range(lo, lo + 4096)
        assert calls and all(len(set(vs)) == len(vs) for vs in calls), lo


def test_lanes_come_back_to_the_kernel(monkeypatch):
    # every window runs at _TAIL 0: alone in a block a value would walk on
    # plain integers to the end
    seen, peaks = _count_plain_jumps(monkeypatch)
    # below 2^_LIMBS, a node past its int64 gate jumps on two limbs and comes
    # back to the int64 arrays once the gate holds: no plain jump at all
    for n in (TWICE_BACK, HIGH_FIRST, PAST_2P64):
        _matches_oracle(Window(n, n + 1, tail=0))
    assert not seen and not peaks
    _matches_oracle(Window(PAST_2P117, PAST_2P117 + 1, tail=0))
    assert len(peaks) == 1 and peaks[0] >= 1 << 117 and seen["jumps"]
    # every cap across the walks of a lane that comes back to the int64
    # arrays twice and of one that walks on plain integers from past 2^117,
    # so that some stop the latter inside that walk
    for n in (TWICE_BACK, PAST_2P117):
        sigma = orbit_oracle(n)[0]
        for cap in range(1, sigma + 3, 5):
            _matches_oracle(Window(n, n + 1, cap, tail=0))
    assert seen["stopped"]
    # from just past (2^63 - 2) // 3, two starts stop in 855 steps after 34
    # jumps, 25 steps each on average: a stop rule that counted 2·_K steps a
    # pass, a jump's most, would truncate them at their own stopping time
    lo = 3074457345618259468
    assert orbit_oracle(lo + 2)[0] == orbit_oracle(lo + 3)[0] == 855
    for cap in (855, 856):
        _matches_oracle(Window(lo, lo + 5, cap, ((1, 1), (DEFAULT_CHUNK_SIZE, 1)), tail=0))


def case_ids(windows, suffix=""):
    """The ids these rows had as (lo, hi, cap[, chunks]) parameters."""
    return [f"{w.lo}-{w.hi}-{w.cap}" + (suffix and f"-{suffix}{i}") for i, w in enumerate(windows)]


@pytest.mark.parametrize("w", rows("reentry"), ids=case_ids(rows("reentry")))
def test_reentry_windows_match_oracle(w):
    _matches_oracle(w)
    # one-value chunks on the 512 values around the middle
    mid = (w.lo + w.hi) // 2
    _matches_oracle(w._replace(lo=max(w.lo, mid - 256), hi=min(w.hi, mid + 256), runs=((1, 1),)))


def test_huge_cap_gives_the_default_cap_report():
    for w in rows("huge-cap"):
        r = verify_range(w.lo, w.hi, step_cap=w.cap)
        assert r.step_cap == 10**30
        assert dataclasses.replace(r, step_cap=DEFAULT_STEP_CAP) == verify_range(w.lo, w.hi)


# -- starts whose walks land together: one node per distinct value


@functools.cache
def _landings():
    """Per residue r < 2^16: the first jump's landing at a = 0 and a = 1 and
    its steps, from a plain step-by-step walk; landings are linear in a, so
    two residues land together for every a exactly when these agree."""
    r = np.arange(1 << 16, dtype=np.int64)
    ends = []
    for a in (0, 1):
        v, steps, halvings = (a << 16) + r, np.zeros_like(r), np.zeros_like(r)
        while (halvings < 16).any():
            walking = halvings < 16
            odd = walking & (v & 1 == 1)
            even = walking & ~odd
            v = np.where(odd, 3 * v + 1, np.where(even, v >> 1, v))
            halvings += even
            steps += walking
        ends.append(v)
    return ends[0], ends[1], steps


def _first_lands_with(b: int) -> int:
    """The smallest residue whose first jump lands with b's for every a."""
    at0, at1, steps = _landings()
    return int(np.flatnonzero((at0 == at0[b]) & (at1 == at1[b]) & (steps == steps[b]))[0])


def test_class_landings_of_two_runs_never_meet():
    # two residues of one class (A, B) land together for every a; landings
    # of two classes at a, or at a and a + 1, meet for no a >= 1, so a block
    # on at most two runs of residues takes no class landing twice. Runs two
    # apart do meet, at a = 1, but a block of at most 2^16 starts lies on two
    # runs at most
    at0, at1, _ = _landings()
    A, B = np.unique(np.stack((at1 - at0, at0)), axis=1)
    for s in (0, 1):
        for ax in np.unique(A).tolist():
            X = B[A == ax]
            for ay in np.unique(A).tolist():
                Y = B[A == ay] + ay * s  # class y lands at a + s on ay·a + Y
                if ax == ay:
                    assert s == 0 or not np.intersect1d(X, Y).size
                    continue
                # (ax - ay)·a = Y - X: an a exactly when X and Y agree mod ax - ay
                d = ax - ay
                rx, ry = X % abs(d), Y % abs(d)
                order = np.argsort(ry)
                first, last = np.searchsorted(ry[order], rx), np.searchsorted(ry[order], rx, "right")
                for i in np.flatnonzero(last > first).tolist():
                    a = (Y[order[first[i] : last[i]]] - X[i]) // d
                    assert not (a >= 1).any(), (s, ax, ay)


def _node_jumps(lo: int, hi: int) -> int:
    # a node of a pass jumps once, and one of pass 0 by residue class lands once
    return sum(p.rem.size for p in verify_mod._walk(lo, hi, DEFAULT_STEP_CAP)[0])


def test_most_lanes_read_an_earlier_lanes_walk():
    # pass 0 of a block below _GATE_FREE jumps each (A, B) class of each of
    # its runs of residues once: here [51719, 2^16) at a and [0, 18951) at a + 1
    at0, at1, _ = _landings()
    lo = 10**9 + 7
    passes = verify_mod._walk(lo, lo + (1 << 15), DEFAULT_STEP_CAP)[0]
    r = lo & 0xFFFF
    runs = (r, 1 << 16), (0, r + (1 << 15) - (1 << 16))
    assert passes[0].rem.size == sum(len(set(zip(at0[s:e].tolist(), at1[s:e].tolist()))) for s, e in runs)
    assert _node_jumps(lo, lo + (1 << 15)) <= 0.95 * (1 << 15)
    # between its class pass and its plain pass, a 2^16 block at 10^9 runs
    # only numpy jump passes, each of _TAIL nodes or more
    passes = verify_mod._walk(10**9, 10**9 + (1 << 16), DEFAULT_STEP_CAP)[0]
    assert len(passes) > 2 and min(p.rem.size for p in passes[1:-1]) >= verify_mod._TAIL
    lo = 10**9 + 123456789
    hi = lo + (1 << 14)
    _matches_oracle(Window(lo, hi))
    # one block: equal landings walk once, so the block takes under two
    # node jumps per value, and under one with pass 0 by class
    assert _node_jumps(lo, hi) < 2 * (1 << 14)
    assert _node_jumps(lo, hi) <= 1.0 * (1 << 14)
    # and so does a 2^16 window at 2^40, at most 1.8 per value, and 1.0
    lo = (1 << 40) + 987654321
    assert _node_jumps(lo, lo + (1 << 16)) <= 1.8 * (1 << 16)
    assert _node_jumps(lo, lo + (1 << 16)) <= 1.0 * (1 << 16)
    # every equal landing merges, also where many distinct landings share
    # their low bits: blocks at 2^50 exactly, at 2^58 and past 2^63 (where
    # every start jumps on two limbs) take about 1.6 node jumps per value
    # or, below _GATE_FREE, fewer
    for lo, size in ((1 << 50, 1 << 15), ((1 << 58) + 704, 1 << 15), (1 << 100, 4096)):
        assert _node_jumps(lo, lo + size) <= 1.65 * size, lo


@pytest.mark.parametrize("w", rows("classes"), ids=case_ids(rows("classes"), "chunks"))
def test_class_pass_edges_match_oracle(w):
    # pass 0 goes by residue class exactly in blocks of _TAIL starts or more
    # in [table bound, GATE_FREE), below which every int64 gate holds
    LIM = _jump_rows()[5]
    assert GATE_FREE == (min(LIM) + 1) << 16
    _matches_oracle(w)


def test_block_at_the_2p16_table_bound_matches_oracle(monkeypatch):
    # at the table bound 2^16 lands on 1 after 16 steps, the fewest a jump
    # takes, and converges at cap 16; rows("classes") runs the default cap
    lo, hi = 1 << 16, (1 << 16) + 2000
    for cap in (1, 15, 16, 17, 32):
        _matches_oracle(Window(lo, hi, cap))
    assert orbit_oracle(lo)[0] == 16
    # a block inside the table is one pass, of its starts landing on themselves,
    # and a chunk across the bound is cut there: no block holds starts on both sides
    (only,), _, _, _ = verify_mod._walk(1, 1 << 16, DEFAULT_STEP_CAP)
    assert only.live.size == 0 and np.array_equal(only.rem, verify_mod._SIG[1:])
    blocks, real = [], verify_mod._chunk_numpy
    monkeypatch.setattr(verify_mod, "_chunk_numpy", lambda lo, hi, cap: blocks.append((lo, hi)) or real(lo, hi, cap))
    for lo, hi in ((1 << 15, 3 << 15), (1, (1 << 16) + 5)):
        verify_mod._chunk_stats((lo, hi), DEFAULT_STEP_CAP)
    assert blocks == [(1 << 15, 1 << 16), (1 << 16, 3 << 15), (1, 1 << 16), (1 << 16, (1 << 16) + 5)]


@pytest.mark.parametrize("lo, size", [(1 << 62, verify_mod._TAIL - 1), ((1 << 117) + 12345, 100)])
def test_a_plain_block_is_one_pass_to_1(lo, size):
    # a block of fewer than _TAIL starts, or past 2^_LIMBS, is one plain pass:
    # a row per start, each walked to 1, and no node still walking; its
    # peaks come out exact as well as coded
    (only,), head, top, exact = verify_mod._walk(lo, lo + size, DEFAULT_STEP_CAP)
    assert only.live.size == 0 and top is None and head.size == size
    want = [orbit_oracle(n) for n in range(lo, lo + size)]
    assert only.rem.tolist() == [sigma for sigma, _ in want]
    assert only.peak.tolist() == [verify_mod._code(peak) for _, peak in want]
    assert exact == [peak for _, peak in want]


def test_one_value_blocks_walk_once(monkeypatch):
    # a one-value block is its plain pass, whose peak is exact: a start past
    # 2^62 walks once, also when its peak passes 2^63 - 1 and ties the top code
    lo = (1 << 62) + 12345678901
    hi = lo + 64
    calls, real = [], verify_mod._jump_plain
    monkeypatch.setattr(verify_mod, "_jump_plain", lambda vs, limit: calls.append(list(vs)) or real(vs, limit))
    got = verify_range(lo, hi, chunk_size=1)
    assert calls == [[n] for n in range(lo, hi)]
    assert got == dataclasses.replace(oracle_report(lo, hi, DEFAULT_STEP_CAP), chunk_size=1)
    assert sum(orbit_oracle(n)[1] >= 1 << 63 for n in range(lo, hi)) >= 32


# hand-built landings that all fall in slot 5 of 8; the last one written,
# 29, is a third value for each equal pair, so both of a pair miss the
# first round
EQUAL_MISSES = [5, 13, 5, 21, 13, 29]


@pytest.mark.parametrize(
    "values, given_high",
    [
        (EQUAL_MISSES, False),
        (EQUAL_MISSES, True),
        # landings past 2^63 - 1 as well: equal low limbs under other high
        # limbs, and values in [2^63, 2^64), negative as int64, high limb 0
        ([5, 13, 5, 21, 2**64 + 5, 2**63 + 5, 2**64 + 2**63 + 5, 2**64 + 5, 2**63 + 5, 13, 29], True),
        # no landings at all: a pass whose nodes all landed in the table
        ([], False),
    ],
)
def test_distinct_merges_every_equal_landing_and_no_other(values, given_high):
    n = len(values)
    low = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64).view(np.int64)
    high = np.array([v >> 64 for v in values], dtype=np.uint64) if given_high else None
    index, slots = np.arange(n, dtype=np.intp), np.empty(8, dtype=np.intp)
    node, first = verify_mod._distinct(low, high, slots, index, np.empty(n, dtype=np.intp))
    assert [values[i] for i in first[node]] == values and first.size == len(set(values))
    assert all((node[i] == node[j]) == (values[i] == values[j]) for i in range(n) for j in range(n))


@pytest.mark.parametrize("w", rows("edges"), ids=case_ids(rows("edges"), "chunks"))
def test_shared_lane_edges_match_oracle(w):
    LIM = _jump_rows()[5]
    if w.lo < GATE_EDGE < w.hi:
        assert _first_lands_with(100) == 98 and LIM[100] == 2**47 - 1 >= GATE_EDGE >> 16 > LIM[98]
    if w.lo < OWN_GATE < w.hi:
        assert _first_lands_with(3) == 2 and LIM[3] + 1 == OWN_GATE >> 16 <= LIM[2]
    _matches_oracle(w)


def test_wide_peak_windows_match_oracle():
    # peaks past 2^63 - 1 rank above every int64 peak, and among
    # themselves by their exact values; with a cap some starts climb past
    # 2^63 - 1, above every converged start, and then stop at it
    for w in rows("wide"):
        want = _matches_oracle(w)
        assert w.cap == DEFAULT_STEP_CAP or want.truncated and want.max_excursion
    # every peak past 2^63 - 1 lies on a truncated path: the one converged
    # start peaks at itself, below 2^63
    for w in rows("wide-truncated"):
        want = _matches_oracle(w)
        assert want.verified_count == 1 and want.max_excursion == want.max_excursion_at < 2**63
        assert max(orbit_oracle(n, w.cap)[1] for n in want.truncated) > 2**63 - 1


def test_fuzz_runs_without_pytest_or_hypothesis():
    # the oracle campaign reads the table and the oracle from windows.py,
    # which imports neither
    fuzz = Path(__file__).parents[1] / "tools" / "fuzz.py"
    code = (
        "import runpy, sys; sys.modules['pytest'] = sys.modules['hypothesis'] = None; "
        f"sys.argv[1:] = ['--seconds', '1', '--seed', '1']; runpy.run_path({str(fuzz)!r}, run_name='__main__')"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert re.fullmatch(r"seed 1: \d+ windows \(\d+ resumed, \d+ peaking past 2\^63 - 1\), \d+ values, all match the oracle\n", done.stdout)


def test_fuzz_reports_a_crash_as_a_reproduction():
    # an exception inside verify_range is a finding: the campaign prints the
    # window as one verify_range(...) call and the exception, and exits 1
    fuzz = Path(__file__).parents[1] / "tools" / "fuzz.py"
    code = (
        "import runpy, sys\n"
        f"main = runpy.run_path({str(fuzz)!r}, run_name='fuzz')['main']\n"
        "def crash(*args, **kwargs):\n"
        "    raise RuntimeError('patched to fail')\n"
        "sys.modules['windows'].verify_range = crash\n"
        "sys.exit(main(['--seconds', '1', '--seed', '1']))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (1, "")
    assert re.fullmatch(
        r"verify_range\(\d+, \d+, step_cap=\d+, chunk_size=\d+, jobs=[12]\)"
        r" with _TAIL = \d+(, stopped at \d+ and resumed)?\nRuntimeError: patched to fail\n",
        done.stdout,
    )


def test_ab_timing_runs_an_a_a_comparison():
    # tools/ab.py against this tree's own src: both copies load side by
    # side, agree on every probe's report, and print one line per probe
    ab = Path(__file__).parents[1] / "tools" / "ab.py"
    src = Path(verify_mod.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(ab), "--base", str(src), "--time", "--rounds", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert (done.returncode, done.stderr) == (0, "")
    names = [line.split("  base ")[0].rstrip() for line in done.stdout.splitlines()]
    assert names == [
        "chunk 2^16 at 1", "chunk 2^18 at 10^9+7", "chunk 2^18 at 2^40+777", "chunk 2^17 at 2^50+123",
        "chunk 4096 at 2^62+12345678901", "chunk 4096 at 2^63+12345",
        "--chunk 1, 512 at 2^62+12345678901", "decompose, 8 at 64 bits", "decompose, 2 at 500 bits",
        "decompose machine, 2 at 500 bits", "decompose a_250", "import collatzbin.verify", "verify [1, 10^7)",
    ]
    assert all(line.endswith("faster in 0 of 1") or line.endswith("faster in 1 of 1") for line in done.stdout.splitlines())


def test_ab_outputs_runs_an_a_a_comparison(tmp_path):
    # tools/ab.py --outputs on three rows against this tree's own src: every
    # way each setting runs gives equal outputs, a resume at the middle chunk
    # boundary in the row run at chunk 100. A copy whose report reads
    # differently is caught, in every way the setting runs
    ab = Path(__file__).parents[1] / "tools" / "ab.py"
    src = Path(verify_mod.__file__).resolve().parents[1]
    pins = ("OWN_GATE", "15 lanes tie on the peak", "just enough for pass 0 by class")
    picks = ",".join(str(i) for i, w in enumerate(WINDOWS) if w.pins in pins)

    def outputs(base, rows):
        argv = [sys.executable, str(ab), "--base", str(base), "--outputs", "--rows", rows]
        return subprocess.run(argv, capture_output=True, text=True, timeout=600)

    done = outputs(src, picks)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "8 settings, 26 CLI runs per tree: 0 differ\n"
    copy = tmp_path / "src"
    shutil.copytree(src / "collatzbin", copy / "collatzbin", ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / "collatzbin" / "verify.py"
    module.write_text(module.read_text().replace('f"verified: {', 'f"verified:  {'))
    done = outputs(copy, picks.split(",")[0])
    assert (done.returncode, done.stderr) == (1, "")
    ways = "straight, checkpoint, resume of the finished file"
    assert done.stdout.splitlines() == [
        *(f"differs: verify {OWN_GATE - 1} {OWN_GATE + 1} --cap {DEFAULT_STEP_CAP} --chunk {DEFAULT_CHUNK_SIZE}"
          f" --jobs {jobs}: {ways}" for jobs in (1, 2)),
        "2 settings, 6 CLI runs per tree: 2 differ",
    ]


def test_ab_outputs_compares_the_renderers(tmp_path, capsys):
    # a renderer setting is one CLI call per tree in a fresh process: equal
    # trees match, and a copy whose derivation text reads differently is caught
    spec = importlib.util.spec_from_file_location("ab", Path(__file__).parents[1] / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    src = Path(verify_mod.__file__).resolve().parents[1]
    copy = tmp_path / "src"
    shutil.copytree(src / "collatzbin", copy / "collatzbin", ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / "collatzbin" / "traceio.py"
    module.write_text(module.read_text().replace('-> shift {rec.shift}', '-> shift  {rec.shift}'))
    settings = [("decompose", "67"), ("decompose", "67", "--format", "machine")]
    assert ab.compare_outputs([src, src], settings) == 0
    assert ab.compare_outputs([src, copy], settings) == 1
    assert capsys.readouterr().out.splitlines() == [
        "2 settings, 2 CLI runs per tree: 0 differ",
        "differs: decompose 67",
        "2 settings, 2 CLI runs per tree: 1 differ",
    ]


def test_a_class_block_folds_and_walks_per_class_node(monkeypatch):
    # pass 0 of a class block keeps one row per start, its own first-jump
    # peaks; every row the folds read has one entry per class node or fewer.
    # A block whose top peak is past 2^63 - 1 walks each near class once,
    # from its head: of the three tied starts of WIDE_CLASS, n + 1 does not walk
    walks = []
    jump = verify_mod._jump_plain

    def counted_jump(vs, limit):
        if limit == verify_mod._NEVER:
            walks.extend(vs)
        return jump(vs, limit)

    def widest(lo, hi):
        passes, _, top, _ = verify_mod._walk(lo, hi, DEFAULT_STEP_CAP)
        assert top.size == hi - lo
        return max(row.size for p in passes for row in (p.rem, p.peak))

    monkeypatch.setattr(verify_mod, "_jump_plain", counted_jump)
    lo = W9 - 1000
    assert widest(lo, lo + (1 << 16)) < 3 * (1 << 16) // 10
    for lo, size in ((WIDE_CLASS, 64), (WIDE_2P50 - 100, 300)):
        walks.clear()
        got = _matches_oracle(Window(lo, lo + size))
        assert widest(lo, lo + size) < size
        keys = [(n >> 16, int(verify_mod._CLASS[n & 0xFFFF])) for n in walks]
        assert walks and len(set(keys)) == len(keys) and got.max_excursion_at in walks
        if lo == WIDE_CLASS:
            assert walks == [WIDE_CLASS, WIDE_CLASS + 2]
            assert orbit_oracle(WIDE_CLASS + 1)[1] == orbit_oracle(WIDE_CLASS + 2)[1] == got.max_excursion


def test_each_row_folds_once(monkeypatch):
    # a block folds its steps once and its peaks once, also when its
    # largest peak is past 2^63 - 1: in a 2^50-band block or past 2^63
    folds = []
    real = verify_mod._resolve

    def resolve(passes, row, op):
        folds.append(row)
        return real(passes, row, op)

    monkeypatch.setattr(verify_mod, "_resolve", resolve)
    for lo, size in ((WIDE_2P50 - 100, 300), ((1 << 63) + 12345, 4096)):
        folds.clear()
        got = _matches_oracle(Window(lo, lo + size))
        assert got.max_excursion > 2**63 - 1
        assert folds == ["rem", "peak"]
