"""Range engine: oracles, determinism, checkpoints."""

import concurrent.futures
import dataclasses
import functools
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from collatzbin import (
    BinaryNat,
    CheckpointError,
    DomainError,
    NumberClass,
    classify,
    stopping_time,
    summarize,
    verify_range,
)
from collatzbin.verify import (
    BASE_TABLE_BOUND,
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

GOLDENS = Path(__file__).parent / "goldens"


def orbit_oracle(n: int, cap: int = 10**5):
    """(stopping time or None, peak) on plain integers."""
    v, steps, peak = n, 0, n
    while v != 1:
        v = 3 * v + 1 if v & 1 else v >> 1
        steps += 1
        peak = max(peak, v)
        if steps > cap:
            return None, peak
    return steps, peak


def oracle_report(lo: int, hi: int, cap: int) -> Checkpoint:
    """The finished state for [lo, hi), one plain-integer walk per value."""
    best_sigma, best_peak, truncated = None, None, []
    for n in range(lo, hi):
        sigma, peak = orbit_oracle(n, cap)
        if sigma is None:
            truncated.append(n)
            continue
        # strict > in ascending n: a tie keeps the smaller n
        if best_sigma is None or sigma > best_sigma[0]:
            best_sigma = (sigma, n)
        if best_peak is None or peak > best_peak[0]:
            best_peak = (peak, n)
    return Checkpoint(
        lo,
        hi,
        cap,
        DEFAULT_CHUNK_SIZE,
        hi,
        max_stopping_time=best_sigma and best_sigma[0],
        max_stopping_time_at=best_sigma and best_sigma[1],
        max_excursion=best_peak and best_peak[0],
        max_excursion_at=best_peak and best_peak[1],
        truncated=truncated,
    )


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
    verify_mod._ensure_tables(1 + 2**18)  # the tables are not measured
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
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randrange(2, 10**6)
        r = verify_range(n, n + 1)
        sigma, peak = orbit_oracle(n)
        assert r.max_stopping_time == sigma
        assert r.max_excursion == peak
        assert r.verified_count == 1


def test_engine_agrees_with_bit_string_walk():
    # dual route: numpy kernel vs the BinaryNat iteration
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randrange(2, 10**6)
        r = verify_range(n, n + 1)
        assert r.max_stopping_time == stopping_time(bn(n))


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
    # uint64 limbs and come back to the int64 arrays
    lo = 2**62 - 2
    r = verify_range(lo, lo + 4)
    assert r.verified_count == 4
    for n in range(lo, lo + 4):
        sigma, peak = orbit_oracle(n)
        assert sigma is not None
        assert r.max_stopping_time >= sigma
    sigmas = {n: orbit_oracle(n)[0] for n in range(lo, lo + 4)}
    peaks = {n: orbit_oracle(n)[1] for n in range(lo, lo + 4)}
    best_sigma = max(sigmas.values())
    expect_at = min(n for n, s in sigmas.items() if s == best_sigma)
    assert (r.max_stopping_time, r.max_stopping_time_at) == (best_sigma, expect_at)
    best_peak = max(peaks.values())
    peak_at = min(n for n, p in peaks.items() if p == best_peak)
    assert (r.max_excursion, r.max_excursion_at) == (best_peak, peak_at)


def test_python_path_beyond_int64():
    # starts past 2**63 take their first jumps on two uint64 limbs
    lo = 2**64 + 1
    r = verify_range(lo, lo + 2)
    assert r.verified_count == 2
    assert r.max_stopping_time == max(orbit_oracle(n)[0] for n in (lo, lo + 1))


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
    return Checkpoint(
        lo=lo,
        hi=hi,
        step_cap=DEFAULT_STEP_CAP,
        chunk_size=chunk,
        next_unprocessed=lo,
        max_stopping_time=None,
        max_stopping_time_at=None,
        max_excursion=None,
        max_excursion_at=None,
        truncated=[],
    )


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
    verify_mod._ensure_tables(state.hi)
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



def test_checkpoint_load_checks_consistency(tmp_path):
    path = tmp_path / "ck.txt"
    finished = verify_range(1, 5000, chunk_size=512)
    # stopped after [2, 200) of [2, 400) at cap 30, with 79 inputs truncated
    stopped = verify_mod._merge(
        Checkpoint(2, 400, 30, 200, 2), verify_range(2, 200, step_cap=30)
    )
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
            stopped,
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
    verify_mod._ensure_tables(hi)
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


def _stopped():
    # [2, 400) at cap 30, stopped after [2, 200): sigma 30 at 86, peak 1024 at 151
    return verify_mod._merge(Checkpoint(2, 400, 30, 200, 2), verify_range(2, 200, step_cap=30))


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
    base=st.sampled_from([1, 10**6, 1 << 60, (1 << 62) - 64, (1 << 63) - 40]),
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
    # one build serves every cap and every range the table is long enough for
    assert verify_mod._SIG is tables[0] and verify_mod._PK is tables[1]


def test_merge_ties_go_to_smaller_n():
    # 27 and 31 both peak at 9232; 12 and 13 both stop after 9 steps
    for (a, b), key in (((27, 31), "max_excursion"), ((12, 13), "max_stopping_time")):
        for first, second in ((a, b), (b, a)):
            state = Checkpoint(a, b + 1, DEFAULT_STEP_CAP, 1, a)
            for n in (first, second):
                verify_mod._merge(state, verify_mod._chunk_stats((n, n + 1), DEFAULT_STEP_CAP))
            assert getattr(state, key + "_at") == a


# n = 2^62 + 12473 leaves int64 and comes back twice; n = 2^62 + 12359
# lands past 2^64, on two limbs, before it comes back; n = 2^62 + 763
# leaves twice and lands higher the first time than any jump of the second
# could reach, so its bounds carry over from one stretch to the next
TWICE_BACK = (1 << 62) + 12473
PAST_2P64 = (1 << 62) + 12359
HIGH_FIRST = (1 << 62) + 763


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
        assert BASE_TABLE_BOUND <= n < 2**63
        assert verify_range(n, n + 1) == oracle_report(n, n + 1, DEFAULT_STEP_CAP)


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


def test_base_table_matches_plain_walk(monkeypatch):
    verify_mod._ensure_tables(BASE_TABLE_BOUND)
    sig, pk = verify_mod._SIG, verify_mod._PK
    assert sig.size == BASE_TABLE_BOUND
    rng = random.Random(5)
    for n in [*range(1, 3000), *(rng.randrange(3000, BASE_TABLE_BOUND) for _ in range(300))]:
        assert (sig[n], pk[n]) == orbit_oracle(n)
    # the table holds stopping times as int16
    assert sig.dtype == np.int16 and sig.max() < 2**15
    # growth from a short table of odd length, block by block; past
    # 2^16 a block is at most _LANES long
    monkeypatch.setattr(verify_mod, "_SIG", sig[:11].copy())
    monkeypatch.setattr(verify_mod, "_PK", pk[:11].copy())
    for hi, size in ((5000, 5000), (5001, 10000), (9000, 10000), (300000, 300000)):
        verify_mod._ensure_tables(hi)
        assert verify_mod._SIG.size == size
        assert np.array_equal(verify_mod._SIG, sig[:size])
        assert np.array_equal(verify_mod._PK, pk[:size])


@functools.cache
def stepped_table(bound: int):
    """(stopping times, peaks) of every n < bound, one plain step at a time.

    Each block [s, 2s) walks until it drops below s, into entries already
    exact; no jump table is read. The arrays are shared: copy before
    patching them in.
    """
    sig = np.zeros(bound, dtype=np.int64)
    pk = np.arange(bound, dtype=np.int64)
    sig[0] = -1
    s = 2
    while s < bound:
        at = np.arange(s, min(bound, 2 * s), dtype=np.int64)
        v, steps, peak = at.copy(), np.zeros(at.size, dtype=np.int64), at.copy()
        while at.size:
            v = np.where(v & 1, 3 * v + 1, v >> 1)
            steps += 1
            np.maximum(peak, v, out=peak)
            done = v < s
            sig[at[done]] = steps[done] + sig[v[done]]
            pk[at[done]] = np.maximum(peak[done], pk[v[done]])
            at, v, steps, peak = at[~done], v[~done], steps[~done], peak[~done]
        s *= 2
    return sig, pk


def test_table_size_does_not_change_a_report(monkeypatch, tmp_path):
    sig, pk = stepped_table(BASE_TABLE_BOUND)
    small = 1 << verify_mod._K

    def use_table(size):
        monkeypatch.setattr(verify_mod, "_SIG", sig[:size].astype(np.int16))
        monkeypatch.setattr(verify_mod, "_PK", pk[:size].copy())

    def run(lo, hi, cap, chunk):
        # verify.run's chunks at one job, on the table as it is: verify.run would grow it
        state = Checkpoint(lo, hi, cap, chunk, lo)
        for a in range(lo, hi, chunk):
            verify_mod._merge(state, verify_mod._chunk_stats((a, min(a + chunk, hi)), cap))
        return state

    windows = [
        ((1 << 20) - (1 << 15), (1 << 20) + (1 << 15), DEFAULT_STEP_CAP, DEFAULT_CHUNK_SIZE),
        ((1 << 40) + 12345, (1 << 40) + 15345, DEFAULT_STEP_CAP, 37),
        ((1 << 62) - (1 << 11), (1 << 62) + (1 << 11), 60, DEFAULT_CHUNK_SIZE),
        ((1 << 63) - 2048, (1 << 63) + 2048, DEFAULT_STEP_CAP, 1000),
    ]
    reports = {}
    for size in (small, BASE_TABLE_BOUND):
        use_table(size)
        reports[size] = [run(*w) for w in windows]
        assert verify_mod._SIG.size == size
    assert reports[small] == reports[BASE_TABLE_BOUND]
    assert reports[small] == [verify_range(lo, hi, cap, chunk) for lo, hi, cap, chunk in windows]

    # the import builds 2^16 entries, all a walk needs (in a fresh process)
    src = str(Path(verify_mod.__file__).parents[1])
    code = f"import sys; sys.path[:0] = [{src!r}]; import collatzbin.verify as v; print(v._SIG.size, v._PK.size)"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (fresh.stdout, fresh.stderr) == (f"{small} {small}\n", "")
    # a short run that starts past the table, a 2^17-value one and a
    # checkpoint load build nothing
    use_table(small)
    table = verify_mod._SIG
    state = verify_range(10**9, 10**9 + 1)
    assert verify_mod._SIG is table
    verify_range(10**9, 10**9 + 2 * small)
    assert verify_mod._SIG is table
    checkpoint_save(state, tmp_path / "ck.txt")
    assert checkpoint_load(tmp_path / "ck.txt") == state
    assert verify_mod._SIG is table
    # a run that starts inside it grows it over its own values
    verify_range(small, small + 3)
    assert verify_mod._SIG.size == 2 * small
    verify_range(5 * small, 5 * small + 3)
    assert verify_mod._SIG.size == 2 * small
    # growth from 2^16 straight to 2^20 gives the stepped table
    use_table(small)
    verify_mod._ensure_tables(BASE_TABLE_BOUND)
    assert np.array_equal(verify_mod._SIG, sig) and np.array_equal(verify_mod._PK, pk)


@settings(max_examples=30)
@given(
    base=st.sampled_from(
        [1 << 20, 10**9, 1 << 40, 1 << 50, 1 << 58, (1 << 62) - (1 << 11)]
    ),
    offset=st.integers(0, (1 << 11) - 1),
    size=st.integers(1, 2000),
    cap=st.sampled_from([7, 60, 300, DEFAULT_STEP_CAP]),
)
def test_multilane_windows_match_oracle(base, offset, size, cap):
    lo = base + offset
    # the top band stays below 2^62, where lanes leave int64 mid-walk
    hi = min(lo + size, 1 << 62) if base == (1 << 62) - (1 << 11) else lo + size
    assert verify_range(lo, hi, step_cap=cap) == oracle_report(lo, hi, cap)


@settings(max_examples=30)
@given(
    base=st.sampled_from(
        [(2**63 - 2) // 3, 1 << 62, 1 << 63, 1 << 64, 1 << 80, 1 << 100, (1 << 117) - (1 << 11)]
    ),
    offset=st.integers(-(1 << 11), (1 << 11) - 1),
    size=st.integers(1, 300),
    cap=st.sampled_from([7, 60, 300, DEFAULT_STEP_CAP]),
    chunk=st.integers(1, 400),
)
def test_past_int64_windows_match_oracle(base, offset, size, cap, chunk):
    # across (2^63 - 2) // 3, where 3v + 1 first leaves int64, 2^62, 2^63
    # and far past it: kernel lanes, lanes that pass their int64 gate, jump
    # on two limbs and come back, starts past 2^63, and starts just below
    # 2^117, whose nodes may climb past it onto plain integers
    lo = base + offset
    want = dataclasses.replace(oracle_report(lo, lo + size, cap), chunk_size=chunk)
    assert verify_range(lo, lo + size, step_cap=cap, chunk_size=chunk) == want


@settings(max_examples=200)
@given(
    base=st.sampled_from([1, 1 << 20, 1 << 40, 1 << 58, 1 << 62, 1 << 63, 1 << 80, 1 << 200]),
    offset=st.integers(0, 1 << 16),
    cap=st.sampled_from([7, 60, 300, DEFAULT_STEP_CAP]),
)
def test_one_value_block_is_the_plain_walk(base, offset, cap):
    # the stopping time and the exact peak, or truncated past the cap: the
    # block checkpoint_load checks each saved maximum with
    verify_mod._ensure_tables(BASE_TABLE_BOUND)
    n = base + offset
    sigma, peak = orbit_oracle(n, cap)
    got = verify_mod._chunk_stats((n, n + 1), cap)
    if sigma is None:
        assert got.truncated == [n]
    else:
        assert (got.max_stopping_time, got.max_excursion) == (sigma, peak)


def test_tied_peaks_at_2p58():
    # lanes whose orbits merge share their peak: 15 lanes of this window
    # tie on the maximum, which goes to the smallest; some lanes reach
    # their int64 gate, the rest stay in the kernel
    lo = (1 << 58) + 704
    hi = lo + 1024
    want = oracle_report(lo, hi, DEFAULT_STEP_CAP)
    assert sum(orbit_oracle(n)[1] == want.max_excursion for n in range(lo, hi)) == 15
    for chunk in (DEFAULT_CHUNK_SIZE, 100):
        got = verify_range(lo, hi, chunk_size=chunk)
        assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == want


def test_peak_scan_keeps_the_smaller_n_of_a_tie(monkeypatch):
    # 8k+4 and 8k+5 share their peak: their first jumps land on one node,
    # or, in a pass of fewer than _TAIL nodes, each walks on plain
    # integers. Either way the tie goes to the smaller n
    n = 1125899906842732
    peak = orbit_oracle(n)[1]
    assert orbit_oracle(n + 1)[1] == peak
    want = oracle_report(n, n + 2, DEFAULT_STEP_CAP)
    for tail in (0, verify_mod._TAIL):
        monkeypatch.setattr(verify_mod, "_TAIL", tail)
        for chunk in (1, 2):
            got = verify_range(n, n + 2, chunk_size=chunk)
            assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == want
            assert (got.max_excursion, got.max_excursion_at) == (peak, n)


def test_excursion_tie_above_the_table_bound():
    # 8k+4 and 8k+5 meet at 6k+4 after 3 steps, and the common tail climbs
    # past 24k+16: both maxima tie, and go to the smaller n
    for n in (1048684, 1099511627884, 1125899906842732):
        assert n % 8 == 4 and n >= BASE_TABLE_BOUND
        assert orbit_oracle(n) == orbit_oracle(n + 1)
        r = verify_range(n, n + 2)
        assert r.max_excursion_at == r.max_stopping_time_at == n
        assert r == oracle_report(n, n + 2, DEFAULT_STEP_CAP)


def test_peak_inside_a_jump_of_a_lane_that_leaves_int64(monkeypatch):
    # the first lane jumps past (2^63 - 2) // 3 and stays in the kernel: its
    # peak, 0.93 * 2^63, is a 3v+1 value inside a jump, above everything the
    # rest of the walk reaches. The second jumps four times, then its next
    # jump could pass 2^63 - 1 (its peak, 1.06 * 2^63, lies inside it): it
    # leaves at the gate, jumps on two limbs and comes back. Alone in a
    # block each walks on plain integers; with _TAIL 0, in the kernel
    for tail in (0, verify_mod._TAIL):
        monkeypatch.setattr(verify_mod, "_TAIL", tail)
        for n in (72057594037928009, 72057594037928033):
            assert verify_range(n, n + 1) == oracle_report(n, n + 1, DEFAULT_STEP_CAP)


def test_plain_walk_ends_at_its_budget():
    # a walk that has taken limit steps and not landed below the table ends
    # on 1 with _NEVER steps, even one jump before its landing; with one
    # step more of budget it lands, its steps and peak exact
    bound = verify_mod._SIG.size
    n = (1 << 63) + 12345
    walk = [(n, 0)]
    while walk[-1][0] >= bound:
        v, steps, _ = block_walk(walk[-1][0])
        walk.append((v, walk[-1][1] + steps))
    (_, before), (land, steps) = walk[-2:]
    assert verify_mod._jump_plain([n], before)[:2] == ([1], [verify_mod._NEVER])
    (end,), (got,), (peak,) = verify_mod._jump_plain([n], before + 1)
    assert (end, got) == (land, steps)
    assert (got + int(verify_mod._SIG[end]), max(peak, int(verify_mod._PK[end]))) == orbit_oracle(n)


def _count_plain_jumps(monkeypatch):
    """Wrap the plain-int jumper: count its jumps (its reads of A) and its walks
    stopped at their budget, and list the peak of each walk that lands.
    Every walk must end below the base table, or at its budget on 1 with
    _NEVER steps. The calls with limit _NEVER are left out: they walk a
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
            ends, steps, walk_peaks = real(vs, limit)
        finally:
            verify_mod._VIEWS = views
        for end, s, peak in zip(ends, steps, walk_peaks):
            if (end, s) == (1, verify_mod._NEVER):
                seen["stopped"] += 1
            else:
                assert end < verify_mod._SIG.size and s < verify_mod._NEVER
                peaks.append(peak)
        return ends, steps, walk_peaks

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
    assert verify_range(lo, lo + 512) == oracle_report(lo, lo + 512, DEFAULT_STEP_CAP)
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


# n = 2^117 - 31 climbs past 2^117: from its first landing there its node
# walks on plain integers to the end
PAST_2P117 = (1 << 117) - 31


def test_lanes_come_back_to_the_kernel(monkeypatch):
    # alone in a block a value would walk on plain integers to the end
    monkeypatch.setattr(verify_mod, "_TAIL", 0)
    seen, peaks = _count_plain_jumps(monkeypatch)
    # below 2^_LIMBS, a node past its int64 gate jumps on two limbs and comes
    # back to the int64 arrays once the gate holds: no plain jump at all
    for n in (TWICE_BACK, HIGH_FIRST, PAST_2P64):
        assert verify_range(n, n + 1) == oracle_report(n, n + 1, DEFAULT_STEP_CAP)
    assert not seen and not peaks
    assert verify_range(PAST_2P117, PAST_2P117 + 1) == oracle_report(
        PAST_2P117, PAST_2P117 + 1, DEFAULT_STEP_CAP
    )
    assert len(peaks) == 1 and peaks[0] >= 1 << 117 and seen["jumps"]
    # every cap across the walks of a lane that comes back to the int64
    # arrays twice and of one that walks on plain integers from past 2^117,
    # so that some stop the latter inside that walk
    for n in (TWICE_BACK, PAST_2P117):
        sigma = orbit_oracle(n)[0]
        for cap in range(1, sigma + 3, 5):
            assert verify_range(n, n + 1, step_cap=cap) == oracle_report(n, n + 1, cap)
    assert seen["stopped"]
    # from just past (2^63 - 2) // 3, two starts stop in 855 steps after 33
    # or 34 jumps (on the 2^20 or the 2^16 table), 25 steps each on average:
    # a stop rule that counted 2·_K steps a pass, a jump's most, would
    # truncate them at their own stopping time
    lo = 3074457345618259468
    assert orbit_oracle(lo + 2)[0] == orbit_oracle(lo + 3)[0] == 855
    for cap in (855, 856):
        want = oracle_report(lo, lo + 5, cap)
        for chunk in (1, DEFAULT_CHUNK_SIZE):
            got = verify_range(lo, lo + 5, step_cap=cap, chunk_size=chunk)
            assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == want, (cap, chunk)


@pytest.mark.parametrize(
    "lo, hi, cap",
    [
        ((1 << 62) + 12345678901, (1 << 62) + 12345678901 + 4096, 1000),
        # at chunk 1000 the chunk [2^63 - 48, 2^63 + 952) crosses 2^63, and
        # at the default chunk so does the one block
        ((1 << 63) - 2048, (1 << 63) + 2048, DEFAULT_STEP_CAP),
        ((1 << 64) + 1, (1 << 64) + 4, DEFAULT_STEP_CAP),
        ((1 << 62) - (1 << 11), (1 << 62) + (1 << 11), 60),
        # two-limb starts, and starts on both sides of 2^117
        ((1 << 64) + 1, (1 << 64) + 513, DEFAULT_STEP_CAP),
        (1 << 100, (1 << 100) + 512, DEFAULT_STEP_CAP),
        ((1 << 117) - 256, (1 << 117) + 256, DEFAULT_STEP_CAP),
        # peaks on both sides of 2^1023, where float64 codes end, and past it
        ((1 << 1023) - 10, (1 << 1023) + 6, DEFAULT_STEP_CAP),
        ((1 << 1100) + 12345, (1 << 1100) + 12353, DEFAULT_STEP_CAP),
    ],
)
def test_reentry_windows_match_oracle(lo, hi, cap):
    want = oracle_report(lo, hi, cap)
    for chunk in (37, 1000, DEFAULT_CHUNK_SIZE):
        got = verify_range(lo, hi, step_cap=cap, chunk_size=chunk)
        assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == want, chunk
    got = verify_range(lo, hi, step_cap=cap, chunk_size=37, jobs=2)
    assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == want
    # one-value chunks on the 512 values around the middle
    mid = (lo + hi) // 2
    a, b = max(lo, mid - 256), min(hi, mid + 256)
    got = verify_range(a, b, step_cap=cap, chunk_size=1)
    want = want if (a, b) == (lo, hi) else oracle_report(a, b, cap)
    assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == want


def test_huge_cap_gives_the_default_cap_report():
    # kernel lanes, lanes that leave int64 and come back (2^58 and 2^62),
    # and starts past 2^63
    for lo, size in ((10**9 + 7, 300), ((1 << 58) + 3, 200), ((1 << 62) + 1, 40), ((1 << 64) + 1, 20)):
        r = verify_range(lo, lo + size, step_cap=10**30)
        assert r.step_cap == 10**30
        assert dataclasses.replace(r, step_cap=DEFAULT_STEP_CAP) == verify_range(lo, lo + size)


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


def _count_lane_passes(monkeypatch):
    """Wrap the S row of the jump table: the kernel reads it once per node
    jump, so the sizes of its reads are the nodes of each pass."""
    passes = []

    class Counted(np.ndarray):
        def __getitem__(self, b):
            passes.append(np.size(b))
            return np.asarray(self)[b]

    verify_mod._ensure_tables(BASE_TABLE_BOUND)
    rows = list(verify_mod._JUMP)
    rows[2] = rows[2].view(Counted)
    monkeypatch.setattr(verify_mod, "_JUMP", rows)
    return passes


def test_most_lanes_read_an_earlier_lanes_walk(monkeypatch):
    passes = _count_lane_passes(monkeypatch)
    lo = 10**9 + 123456789
    hi = lo + (1 << 14)
    assert verify_range(lo, hi) == oracle_report(lo, hi, DEFAULT_STEP_CAP)
    # one block: equal landings walk once, so the block takes under two
    # node jumps per value
    assert sum(passes) < 2 * (1 << 14)
    # and so does a 2^16 window at 2^40, at most 1.8 per value
    passes.clear()
    lo = (1 << 40) + 987654321
    verify_range(lo, lo + (1 << 16))
    assert sum(passes) <= 1.8 * (1 << 16)
    # every equal landing merges, also where many distinct landings share
    # their low bits: blocks at 2^50 exactly, at 2^58 and past 2^63 (where
    # every start jumps on two limbs) take about 1.6 node jumps per value
    for lo, size in ((1 << 50, 1 << 15), ((1 << 58) + 704, 1 << 15), (1 << 100, 4096)):
        passes.clear()
        verify_range(lo, lo + size)
        assert sum(passes) <= 1.65 * size, lo


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
    ],
)
def test_distinct_merges_every_equal_landing_and_no_other(values, given_high):
    n = len(values)
    low = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64).view(np.int64)
    high = np.array([v >> 64 for v in values], dtype=np.uint64) if given_high else None
    index, slots = np.arange(n, dtype=np.intp), np.empty(8, dtype=np.intp)
    node, first = verify_mod._distinct(low, high, slots, index, np.empty(n, dtype=np.intp))
    assert [values[i] for i in first[node]] == values
    assert all((node[i] == node[j]) == (values[i] == values[j]) for i in range(n) for j in range(n))


# n = 2^16 * 93,824,992,236,886 + 100: its own gate holds, but n - 2, whose
# first jump lands with its own, leaves int64 at that jump
GATE_EDGE = (93824992236886 << 16) + 100
# n = 2^16 * (LIM(3) + 1) + 3 fails its own gate by one while n - 1, whose
# first jump lands with its own, jumps in the kernel; its peak lies inside
# its first jump, past 2^63 and above n - 1's
OWN_GATE = (31274997412296 << 16) + 3
# n lands with n - 1, which leaves int64 after some jumps and peaks past 2^63
SHARE_WIDE = 89051470758688207


@pytest.mark.parametrize(
    "lo, hi, cap, chunks",
    [
        # starts below the table bound resolve there, and never join a node
        ((1 << 20) - (1 << 15), (1 << 20) + (1 << 15), DEFAULT_STEP_CAP, (DEFAULT_CHUNK_SIZE,)),
        # starts join only nodes of their own block, never one of an earlier chunk
        ((1 << 40) + 12345, (1 << 40) + 12345 + 1500, DEFAULT_STEP_CAP, (3, 37)),
        (GATE_EDGE - 300, GATE_EDGE + 300, DEFAULT_STEP_CAP, (37, DEFAULT_CHUNK_SIZE)),
        (OWN_GATE - 1, OWN_GATE + 1, DEFAULT_STEP_CAP, (DEFAULT_CHUNK_SIZE,)),
        # merged starts truncate together, at the first jump too; 322 is the
        # window's median stopping time
        *(
            ((1 << 40) + 777, (1 << 40) + 777 + 3000, cap, (DEFAULT_CHUNK_SIZE,))
            for cap in (1, 16, 17, 60, 322)
        ),
    ],
)
def test_shared_lane_edges_match_oracle(lo, hi, cap, chunks):
    LIM = _jump_rows()[5]
    if lo < GATE_EDGE < hi:
        assert _first_lands_with(100) == 98 and LIM[100] == 2**47 - 1 >= GATE_EDGE >> 16 > LIM[98]
    if lo < OWN_GATE < hi:
        assert _first_lands_with(3) == 2 and LIM[3] + 1 == OWN_GATE >> 16 <= LIM[2]
    want = oracle_report(lo, hi, cap)
    for chunk in chunks:
        for jobs in (1, 2):
            got = verify_range(lo, hi, step_cap=cap, chunk_size=chunk, jobs=jobs)
            assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == want, (chunk, jobs)


def test_wide_peak_windows_match_oracle():
    # peaks past 2^63 - 1 rank above every int64 peak, and among
    # themselves by their exact values. Near the median stopping times of
    # the 4,096-value windows (557 from 2^63 - 2048, 468 at 2^62) some
    # starts climb past 2^63 - 1, above every converged start, and then
    # stop at the cap: they lie on no converged start's path, so their
    # peaks never count
    for lo, size, cap in (
        ((1 << 62) + 12345678901, 4096, DEFAULT_STEP_CAP),
        ((1 << 63) + 12345, 4096, DEFAULT_STEP_CAP),
        (GATE_EDGE - 50, 100, DEFAULT_STEP_CAP),
        (SHARE_WIDE - 3, 4, DEFAULT_STEP_CAP),
        *(((1 << 63) - 2048, 4096, cap) for cap in (250, 400, 557)),
        *(((1 << 62) + 12345678901, 4096, cap) for cap in (350, 400, 468)),
    ):
        want = oracle_report(lo, lo + size, cap)
        assert cap == DEFAULT_STEP_CAP or want.truncated and want.max_excursion
        assert verify_range(lo, lo + size, step_cap=cap) == want, (lo, cap)
    # every peak past 2^63 - 1 lies on a truncated path: the one converged
    # start peaks at itself, below 2^63
    for lo, size, cap in ((2049638230412171845, 64, 150), (3074457345618258366, 100, 200)):
        want = oracle_report(lo, lo + size, cap)
        assert want.verified_count == 1 and want.max_excursion == want.max_excursion_at < 2**63
        assert max(orbit_oracle(n, cap)[1] for n in want.truncated) > 2**63 - 1
        assert verify_range(lo, lo + size, step_cap=cap) == want, (lo, cap)


# a 2^50-band start with stopping time 591 whose peak, 683,432,308,140,491,431,780,
# has 70 bits: at a cap of 591 or more that some start of its window
# passes, an int64-band block holds a converged start that peaks past
# 2^63 - 1 next to truncated ones
WIDE_2P50 = 1541717981317479


@settings(max_examples=60)
@given(
    base=st.sampled_from([(2**63 - 2) // 3, 1 << 62, 1 << 63, 1 << 64, 10**9, 1 << 40, WIDE_2P50]),
    offset=st.integers(-(1 << 11), (1 << 11) - 1),
    size=st.integers(2, 300),
    pick=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, -1)]),
    lanes=st.integers(6, 10),
    tail=st.sampled_from([0, 64]),
    table=st.sampled_from([1 << 16, BASE_TABLE_BOUND]),
    chunk=st.integers(1, 300),
    jobs=st.sampled_from([1, 2]),
)
# the cap 851 leaves 19 of these 300 starts truncated, and converged ones
# peak past 2^63 - 1
@example(WIDE_2P50, 0, 300, (2, -1), 6, 0, 1 << 16, 37, 2)
@example(WIDE_2P50, 0, 64, (2, -1), 10, 64, BASE_TABLE_BOUND, 300, 1)
def test_mixed_windows_match_oracle(base, offset, size, pick, lanes, tail, table, chunk, jobs):
    # a cap from the window's own min, median or max stopping time, or one
    # off it, so that some starts stop within it and some do not, in blocks
    # of 2^6 to 2^10 values: many passes per block, gated nodes, tail walks,
    # plain walks stopped at their budget and passes stopped by the pass
    # count. A cap below the min or at the max leaves one kind out, so the
    # draw is clipped to [min, max - 1]. The base table is 2^16 or 2^20
    # entries long (no window starts inside it, so no run grows it), and
    # the window runs in chunks of any size on one or two jobs
    lo = base + offset
    hi = lo + size
    sigmas = sorted(orbit_oracle(n)[0] for n in range(lo, hi))
    assume(sigmas[0] < sigmas[-1])
    which, delta = pick
    cap = (sigmas[0], sigmas[size // 2], sigmas[-1])[which] + delta
    cap = min(max(cap, sigmas[0]), sigmas[-1] - 1)
    want = oracle_report(lo, hi, cap)
    assert want.truncated and want.verified_count
    sig, pk = stepped_table(BASE_TABLE_BOUND)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_mod, "_LANES", 1 << lanes)
        mp.setattr(verify_mod, "_TAIL", tail)
        mp.setattr(verify_mod, "_SIG", sig[:table].astype(np.int16))
        mp.setattr(verify_mod, "_PK", pk[:table].copy())
        got = verify_range(lo, hi, step_cap=cap, chunk_size=chunk, jobs=jobs)
        assert verify_mod._SIG.size == table
    assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == want


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
        got = verify_range(lo, lo + size)
        assert got == oracle_report(lo, lo + size, DEFAULT_STEP_CAP)
        assert got.max_excursion > 2**63 - 1
        assert folds == ["rem", "peak"]


def table_report(sig, pk, lo: int, hi: int, cap: int) -> Checkpoint:
    """oracle_report for [lo, hi) from exact tables of every n < len(sig)."""
    sig, pk = sig[lo:hi], pk[lo:hi]
    conv = sig <= cap
    state = Checkpoint(lo, hi, cap, DEFAULT_CHUNK_SIZE, hi)
    state.truncated = [lo + i for i in np.flatnonzero(~conv).tolist()]
    ci = np.flatnonzero(conv)
    if ci.size:
        j = int(ci[np.argmax(sig[ci])])
        state.max_stopping_time, state.max_stopping_time_at = int(sig[j]), lo + j
        j = int(ci[np.argmax(pk[ci])])
        state.max_excursion, state.max_excursion_at = int(pk[j]), lo + j
    return state


@pytest.mark.parametrize("tail", [0, 64])
def test_merged_starts_with_unequal_steps_stop_at_their_own_caps(monkeypatch, tail):
    # 65,563 and 196,690 both reach 531,674 after 16 halvings, in 28 and 27
    # steps: one node, whose starts reach the cap at different passes. A
    # block of 2^18 values on the 2^16 table holds both
    small, big = 196690, 65563
    assert block_walk(small)[:2] == (531674, 27) and block_walk(big)[:2] == (531674, 28)
    sig, pk = stepped_table(1 << 18)
    monkeypatch.setattr(verify_mod, "_SIG", sig[: 1 << 16].astype(np.int16))
    monkeypatch.setattr(verify_mod, "_PK", pk[: 1 << 16].copy())
    monkeypatch.setattr(verify_mod, "_LANES", 1 << 18)
    monkeypatch.setattr(verify_mod, "_TAIL", tail)
    lo, hi = big, small + 1
    s_small, s_big = int(sig[small]), int(sig[big])
    assert s_big == s_small + 1
    for cap in (s_small - 1, s_small, s_big - 1, s_big, 1):
        got = verify_mod._chunk_stats((lo, hi), cap)
        assert dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) == table_report(sig, pk, lo, hi, cap)
        # the tables agree with the plain walks at both ends of the window
        for a, b in ((lo, lo + 300), (hi - 300, hi)):
            assert table_report(sig, pk, a, b, cap) == oracle_report(a, b, cap)
