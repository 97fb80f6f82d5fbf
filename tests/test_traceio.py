"""Renderer output shapes, goldens, and machine-format roundtrips."""

import random
from pathlib import Path

import pytest

from collatzbin import (
    BinaryNat,
    DomainError,
    derivation_trace,
    odd_chain,
    render_machine,
    render_points,
    render_scratch,
    render_table,
    sequence,
)
from collatzbin.traceio import parse_machine

from conftest import bn

GOLDEN = Path(__file__).parent / "goldens" / "table_10027.txt"


def test_table_golden_10027():
    out = render_table(odd_chain(bn(10027)))
    assert out == GOLDEN.read_text(encoding="utf-8")
    lines = out.splitlines()
    assert len(lines) == 30
    assert lines[0] == "10027=(10011100101011)₂ → (111010110000010)₂"
    assert lines[-1] == "5=(101)₂ → (10000)₂"


def test_table_shapes():
    out = render_table(odd_chain(bn(67)))
    assert len(out.splitlines()) == 8
    assert out.splitlines()[0] == "67=(1000011)₂ → (11001010)₂"
    # the bare chain [1] is a single terminal row
    assert render_table([bn(1)]) == "1=(1)₂\n"
    with pytest.raises(DomainError):
        render_table([])


def test_scratch_line_per_iterate():
    out = render_scratch(sequence(bn(255), 100))
    lines = out.splitlines()
    assert len(lines) == 48  # T^0 .. T^47
    assert lines[0] == "· 255 = (11111111)₂"
    assert lines[1].startswith("→ 766")  # tripling hop
    assert lines[-1] == "↓ 1 = (1)₂"


def test_scratch_glyphs():
    out = render_scratch(sequence(bn(16), 10))
    assert out.splitlines() == [
        "· 16 = (10000)₂",
        "↓ 8 = (1000)₂",
        "↓ 4 = (100)₂",
        "↓ 2 = (10)₂",
        "↓ 1 = (1)₂",
    ]
    assert render_scratch(sequence(bn(1), 3)).splitlines()[0] == "· 1 = (1)₂"


def test_scratch_marks_truncation():
    out = render_scratch(sequence(bn(27), 4))
    assert out.splitlines()[-1] == "... truncated"


def test_scratch_every_hop_then_halving():
    # a tripling always lands on an even value, so a halving line follows
    lines = render_scratch(sequence(bn(97), 1000)).splitlines()
    for a, b in zip(lines, lines[1:]):
        if a.startswith("→"):
            assert b.startswith("↓")


def test_points_rows():
    out = render_points(sequence(bn(255), 100))
    rows = out.splitlines()
    assert len(rows) == 48
    assert rows[0] == "0,255"
    assert rows[-1] == "47,1"
    out97 = render_points(sequence(bn(97), 1000)).splitlines()
    assert len(out97) == 119
    assert out97[-1] == "118,1"
    assert render_points(sequence(bn(1), 0)) == "0,1\n"


def test_points_row_count_is_stopping_time_plus_one():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 1 << 24)
        trace = sequence(bn(n), 10**4)
        assert len(render_points(trace).splitlines()) == trace.stopping_time + 1


def test_machine_trace_roundtrip_values():
    rng = random.Random(1234)
    for _ in range(100):
        n = rng.randrange(1, 1 << 32)
        trace = sequence(bn(n), 10**4)
        records = parse_machine(render_machine(trace))
        assert [BinaryNat(r.binary) for r in records] == [e.value for e in trace.entries]
        assert [r.decimal for r in records] == [e.value.to_decimal() for e in trace.entries]
        assert [r.index for r in records] == list(range(len(trace.entries)))


def test_machine_trace_fields():
    lines = render_machine(sequence(bn(5), 10)).splitlines()
    assert lines[0] == "0,5,101,,"
    assert lines[1] == "1,16,10000,odd-step,"
    assert lines[2] == "2,8,1000,even-step,"
    truncated = render_machine(sequence(bn(27), 3)).splitlines()
    assert truncated[-1].endswith(",truncated")


def test_machine_rejects_odd_chain():
    # machine records cover traces and derivations only
    with pytest.raises(DomainError):
        render_machine(odd_chain(bn(67)))


def test_machine_derivation_fields():
    lines = render_machine(derivation_trace(bn(67))).splitlines()
    assert len(lines) == 8
    first = parse_machine(lines[0] + "\n")[0]
    assert first.decimal == "67" and first.kind == "merge"
    assert first.annotations == "raw:7+6+2+1+1+0+0 after:7+6+3+1 shift:1"


def test_all_renderers_end_with_newline():
    trace = sequence(bn(7), 100)
    chain = odd_chain(bn(7))
    for blob in (
        render_table(chain),
        render_scratch(trace),
        render_points(trace),
        render_machine(trace),
    ):
        assert blob.endswith("\n") and not blob.endswith("\n\n")
