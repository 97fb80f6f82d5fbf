"""Renderer output shapes, goldens, and machine-format roundtrips."""

import random
from pathlib import Path

import pytest

from collatzbin import (
    BinaryNat,
    DomainError,
    derivation_trace,
    render_derivation,
    render_machine,
    render_points,
    render_scratch,
    render_table,
    sequence,
)

from conftest import bn, int_orbit

GOLDEN = Path(__file__).parent / "goldens" / "table_10027.txt"


def int_kinds(values):
    # the move that made each value: none for the start, then the parity
    # of the value before it
    return [""] + ["odd-step" if v & 1 else "even-step" for v in values[:-1]]


def oracle_cases():
    rng = random.Random(1234)
    return [(rng.randrange(1, 1 << 32), 10**4) for _ in range(100)] + [(1, 3), (1, 0), (27, 5), (16, 10)]


def test_table_golden_10027():
    out = render_table(derivation_trace(bn(10027)))
    assert out == GOLDEN.read_text(encoding="utf-8")
    lines = out.splitlines()
    assert len(lines) == 30
    assert lines[0] == "10027=(10011100101011)₂ → (111010110000010)₂"
    assert lines[-1] == "5=(101)₂ → (10000)₂"


def test_table_shapes():
    out = render_table(derivation_trace(bn(67)))
    assert len(out.splitlines()) == 8
    assert out.splitlines()[0] == "67=(1000011)₂ → (11001010)₂"
    # the derivation of 1, its one cycle record, is a single terminal row
    assert render_table(derivation_trace(bn(1))) == "1=(1)₂\n"
    # an empty derivation has no renderer
    with pytest.raises(DomainError, match="empty derivation"):
        render_table([])
    with pytest.raises(DomainError, match="empty derivation"):
        render_derivation([])


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


def test_scratch_glyphs_match_a_plain_int_orbit():
    glyphs = {"": "·", "odd-step": "→", "even-step": "↓"}
    for n, cap in oracle_cases():
        orbit = int_orbit(n, cap)
        lines = render_scratch(sequence(bn(n), cap)).splitlines()
        assert lines[: len(orbit)] == [
            f"{glyphs[kind]} {v} = ({v:b})₂" for v, kind in zip(orbit, int_kinds(orbit))
        ]
        assert lines[len(orbit) :] == ([] if 1 in orbit else ["... truncated"])


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
    for n, cap in oracle_cases():
        orbit = int_orbit(n, cap)
        records = [line.split(",", 4) for line in render_machine(sequence(bn(n), cap)).splitlines()]
        assert [BinaryNat(r[2]).to_int() for r in records] == orbit
        assert [r[1] for r in records] == list(map(str, orbit))
        assert [int(r[0]) for r in records] == list(range(len(orbit)))
        # field 3 is the parity of the value before, empty on the start
        assert [r[3] for r in records] == int_kinds(orbit)


def test_machine_trace_fields():
    lines = render_machine(sequence(bn(5), 10)).splitlines()
    assert lines[0] == "0,5,101,,"
    assert lines[1] == "1,16,10000,odd-step,"
    assert lines[2] == "2,8,1000,even-step,"
    truncated = render_machine(sequence(bn(27), 3)).splitlines()
    assert truncated[-1].endswith(",truncated")


def test_machine_rejects_odd_chain():
    # machine records cover traces and derivations only, not bare odd values
    with pytest.raises(DomainError):
        render_machine([bn(67), bn(101), bn(19)])


def test_machine_derivation_fields():
    lines = render_machine(derivation_trace(bn(67))).splitlines()
    assert len(lines) == 8
    _, decimal, _, kind, annotations = lines[0].split(",", 4)
    assert decimal == "67" and kind == "merge"
    assert annotations == "raw:7+6+2+1+1+0+0 after:7+6+3+1 shift:1"


def test_all_renderers_end_with_newline():
    trace = sequence(bn(7), 100)
    for blob in (
        render_table(derivation_trace(bn(7))),
        render_scratch(trace),
        render_points(trace),
        render_machine(trace),
    ):
        assert blob.endswith("\n") and not blob.endswith("\n\n")
