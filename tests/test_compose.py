"""Doubling-map composition paths and the binary tree view."""

import pytest
from hypothesis import given, strategies as st

from collatzbin import BinaryNat, CompositionPath, DomainError, Step
from collatzbin.compose import apply, decompose, f_inverse, tree_path

from conftest import bn


def test_step_string_roundtrip():
    p = CompositionPath.from_string("OEEO")
    assert str(p) == "OEEO"
    assert len(p) == 4
    assert list(p) == [Step.O, Step.E, Step.E, Step.O]


def test_from_string_rejects_other_letters():
    with pytest.raises(DomainError):
        CompositionPath.from_string("OXE")


def test_apply_reads_digits_after_leading_one():
    # 21 = 10101: steps E,O,E,O applied to 1
    assert apply(CompositionPath.from_string("EOEO")) == bn(21)
    assert apply(CompositionPath(())) == bn(1)


def test_decompose_examples():
    assert str(decompose(bn(21))) == "EOEO"
    assert str(decompose(bn(1))) == ""
    assert str(decompose(bn(97))) == "OEEEEO"  # 1100001


def test_roundtrip_exhaustive_small():
    for n in range(1, 1 << 10):
        v = bn(n)
        path = decompose(v)
        assert apply(path) == v
        assert len(path) == v.bit_length() - 1


@given(st.integers(min_value=1, max_value=10**30))
def test_roundtrip_property(n):
    v = bn(n)
    assert apply(decompose(v)) == v


@given(st.lists(st.sampled_from("OE"), max_size=80))
def test_path_roundtrip_property(letters):
    path = CompositionPath.from_string("".join(letters))
    assert decompose(apply(path)) == path


def test_f_inverse_drops_last_digit():
    assert f_inverse(bn(21)) == bn(10)
    assert f_inverse(bn(10)) == bn(5)
    with pytest.raises(DomainError):
        f_inverse(bn(1))


@given(st.integers(min_value=2, max_value=10**30))
def test_f_inverse_is_parent(n):
    v = bn(n)
    parent = f_inverse(v)
    assert parent.to_int() == (n >> 1)
    assert v in (parent.append_bit(0), parent.append_bit(1))


def test_tree_path_is_prefix_walk():
    walk = tree_path(bn(21))
    assert [v.to_int() for v in walk] == [1, 2, 5, 10, 21]
    assert tree_path(bn(1)) == [bn(1)]


def test_path_values_are_tree_walk():
    # the walk from the root follows f_inverse backwards
    v = bn(0b110110)
    walk = tree_path(v)
    for parent, child in zip(walk, walk[1:]):
        assert f_inverse(child) == parent
