"""Doubling-map composition paths and the binary tree view."""

from hypothesis import given, strategies as st

from collatzbin import BinaryNat, Step
from collatzbin.compose import decompose, tree_path

from conftest import bn


def letters_of(bits):
    # an O step records a 1 digit after the leading 1, an E step a 0 digit
    return "".join("O" if c == "1" else "E" for c in bits[1:])


def test_step_string_roundtrip():
    p = decompose(bn(0b11001))
    assert str(p) == "OEEO"
    assert len(p) == 4
    assert list(p) == [Step.O, Step.E, Step.E, Step.O]


def test_apply_reads_digits_after_leading_one():
    # 21 = 10101: steps E,O,E,O applied to 1
    n = bn(1)
    for step in decompose(bn(21)):
        n = n.append_bit(1 if step is Step.O else 0)
    assert n == bn(21)
    assert len(decompose(bn(1))) == 0


def test_decompose_examples():
    assert str(decompose(bn(21))) == "EOEO"
    assert str(decompose(bn(1))) == ""
    assert str(decompose(bn(97))) == "OEEEEO"  # 1100001


def test_roundtrip_exhaustive_small():
    for n in range(1, 1 << 10):
        v = bn(n)
        path = decompose(v)
        assert str(path) == letters_of(v.bits)
        assert len(path) == v.bit_length() - 1


@given(st.integers(min_value=1, max_value=10**30))
def test_roundtrip_property(n):
    v = bn(n)
    walk = tree_path(v)
    assert walk[0] == bn(1) and walk[-1] == v
    for parent, child, step in zip(walk[:-1], walk[1:], decompose(v), strict=True):
        assert child == parent.append_bit(1 if step is Step.O else 0)


@given(st.lists(st.sampled_from("OE"), max_size=80))
def test_path_roundtrip_property(letters):
    bits = "1" + "".join("1" if c == "O" else "0" for c in letters)
    assert str(decompose(BinaryNat(bits))) == "".join(letters)


@given(st.integers(min_value=2, max_value=10**30))
def test_f_inverse_is_parent(n):
    # f^{-1} drops the last digit: the tree parent is the walk's next-to-last entry
    v = bn(n)
    parent = tree_path(v)[-2]
    assert parent.to_int() == (n >> 1)
    assert v in (parent.append_bit(0), parent.append_bit(1))


def test_tree_path_is_prefix_walk():
    walk = tree_path(bn(21))
    assert [v.to_int() for v in walk] == [1, 2, 5, 10, 21]
    assert tree_path(bn(1)) == [bn(1)]


@given(st.integers(min_value=2, max_value=10**30))
def test_path_values_are_tree_walk(n):
    # each parent is its child with the last digit dropped
    walk = tree_path(bn(n))
    assert [v.to_int() for v in walk] == [n >> i for i in range(n.bit_length() - 1, -1, -1)]
    for parent, child in zip(walk, walk[1:]):
        assert child in (parent.append_bit(0), parent.append_bit(1))
