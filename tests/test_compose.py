"""Doubling-map composition paths and the binary tree view."""

from hypothesis import given, strategies as st

from collatzbin import BinaryNat
from collatzbin.compose import decompose, tree_path

from conftest import bn


def letters_of(bits):
    # an O step records a 1 digit after the leading 1, an E step a 0 digit
    return "".join("O" if c == "1" else "E" for c in bits[1:])


def apply(letter, x):
    # O(x) = 2x + 1, E(x) = 2x
    return 2 * x + (letter == "O")


def test_step_string_roundtrip():
    p = decompose(bn(0b11001))
    assert type(p) is str and p == "OEEO"
    assert len(p) == 4
    assert list(p) == ["O", "E", "E", "O"]


def test_apply_reads_digits_after_leading_one():
    # 21 = 10101: steps E,O,E,O applied to 1
    n = 1
    for step in decompose(bn(21)):
        n = 2 * n + (1 if step == "O" else 0)
    assert n == 21
    assert len(decompose(bn(1))) == 0


def test_decompose_examples():
    assert decompose(bn(21)) == "EOEO"
    assert decompose(bn(1)) == ""
    assert decompose(bn(97)) == "OEEEEO"  # 1100001


def test_roundtrip_exhaustive_small():
    for n in range(1, 1 << 10):
        v = bn(n)
        path = decompose(v)
        assert path == letters_of(v.bits)
        assert len(path) == v.to_int().bit_length() - 1


@given(st.integers(min_value=1, max_value=10**30))
def test_roundtrip_property(n):
    v = bn(n)
    walk = tree_path(v)
    assert walk[0] == 1 and walk[-1] == n
    for parent, child, step in zip(walk[:-1], walk[1:], decompose(v), strict=True):
        assert child == apply(step, parent)


@given(st.lists(st.sampled_from("OE"), max_size=80))
def test_path_roundtrip_property(letters):
    bits = "1" + "".join("1" if c == "O" else "0" for c in letters)
    assert decompose(BinaryNat(bits)) == "".join(letters)


@given(st.integers(min_value=2, max_value=10**30))
def test_f_inverse_is_parent(n):
    # f^{-1} drops the last digit: the tree parent is the walk's next-to-last entry
    parent = tree_path(bn(n))[-2]
    assert parent == n >> 1
    assert n in (apply("E", parent), apply("O", parent))


def test_tree_path_is_prefix_walk():
    assert tree_path(bn(21)) == [1, 2, 5, 10, 21]
    assert tree_path(bn(1)) == [1]


@given(st.integers(min_value=2, max_value=10**30))
def test_path_values_are_tree_walk(n):
    # each parent is its child with the last digit dropped
    walk = tree_path(bn(n))
    assert all(type(v) is int for v in walk)
    assert walk == [n >> i for i in range(n.bit_length() - 1, -1, -1)]
    for parent, child in zip(walk, walk[1:]):
        assert child in (2 * parent, 2 * parent + 1)
