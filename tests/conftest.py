import re

import hypothesis

from collatzbin import BinaryNat, derivation_trace, render_derivation

# bit-string walks are slow per-example compared to int arithmetic;
# the per-example deadline just causes flaky timeouts here
hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


def bn(n: int) -> BinaryNat:
    return BinaryNat.from_int(n)


def past_limit(template: str) -> str:
    """A regex for template's message with each {} a number past the int/str
    digit limit, named by its sign and bit length."""
    number = r"<(negative )?\d+-bit integer past the \d+-digit limit for int/str conversion>"
    return "^" + re.escape(template).replace(r"\{\}", number) + "$"


def int_orbit(n: int, cap: int) -> list[int]:
    # plain-int walk, one step at a time: the start, then one value per
    # step up to the first step that lands on 1, or cap steps
    values = [n]
    while len(values) <= cap:
        v = values[-1]
        values.append(3 * v + 1 if v & 1 else v >> 1)
        if values[-1] == 1:
            break
    return values


def exponents(text: str) -> tuple[int, ...]:
    # "{7,6,3,1}" -> (7, 6, 3, 1)
    return tuple(int(e) for e in text.strip("{}").split(","))


def derivation_rows(text: str) -> list[tuple]:
    """(value, before, raw, after, shift, next) per line of `decompose` text."""
    rows = []
    for line in text.splitlines():
        value, rest = line.split(" = ")
        before, raw, after, shift, nxt = rest.split(" -> ")
        rows.append((int(value), exponents(before), exponents(raw), exponents(after),
                     int(shift.removeprefix("shift ")), int(nxt)))
    return rows


def derivation_lines(n: int) -> list[tuple]:
    return derivation_rows(render_derivation(derivation_trace(bn(n))))
