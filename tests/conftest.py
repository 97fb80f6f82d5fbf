import hypothesis

from collatzbin import BinaryNat, derivation_trace, render_derivation

# bit-string walks are slow per-example compared to int arithmetic;
# the per-example deadline just causes flaky timeouts here
hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


def bn(n: int) -> BinaryNat:
    return BinaryNat.from_int(n)


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
