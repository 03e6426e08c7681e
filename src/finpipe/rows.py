"""The row formatter: the text of a typed table's rows, made from their columns.

``format_rows`` takes a block's columns as ``table.write_rows`` gives them,
one per dtype: ``np.int64``, ``float``, or text as (codes, names). Each cell
is laid out in a fixed-width row of bytes, padded with _PAD, a byte UTF-8
text never holds; the cells of a row are put side by side with their
separators and the pads dropped, in one pass. The cells of a kind are made
_CHUNK at a time, all of a row's floats at once, so the working set does not
grow with the block.

An int is written as ``str`` writes it, by 4-digit groups of _GROUPS; a text
cell is gathered from a table of its column's names. A float is written as
``repr`` writes it: Ryu's shortest digits (U. Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), made over whole arrays with int64
limb arithmetic, and laid out by repr's rules, fixed notation for
-4 < decpt <= 16 with ".0" on an integral value, else d.ddde+XX. Zero is
laid out as 0 * 10**0. A float outside the kernel's domain (a subnormal,
|x| >= 2**53, not finite) is written by ``repr`` alone, one cell at a time.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby
from typing import Sequence

import numpy as np

from .table import carried

_PAD = 0xFF
_CHUNK = 2048  # cells of a kind formatted at once: bounds the formatter's working set
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_UPOW10 = 10 ** np.arange(20, dtype=np.uint64)


def _pow5_table() -> tuple[np.ndarray, np.ndarray]:
    """Ryu's factors: the four 32-bit limbs of the 125 leading bits of 5**i
    (DOUBLE_POW5_SPLIT), one column per i; and, one column per biased exponent of a
    double, i, the shift s in 96 + s = j, the decimal exponent e10 of vr, vp and vm, q
    (63 for any larger) and whether the exponent is in the kernel's domain. One outside
    it gets 1.0's factors."""
    b = np.arange(2048, dtype=np.int16)
    ne = 1077 - np.where((b >= 1) & (b <= 1075), b, 1023)  # -e2
    q = (ne.astype(np.int32) * 732923 >> 20).astype(np.int16) - 1  # log10Pow5(-e2) - 1
    i = ne - q
    s = q - ((i.astype(np.int32) * 1217359 >> 19) + 1 - 125) - 96  # j - 96
    split, power = [], 1
    for _ in range(int(i.max()) + 1):
        size = power.bit_length()
        split.append(power >> (size - 125) if size >= 125 else power << (125 - size))
        power *= 5
    limbs = np.array([[p >> 32 * k & 0xFFFFFFFF for p in split] for k in range(4)], np.int64)
    return limbs, np.vstack([i, s, q - ne, np.minimum(q, 63), (b >= 1) & (b <= 1075)])


_LIMBS, _RYU = _pow5_table()


def _group_table() -> tuple[np.ndarray, np.ndarray]:
    """The text of 4-digit groups as uint32, and where each kind of group starts in it,
    by kind: zero-padded; with only its last 1, 2 or 3 digits (of a group below 10**r),
    the others _PAD; with its leading zeros _PAD (0 as "0"); all _PAD (of a group of 0).
    A number is written by groups: those below its leading one zero-padded, the leading
    one without its leading zeros, those above it all _PAD."""
    value, text = np.arange(10000, dtype=np.uint16), np.empty((10000, 4), np.uint8)
    for k in range(3, -1, -1):
        text[:, k] = value % 10 + ord("0")
        value //= 10
    lead = text.copy()
    lead[:, :3][np.logical_and.accumulate(text[:, :3] == ord("0"), axis=1)] = _PAD
    last = [text[: 10**r].copy() for r in (1, 2, 3)]
    for r, kind in zip((1, 2, 3), last):
        kind[:, : 4 - r] = _PAD
    kinds = [text, *last, lead, np.full((1, 4), _PAD, np.uint8)]
    starts = np.cumsum([0] + [len(kind) for kind in kinds[:-1]])
    return np.concatenate(kinds).view(np.uint32).reshape(-1), starts


_GROUPS, _KINDS = _group_table()


def _exponent_table() -> np.ndarray:
    """repr's exponent of a float, "e-05" to "e+308", at row 401 + the exponent, padded
    to 5 bytes with _PAD."""
    exponent = np.arange(-401, 400)
    table = np.full((801, 5), _PAD, np.uint8)
    table[:, 0] = ord("e")
    table[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    table[:, 2:] = _GROUPS[np.abs(exponent)].view(np.uint8).reshape(-1, 4)[:, 1:]
    table[np.abs(exponent) < 100, 2] = _PAD
    return table


_EXPONENTS = _exponent_table()


@cache
def _offsets(k_int: int, k_frac: int) -> np.ndarray:
    """Where in _GROUPS each group of a number's text is taken from: its k_int integral
    groups and then its k_frac fractional ones, each highest first, by row 22 * c + f for
    c integral digits, aligned right, and f fractional ones, aligned right."""
    count, f = np.arange(21)[:, None, None], np.arange(22)[None, :, None]
    at, lead = np.arange(k_int)[::-1], (count - 1) // 4
    integral = 4 * (at >= lead) + (at > lead)  # below the leading group, in it, above it
    at, last = np.arange(k_frac)[::-1], (f - 1) // 4  # the group of the first one
    fraction = (at == last) * ((f - 4 * last) % 4) + 5 * (at > last)
    kinds = np.concatenate([np.broadcast_to(integral, (21, 22, k_int)),
                            np.broadcast_to(fraction, (21, 22, k_frac))], axis=2)
    return _KINDS.astype(np.int32)[kinds].reshape(21 * 22, -1)


def _text_groups(parts: Sequence[tuple[np.ndarray, int]], offsets: np.ndarray) -> np.ndarray:
    """(n, 4k) uint8: the text of the k lowest 4-digit groups of each part, (values, k),
    the highest first, each group of the kind of _GROUPS that ``offsets`` (n, k) gives."""
    groups = np.empty(offsets.shape, np.int32)
    end = 0
    for values, k in parts:
        end += k
        for j in range(end - 1, end - k - 1, -1):
            rest = values // 10000
            np.subtract(values, rest * 10000, out=groups[:, j])
            values = rest
    groups += offsets
    return _GROUPS.take(groups).view(np.uint8)


def format_rows(columns: Sequence, dtypes: Sequence) -> tuple[bytes, bool]:
    """The text of a block's rows, made from its columns as ``table.write_rows`` takes
    them, and whether every text cell is one a plain file carries as itself
    (``table.carried``)."""
    n = len(columns[0][0] if dtypes[0] is None else columns[0])
    floats = [j for j, dtype in enumerate(dtypes) if dtype is float]
    runs = {}  # the first column of each run of neighbouring float columns: its cells
    for _, run in groupby(enumerate(floats), lambda kj: kj[1] - kj[0]):
        run = list(run)
        runs[run[0][1]] = slice(run[0][0], run[-1][0] + 1)
    step = max(1, _CHUNK // max(len(floats), 1))
    tables = {j: _names(columns[j][1]) for j, dtype in enumerate(dtypes) if dtype is None}
    parts = []
    for start in range(0, n, step):
        stop = min(start + step, n)
        if floats:  # all of a row's floats at once
            cells = np.column_stack([columns[j][start:stop] for j in floats]).reshape(-1)
            cells = _float_cells(cells).reshape(stop - start, len(floats), -1)
        pieces = []
        for j, dtype in enumerate(dtypes):
            if j in runs:
                pieces.append(cells[:, runs[j]].reshape(stop - start, -1))
            elif dtype is None:
                pieces.append(tables[j][0].take(columns[j][0][start:stop], axis=0))
            elif dtype is not float:
                pieces.append(_int_cells(np.asarray(columns[j][start:stop], np.int64)))
        rows = np.concatenate(pieces, axis=1)
        rows[:, -1] = ord("\n")
        parts.append(rows.tobytes().translate(None, b"\xff"))
    return b"".join(parts), all(carried for _, carried in tables.values())


def _names(names: Sequence[str]) -> tuple[np.ndarray, bool]:
    """The cells ``names`` as rows of bytes padded with _PAD, each followed by a ',',
    and whether every name is one a plain file carries (``carried``)."""
    encoded = [name.encode() for name in names]
    sizes = np.fromiter(map(len, encoded), np.int64, len(encoded))
    width = int(sizes.max(initial=0))
    table = np.array(encoded, f"S{width + 1}").view(np.uint8).reshape(len(encoded), width + 1)
    table[np.arange(width + 1) >= sizes[:, None]] = _PAD
    table[:, width] = ord(",")
    return table, all(map(carried, names))


def _int_cells(values: np.ndarray) -> np.ndarray:
    """Each int as ``str`` writes it, then a ','; _PAD between its sign and digits."""
    if len(values) and 0 <= values.min() and values.max() < 10000:  # one group, no sign
        width = len(str(values.max()))
        text = _GROUPS.take(values + _KINDS[4]).view(np.uint8).reshape(-1, 4)
        cells = np.empty((len(values), width + 1), np.uint8)
        cells[:, :width] = text[:, 4 - width :]
        cells[:, width] = ord(",")
        return cells
    magnitude = np.abs(values).view(np.uint64)  # -2**63 is its own negative: 2**63 as uint64
    count = np.searchsorted(_UPOW10, magnitude, "right").clip(1)
    width = int(count.max(initial=1))
    k = -(-width // 4)
    text = _text_groups([(magnitude, k)], _offsets(k, 0).take(22 * count, axis=0))
    cells = np.empty((len(values), width + 2), np.uint8)
    cells[:, 0] = np.where(values < 0, ord("-"), _PAD)
    cells[:, 1 : width + 1] = text[:, 4 * k - width :]
    cells[:, -1] = ord(",")
    return cells


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ryu's d2d over an array: (digits, exponent, fallen) with |x| = digits * 10**exponent,
    digits the shortest that reads back as x, the closest to it of those, ties to even;
    ``fallen`` marks the lanes the kernel does not cover, whose digits mean nothing.

    vr, vp and vm are floor((4*m2 + c) * 5**i / 2**j) for c = 0, 2 and -1 - mmShift,
    from 32-bit columns. Their interval is 30 to 400 wide, so it holds a multiple of
    10**k, k = 1 or 2, and at most one of 10**(k + 1); removing k + 1 digits where it
    does, else k, gives Ryu's output up to trailing zeros, which ``_strip`` drops.
    """
    bits = x.view(np.int64)
    biased = (bits >> 52) & 0x7FF
    ryu = _RYU.take(biased, axis=1).astype(np.int64)
    limbs = _LIMBS.take(ryu[0], axis=1)
    m2 = bits & ((1 << 52) - 1)
    shift = (m2 != 0) | (biased <= 1)  # mmShift
    m2 |= 1 << 52
    m4 = m2 << 2  # < 2**55
    low, high = (m4 & 0xFFFFFFFF).view(np.uint64), m4 >> 32
    v = np.empty((3, len(x)), np.int64)  # the columns of vr, vp and vm, low to high
    for k in range(4):  # column k of 4 * m2 * 5**i: low halves of limb k's products, and
        product = low * limbs[k].view(np.uint64)  # the high ones of limb k - 1's
        column = (product & 0xFFFFFFFF).view(np.int64)
        if k:
            column += carry
            v >>= 32
            v += column
        else:
            v[:] = column
        product >>= np.uint64(32)
        carry = product.view(np.int64)
        carry += high * limbs[k]  # < 2**55
        v[1] += limbs[k]
        v[1] += limbs[k]
        v[2] -= limbs[k]
        np.subtract(v[2], limbs[k], out=v[2], where=shift)
    v >>= ryu[1]  # the columns from the fourth up, shifted right by j = 96 + s
    carry <<= 32 - ryu[1]
    v += carry
    del limbs, low, high, product, column, carry
    vr, vp, vm = v
    # Ryu's q <= 1 steps (vp -= 1 for an odd m2, vmIsTrailingZeros) change nothing: q <= 1
    # only for |x| in [2**50, 2**53), where vr is 1000x, 100x, 100x on its three binades and
    # vp - vr = vr - vm = 125, 25, 50 (mmShift 1). So vm ends in 125/375/625/875 or 25/75, or
    # is 50 mod 100 with k = 2: never a multiple of 10**k. vp - 1 keeps k (widths 249, 49) and
    # vp // p (vp ends in 5); for an odd x >= 2**52 it gives k = 1 + 1 where none gives 2 + 0,
    # as 100x is a multiple of 100 in (vm, vp - 1] and no multiple of 1000 is in (vm, vp].
    k = 1 + (vp - vm >= 100)
    p = _POW10.take(k + 1)
    k += vp // p * p > vm
    p = _POW10.take(k)
    digits, bound = vr // p, vm // p
    rest = vr - digits * p
    half = p >> 1
    up = (rest > half) | (digits == bound)
    tie = np.flatnonzero(rest == half)
    if len(tie):  # vrIsTrailingZeros: a tie goes to the even digits
        low = (1 << ryu[3, tie]) - 1  # the low q bits; all but the sign's for 63
        up[tie] |= (m4[tie] & low != 0) | (digits[tie] & 1 == 1)
    digits += up
    k += ryu[2]
    return digits, k, ryu[4] == 0


def _strip(digits: np.ndarray, exponent: np.ndarray) -> None:
    """Drop the trailing decimal zeros of ``digits``, in place, counting them in ``exponent``."""
    at = np.flatnonzero(digits % 10 == 0)
    if not len(at):
        return
    some, power = digits[at], exponent[at]
    for k in (8, 4, 2, 1):
        rest = some // _POW10[k]
        whole = rest * _POW10[k] == some
        np.copyto(some, rest, where=whole)
        np.add(power, k, out=power, where=whole)
    digits[at], exponent[at] = some, power


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Each float as repr writes it, then a ','; _PAD between its parts.

    A cell holds a sign byte, the integral digits aligned right, a dot, the f
    fractional digits aligned right, and an exponent: repr's fixed notation
    where -4 < decpt <= 16 (an integral value gets ".0"), else d.ddd and an
    exponent of two or three digits. Zero is written as 0 * 10**0.
    """
    digits, exponent, fallen = _shortest(x)
    _strip(digits, exponent)
    zero = np.flatnonzero(x == 0)
    if len(zero):
        digits[zero] = exponent[zero] = fallen[zero] = 0
    count = np.searchsorted(_POW10, digits, "right")
    decpt = exponent + count
    fixed = (decpt > -4) & (decpt <= 16)
    whole = fixed & (exponent >= 0)
    f = np.where(fixed, np.where(whole, 1, -exponent), count - 1)
    power = _POW10.take(f.clip(max=18))  # digits < 10**18: no integral digits past it
    integral = digits // power
    fraction = digits - integral * power
    whole = np.flatnonzero(whole)
    if len(whole):
        integral[whole] = digits[whole] * _POW10.take(exponent[whole])
        fraction[whole] = 0
    count = np.where(fixed, np.maximum(decpt, 1), 1)  # integral digits
    del digits, exponent, power, whole
    widths = int(count.max(initial=1)), int(f.max(initial=0))
    fallen = np.flatnonzero(fallen)
    if len(fallen):
        widths = widths[0], max(widths[1], 24)
    k = -(-widths[0] // 4), -(-widths[1] // 4)
    text = _text_groups([(integral, k[0]), (fraction, k[1])],
                        _offsets(*k).take(22 * count + f, axis=0))
    scientific = np.flatnonzero(~fixed)
    width = 2 + sum(widths) + (5 if len(scientific) else 0)
    cells = np.empty((len(x), width + 1), np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), _PAD)
    cells[:, 1 : 1 + widths[0]] = text[:, 4 * k[0] - widths[0] : 4 * k[0]]
    cells[:, 1 + widths[0]] = ord(".")
    cells[:, 2 + widths[0] : 2 + sum(widths)] = text[:, 4 * sum(k) - widths[1] :]
    if len(scientific):
        cells[scientific[f[scientific] == 0], 1 + widths[0]] = _PAD  # one digit: no dot
        cells[:, 2 + sum(widths) : width] = _PAD
        cells[scientific, 2 + sum(widths) : width] = _EXPONENTS.take(decpt[scientific] + 400,
                                                                     axis=0)
    for i in fallen.tolist():
        text = repr(float(x[i])).encode()
        cells[i, :width] = _PAD
        cells[i, : len(text)] = np.frombuffer(text, np.uint8)
    cells[:, width] = ord(",")
    return cells
