"""The text of the trace CSV's rows, with floats formatted in bulk.

g_cells gives '%.12g' % v or '%.16g' % v for every float of an array, with a
precision per value, the same bytes as Python's '%' operator, from a few
dozen array operations in place of one '%' call per value.
simulation.trace_to_csv writes its rows through csv_rows, with the tails of
flag_tails.
"""

import math

import numpy as np


def csv_rows(trace, rows: slice, flags: tuple) -> bytearray:
    """The CSV rows of a SimTrace's rows, each a row of cells joined by commas.

    flags is flag_tails of the run's depths, which end the rows; a row of
    another depth is looked up in a table of the block's own.

    Every float of the rows is formatted in one g_cells call: t to 12
    digits, x, u and V to 16.  u is held over each controller period, so
    most rows repeat the one before: its cells are formatted once per run
    of equal rows.  Rows compare by their bits: -0.0 equals 0.0 as a float
    but prints as -0, and a NaN equals no float, not even itself.

    The cells go straight into one buffer of rows, each column as wide as
    its longest text, and the NULs that pad the shorter texts are deleted
    at the end.  A cell is copied whole, its NULs running into the next
    column, which is written after it; each row is long enough to hold the
    last column's cells whole.  The buffer is a bytearray, which the NULs
    are deleted from without a copy of it as bytes.
    """
    times, x, u, V = trace.times[rows], trace.x[rows], trace.u[rows], trace.V[rows]
    count, n = x.shape
    m = u.shape[1]
    bits = u.view(np.int64)
    changed = bits[1:] != bits[:-1]
    starts = np.zeros(count, dtype=bool)
    starts[0] = True
    for j in range(m):
        starts[1:] |= changed[:, j]
    held = u[starts]
    precision = np.full(count * (n + 2) + held.size, 16, dtype=np.int8)
    precision[:count] = 12
    cells, lengths = g_cells(np.concatenate([times, x.ravel(), V, held.ravel()]),
                             precision)
    # the cells of t, x1..xn, u1..um and V, in the order of the rows
    run = (np.cumsum(starts) - 1) * m + count * (n + 2)
    columns = (
        [slice(0, count)]
        + [slice(count + j, count * (n + 1), n) for j in range(n)]
        + [run + j for j in range(m)]
        + [slice(count * (n + 1), count * (n + 2))]
    )
    widths = [lengths[column].max() for column in columns]
    code = (trace.buffer_depth[rows] * 8 + trace.dos_active[rows] * 4
            + trace.attempt[rows] * 2 + trace.success[rows])
    codes, tails = flags
    tail_index = codes.searchsorted(code)
    if not np.array_equal(codes.take(tail_index, mode="clip"), code):
        # a depth that is not among the run's: these rows get their own table
        codes, tails = flag_tails(code >> 3)
        tail_index = codes.searchsorted(code)
    last = sum(widths) - widths[-1] + len(widths) - 1
    width = max(last + widths[-1] + tails.itemsize, last + CELL)
    text = bytearray(count * width)
    out = np.frombuffer(text, dtype=np.uint8)
    cells = cells.view(f"V{CELL}")[:, 0]
    at = 0
    for column, column_width in zip(columns, widths):
        if at:
            out[at - 1 :: width] = ord(",")
        np.ndarray(count, cells.dtype, out, at, width)[...] = cells[column]
        at += column_width + 1
    np.ndarray(count, tails.dtype, out, at - 1, width)[...] = tails[tail_index]
    return text.translate(None, b"\0")


# The bulk '%.<P>g' formatter.  A cell is CELL bytes: its text, then NULs.
# Cells are built as three 64-bit words whose little-endian bytes are these:
# the sign and the "0.000" lead of a fixed-notation value below 1, the
# digits with the point among them, and the exponent.  A numpy shift of a
# 64-bit word by 64 bits or more gives 0, which drops a part that lies in
# another word.
CELL = 24
# Cells of magnitude in [1 / _RANGE, _RANGE) are scaled in bulk; +-0, inf
# and NaN come from a table, and the other finite ones from percent_cells.
_RANGE = 1e290
# Every decade e of such a cell, and one more either way.
_DECADES = np.arange(-292, 292)
# Bounds the error of the offset that decimal_digits rounds (see there).
_TOL = 2.0**-44
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)
_SPLIT = 2.0**27 + 1


def _powers_of_ten(low: int, high: int) -> np.ndarray:
    """Rows hi, big, small, lo with 10^k = hi + lo and hi = big + small, for
    low <= k < high.

    hi is 10^k rounded to the nearest double and lo the rest, 10^k - hi,
    rounded, both from exact Python integers: int / int and float(int)
    round to nearest, and 10^-j - hi = (1 - a 2^-s 10^j) 10^-j for hi =
    a 2^-s is rounded once, scaled by 2^-s exactly.  big holds the leading
    26 bits of hi and small the rest, Veltkamp's split for Dekker's product
    (on hi 2^-60, so that it cannot overflow).
    """
    powers = [1]
    for _ in range(max(high, -low)):
        powers.append(powers[-1] * 10)
    hi, lo = [], []
    for k in range(low, high):
        exact = powers[abs(k)]
        if k >= 0:
            power = float(exact)
            rest = float(exact - int(power))
        else:
            power = 1 / exact
            fraction, exponent = math.frexp(power)
            shift = 53 - exponent
            a = int(fraction * 2.0**53)
            rest = math.ldexp(((1 << shift) - a * exact) / exact, -shift)
        hi.append(power)
        lo.append(rest)
    hi = np.array(hi)
    scaled = hi * 2.0**-60
    big = _SPLIT * scaled
    big = (big - (big - scaled)) * 2.0**60
    return np.stack([hi, big, hi - big, np.array(lo)])


# 10^k for every k = P - 1 - e that a cell of P = 12 or 16 digits scales by
_K_LOW = 11 - _DECADES[-1]
_TENS = _powers_of_ten(_K_LOW, 16 - _DECADES[0])


def _words(texts, count: int = 1) -> np.ndarray:
    """Byte strings as rows of count 64-bit words, NULs padding each to
    8 count bytes: byte j of a text is byte j % 8 of word j // 8, in
    little-endian order."""
    data = b"".join(text.ljust(8 * count, b"\0") for text in texts)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(-1, count)


# The four ASCII digits of every chunk 0..9999 as one word, the leading
# digit in byte 0: each axis of the grid is one digit, the leading one first.
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
_CHUNK = (
    _ASCII[:, None, None, None] | _ASCII[:, None, None] << np.uint64(8)
    | _ASCII[:, None] << np.uint64(16) | _ASCII << np.uint64(24)
).ravel()
_ZEROS = _words([b"0" * 8])[0, 0]
# For i = 0..16: the masks of digits 0..i of the two words of 16 digits, and
# the point that follows digit i, one byte on (16: every digit, no point).
_PREFIX_LOW, _PREFIX_HIGH = _words([b"\xff" * min(i + 1, 16) for i in range(17)], 2).T
_POINT_LOW, _POINT_HIGH = _words(
    [b"\0" * (i + 1) + b"." for i in range(15)] + [b"", b""], 2).T
# 2 (e - _DECADES[0]) + negative: the sign, then the lead of a
# fixed-notation value of decade e = -4..-1; and the head's length
_LEADS = {2 * (e - _DECADES[0]) + sign: b"-" * sign + b"0." + b"0" * (-1 - e)
          for e in range(-4, 0) for sign in (0, 1)}
_HEAD = np.tile(_words([b"", b"-"])[:, 0], len(_DECADES))
_HEAD[list(_LEADS)] = _words(_LEADS.values())[:, 0]
_HEAD_LEN = np.tile([0, 1], len(_DECADES))
_HEAD_LEN[list(_LEADS)] = [len(head) for head in _LEADS.values()]
# e - _DECADES[0]: the exponent of decade e, and its length
_EXPONENTS = [b"e%+03d" % e for e in _DECADES.tolist()]
_EXPONENT = _words(_EXPONENTS)[:, 0]
_EXPONENT_LEN = np.array([len(text) for text in _EXPONENTS])


def _rounded(mag: np.ndarray, k: np.ndarray) -> tuple:
    """The integer nearest y = mag 10^k, and y less that integer.

    mag hi is Dekker's exact product y1 + y2 of the split factors, with
    10^k = hi + lo from _TENS; the offset is (y1 - rint(y1)) + (y2 + mag lo),
    so that y need not fit in a double.
    """
    k = k - _K_LOW
    mag_big = _SPLIT * mag
    mag_big -= mag_big - mag
    mag_small = mag - mag_big
    big, small = np.take(_TENS[1], k), np.take(_TENS[2], k)
    y = mag * np.take(_TENS[0], k)
    err = mag_big * big
    err -= y
    mag_big *= small
    err += mag_big
    big *= mag_small
    err += big
    small *= mag_small
    err += small
    del mag_big, mag_small, big, small
    err += mag * np.take(_TENS[3], k)
    near = np.rint(y)
    y -= near
    y += err
    del err
    step = np.rint(y)
    y -= step
    near = near.astype(np.int64)
    near += step.astype(np.int64)
    return near, y


@np.errstate(divide="ignore")
def decimal_digits(v: np.ndarray, p: np.ndarray) -> tuple:
    """The p significant digits and the decade printf gives each of v.

    p is 12 or 16 per value.  Returns (digits, e, exact): digits the p
    digits as an integer in [10^15, 10^16), followed by 16 - p zeros, and e
    the decade of the rounded value, both exact where exact holds.

    Each |v| is scaled to y = |v| 10^(p - 1 - e) and rounded, all in
    doubles, e from floor(log10 |v|) and moved by one where the rounded y
    falls outside [10^(p-1), 10^p]; y within 1/2 under 10^p rounds to 10^p,
    the next decade's 10^(p-1), as printf does.  10^k = hi + lo within
    2^-106 10^k (hi and lo are 10^k and the rest, each rounded; checked in
    the tests).  |v| hi is exact as Dekker's product, |v| lo is rounded once
    and added to the product's error term with one more rounding, so y is
    known within 2^-106 y + 2^-106 y + 2^-105 y = 2^-104 y.  The offset from
    the nearest integer, under 4 in size, is rounded once more, by at most
    2^-51.  With y < 10^16 < 2^54 the offset is therefore within 2^-50 +
    2^-51 < 2^-49 of the exact one, a 32nd of tol = 2^-44, and the digits
    and decade are exact when the offset lies more than tol from 1/2 either
    way.  exact fails there, and for |v| outside [1 / _RANGE, _RANGE), where
    the scaling could leave the normal doubles: so also for +-0, inf and NaN.
    """
    mag = np.abs(v)
    inside = (mag >= 1.0 / _RANGE) & (mag < _RANGE)
    np.copyto(mag, 1.0, where=~inside)
    e = np.floor(np.log10(mag)).astype(np.intp)
    digits, off = _rounded(mag, p - 1 - e)
    exact = np.abs(off) <= 0.5 - _TOL
    exact &= inside
    digits *= np.take(_POW10_INT, 16 - p)
    edge = np.flatnonzero((digits <= 10**15) | (digits >= 10**16))
    if len(edge):
        # at a decade's edge: y past it belongs to the next decade
        d, off, p = digits[edge], off[edge], p[edge]
        up, down = d > 10**16, (d < 10**15) | ((d == 10**15) & (off < 0))
        e[edge] += up.astype(np.intp) - down
        redo = np.flatnonzero(up | down)
        d[redo], off[redo] = _rounded(mag[edge[redo]], p[redo] - 1 - e[edge[redo]])
        d[redo] *= np.take(_POW10_INT, 16 - p[redo])
        exact[edge] &= ((np.abs(off) <= 0.5 - _TOL) & (d <= 10**16)
                        & ((d > 10**15) | (off >= 0)))
        carry = d == 10**16
        e[edge] += carry
        digits[edge] = np.where(carry | ~exact[edge], 10**15, d)
    return digits, e, exact


def g_cells(v: np.ndarray, p: np.ndarray) -> tuple:
    """'%.<p>g' % v for every v of a float array as (cells, lengths).

    p holds the precision of each value, 12 or 16.  cells is (len, CELL)
    bytes, each cell its text and NULs after it; lengths is the length of
    each text.  Digits and decades come from decimal_digits; of the cells
    it cannot vouch for, +-0, +-inf and NaN come from a table and the rest
    from percent_cells.
    """
    digits, e, exact = decimal_digits(v, p)
    # the digits as two words of ASCII: four chunks of four digits, the
    # leading one first
    top = digits // 10**8
    digits -= top * 10**8
    chunk = top // 10**4
    top -= chunk * 10**4
    d0 = np.take(_CHUNK, chunk) | np.take(_CHUNK, top) << 32
    np.floor_divide(digits, 10**4, out=chunk)
    digits -= chunk * 10**4
    d1 = np.take(_CHUNK, chunk) | np.take(_CHUNK, digits) << 32
    del digits, top, chunk
    # The last digit that is not a zero: the top nonzero byte of the digits
    # less "0", from the exponent of their value as a double, which rounding
    # cannot carry to the next byte (each byte is at most 9).
    last = (d1 ^ _ZEROS).astype(float)
    last *= 2.0**64
    last += (d0 ^ _ZEROS).astype(float)
    last = ((last.view(np.int64) >> 52) - 1023) >> 3

    # Fixed notation for -4 <= e < p, else d[.ddd]e+-XX; trailing zeros of
    # the fraction go, and the point with them.  Digits 0..keep print, and
    # the point follows digit e (fixed) or 0 (exponent) when any follow it.
    fixed = (e >= -4) & (e < p)
    point = e * fixed
    keep = np.maximum(last, point)
    split = np.where(point.view(np.uint64) < keep.view(np.uint64), point, 16)
    del last, point
    d0 &= np.take(_PREFIX_LOW, keep)
    d1 &= np.take(_PREFIX_HIGH, keep)
    # the digits: 0..split, the point, the rest one byte further on
    m0 = d0 & np.take(_PREFIX_LOW, split)
    m1 = d1 & np.take(_PREFIX_HIGH, split)
    d0 ^= m0
    d1 ^= m1
    m0 |= np.take(_POINT_LOW, split)
    m0 |= d0 << 8
    m1 |= np.take(_POINT_HIGH, split)
    m1 |= d0 >> 56
    m1 |= d1 << 8
    d1 >>= 56
    del d0
    # behind the head
    head = 2 * (e - _DECADES[0]) + (v < 0)
    lengths = np.take(_HEAD_LEN, head)
    at = (lengths * 8).view(np.uint64)
    words = np.empty((len(v), 3), dtype=np.uint64)
    np.bitwise_or(np.take(_HEAD, head), m0 << at, out=words[:, 0])
    np.bitwise_or(m0 >> 64 - at, m1 << at, out=words[:, 1])
    np.bitwise_or(m1 >> 64 - at, d1 << at, out=words[:, 2])
    del head, at, m0, m1, d1
    lengths += keep + 1 + (split < 16)
    del keep, split
    # the exponent behind the digits
    rows = np.flatnonzero(~fixed)
    decade = e[rows] - _DECADES[0]
    text = np.take(_EXPONENT, decade)
    at = (lengths[rows] * 8).view(np.uint64)
    shifted = words[rows]
    shifted[:, 0] |= text << at
    shifted[:, 1] |= text << at - 64 | text >> 64 - at
    shifted[:, 2] |= text << at - 128 | text >> 128 - at
    words[rows] = shifted
    lengths[rows] += np.take(_EXPONENT_LEN, decade)
    cells = words.astype("<u8", copy=False).view(np.uint8)
    rows = np.flatnonzero(~exact)
    if len(rows):
        # +-0, +-inf and NaN print the same at every precision
        odd = v[rows]
        fixed = (odd == 0.0) | ~np.isfinite(odd)
        odd = odd[fixed]
        kind = np.where(np.isnan(odd), 4, np.signbit(odd) + 2 * np.isinf(odd))
        cells[rows[fixed]] = _FIXED_CELLS[kind]
        lengths[rows[fixed]] = _FIXED_LENGTHS[kind]
        rows = rows[~fixed]
        cells[rows], lengths[rows] = percent_cells(v[rows], p[rows])
    return cells, lengths


def percent_cells(values, p) -> tuple:
    """'%.<p>g' % v for each v, one call per value, as g_cells' (cells, lengths)."""
    text = [b"%.*g" % pair for pair in zip(p.tolist(), values.tolist())]
    cells = np.array(text, dtype=f"S{CELL}").view(np.uint8).reshape(-1, CELL)
    return cells, np.array([len(cell) for cell in text], dtype=np.intp)


# The cells of 0, -0, inf, -inf and NaN, whose text has no digits to round.
_FIXED_CELLS, _FIXED_LENGTHS = percent_cells(
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan]), np.full(5, 16))


def flag_tails(depths) -> tuple:
    """Every text of the four flags and the CRLF that a row of one of these
    buffer depths can end in, as (codes, tails).

    A row's code is buffer_depth 8 + dos_active 4 + attempt 2 + success.
    codes holds every code of the depths, in increasing order, and tails[i]
    is the text of codes[i], bytes padded with NULs to the longest.
    """
    depths = np.unique(depths)
    codes = (depths[:, None] * 8 + np.arange(8)).ravel()
    text = [b",%d,%d,%d,%d\r\n" % (c >> 2 & 1, c >> 1 & 1, c & 1, c >> 3)
            for c in codes.tolist()]
    tails = np.array(text, dtype=bytes)
    return codes, tails.view(f"V{tails.itemsize}")
