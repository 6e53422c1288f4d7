"""The text of the trace CSV's rows, with floats formatted in bulk.

g_cells gives '%.12g' % v or '%.16g' % v for every float of an array, with a
precision per value and, where asked, a comma before it: the same bytes as
Python's '%' operator, from a few dozen array operations in place of one '%'
call per value.  simulation.trace_to_csv lays out each block of rows and
writes it through csv_rows, with the tails of flag_tails.
"""

import itertools
import math

import numpy as np


def csv_rows(times, x, V, u, tick, tails, tail) -> bytearray:
    """The CSV rows t, x1..xn, u1..um, V joined by commas, each row ending in
    tails[tail], the text of its flags and CRLF (see flag_tails).

    times, x and V hold a value per row; u holds one input per tick, which
    is formatted once, and tick each row's index into it.  Every float is
    formatted in one g_cells call: t to 12 digits, x, u and V to 16, each of
    these with the comma that comes before it.

    Each column is copied in one indexed assignment, each text with the
    NULs after it up to the column's longest, straight to its place in the
    rows.  The columns are copied in order, so the NULs that run past a
    shorter text land on the next cells, which are copied later, as long
    as the rest of the row is long enough to take them.  The last column's
    NULs run into the next row's t, whose texts are copied once more, as
    long as the column's shortest.  A block whose columns' lengths spread
    too far for that is laid out in rows padded to the longest text of
    each column, with the NULs deleted at the end.
    """
    count, n = x.shape
    m = u.shape[1]
    x_end = count * (n + 1)
    v_end = x_end + count
    precision = np.full(v_end + u.size, 16, dtype=np.int8)
    precision[:count] = 12
    cells, lengths = g_cells(np.concatenate([times, x.ravel(), V, u.ravel()]),
                             precision, precision > 12)
    held = cells[v_end:].reshape(-1, m * CELL).take(tick, axis=0)
    ends = tails.take(tail)
    # each column's texts as (bytes, offset, stride), and their lengths
    columns = [(cells, 0, CELL), *((cells, CELL * (count + j), CELL * n) for j in range(n)),
               *((held, CELL * j, CELL * m) for j in range(m)), (cells, CELL * x_end, CELL),
               (ends, 0, ends.itemsize)]
    size = np.empty((len(columns), count), dtype=np.intp)
    size[0] = lengths[:count]
    size[1 : n + 1] = lengths[count:x_end].reshape(count, n).T
    size[n + 1 : -2] = lengths[v_end:].reshape(-1, m).take(tick, axis=0).T
    size[-2] = lengths[x_end:v_end]
    size[-1] = np.char.str_len(tails).take(tail)
    low, high = size.min(axis=1).tolist(), size.max(axis=1).tolist()
    # the shortest text that follows each column in a row
    rest = list(itertools.accumulate(low[:0:-1]))[::-1]
    if any(h - lo > r for h, lo, r in zip(high, low, rest)) or high[-1] - low[-1] > low[0]:
        return _padded_rows(columns, high, count)
    # where each row starts, then each of its texts
    place = np.empty_like(size)
    row = size.sum(axis=0)
    np.subtract(np.cumsum(row), row, out=place[0])
    for j in range(1, len(columns)):
        np.add(place[j - 1], size[j - 1], out=place[j])
    total = int(place[-1, -1]) + int(size[-1, -1])
    text = bytearray(total + max(CELL, ends.itemsize))
    copies = list(zip(columns, place, high))
    if high[-1] > low[-1]:
        copies.append((columns[0], place[0], low[0]))
    for (base, offset, stride), at, wide in copies:
        # the text as cells of wide bytes, one starting at each byte
        cell = f"V{wide}"
        np.ndarray(total + 1, cell, text, 0, (1,))[at] = np.ndarray(
            count, cell, base, offset, (stride,))
    del text[total:]
    return text


def _padded_rows(columns, widths, count) -> bytearray:
    """csv_rows' text from rows of its columns, each as wide as widths, the
    NULs that pad the shorter texts deleted."""
    starts = list(itertools.accumulate(widths, initial=0))
    text = bytearray(count * starts[-1])
    for (base, offset, stride), at, wide in zip(columns, starts, widths):
        cell = f"V{wide}"
        np.ndarray(count, cell, text, at, (starts[-1],))[...] = np.ndarray(
            count, cell, base, offset, (stride,))
    return text.translate(None, b"\0")


# The bulk '%.<P>g' formatter.  A cell is CELL bytes: its text, then NULs.
# Cells are built as 64-bit words whose little-endian bytes are the text:
# the head (a comma, the sign and the "0.000" lead of a fixed-notation value
# below 1), the digits with the point among them, and the exponent.  A numpy
# shift of a 64-bit word by 64 bits or more gives 0, and so does one by a
# negative amount, which wraps to a large unsigned one; either drops a part
# that lies in another word.
CELL = 24
# Cells of magnitude in [1 / _RANGE, _RANGE) are scaled in bulk; the others
# are clamped into that range, which keeps the arithmetic finite, and then
# +-0, inf and NaN come from a table and the rest from percent_cells.
_RANGE = 1e290
# The decades of such cells, and one more either way: a cell of decade e
# printed to P digits takes entry e - _LOW_DECADE of the tables below, plus
# _ROWS when P is 16.
_LOW_DECADE = -292
_ROWS = -2 * _LOW_DECADE
# Bounds the error of the offset that decimal_digits rounds (see there).
_TOL = 2.0**-44
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


def _words(texts, count: int = 1) -> np.ndarray:
    """Byte strings as rows of count 64-bit words, NULs padding each to
    8 count bytes: byte j of a text is byte j % 8 of word j // 8, in
    little-endian order."""
    data = b"".join(text.ljust(8 * count, b"\0") for text in texts)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(-1, count)


def _row_tables() -> tuple:
    """_TENS, _EXPONENT and _NOTATION, one entry per decade e and precision P.

    _TENS holds 10^(P - 1 - e) in a column, as rows hi, big, small, lo (see
    _powers_of_ten), and the scale 10^(16 - P), which moves every cell's
    digits to 16 places.  %g prints fixed notation for -4 <= e < P, else
    the exponent, whose word _EXPONENT holds (0 when fixed).  _NOTATION
    holds the exponent's length; 4 times the lead of a fixed e below 0, -e,
    which picks the head (see _HEADS); and 16 times the column of _FORMS,
    the digit that the point follows: e when fixed, 0 with an exponent, and
    16 (none of them) below 1.  These are 16-bit fields of one word, which
    one take gathers.
    """
    e = np.tile(np.arange(_LOW_DECADE, -_LOW_DECADE), 2)
    p = np.repeat([12, 16], _ROWS)
    k = p - 1 - e
    tens = np.vstack([_powers_of_ten(k.min(), k.max() + 1)[:, k - k.min()],
                      10.0 ** (16 - p)])
    fixed = (e >= -4) & (e < p)
    exponents = [b"" if f else b"e%+03d" % d for d, f in zip(e.tolist(), fixed.tolist())]
    notation = np.column_stack([
        [len(text) for text in exponents], 4 * np.where(fixed & (e < 0), -e, 0),
        16 * np.where(fixed, np.where(e < 0, 16, e), 0), 0 * e]).astype(np.uint16)
    return tens, _words(exponents)[:, 0], notation.view(np.uint64)[:, 0]


_TENS, _EXPONENT, _NOTATION = _row_tables()


def _form_table() -> np.ndarray:
    """_FORMS: column last + 16 c, for 16 digits whose last nonzero one is
    digit last and whose point follows digit c (c = 16: none of them).

    Digits 0..keep print, keep = max(last, c) or last when c = 16, and the
    point follows digit c when digits follow it (split = c), else none does
    (split = 16).  The digits after the point move one byte on, past it.
    Rows: a pair of words that masks the digits before the point; three
    words of text for digit values of 0, the "0" of each digit that prints
    and the point; and size, the length of that text.
    """
    lead, text, size = [], [], []
    for c in range(17):
        for last in range(16):
            keep = last if c == 16 else max(last, c)
            split = c if c < keep else 16
            lead.append(b"\xff" * min(split + 1, 16))
            text.append(b"0" * (split + 1) + b"." + b"0" * (keep - split) if split < 16
                        else b"0" * (keep + 1))
            size.append(len(text[-1]))
    return np.vstack([_words(lead, 2).T, _words(text, 3).T,
                      np.array(size, dtype=np.uint64)])


_FORMS = _form_table()


def _head_table() -> np.ndarray:
    """_HEADS: column 4 lead + 2 negative + comma, the head of a cell before
    its digits: the comma, the sign and the lead "0." + "0" * (lead - 1) of a
    fixed decade -lead (none for lead 0).  Rows: the head as a word, its
    length in bits, and 64 less that."""
    texts = [b"," * comma + b"-" * negative + (b"0." + b"0" * (lead - 1)) * (lead > 0)
             for lead in range(5) for negative in (0, 1) for comma in (0, 1)]
    bits = np.array([8 * len(text) for text in texts], dtype=np.uint64)
    return np.stack([_words(texts)[:, 0], bits, 64 - bits])


def _chunk_table() -> np.ndarray:
    """_CHUNK: the four digits of every chunk 0..9999 as the bytes of their
    values 0..9, in the upper half of a word, the leading digit in byte 4;
    each axis of the grid is one digit, the leading one first."""
    digit = np.arange(10, dtype=np.uint64)
    return (digit[:, None, None, None] << 32 | digit[:, None, None] << 40
            | digit[:, None] << 48 | digit << 56).ravel()


_HEADS = _head_table()
_CHUNK = _chunk_table()


def _rounded(mag: np.ndarray, tens: np.ndarray) -> tuple:
    """The integer nearest y = mag 10^k, times the scale, and y less that
    integer, for the columns of _TENS that hold each mag's 10^k = hi + lo.

    mag hi is Dekker's exact product y1 + y2 of the split factors; the
    offset is (y1 - rint(y1)) + (y2 + mag lo), so that y need not fit in a
    double.
    """
    hi, big, small, lo, scale = tens
    mag_big = _SPLIT * mag
    mag_big -= mag_big - mag
    mag_small = mag - mag_big
    y = mag * hi
    err = mag_big * big
    err -= y
    part = np.multiply(mag_big, small, out=mag_big)
    err += part
    np.multiply(mag_small, big, out=part)
    err += part
    np.multiply(mag_small, small, out=part)
    err += part
    np.multiply(mag, lo, out=part)
    err += part
    near = np.rint(y)
    y -= near
    y += err
    step = np.rint(y, out=err)
    y -= step
    # exact: near and step times 10^4 stay below 10^16 at 12 digits
    near *= scale
    step *= scale
    digits = near.astype(np.int64)
    digits += step.astype(np.int64)
    return digits, y


def decimal_digits(v: np.ndarray, p: np.ndarray) -> tuple:
    """The p significant digits and the decade printf gives each of v.

    p is 12 or 16 per value.  Returns (digits, row, exact): digits the p
    digits as an integer in [10^15, 10^16), followed by 16 - p zeros, and
    row the tables' entry for the rounded value's decade at p digits (see
    _LOW_DECADE), both exact where exact holds.

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
    way.  exact fails there, and for |v| outside [1 / _RANGE, _RANGE),
    which is clamped into it first, where the scaling could leave the
    normal doubles: so also for +-0, inf and NaN.
    """
    mag = np.abs(v)
    scaled = np.fmax(mag, 1.0 / _RANGE)
    np.fmin(scaled, math.nextafter(_RANGE, 0.0), out=scaled)
    inside = scaled == mag
    del mag
    row = np.floor(np.log10(scaled)).astype(np.intp)
    row += np.where(p > 12, _ROWS - _LOW_DECADE, -_LOW_DECADE)
    digits, off = _rounded(scaled, _TENS.take(row, axis=1))
    exact = np.abs(off) <= 0.5 - _TOL
    exact &= inside
    edge = (digits - (10**15 + 1)).view(np.uint64) >= 9 * 10**15 - 1
    if edge.any():
        # at a decade's edge, digits <= 10^15 or >= 10^16: y past it
        # belongs to the next decade
        edge = np.flatnonzero(edge)
        d, off = digits[edge], off[edge]
        up, down = d > 10**16, (d < 10**15) | ((d == 10**15) & (off < 0))
        row[edge] += up.astype(np.intp) - down
        redo = np.flatnonzero(up | down)
        d[redo], off[redo] = _rounded(scaled[edge[redo]], _TENS[:, row[edge[redo]]])
        exact[edge] &= ((np.abs(off) <= 0.5 - _TOL) & (d <= 10**16)
                        & ((d > 10**15) | (off >= 0)))
        carry = d == 10**16
        row[edge] += carry
        digits[edge] = np.where(carry | ~exact[edge], 10**15, d)
    return digits, row, exact


def g_cells(v: np.ndarray, p: np.ndarray, comma=False) -> tuple:
    """'%.<p>g' % v for every v of a float array as (cells, lengths), each
    text after a comma where comma (a flag, or one per value) holds.

    p holds the precision of each value, 12 or 16.  cells is (len, CELL)
    bytes, each cell its text and NULs after it; lengths is the length of
    each text.  Digits and decades come from decimal_digits; of the cells
    it cannot vouch for, +-0, +-inf and NaN come from a table and the rest
    from percent_cells.
    """
    digits, row, exact = decimal_digits(v, p)
    # the values of digits 0..7 and 8..15 as the bytes of two words, from
    # four chunks of four
    top = digits // 10**8
    digits -= top * 10**8
    chunk = top // 10**4
    top -= chunk * 10**4
    d0 = _CHUNK.take(chunk) >> 32
    d0 |= _CHUNK.take(top)
    np.floor_divide(digits, 10**4, out=chunk)
    digits -= chunk * 10**4
    d1 = _CHUNK.take(chunk) >> 32
    d1 |= _CHUNK.take(digits)
    del digits, top, chunk
    # The last digit that is not a zero: the top nonzero byte, from the
    # exponent of the digits' value as a double, which rounding cannot
    # carry to the next byte (each byte is at most 9).
    last = d1.astype(float)
    last *= 2.0**64
    last += d0.astype(float)
    form = last.view(np.int64)
    form -= 1023 << 52
    form >>= 55
    notation = _NOTATION.take(row).view(np.uint16).reshape(-1, 4)
    form += notation[:, 2]
    form = _FORMS.take(form, axis=1)
    del last

    # Fixed notation for -4 <= e < p, else d[.ddd]e+-XX; trailing zeros of
    # the fraction go, and the point with them (see _FORMS).  The digits
    # after the point move one byte on, past it, and each digit that
    # prints becomes its ASCII character.
    r0 = d0 & form[0]
    r1 = d1 & form[1]
    d0 ^= r0
    d1 ^= r1
    r0 |= form[2]
    r1 |= form[3]
    r2 = d1 >> 56
    r2 |= form[4]
    r1 |= d0 >> 56
    d0 <<= 8
    r0 |= d0
    d1 <<= 8
    r1 |= d1
    del d0, d1
    # the exponent behind the digits, 8 size bits on: into word j, shifted
    # left by that less 64 j bits and right by 64 j less it
    rows = np.flatnonzero(notation[:, 0] != 0)
    if len(rows):
        exponent, at = _EXPONENT[row[rows]], form[5, rows] << 3
        r0[rows] |= exponent << at
        at -= 64
        r1[rows] |= exponent << at | exponent >> -at
        at -= 64
        r2[rows] |= exponent << at | exponent >> -at
    lengths = form[5] + notation[:, 0]
    # behind the head
    negative = (v < 0).view(np.uint8)
    head = notation[:, 1] + negative
    head += negative
    head += comma
    del form, notation, negative
    text, at, back = _HEADS.take(head, axis=1)
    words = np.empty((len(v), 3), dtype=np.uint64)
    cell = np.left_shift(r0, at, out=words[:, 0])
    cell |= text
    cell = np.left_shift(r1, at, out=words[:, 1])
    np.right_shift(r0, back, out=r0)
    cell |= r0
    cell = np.left_shift(r2, at, out=words[:, 2])
    np.right_shift(r1, back, out=r1)
    cell |= r1
    del r0, r1, r2, text, back
    at >>= 3
    lengths += at
    lengths = lengths.view(np.intp)
    cells = words.astype("<u8", copy=False).view(np.uint8)
    if not exact.all():
        rows = np.flatnonzero(~exact)
        cells[rows], lengths[rows] = _odd_cells(v[rows], p[rows],
                                                np.broadcast_to(comma, v.shape)[rows])
    return cells, lengths


def _odd_cells(values, p, comma) -> tuple:
    """g_cells' (cells, lengths) of the values it cannot vouch for: +-0,
    +-inf and NaN from a table, which print the same at every precision,
    the rest from percent_cells."""
    cells = np.empty((len(values), CELL), dtype=np.uint8)
    lengths = np.empty(len(values), dtype=np.intp)
    fixed = (values == 0.0) | ~np.isfinite(values)
    odd = values[fixed]
    kind = np.where(np.isnan(odd), 4, np.signbit(odd) + 2 * np.isinf(odd))
    cells[fixed], lengths[fixed] = _FIXED_CELLS[kind], _FIXED_LENGTHS[kind]
    cells[~fixed], lengths[~fixed] = percent_cells(values[~fixed], p[~fixed])
    # the comma goes before the text, which is at most CELL - 1 bytes
    cells[comma, 1:] = cells[comma, :-1]
    cells[comma, 0] = ord(",")
    return cells, lengths + comma


def percent_cells(values, p) -> tuple:
    """'%.<p>g' % v for each v, one call per value, as g_cells' (cells, lengths)."""
    text = [b"%.*g" % pair for pair in zip(p.tolist(), values.tolist())]
    cells = np.array(text, dtype=f"S{CELL}").view(np.uint8).reshape(-1, CELL)
    return cells, np.array([len(cell) for cell in text], dtype=np.intp)


# The cells of 0, -0, inf, -inf and NaN, whose text has no digits to round.
_FIXED_CELLS, _FIXED_LENGTHS = percent_cells(
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan]), np.full(5, 16))


def flag_tails(depths) -> tuple:
    """(tails, at): every text of the four flags and CRLF that a row of these
    buffer depths can end in, as bytes; a row of depth depths[i] ends in
    tails[at[i] + 4 dos_active + 2 attempt + success].
    """
    distinct, at = np.unique(depths, return_inverse=True)
    codes = (distinct[:, None] * 8 + np.arange(8)).ravel()
    text = [b",%d,%d,%d,%d\r\n" % (c >> 2 & 1, c >> 1 & 1, c & 1, c >> 3)
            for c in codes.tolist()]
    return np.array(text, dtype=bytes), at * 8
