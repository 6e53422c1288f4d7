"""The text of the trace CSV's rows, with floats formatted in bulk.

g_cells gives '%.12g' % v or '%.16g' % v for every float of an array, the
same bytes as Python's '%' operator, from a few dozen array operations in
place of one '%' call per value.  simulation.trace_to_csv writes its rows
through csv_rows.
"""

import numpy as np


def csv_rows(trace, rows: slice) -> bytes:
    """The CSV rows of a SimTrace's rows, each a row of cells joined by commas."""
    n = trace.x.shape[1]
    x_v = g_cells(np.column_stack([trace.x[rows], trace.V[rows]]), 16)
    x_v = x_v.reshape(-1, n + 1, CELL)
    cells = np.concatenate([
        g_cells(trace.times[rows], 12)[:, None], x_v[:, :n],
        held_text(trace.u[rows]), x_v[:, n:],
        flag_text(trace.dos_active[rows], trace.attempt[rows],
                  trace.success[rows], trace.buffer_depth[rows])[:, None],
    ], axis=1)
    cells[:, 1:, 0] = ord(",")
    return cells.tobytes().translate(None, b"\0")


# The bulk '%.<P>g' formatter.  A cell is 32 bytes, its text the bytes other
# than NUL, in order: byte 0 is left free for a separator, byte 1 holds the
# sign, bytes 2-6 the "0.000" lead of a fixed-notation value below 1, bytes
# 7-23 the P digits with the point among them, bytes 24-28 the exponent.
# Cells are built as four 64-bit words whose little-endian bytes are these.
CELL = 32
_LD = np.longdouble
_BYTE_SHIFTS = np.arange(8, dtype=np.uint64) * np.uint64(8)
# Every decade e of a nonzero double, and one more either way.
_DECADES = np.arange(-325, 310)
# 10^k for every k = P - 1 - e that a cell of P = 12 or 16 digits scales by.
# Where long double is a plain double, 10^k overflows past 1e308; those
# cells fail the bound of decimal_digits and take the per-cell path.
_POW10_LOW = 11 - _DECADES[-1]
with np.errstate(over="ignore"):
    _POW10 = np.power(_LD(10), np.arange(_POW10_LOW, 16 - _DECADES[0]).astype(_LD))


def _words(rows) -> np.ndarray:
    """Rows of at most eight byte values as the integers with those bytes.

    Byte j of a row is byte j of its word in little-endian order.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    return (rows << _BYTE_SHIFTS[: rows.shape[1]]).sum(axis=1, dtype=np.uint64)


# The four ASCII digits of every chunk 0..9999 as one word, the leading
# digit in byte 0, and the chunk's trailing zeros: each axis of the grid is
# one digit, the leading one first.
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
_CHUNK = (
    _ASCII[:, None, None, None] | _ASCII[:, None, None] << np.uint64(8)
    | _ASCII[:, None] << np.uint64(16) | _ASCII << np.uint64(24)
).ravel()
_ZERO = (np.arange(10) == 0).astype(np.intp)
_TRAILING_ZEROS = (_ZERO * (1 + _ZERO[:, None] * (
    1 + _ZERO[:, None, None] * (1 + _ZERO[:, None, None, None])))).ravel()
# word 0 of a cell for 5 * negative + k: the sign, then the lead of a
# fixed-notation value of decade -k, 1 <= k <= 4 (k = 0: none)
_HEAD = _words([
    [0, sign, *lead.ljust(5, b"\0")]
    for sign in (0, ord("-")) for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")
])
# word 3 of a cell: the exponent of each decade, then none (fixed notation)
_EXPONENT = np.append(_words(np.column_stack([
    np.full(len(_DECADES), ord("e")), np.where(_DECADES < 0, ord("-"), ord("+")),
    np.where(abs(_DECADES) >= 100, abs(_DECADES) // 100 + ord("0"), 0),
    abs(_DECADES) // 10 % 10 + ord("0"), abs(_DECADES) % 10 + ord("0"),
])), np.uint64(0))


def _prefix_masks(p: int) -> tuple:
    """Masks of digits 0..i, i < p, of the two words of p digits, by i."""
    keep = np.where(np.arange(16) <= np.arange(p)[:, None], 255, 0)
    return _words(keep[:, :8]), _words(keep[:, 8:])


_PREFIX_MASKS = {p: _prefix_masks(p) for p in (12, 16)}


# Where long double is a plain double, y is inf past 1e308 (see _POW10).
@np.errstate(invalid="ignore")
def decimal_digits(v: np.ndarray, p: int) -> tuple:
    """The p significant digits and the decade printf gives each of v.

    Returns (digits, e, exact): digits an integer in [10^(p-1), 10^p) and e
    the decade of the rounded value, both exact where exact holds.  Each |v|
    is scaled once in long double by 10^(p - 1 - e), e from floor(log10 |v|)
    corrected by one either way, and rounded.  A double is exact in long
    double, 10^k in _POW10 lies within eps = finfo(longdouble).eps of itself
    (checked in the tests) and the product adds eps / 2, so the scaled y
    < 10^p is within 1.5 eps 10^p of the exact value.  The digits and decade
    are therefore exact when y lies more than tol = 4 eps 10^p from every
    rounding tie k + 1/2 and from the edges 10^(p - 1) and 10^p.  exact
    fails there, and for +-0, inf and NaN.  Where long double is a plain
    double, tol exceeds 1/2 at p = 16, so exact fails for every value.
    """
    mag = np.abs(v)
    nonzero = (mag > 0.0) & (mag < np.inf)
    mag[~nonzero] = 1.0
    e = np.floor(np.log10(mag)).astype(np.intp)
    mag = mag.astype(_LD)
    y = mag * np.take(_POW10, p - 1 - _POW10_LOW - e)
    low, high = _LD(10) ** (p - 1), _LD(10) ** p
    tol = 4 * np.finfo(_LD).eps * high
    edge = np.flatnonzero((y < low + tol) | (y > high - tol))
    y_edge = y[edge]
    e[edge] += (y_edge >= high).astype(np.intp) - (y_edge < low)
    y[edge] = y_edge = mag[edge] * np.take(_POW10, p - 1 - _POW10_LOW - e[edge])
    rounded = np.rint(y)
    off = y - rounded
    exact = nonzero & (off <= 0.5 - tol) & (off >= tol - 0.5)
    exact[edge] &= (y_edge >= low + tol) & (y_edge <= high - tol)
    np.copyto(rounded, low, where=~exact)
    digits = rounded.astype(np.int64)
    # printf takes the decade after rounding: 10^p is 10^(p - 1), one up
    carry = np.flatnonzero(digits == 10**p)
    digits[carry] = 10 ** (p - 1)
    e[carry] += 1
    return digits, e, exact


def g_cells(values, p: int) -> np.ndarray:
    """'%.<p>g' % v for every v in values, p 12 or 16, as (len, CELL) bytes.

    Digits and decades come from decimal_digits; the cells it cannot vouch
    for are formatted by percent_cells.
    """
    v = np.asarray(values, dtype=float).ravel()
    digits, e, exact = decimal_digits(v, p)
    # p digits as p/4 chunks of four, the leading one first
    chunks = []
    for _ in range(p // 4):
        digits, chunk = np.divmod(digits, 10_000)
        chunks.insert(0, chunk)
    zeros = np.take(_TRAILING_ZEROS, chunks[-1])
    for j, chunk in enumerate(chunks[-2::-1], 1):
        zeros += (zeros == 4 * j) * np.take(_TRAILING_ZEROS, chunk)
    last = p - 1 - zeros  # the last digit that is not a trailing zero

    # Fixed notation for -4 <= e < p, else d[.ddd]e+-XX; trailing zeros of
    # the fraction go, and the point with them.  Digits 0..keep print, and
    # the point follows digit e (fixed) or 0 (exponent) when any follow it.
    fixed = (e >= -4) & (e < p)
    keep = np.where(fixed, np.maximum(last, e), last)
    point = np.where(fixed, e, 0)
    has_point = (point >= 0) & (point < keep)
    split = np.where(has_point, point, p - 1)
    low_mask, high_mask = _PREFIX_MASKS[p]
    chunks = [np.take(_CHUNK, chunk) for chunk in chunks]
    d0 = chunks[0] | chunks[1] << np.uint64(32)
    d1 = chunks[2] | chunks[3] << np.uint64(32) if p == 16 else chunks[2]
    del chunks
    d0 &= np.take(low_mask, keep)
    d1 &= np.take(high_mask, keep)
    # digits 0..split go to bytes 7.., the rest (d0, d1 from here on) one
    # byte further on, behind the point at byte 8 + split
    l0 = d0 & np.take(low_mask, split)
    l1 = d1 & np.take(high_mask, split)
    d0 ^= l0
    d1 ^= l1
    eight, top = np.uint64(8), np.uint64(56)
    words = np.empty((len(v), 4), dtype=np.uint64)
    words[:, 0] = np.take(_HEAD, np.where(fixed & (e < 0), -e, 0) + 5 * (v < 0))
    words[:, 0] |= l0 << top
    words[:, 1] = l0 >> eight | d0 | l1 << top
    words[:, 2] = l1 >> eight | d1
    words[:, 3] = np.take(_EXPONENT, np.where(fixed, len(_DECADES), e - _DECADES[0]))
    cells = words.astype("<u8", copy=False).view(np.uint8)
    rows = np.flatnonzero(has_point)
    cells[rows, 8 + split[rows]] = ord(".")
    rows = np.flatnonzero(~exact)
    cells[rows] = percent_cells(v[rows], p)
    return cells


def percent_cells(values, p: int) -> np.ndarray:
    """'%.<p>g' % v for each v, one call per value, laid out as g_cells'."""
    text = np.array([b"\0%.*g" % (p, v) for v in values.tolist()], dtype=f"S{CELL}")
    return text.view(np.uint8).reshape(-1, CELL)


def held_text(u) -> np.ndarray:
    """g_cells(u, 16) as (rows, columns, CELL), once per run of equal rows.

    u is held over each controller period, so most rows repeat the one
    before.  Rows compare by their bits: -0.0 equals 0.0 as a float but
    prints as -0, and a NaN equals no float, not even itself.
    """
    u = np.asarray(u, dtype=float)
    bits = u.view(np.int64)
    starts = np.flatnonzero(
        np.concatenate(([True], np.any(bits[1:] != bits[:-1], axis=1)))
    )
    cells = g_cells(u[starts], 16).reshape(len(starts), u.shape[1], CELL)
    return np.repeat(cells, np.diff(starts, append=len(u)), axis=0)


def flag_text(dos_active, attempt, success, depth) -> np.ndarray:
    """The four flags of every row and the row's CRLF as one (rows, CELL)
    cell each, formatted once per distinct value."""
    depth = np.asarray(depth, dtype=np.int64)
    code = depth * 8 + dos_active * 4 + attempt * 2 + success
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    tails = zip(*(c[first].tolist() for c in (dos_active, attempt, success, depth)))
    text = np.array([b"\0%d,%d,%d,%d\r\n" % tail for tail in tails], dtype=f"S{CELL}")
    return np.take(text.view(np.uint8).reshape(-1, CELL), inverse.ravel(), axis=0)
