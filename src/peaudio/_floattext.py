"""The text of float64 arrays, byte for byte what repr writes for each value.

repr writes the shortest decimal that reads back as the same double and,
of the shortest, the one closest to it, ties to even digits. Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020; the output
contract of U. Adams, "Ryu", PLDI 2018) finds those digits with three
126-by-64-bit products per value, so here they run on whole blocks of
values in numpy uint64 arithmetic. Java's Double.toString, for which
Giulietti wrote it, wants at least two digits; repr does not (5e-324 is
"5e-324"), so that rule is left out. The digits then take CPython's repr
layout: positional while the decimal point sits in (-4, 16] places of
the first digit, "d.ddde+XX" otherwise; "-0.0", "nan", "inf", "-inf".

Each value's text, at most 24 bytes, is built in three little-endian
uint64 words, so every step is one array operation over the block.
No operation mixes uint64 and int64 arrays: numpy would compute it in
float64 and lose bits. Temporaries are dropped as soon as they are
dead, because a block's peak sets how many fresh pages it touches.
"""

import numpy as np

from .signal_io import map_rows

_U = np.uint64
_MASK_32 = _U((1 << 32) - 1)
_MASK_63 = _U((1 << 63) - 1)
_INF_BITS = _U(0x7FF << 52)
_C_MIN = 1 << 52  # the hidden bit of a normal double's significand
_K_MIN = -324  # the decimal scales 10^k that doubles need run from k = -324 to 292


def _pow10_table():
    """g(k) = floor(10^-k * 2^(125 - floor(log2 10^-k))) + 1 for every k, exact, and floor(log2 10^-k).

    Each g lies in [2^125, 2^126). It is returned as its top 63 bits
    and the 32-bit halves of both 63-bit parts.
    """
    gs, log2 = [], []
    for e in range(-_K_MIN, -293, -1):  # e = -k
        p = 10 ** abs(e)
        if e >= 0:
            f = p.bit_length() - 1
            g = (p << (125 - f) if f <= 125 else p >> (f - 125)) + 1
        else:
            f = -p.bit_length()  # 10^|e| is no power of two
            g = (1 << (125 - f)) // p + 1
        gs.append(g)
        log2.append(f)
    g1 = [g >> 63 for g in gs]
    g0 = [g & ((1 << 63) - 1) for g in gs]
    halves = [[x & 0xFFFFFFFF for x in part] + [x >> 32 for x in part] for part in (g1, g0)]
    return (np.array(g1, _U), *np.array(halves, _U).reshape(4, -1)), np.array(log2, np.int64)


_G, _LOG2_POW10 = _pow10_table()
_POW10 = np.array([10**i for i in range(18)], _U)


def _bytes_word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _four_digit_table():
    """The four ASCII digits of 0 .. 9999 as the low 32 bits of a word, and how many are trailing zeros."""
    places = np.indices((10,) * 4, np.uint32).reshape(4, -1)  # the digits of 0 .. 9999, first first
    text = (places + ord("0")) << (8 * np.arange(4, dtype=np.uint32))[:, None]
    zeros = np.cumprod(places[::-1] == 0, axis=0, dtype=np.uint8).sum(axis=0, dtype=np.int64)
    return text.sum(axis=0, dtype=_U), zeros


_DIGITS4, _ZEROS4 = _four_digit_table()
# "e+XX" / "e-XXX" for the decimal exponents -324 .. 308.
_EXP_MIN = -324
_EXP = np.array([_bytes_word(b"e%+03d" % x) for x in range(_EXP_MIN, 309)], _U)
# The sign and "0." with up to three zeros before the digits of a
# number below 1, by 6 * sign + length of the "0.000" part.
_PREFIX = np.array([_bytes_word(s + b"0.000"[:n]) for s in (b"", b"-") for n in range(6)], _U)
_NAN, _INF = _bytes_word(b"nan"), _bytes_word(b"inf")


def _word_masks():
    """For m = 0 .. 25, per word: the bytes below m, the bytes above m, and '.' at byte m."""
    low, high, dot = (np.zeros((3, 26), _U) for _ in range(3))
    for m in range(26):
        for i in range(3):
            below = min(max(m - 8 * i, 0), 8)
            above = min(max(m + 1 - 8 * i, 0), 8)
            low[i, m] = (1 << (8 * below)) - 1
            high[i, m] = ((1 << 64) - 1) ^ ((1 << (8 * above)) - 1)
            if 0 <= m - 8 * i < 8:
                dot[i, m] = ord(".") << (8 * (m - 8 * i))
    return low, high, dot


_LOW, _HIGH, _DOT = _word_masks()
_NO_POINT = 24


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of the 128-bit products of a and b, given as 32-bit halves."""
    cross_lo = a1 * b0
    cross = (a0 * b0 >> _U(32)) + (cross_lo & _MASK_32) + a0 * b1
    return (cross_lo >> _U(32)) + (cross >> _U(32)) + a1 * b1


def _scaled(g, cp):
    """floor(g * cp / 2^127), g = g1 * 2^63 + g0, with its last bit set if the floor was inexact."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _MASK_32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
    high = _mulhi(g1_lo, g1_hi, cp_lo, cp_hi) + (z >> _U(63))
    return high | (((z & _MASK_63) + _MASK_63) >> _U(63))


def _interval(bits):
    """Schubfach's scaled value, interval bounds and c's parity of each double, and its decimal scale k.

    The value and bounds are those of c * 2^q times 10^-k, with two
    fraction bits, the second sticky.
    """
    biased = (bits >> _U(52)).astype(np.int64) & 0x7FF
    fraction = bits & _U(_C_MIN - 1)
    normal = biased != 0
    c = np.where(normal, fraction | _U(_C_MIN), fraction)
    q = np.where(normal, biased - 1075, -1074)
    # The rounding interval is half as wide below a power of two, except
    # at the smallest normal exponent; its bounds belong to it when c is even.
    asymmetric = (fraction == 0) & (biased > 1)
    del biased, fraction, normal
    # k = floor(log10(2^q)), or floor(log10(3/4 * 2^q)) when asymmetric.
    k = (q * 661_971_961_083 - asymmetric * 274_743_187_321) >> 41
    at = k - _K_MIN
    h = (q + _LOG2_POW10[at] + 2).astype(_U)
    del q
    out, cb = c & _U(1), c << _U(2)
    del c
    g = [part[at] for part in _G]
    del at
    vb = _scaled(g, cb << h)
    vbl = _scaled(g, (cb - _U(2) + asymmetric) << h)
    vbr = _scaled(g, (cb + _U(2)) << h)
    return vb, vbl + out, vbr - out, k


def _shortest(bits):
    """(digits, exponent): the shortest decimal digits * 10^exponent closest to each finite nonzero double.

    Ties go to even digits. Zeros and non-finite values get garbage,
    which the caller replaces.
    """
    # vbl and vbr are moved inward by one unit when c is odd, so the
    # tests below include the bounds only when c is even.
    vb, vbl, vbr, k = _interval(bits)
    # Of the multiples of 10 * 10^k, at most one lies in the interval; if
    # so it is the shortest. Else the closer of s and s + 1 (units of 10^k).
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    coarse = upin != wpin
    sp10 += ~upin * _U(10)
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    del vbl, vbr
    frac = vb & _U(3)
    del vb
    s += np.where(uin != win, win, (frac > 2) | ((frac == 2) & ((s & _U(1)) == 1)))
    return np.where(coarse, sp10, s), k


def _digit_count(d):
    """Decimal digits of each d < 10^17, 0 for 0."""
    # As a float, d keeps its binary exponent or gains one, so the
    # digits of 2^exponent miss d's by at most one either way.
    exponent = (d.astype(np.float64).view(_U) >> _U(52)).astype(np.int64) - 1023
    guess = np.clip((exponent * 1233 >> 12) + 1, 1, 17)
    return guess + (d >= _POW10[guess]) - (d < _POW10[guess - 1])


def _digit_words(digits):
    """The digits of each d < 10^17 left-aligned in 17 ASCII places of three words, their count, and n.

    n is the count without trailing zeros, at least 1.
    """
    count = _digit_count(digits)
    first, rest = np.divmod(digits * _POW10[17 - count], _POW10[16])
    groups = list(np.divmod(rest, _POW10[8]))
    del rest
    for i in (1, 0):
        high = (groups[i] * _U(109951163)) >> _U(40)  # // 10^4, exact below 4.9e8
        groups[i:i + 1] = high, groups[i] - high * _U(10000)
    zeros = _ZEROS4[groups[3]]
    for i, group in ((4, groups[2]), (8, groups[1]), (12, groups[0])):
        zeros = np.where(zeros == i, i + _ZEROS4[group], zeros)
    text = [_DIGITS4[g] for g in groups]
    del groups
    words = ((first + _U(ord("0"))) | (text[0] << _U(8)) | (text[1] << _U(40)),
             (text[1] >> _U(24)) | (text[2] << _U(8)) | (text[3] << _U(40)),
             text[3] >> _U(24))
    return words, count, np.maximum(17 - zeros, 1)


def _with_point(words, at, length):
    """The words with '.' put in after `at` bytes (none at _NO_POINT), cut to `length` bytes."""
    shifted = (words[0] << _U(8),
               (words[1] << _U(8)) | (words[0] >> _U(56)),
               (words[2] << _U(8)) | (words[1] >> _U(56)))
    return [((w & _LOW[i][at]) | _DOT[i][at] | (s & _HIGH[i][at])) & _LOW[i][length]
            for i, (w, s) in enumerate(zip(words, shifted))]


def _block_text(values, sep_words, row_sep_words) -> np.ndarray:
    """The bytes of each value's repr in a (rows, cols) block, each followed by its separator.

    The separators are NUL-padded words: sep_words after a value, row_sep_words after a row's last.
    """
    bits = np.ascontiguousarray(values, np.float64).view(_U).ravel()
    magnitude = bits & _MASK_63
    finite = magnitude < _INF_BITS
    nan = magnitude > _INF_BITS
    digits, exponent = _shortest(bits)
    digits *= finite & (magnitude != 0)
    del magnitude
    # value = 0.DIGITS * 10^point
    words, count, n = _digit_words(digits)
    point = np.where(digits == 0, 1, count + exponent)
    del digits, exponent, count

    # The point goes in after `at` digits: `point` of them in positional
    # form, 1 in scientific form if there are more; `length` bytes of
    # digits and point are kept.
    positional = finite & (point > -4) & (point <= 16)
    whole = positional & (point > 0)
    scientific = finite & ~positional
    at = np.where(whole, point, np.where(scientific & (n > 1), 1, _NO_POINT))
    length = np.where(whole, np.maximum(n, point + 1), n) + (at != _NO_POINT)
    length = np.where(finite, length, 3)
    del whole, n
    core = _with_point(words, at, length)
    del words, at
    core[0] = np.where(finite, core[0], np.where(nan, _U(_NAN), _U(_INF)))

    # The sign and "0.0.." in front, then the exponent after the digits.
    negative = (bits >> _U(63)).astype(np.int64) & ~nan
    lead = np.where(positional & (point <= 0), 2 - point, 0)
    offset = negative + lead
    up = (offset * 8).astype(_U)
    down = _U(64) - up
    words = [_PREFIX[6 * negative + lead] | (core[0] << up),
             (core[1] << up) | (core[0] >> down),
             (core[2] << up) | (core[1] >> down)]
    del core, up, down, negative, lead
    exp_text = _EXP[np.clip(point - 1 - _EXP_MIN, 0, _EXP.size - 1)] * scientific
    end = offset + length
    end_word, up = end >> 3, ((end & 7) * 8).astype(_U)
    low, high = exp_text << up, exp_text >> (_U(64) - up)
    for i in range(3):
        words[i] |= low * (end_word == i) | high * (end_word == i - 1)

    rows, cols = values.shape
    grid = np.empty((rows, cols, 3 + sep_words.size), np.dtype("<u8"))
    for i, word in enumerate(words):
        grid[..., i] = word.reshape(rows, cols)
    grid[:, :-1, 3:] = sep_words
    grid[:, -1, 3:] = row_sep_words
    text = grid.view(np.uint8)
    return text[text != 0]


def _words(text: bytes, n: int) -> np.ndarray:
    return np.frombuffer(text.ljust(8 * n, b"\0"), np.dtype("<u8"))


class Reprs:
    """The text of 2-D float64 arrays: each value's repr, then sep, or row_sep after a row's last.

    The separators hold no NUL. A block's text is built in a grid of
    row_len(cols) words per row, which is what map_rows sizes blocks by.
    """

    def __init__(self, sep: str, row_sep: str):
        sep_b, row_sep_b = sep.encode(), row_sep.encode()
        n = -(-max(len(sep_b), len(row_sep_b)) // 8)
        self.sep_words, self.row_sep_words = _words(sep_b, n), _words(row_sep_b, n)
        self.row_sep = row_sep

    def row_len(self, cols: int) -> int:
        return cols * (3 + self.sep_words.size)

    def block(self, values) -> str:
        """The text of a (rows, cols) block, row_sep after every row, the last included."""
        return _block_text(values, self.sep_words, self.row_sep_words).tobytes().decode()

    def pieces(self, values) -> list[str]:
        """row_sep.join(sep.join(map(repr, row)) for row in values), one piece per map_rows block.

        Beyond the pieces, the temporaries are a few block buffers,
        whatever the array's size.
        """
        values = np.asarray(values, np.float64)
        pieces = map_rows(lambda rows: self.block(values[rows]), values.shape[0],
                          self.row_len(values.shape[1]))
        if pieces:
            pieces[-1] = pieces[-1][:len(pieces[-1]) - len(self.row_sep)]
        return pieces
