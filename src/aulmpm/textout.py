"""Exact `'%.17g'` text for float64 tables, vectorized.

`write_rows` writes each row of a float64 table as one line of values
separated by commas, every value spelled exactly as `'%.17g' % value`
spells it, a chunk of rows at a time: one byte matrix, one boolean-mask
selection and one write per chunk.  A whole double below 1e17 spells as
its `%d` digits, so integer columns stored as doubles take the same path.

The 17 significant digits of a = |x| are the integer q nearest
V = a 10^k, k = 16 - floor(log10 a), so that 1e16 <= q < 1e17.  10^k is
held as a pair of doubles hi + lo, lo the double nearest 10^k - hi, and
Dekker's TwoProduct (Dekker 1971, "A floating-point technique for
extending the available precision", Numer. Math. 18) gives a hi = p + e
exactly; with t = e + a lo, V = p + t to within about 1e-14.  p >= 1e16 >
2^53 is a whole number, so q = p + floor(t) + (frac(t) > 1/2).  Whether V
falls below 1e16 (log10 one too high) is decided on the pair, p < 1e16 or
p == 1e16 and t < 0: the double p + t can round across 1e16 (1e-7 is
9.9999999999999995e-08).  Within 1e-99..1e99 a double next to a power of
ten gives V = 1e16 exactly or at least 0.0026 away from it, so t's sign
is never in doubt there.

Each value's text is kept from one 48-byte row,

    -0.000DDDDDDDDDDDDDDDDD.DDDDDDDDDDDDDDDDe+EE,___

(sign, the zeros a fixed-point value below 1 starts with, the 17 digits,
a point and digits 1..16 again, the exponent and the separator, or the
separator alone in fixed point, padding) by a keep mask chosen by the
exponent, the sign and the count of significant digits: the digits before
the point come from the first copy, those after it from the second, so a
value's text is a few runs of kept bytes.  Zero keeps only its sign and
one digit.  The values whose digits this cannot decide get the per-value
`'%.17g' % x` written into their row: |x| outside 1e-99..1e99, inf, nan,
and V within 1e-9 of a half.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_EXP = 99                  # the largest |exponent| the vectorized path prints
_K0 = 90                   # _POW10 column of 10^0; covers k in -90..120
_SPLIT = 134217729.0       # 2^27 + 1, Dekker's splitter for float64
_ROW = 48                  # bytes in a value's template row
_FIRST, _SECOND = 6, 23    # bytes of digit 0 and of the point before the second copy


def _split(v):
    """Dekker's split: halves of at most 26 significant bits, hi + lo == v."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


def _pow10_table() -> np.ndarray:
    """Rows hi, hi's split halves and lo of 10^k, column k + _K0."""
    exact = [Fraction(10) ** k for k in range(-_K0, 121)]
    hi = np.array([float(f) for f in exact])
    lo = np.array([float(f - Fraction(h)) for f, h in zip(exact, hi.tolist())])
    return np.stack([hi, *_split(hi), lo])


def _words(rows: list[bytes]) -> np.ndarray:
    """Each 8-byte string as one native-order uint64."""
    return np.frombuffer(b"".join(rows), dtype=np.uint64).copy()


def _four_digits():
    """(text, trailing zeros) of 0000..9999, the text as one uint32 each."""
    digits = np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
    text = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return text, (np.cumsum(digits[:, ::-1], axis=1) == 0).sum(axis=1)


def _mask_table() -> np.ndarray:
    """Keep masks of the template row, (exponent, sign, significant digits)
    in C order, one (6,) uint64 row each."""
    X, neg, s = np.meshgrid(np.arange(-_EXP, _EXP + 1), [False, True], np.arange(1, 18),
                            indexing="ij")
    X, s = X[..., None], s[..., None]
    fixed = (X >= -4) & (X < 17)
    j = np.arange(17)
    keep = np.zeros(neg.shape + (_ROW,), dtype=bool)
    keep[..., 0] = neg
    keep[..., 1:3] = fixed & (X < 0)
    keep[..., 3:6] = fixed & (X < [-1, -2, -3])
    # first copy: the integer part, the digits after "0.000", or the lead
    keep[..., _FIRST:_FIRST + 17] = (fixed & (X < 0) & (j < s)) | (fixed & (j <= X)) | (
        ~fixed & (j == 0))
    # the point and the second copy: the fraction, or the exponent form's
    keep[..., _SECOND:_SECOND + 17] = (j < s) & ((fixed & (j > X) & (X >= 0)) | ~fixed)
    keep[..., _SECOND] = ((s > X + 1) & (X >= 0) & fixed | (s > 1) & ~fixed)[..., 0]
    keep[..., 40] = True
    keep[..., 41:45] = ~fixed
    return keep.reshape(-1, _ROW).view(np.uint64)


_POW10 = _pow10_table()
_LEAD = _words([b"-0.000%d_" % d for d in range(10)])            # bytes 0..7 by digit 0
_POINT = _words([b"_______."])[0]                                 # bytes 16..23
# bytes 40..47 by (X, last column): the exponent form's tail, or fixed point's separator
_TAIL = _words([b"e%+03d%c___" % (X, sep) if X < -4 or X > 16 else b"%c_______" % sep
                for X in range(-_EXP, _EXP + 1) for sep in b",\n"])
_QUAD, _ZEROS = _four_digits()
_KEEP = _mask_table()


def _per_value(x: float) -> bytes:
    return b"%.17g" % x


def _scaled(a: np.ndarray, d: np.ndarray):
    """(p, t): a 10^(16 - d) = p + t to about 1e-14, p = fl(a hi)."""
    hi, hh, hl, lo = np.take(_POW10, _K0 + 16 - d, axis=1)
    ah, al = _split(a)
    p = a * hi
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo


def _nearest(p: np.ndarray, t: np.ndarray):
    """(q, frac): the integer nearest p + t, ties left undecided, and frac(t)."""
    whole = np.floor(t)
    frac = t - whole
    return p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5), frac


def _off(p: np.ndarray, t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether p + t < 1e16, decided on the pair, or q > 1e17."""
    return (p < 1e16) | ((p == 1e16) & (t < 0)) | (q > 10**17)


def _decimal(x: np.ndarray):
    """(q, d, per_value): each value's 17 digits and its exponent, so that
    |x| rounds to q 10^(d - 16), 0 and 0 for zero, and the values left to
    the per-value path, whose q and d are 0 too."""
    a = np.abs(x)
    bad = (a < 1e-99) | (a >= 1e99) | np.isnan(a)
    a[bad] = 1.0
    d = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, d)
    q, frac = _nearest(p, t)
    # log10 is one off next to a power of ten: V below 1e16, or q above 1e17
    off = np.flatnonzero(_off(p, t, q))
    if off.size:
        d[off] += np.where(q[off] > 10**17, 1, -1)
        p[off], t[off] = _scaled(a[off], d[off])
        q[off], frac[off] = _nearest(p[off], t[off])
        bad[off[_off(p[off], t[off], q[off])]] = True
    carry = q == 10**17
    q[carry] = 10**16
    d += carry
    bad |= np.abs(frac - 0.5) < 1e-9
    q[bad] = 0
    d[bad] = 0
    return q, d, np.flatnonzero(bad & (x != 0))


def _digit_rows(q: np.ndarray):
    """(rows, zeros): template rows up to the exponent, and the trailing
    zeros of each q."""
    upper = q // 10**8
    lead = upper // 10**8
    eights = np.stack([upper - lead * 10**8, q - upper * 10**8])
    groups = np.empty((4, q.size), dtype=np.int64)
    groups[::2] = eights // 10**4
    groups[1::2] = eights - groups[::2] * 10**4
    z = _ZEROS.take(groups)
    zeros = np.where(groups[3], z[3], 4 + np.where(groups[2], z[2], 4 + np.where(
        groups[1], z[1], 4 + z[0])))
    rows = np.empty((q.size, _ROW // 8), dtype=np.uint64)
    rows[:, 0] = _LEAD.take(lead)
    rows[:, 2] = _POINT
    quads = _QUAD.take(groups).T
    text = rows.view(np.uint8)
    text[:, _FIRST + 1:_SECOND].view(np.uint32)[...] = quads
    text[:, _SECOND + 1:_SECOND + 17].view(np.uint32)[...] = quads
    return rows, zeros


def format_rows(table: np.ndarray) -> np.ndarray:
    """The text of `table`'s rows as uint8: each row one line, its values
    at `'%.17g'`, separated by commas."""
    m, c = table.shape
    x = np.ascontiguousarray(table, dtype=np.float64).ravel()
    q, d, per_value = _decimal(x)
    rows, zeros = _digit_rows(q)
    ex = (d + _EXP) * 2
    rows[:, 5] = _TAIL.take((ex.reshape(m, c) + (np.arange(c) == c - 1)).ravel())
    text = rows.view(np.uint8)
    keep = _KEEP.take((ex + np.signbit(x)) * 17 + 16 - zeros, axis=0).view(bool)
    for i in per_value.tolist():
        line = _per_value(x[i]) + (b"\n" if i % c == c - 1 else b",")
        text[i, :len(line)] = np.frombuffer(line, dtype=np.uint8)
        keep[i] = np.arange(_ROW) < len(line)
    return text[keep]


def write_rows(fh, table: np.ndarray, chunk: int) -> None:
    """Write `table`'s rows to the binary file `fh`, `chunk` rows at a time."""
    for start in range(0, table.shape[0], chunk):
        fh.write(format_rows(table[start:start + chunk]))
