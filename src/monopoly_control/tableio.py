"""CSV and key = value writers shared by the exporting modules.

Every number in an export is rendered as ``"%.17g" % x`` (17 significant
digits, round-trip exact for float64), so identical inputs give
byte-identical files.  write_keyvalues formats its few floats with
format(); write_csv formats whole tables through one numpy kernel whose
bytes equal the % loop's.

The kernel (_csv_rows) takes a chunk of rows and, per element:

- finds the decimal exponent e = floor(log10|x|) and forms the
  double-double product P = |x| * 10**(16 - e).  The power of ten is a
  (hi, lo) pair built with exact integer arithmetic (CPython rounds
  int / int and float(int) correctly), with hi pre-split for Dekker's
  exact product, so P carries an error of about 2**-47;
- rounds P to the 17-digit integer N, inserts a zero digit where the
  decimal point goes, reads the digits four bytes at a time from a table
  of the digits of 0000..9999, and turns them into ASCII with one table
  word that also places the point and the sign and blanks the leading and
  trailing bytes the %g rules strip (fixed notation for exponents
  -4..16, otherwise d.ddde+XX);
- lays each element out in 32 bytes, unused bytes NUL, and deletes the
  NULs of the whole chunk with one bytes.translate.

The certificate.  An element keeps the kernel's digits only when |x| lies
in [1e-280, 1e280], where the Veltkamp split can neither overflow nor
underflow; floor(P) lies in [1e16, 1e17) before rounding, so e was right;
and the fraction of P is more than 2**-40 from 1/2, far above P's error,
so the rounding direction is certain.  Zeros are written by the kernel as
0 and -0.  Every other element (inf, nan, subnormals, near or exact
decimal ties, and exponents log10 got wrong near a power of ten) is
written by format(x, ".17g"): the guard that keeps the bytes exact, not a
second format.
"""

from __future__ import annotations

import functools
import os
from typing import Sequence

import numpy as np

# rows formatted per write in write_csv
_CHUNK_ROWS = 512
# |x| range the kernel certifies; outside it the split may overflow or underflow
_LO, _HI = 1e-280, 1e280
# Veltkamp splitter for 53-bit doubles
_SPLIT = 134217729.0
# least distance of P's fraction from 1/2 the kernel trusts (error ~2**-47)
_TIE = 2.0 ** -40
# exponent tables cover E in [-_EOFF, _EOFF], enough for [_LO, _HI]
_EOFF = 300
# weights that read the three digit words of a field as one number
_WORD_WEIGHTS = np.array([1.0, 2.0 ** 64, 2.0 ** 128, 0.0])


@functools.lru_cache(maxsize=64)
def _pow10_rows(emin: int, emax: int) -> np.ndarray:
    """Rows hi, head, tail, lo of 10**(16 - e) for e = emin..emax: hi + lo
    is 10**(16 - e) to about 2**-106 relative, and head + tail = hi is the
    Veltkamp split of hi."""
    rows = []
    for q in range(16 - emin, 15 - emax, -1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        t = _SPLIT * hi
        head = t - (t - hi)
        rows.append((hi, head, hi - head, (num * hd - hn * den) / (den * hd)))
    return np.array(rows).T.copy()


@functools.cache
def _tables():
    """Tables indexed by E + _EOFF, the byte offsets of a field, and the
    digits of 0000..9999, one value per byte, the first in the lowest."""
    es = np.arange(-_EOFF, _EOFF + 1, dtype=np.int64)
    fixed = (es >= -4) & (es <= 16)
    ef = np.where(fixed, es, 0)                # digits before the point - 1
    # 10**r, r = digits after the point (capped: N < 10**17)
    pow_r = 10 ** np.minimum(16 - ef, 17)
    # exponent and separator word: "e+XX" or nothing, then ',' or '\n'
    tails = [(b"" if f else b"e%+03d" % e).ljust(5, b"\0") + sep + b"\0\0"
             for e, f in zip(es.tolist(), fixed.tolist()) for sep in (b",", b"\n")]
    exp_word = np.frombuffer(b"".join(tails), np.uint64)
    # offsets added to the digit values of a field, by (sign, ef, end):
    # '0' on bytes [start, end), '.' on the point byte if it is kept,
    # '-' on byte 1 of a negative, NUL elsewhere
    b = np.arange(32)
    c = np.arange(-4, 17)[:, None, None]
    end = np.arange(25)[None, :, None]
    start = 6 + np.minimum(c, 0)
    point = 7 + c
    off = np.where((b >= start) & (b < end), 0x30, 0)
    off = np.where((b == point) & (point < end), 0x2E, off)
    off = np.stack([off, off])
    off[1, :, :, 1] = 0x2D
    off = off.astype(np.uint8).view(np.uint64).reshape(-1, 4)
    d = np.arange(10, dtype=np.uint32)
    digits4 = (d[:, None, None, None] | d[:, None, None] << 8
               | d[:, None] << 16 | d << 24).ravel()
    return pow_r, 7 + ef, 25 * (ef + 4), exp_word, off, digits4


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV bytes of a 2-D float64 block, each row ending in a newline;
    equal to joining "%.17g" % x by commas and rows by newlines."""
    pow_r, point_of, row_of, exp_word, off, digits4 = _tables()
    rows, ncol = block.shape
    x = block.ravel()
    n = x.size
    a = np.abs(x)
    ok = (a >= _LO) & (a <= _HI)
    np.copyto(a, 1.0, where=~ok)
    t = np.log10(a)
    np.floor(t, out=t)
    e = t.astype(np.int64)

    # P = a * 10**(16 - e) = p + err: p = fl(a * hi) and err its exact
    # error (Dekker's product) plus a * lo; buffers are reused in place
    emin = int(e.min())
    p, head, tail, lo = _pow10_rows(emin, int(e.max())).take(e - emin, axis=1)
    np.multiply(a, _SPLIT, out=t)
    ah = t - a
    np.subtract(t, ah, out=ah)
    al = np.subtract(a, ah, out=t)
    np.multiply(a, p, out=p)
    err = ah * head
    err -= p
    np.multiply(ah, tail, out=ah)
    err += ah
    np.multiply(al, head, out=head)
    err += head
    np.multiply(al, tail, out=tail)
    err += tail
    np.multiply(a, lo, out=lo)
    err += lo
    np.floor(err, out=a)
    err -= a                                   # fraction of P
    N = p.astype(np.int64)
    N += a.astype(np.int64)                    # floor(P)
    del a, t, ah, al, p, head, tail, lo

    cert = N >= 10 ** 16                       # e was not too large
    cert &= ok
    N += err > 0.5
    cert &= N < 10 ** 17                       # nor too small
    err -= 0.5
    np.abs(err, out=err)
    cert &= err > _TIE                         # no tie within P's error
    del err
    N *= cert                                  # zeros and the guarded: "0"
    e *= cert
    e += _EOFF

    # X: N with a 0 digit inserted where the point goes (r digits after it)
    pr = pow_r.take(e)
    X = N // pr
    X *= pr
    X *= 9
    X += N
    # four 8-digit lanes: X's top 2 digits, its next 8, its last 8, and 0
    V = np.empty((n, 4), np.int64)
    V[:, 3] = 0
    np.floor_divide(X, 10 ** 8, out=N)
    np.multiply(N, 10 ** 8, out=pr)
    np.subtract(X, pr, out=V[:, 2])
    np.floor_divide(N, 10 ** 8, out=V[:, 0])
    np.multiply(V[:, 0], 10 ** 8, out=pr)
    np.subtract(N, pr, out=V[:, 1])
    del X, N, pr
    # each lane's first and last four digits, read from the digit table
    # into the low and high halves of r: one digit value per byte
    q = V // 10 ** 4
    r = q * 10 ** 4
    V -= r
    halves = r.view(np.uint32).reshape(n, 4, 2)
    np.take(digits4, q, out=halves[:, :, 0])
    np.take(digits4, V, out=halves[:, :, 1])
    V, q = r.view(np.uint64), q.view(np.uint64)

    # one past the last nonzero digit byte: the bit length of the digit
    # words read as one number (bytes are at most 9, so rounding that sum
    # to a double cannot carry it to the next power of two)
    end = (V.astype(np.float64) @ _WORD_WEIGHTS).view(np.int64)
    end >>= 52
    end -= 1015                                # bit length (exponent - 1022) + 7
    end >>= 3
    np.maximum(end, point_of.take(e), out=end)  # never cut before the point
    row = row_of.take(e)                       # off is (sign, ef, end):
    row += end                                 # 2 x 21 x 25 rows
    row += np.signbit(x) * 525
    V += np.take(off, row, axis=0, out=q)
    e *= 2
    e.reshape(rows, ncol)[:, -1] += 1          # the last column ends a line
    V[:, 3] = exp_word.take(e)

    # the guard: format() writes what the certificate rejected into bytes
    # 0..28 of its field; byte 29 keeps the separator
    bad = np.flatnonzero(~cert & (x != 0))
    if bad.size:
        text = "".join(format(v, ".17g").ljust(29, "\0") for v in x[bad].tolist())
        V.view(np.uint8)[bad, :29] = np.frombuffer(
            text.encode("ascii"), np.uint8).reshape(-1, 29)
    return V.tobytes().translate(None, b"\0")


def write_csv(path: str | os.PathLike, header: Sequence[str],
              columns: Sequence[Sequence[float]]) -> None:
    """Write columns of floats under a comma-separated header.

    Rows are formatted and written _CHUNK_ROWS at a time, so memory stays
    bounded however long the table is.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("columns differ in length")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for s in range(0, n, _CHUNK_ROWS):
            fh.write(_csv_rows(np.column_stack(
                [c[s:s + _CHUNK_ROWS] for c in cols])))


def write_keyvalues(path: str | os.PathLike, items: Sequence[tuple[str, object]]) -> None:
    """Write `key = value` lines; floats get the 17-digit format."""
    lines = []
    for key, val in items:
        if isinstance(val, float):
            val = format(val, ".17g")
        lines.append(f"{key} = {val}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
