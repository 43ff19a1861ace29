"""OBJ text of mesh arrays, a block of lines at a time: each vertex
coordinate as its repr, each face index in decimal.

repr prints the shortest decimal that reads back to the float, and of
those the nearest (Adams, "Ryu: fast float-to-string conversion", PLDI
2018, states the contract).  `repr_fields` finds it for a whole array.
For 1e-4 <= |x| < 1, the range of every chart coordinate, repr is
"0." and the digits of x, and those digits are the nearest 15-digit
decimal with its trailing zeros dropped, or else the nearest 16-digit
one, or else the nearest 17-digit one, whichever first lies within half
an ulp of x: a decimal of at most 15 digits that reads back is the
nearest such, and 17 digits always read back.  Every step is exact in
float64 arithmetic:

* x 10^k = N + f, with N an integer of 15 digits and 0 <= f < 1.
  Dekker's TwoProduct gives the product as p + e.  As x has 53 bits
  from 2^-66 up and 5^k < 2^42, f is a multiple of 2^-48, and 10 f and
  100 f are multiples of 2^-47 and 2^-46 below 2^7: each is a float64.
* Half an ulp of x times 10^k is a power of two times 5^k, exact too.
  A candidate's distance from N + f never equals it: x +- half an ulp
  has more binary places than any decimal of 20 places.  At a power of
  two, whose ulp below is half the ulp above, the bound is taken as 0;
  the 17-digit rounding is then the power of two itself, a decimal of
  at most 13 digits, and its trailing zeros are dropped as any others.
* At an exact midpoint, as 16 digits of 0.5 + 2^-17 have, repr keeps
  the even digit, as numpy.round does.

Every other float (0, |x| < 1e-4, |x| >= 1, inf and nan) takes repr.
Digits are written two at a time from a table of the 100 pairs.
"""

import numpy as np

# vertices, or faces, per block of lines
BLOCK = 256
# the longest repr of a float64: "-2.2250738585072014e-308"
WIDTH = 24
_SPLIT = 134217729.0  # 2^27 + 1, which splits a float64 into two halves
_TWO53 = 9007199254740992.0
# the decades of 1e-4 <= |x| < 1 and their 10^k, which make N + f < 10^15
_DECADES = (1e-3, 1e-2, 1e-1)
_SCALES = (1e18, 1e17, 1e16, 1e15)
# the places of a first digit and of the seven pairs after it
_PLACES = (1e14, 1e12, 1e10, 1e8, 1e6, 1e4, 1e2, 1.0)


def _pair_table():
    """The two-byte texts of 00..99 as uint16, three times: with trailing
    zeros as NUL, as they are, and with leading zeros as NUL."""
    digits = np.frombuffer(b"0123456789", np.uint8)
    table = np.empty((3, 10, 10, 2), np.uint8)
    table[..., 0] = digits[:, None]
    table[..., 1] = digits
    table[0, :, 0, 1] = table[2, 0, :, 0] = table[[0, 2], 0, 0] = 0
    return table.reshape(-1).view(np.uint16)


_PAIRS = _pair_table()


def _two_product(a, b):
    """p, e with p + e == a b exactly (Dekker 1971), for a b far from
    overflow and underflow."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _pair_text(index) -> np.ndarray:
    """The (2 rows, cols) uint8 codes of a (rows, cols) float array of
    indices into _PAIRS, the two bytes of a pair in consecutive rows."""
    rows, cols = index.shape
    pairs = _PAIRS.take(index.astype(np.intp)).view(np.uint8)
    return pairs.reshape(rows, cols, 2).transpose(0, 2, 1).reshape(2 * rows, cols)


def repr_fields(x) -> np.ndarray:
    """repr(float(y)) for each y of the float64 array x, as the rows of a
    (len(x), WIDTH) uint8 array, each padded with NUL."""
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    decade = np.searchsorted(_DECADES, a, side="right")
    scale = np.take(_SCALES, decade)
    p, e = _two_product(a, scale)
    n = np.floor(p)
    f = (p - n) + e
    below = f < 0.0
    n -= below
    f += below
    # (q + a) - q is 2^(E+1) for 2^E < a < 2^(E+1), and 0 at a = 2^E
    # (Rump's NextPowerTwo)
    q = a * _TWO53
    half_ulp = ((q + a) - q) * (scale * 2.0 ** -54)
    r15 = np.round(f)
    at15 = np.abs(f - r15) < half_ulp
    g = 10.0 * f
    r16 = np.round(g)
    at16 = np.abs(g - r16) < 10.0 * half_ulp
    # N or N + 1, then a last pair of digits: 0, 10 r16 or r17
    head = np.where(at15, n + r15, n)
    tail = np.where(at15, 0.0, np.where(at16, 10.0 * r16, np.round(100.0 * f)))
    places = np.array(_PLACES)[:, None]
    d = np.floor(head / places)
    index = np.empty((8, len(x)))
    # a pair with no later digit but 0 drops its trailing zeros
    rest = (head - d[1:] * places[1:]) + tail
    np.add(d[1:] - 100.0 * d[:-1], 100.0 * np.minimum(rest, 1.0), out=index[:7])
    index[7] = tail
    fields = np.zeros((WIDTH, len(x)), np.uint8)
    fields[0] = np.where(x < 0.0, ord("-"), 0)
    fields[1:3] = [[ord("0")], [ord(".")]]
    fields[3:6] = (decade < [[3], [2], [1]]) * ord("0")
    fields[6] = d[0] + ord("0")
    fields[7:23] = _pair_text(index)
    for i in np.flatnonzero(~fast).tolist():
        text = repr(float(x[i])).encode("ascii")
        fields[:, i] = 0
        fields[:len(text), i] = np.frombuffer(text, np.uint8)
    return fields.T


def int_fields(v, width) -> np.ndarray:
    """The decimal text of the positive integers v (floats below 10^width)
    as the rows of a uint8 array, each padded with NUL."""
    places = np.array(_PLACES[-((width + 1) // 2):])[:, None]
    d = np.floor(np.ravel(v) / places)
    index = d.copy()
    index[1:] -= 100.0 * d[:-1]
    # a pair with no earlier digit but 0 drops its leading zeros
    index[1:] += 200.0 - 100.0 * np.minimum(d[:-1], 1.0)
    index[0] += 200.0
    return _pair_text(index).T


def lines(tag, fields, per_line) -> bytes:
    """The lines "tag f1 f2 ...\\n" of each per_line consecutive rows of
    fields, without their NUL padding."""
    n, width = len(fields) // per_line, fields.shape[1]
    text = np.zeros((2 + per_line * (width + 1), n), np.uint8)
    text[0] = ord(tag)
    text[-1] = ord("\n")
    body = text[1:-1].reshape(per_line, width + 1, n)
    body[:, 0] = ord(" ")
    body[:, 1:] = fields.reshape(n, per_line, width).transpose(1, 2, 0)
    return text.T.tobytes().translate(None, b"\0")
