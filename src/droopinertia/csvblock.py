"""Formatting of CSV rows, the body of the package's one CSV writer.

format_block writes each value as exactly ``repr`` of its Python scalar, in
whole-column numpy operations: the shortest round-trip digits of a float64,
the closest to it of those, by the common path of Ryū (Adams, "Ryū: fast
float-to-string conversion", PLDI 2018) on int64 limbs; its text in 8-byte
slot words, each a table take by the value's layout ANDed with a word of its
digits; and the rows as the chunk's words side by side, their zero bytes
dropped by one ``bytes.translate``. repr still formats, once per distinct
value, the values off that path: non-finite values, subnormals, powers of
two, Ryū's trailing-zero cases (among them every float of magnitude 2**49 or
more) and the values of a column that is not float64.
"""

import numpy as np

_LIMB = 31
_LIMB_MASK = (1 << _LIMB) - 1
_MANTISSA = (1 << 52) - 1


def _ryu_tables() -> np.ndarray:
    """Per biased exponent of a float64, mv * 2**e2 with mv 4 times its
    mantissa and hidden bit: the mantissa bits of which one must be set on
    Ryū's common path (none off it); the decimal exponent of vr; the 31-bit
    limbs of Ryū's 125-bit power of 5, P, shifted so that vr = mv * P >> 124;
    and 2P as spread * 2**124 + low, with low and 2**124 - low in halves."""
    table = np.zeros((12, 2048), np.int64)  # 0 and 1072 up: off the path
    top, half = 1 << 124, (1 << 62) - 1
    for biased in range(1, 1072):  # normal, and mv * 2**e2 < 2**50
        e2 = biased - 1077
        q = (-e2 * 732923 >> 20) - 1  # log10(5**-e2), floored, less one
        pow5 = 5 ** (-e2 - q)
        k = pow5.bit_length() - 125  # Ryū's 5**i is pow5 >> k, its shift q - k
        mul = (pow5 >> k if k >= 0 else pow5 << -k) << (124 - q + k)
        # vr ends in zeros where mv has q trailing zero bits: m2 has q - 2
        needed = (1 << min(q - 2, 52)) - 1 if q > 2 else 0
        low = 2 * mul & top - 1
        table[:, biased] = (needed, q + e2, mul & _LIMB_MASK, mul >> 31 & _LIMB_MASK,
                            mul >> 62 & _LIMB_MASK, mul >> 93 & _LIMB_MASK, mul >> 124,
                            2 * mul >> 124, low >> 62, low & half, top - low >> 62, top - low & half)
    return table


_RYU = _ryu_tables()
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _shortest(bits: np.ndarray):
    """(digits, exponent, on_path) of float64 bits viewed as int64: where
    on_path, digits * 10**exponent is the shortest decimal that reads back
    as the value, the closest to it of those; digits is 0 elsewhere."""
    (needed, exponent, p0, p1, p2, p3, p4, spread, down_high, down_low, up_high,
     up_low) = _RYU.take((bits >> 52) & 2047, axis=1)
    on_path = (bits & needed) != 0
    mv = ((bits & _MANTISSA) | (1 << 52)) << 2
    a0, a1 = mv & _LIMB_MASK, mv >> _LIMB
    # mv * P, a 31-bit column at a time from the bottom: the 124 bits below
    # vr as two 62-bit halves, low and high, and vr above them
    vr = a0 * p0
    low = vr & _LIMB_MASK
    vr = (vr >> _LIMB) + a0 * p1 + a1 * p0
    low |= (vr & _LIMB_MASK) << _LIMB
    vr = (vr >> _LIMB) + a0 * p2 + a1 * p1
    high = vr & _LIMB_MASK
    vr = (vr >> _LIMB) + a0 * p3 + a1 * p2
    high |= (vr & _LIMB_MASK) << _LIMB
    vr = (vr >> _LIMB) + a0 * p4 + a1 * p3 + ((a1 * p4) << _LIMB)
    # vp, vm: (mv + 2) * P >> 124 and (mv - 2) * P >> 124
    vp = vr + spread + ((high > up_high) | (high == up_high) & (low >= up_low))
    vm = vr - spread - ((high < down_high) | (high == down_high) & (low < down_low))

    # drop the most digits that leave a decimal in the interval (vm, vp]
    # (16, 8, 4, 2 and 1 at a time), and round to nearest on the first one
    removed = np.zeros_like(vr)
    for k in (16, 8, 4, 2, 1):
        pk, mk = vp // _POW10[k], vm // _POW10[k]
        step = pk > mk
        if step.any():
            vp = np.where(step, pk, vp)
            vm = np.where(step, mk, vm)
            removed += step * k
    kept = vr // _POW10.take(np.maximum(removed - 1, 0))
    vr = np.where(removed > 0, kept // 10, kept)
    round_up = (removed > 0) & (kept - vr * 10 >= 5)
    digits = np.where(on_path, vr + ((vr == vm) | round_up), 0)
    return digits, exponent + removed, on_path


# A float's slot, in 8-byte words: the comma before it, and every character
# repr could write for a value on Ryū's common path, at a fixed byte. The
# digits stand twice, as A and B, so that a point can fall after any of
# them: an integer part is kept from A, a fraction from B.
#   word 0: "," "-" "0." three leading zeros, A's first digit; in scientific
#           form the first digit stands in the "0" of "0."
#   words 1-2: A's other 16 digits
#   word 3: "e-" and three exponent digits, two unused bytes, "."
#   words 4-5: B's other 16 digits
#   words 6-7: 14 trailing zeros, ".0"
_WORDS = 8
_LEAD, _A, _E, _POINT, _B, _POINT_ZERO = 2, 7, 24, 31, 32, 62
# layouts: (point -3 to 15, count 1 to 17) in fixed form, as values on the path
# are below 2**49 < 10**15; (count, 3-digit exponent) in scientific; off the path
_FIXED = 19 * 17
_LAYOUTS = _FIXED + 2 * 17 + 1


def _slot_table() -> np.ndarray:
    """Per code, negative * _LAYOUTS + layout: each byte of the slot, 0xFF
    for a digit kept, 0 for a byte left empty."""
    slots = [bytearray(8 * _WORDS) for _ in range(_LAYOUTS)]

    def put(layout, at, text):
        slots[layout][at:at + len(text)] = text

    for point in range(-3, 16):
        for count in range(1, 18):
            layout = (point + 3) * 17 + count - 1
            if point <= 0:  # 0.000ddd
                put(layout, _LEAD, b"0." + b"0" * -point)
                put(layout, _A, b"\xff" * count)
            elif point < count:  # ddd.ddd
                put(layout, _A, b"\xff" * point)
                put(layout, _POINT, b".")
                put(layout, _B + point - 1, b"\xff" * (count - point))
            else:  # ddd000.0
                put(layout, _A, b"\xff" * count)
                put(layout, _POINT_ZERO - (point - count), b"0" * (point - count) + b".0")
    for count in range(1, 18):
        for wide in (0, 1):  # d.ddde-XX or d.ddde-XXX
            layout = _FIXED + 2 * (count - 1) + wide
            put(layout, _LEAD, b"\xff." if count > 1 else b"\xff")
            put(layout, _A + 1, b"\xff" * (count - 1))
            put(layout, _E, b"e-")
            put(layout, _E + 3 - wide, b"\xff" * (2 + wide))
    table = np.frombuffer(b"".join(slots) * 2, np.uint8).reshape(2 * _LAYOUTS, 8 * _WORDS).copy()
    table[_LAYOUTS:-1, 1] = ord("-")
    table[:, 0] = ord(",")
    return table


_SLOT = _slot_table().view(np.uint64).T.copy()  # word, code
_USED = (_SLOT != 0).T  # code, word


def _words(text: bytes) -> np.ndarray:
    """text as 8-byte words, the last one padded with zero bytes."""
    return np.frombuffer(text.ljust(-(-len(text) // 8) * 8, b"\0"), np.uint64)


def _digit_words(width: int, at: int, fill: int) -> np.ndarray:
    """Per k below 10**width, a word that holds the ASCII digits of k from
    byte ``at``, and ``fill`` in its other bytes."""
    k = np.arange(10 ** width, dtype=np.int32)
    text = np.full((k.size, 8), fill, np.uint8)
    for j in range(width):
        text[:, at + j] = k // 10 ** (width - 1 - j) % 10 + ord("0")
    return text.view(np.uint64).ravel()


# words of digits to AND with a slot's words: the first digit in the last
# byte of word 0, and also in its third for scientific form; four digits in
# the low or the high half of a word; and three from byte 2 of word 3
_FIRST = np.concatenate([_digit_words(1, 7, 0xFF),
                         _digit_words(1, 7, 0xFF) & _digit_words(1, 2, 0xFF)])
_LOW4 = _digit_words(4, 0, 0)
_HIGH4 = _digit_words(4, 4, 0)
_SCALE3 = _digit_words(3, 2, 0xFF)
_NO_COMMA = np.frombuffer(b"\0" + b"\xff" * 7, np.uint64)[0]


def _repr_words(values: np.ndarray, before: str = "") -> np.ndarray:
    """Rows of 8-byte words that hold ``before`` and repr of each value's
    Python scalar in ASCII, padded with zero bytes to the longest; repr runs
    once per distinct bit pattern."""
    distinct, index = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    texts = [(before + repr(v)).encode() for v in distinct.view(values.dtype).tolist()]
    width = -(-max(map(len, texts)) // 8) * 8
    return np.array(texts, f"S{width}").view(np.uint64).reshape(len(texts), -1)[index.ravel()]


def _float_words(values: np.ndarray) -> list[list[np.ndarray]]:
    """Per row of a 2-d float64 array, columns of 8-byte words whose rows,
    with their zero bytes dropped, are a comma and the repr of each value."""
    bits = values.reshape(-1).view(np.int64)
    digits, exponent, on_path = _shortest(bits)
    zero = (bits << 1) == 0  # ±0.0, set out as the one digit 0 before the point
    shown = on_path | zero
    count = np.searchsorted(_POW10, digits, side="right")  # 0 off the path
    count[zero] = 1
    point = np.where(zero, 1, exponent + count)  # the value is 0.<digits> * 10**point
    fixed = shown & (point > -4)
    sci = on_path & ~fixed
    layout = np.where(fixed, (point + 3) * 17 + count - 1, _LAYOUTS - 1)

    # the digits, left-aligned in 17 columns, as words to AND with the slot's
    padded = digits * _POW10.take(17 - count)
    first = padded // _POW10[16]
    rest = padded - first * _POW10[16]
    high = rest // _POW10[8]
    low = rest - high * _POW10[8]
    digit_words = {0: _FIRST.take(first + 10 * sci)}
    for words, half in (((1, 4), high), ((2, 5), low)):
        top = half // 10000
        digit_words[words[0]] = digit_words[words[1]] = (
            _LOW4.take(top) | _HIGH4.take(half - top * 10000))
    if sci.any():
        layout[sci] = _FIXED + 2 * (count[sci] - 1) + (point[sci] <= -99)
        digit_words[3] = _SCALE3.take(np.where(sci, 1 - point, 0))

    code = (layout + _LAYOUTS * (shown & (bits < 0))).reshape(values.shape)
    shown = shown.reshape(values.shape)
    digit_words = {word: d.reshape(values.shape) for word, d in digit_words.items()}
    fields = []
    for row, row_code in enumerate(code):
        columns = []
        for word in np.flatnonzero(_USED[np.bincount(row_code, minlength=len(_USED)) > 0]
                                   .any(axis=0)):
            columns.append(_SLOT[word].take(row_code))
            if word in digit_words:
                columns[-1] &= digit_words[word][row]
        # the values off the path: their slots hold only the comma, so their
        # text takes the field's words from the first, and more if it needs
        off = np.flatnonzero(~shown[row])
        if off.size:
            for j, text in enumerate(_repr_words(values[row, off], ",").T):
                if j == len(columns):
                    columns.append(np.zeros(values.shape[1], np.uint64))
                columns[j][off] = text
        fields.append(columns)
    return fields


def format_block(cols: list[np.ndarray]) -> bytearray:
    """The CSV rows of equal-length 1-d columns, each value exactly ``repr``
    of its Python scalar. A column that is constant, or bit-identical to an
    earlier one, is formatted once."""
    rows = len(cols[0])
    fields, distinct = [], {}  # each column's key; the text of each (dtype, bytes) key
    for col in cols:
        col = np.ascontiguousarray(col)
        key = (col.dtype.str, col.tobytes())
        if key not in distinct:
            bits = col.view(f"u{col.itemsize}")
            distinct[key] = (f",{col[0].item()!r}" if (bits == bits[0]).all() else
                             col if col.dtype == np.float64 else list(_repr_words(col, ",").T))
        fields.append(key)
    # the other float64 columns, formatted together
    floats = [key for key, text in distinct.items() if isinstance(text, np.ndarray)]
    if floats:
        for key, words in zip(floats, _float_words(np.stack([distinct[k] for k in floats]))):
            distinct[key] = words
    # the word columns of each row, a run of constant fields sharing words
    words, constant = [], ""
    for i, text in enumerate(map(distinct.get, fields)):
        if isinstance(text, str):
            constant += text if i else text[1:]
            continue
        words.extend(_words(constant.encode()))
        words.extend(text if i else [text[0] & _NO_COMMA, *text[1:]])
        constant = ""
    words.extend(_words(f"{constant}\n".encode()))
    text = bytearray(8 * rows * len(words))
    np.stack([w if isinstance(w, np.ndarray) else np.broadcast_to(w, rows) for w in words],
             axis=1, out=np.frombuffer(text, np.uint64).reshape(rows, len(words)))
    return text.translate(None, b"\0")
