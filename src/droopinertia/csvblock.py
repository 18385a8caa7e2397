"""Formatting of CSV row blocks, the body of the package's one CSV writer.

This module imports nothing but the standard library, so the writer can also
run it as a formatter process of its own: ``python -I -S csvblock.py``
starts in 10–15 ms on a 2-vCPU VM, where importing the package and numpy
takes over 100 ms. That process greets its parent with the marshal object
None, then answers each ``(keep, parts)`` object that marshal.load reads from
stdin with ``format_block(parts, keep)``, marshal.dump-ed to stdout, until
stdin ends.

A text kept for a later write is packed two characters a byte (see pack), so
it takes half the memory, and half the pipe, of its str.
"""

import marshal
import os


# the characters of a formatted number and of the ", " between two, in the
# order of the hex digits that stand for them; a hex digit that stands for
# none of them is mapped to "x", which bytes.fromhex refuses
_ALPHABET = "0123456789.-e+, "
_PACK = str.maketrans(_ALPHABET + "abcdfABCDEF", "0123456789abcdef" + "x" * 11)
_UNPACK = str.maketrans("0123456789abcdef", _ALPHABET)


def pack(text: str) -> bytes | None:
    """text two characters a byte, an odd length padded with a space; None
    if text holds a character outside _ALPHABET (as ``nan`` and ``inf`` do)
    or ends with a space, so that unpack(pack(text)) == text."""
    if text.endswith(" "):
        return None
    try:
        packed = bytes.fromhex((text + " " * (len(text) & 1)).translate(_PACK))
    except ValueError:
        return None
    # fromhex skips ASCII whitespace, such as a newline, between two bytes
    return packed if len(packed) == (len(text) + 1) // 2 else None


def unpack(packed: bytes) -> str:
    """The text that pack packed into packed."""
    text = packed.hex().translate(_UNPACK)
    return text[:-1] if text.endswith(" ") else text


def format_block(parts: list, keep: int) -> tuple[str, list]:
    """The CSV rows of one block of columns, each value exactly ``repr`` of
    its Python scalar, and the (column, packed text) pairs among the first
    ``keep`` columns that the writer may keep for a later write: those whose
    text pack accepts.

    A part is a column's values as (struct format, native bytes), or, for a
    column an earlier write kept, its packed text. A column that is constant,
    or bit-identical to an earlier column of the block, is formatted once."""
    formatted: dict[object, list[str]] = {}
    fields, kept = [], []
    for i, part in enumerate(parts):
        if part not in formatted:
            if isinstance(part, bytes):
                formatted[part] = unpack(part).split(", ")
            else:
                values = memoryview(part[1]).cast(part[0])
                if part[1] == part[1][: values.itemsize] * len(values):
                    formatted[part] = [repr(values[0])] * len(values)
                else:
                    text = repr(values.tolist())[1:-1]
                    packed = pack(text) if i < keep else None
                    if packed is not None:
                        kept.append((i, packed))
                    formatted[part] = text.split(", ")
        fields.append(formatted[part])
    return "\n".join(map(",".join, zip(*fields, strict=True))) + "\n", kept


def _serve() -> None:
    with open(0, "rb") as requests, open(1, "wb") as replies:
        reply = None  # the greeting
        while True:
            marshal.dump(reply, replies)
            replies.flush()
            try:
                keep, parts = marshal.load(requests)
            except EOFError:
                return
            reply = format_block(parts, keep)


if __name__ == "__main__":
    try:
        _serve()
    except BaseException:  # a closed pipe or an interrupt: the writer reports it
        os._exit(1)
