"""Formatting of CSV row blocks, the body of the package's one CSV writer.

This module imports nothing but the standard library, so the writer can also
run it as a formatter process of its own: ``python -I -S csvblock.py``
starts in 10–15 ms on a 2-vCPU VM, where importing the package and numpy
takes over 100 ms. That process greets its parent with an empty message,
then answers each ``(keep, parts)`` message on stdin with
``format_block(parts, keep)`` on stdout until stdin ends. A message is its
marshal bytes behind their length as 8 little-endian bytes.
"""

import marshal
import os


def format_block(parts: list, keep: int) -> tuple[str, list]:
    """The CSV rows of one block of columns, each value exactly ``repr`` of
    its Python scalar, and the (column, text) pairs among the first ``keep``
    columns that the writer may keep for a later write.

    A part is a column's values as (struct format, native bytes), or, for a
    column an earlier write kept, its text. A column that is constant, or
    bit-identical to an earlier column of the block, is formatted once."""
    formatted: dict[object, list[str]] = {}
    fields, kept = [], []
    for i, part in enumerate(parts):
        if part not in formatted:
            if isinstance(part, str):
                formatted[part] = part.split(", ")
            else:
                values = memoryview(part[1]).cast(part[0])
                if part[1] == part[1][: values.itemsize] * len(values):
                    formatted[part] = [repr(values[0])] * len(values)
                else:
                    text = repr(values.tolist())[1:-1]
                    if i < keep:
                        kept.append((i, text))
                    formatted[part] = text.split(", ")
        fields.append(formatted[part])
    return "\n".join(map(",".join, zip(*fields, strict=True))) + "\n", kept


def send(f, message) -> None:
    data = marshal.dumps(message)
    f.write(len(data).to_bytes(8, "little"))
    f.write(data)
    f.flush()


def receive(f):
    """The next message on f; EOFError if f ends, also within a message."""
    head = f.read(8)
    size = int.from_bytes(head, "little")
    data = f.read(size) if len(head) == 8 else b""
    if len(head) < 8 or len(data) < size:
        raise EOFError
    return marshal.loads(data)


def _serve() -> None:
    with open(0, "rb") as requests, open(1, "wb") as replies:
        send(replies, None)
        while True:
            try:
                keep, parts = receive(requests)
            except EOFError:
                return
            send(replies, format_block(parts, keep))


if __name__ == "__main__":
    try:
        _serve()
    except BaseException:  # a closed pipe or an interrupt: the writer reports it
        os._exit(1)
