"""File I/O: atomic writes, so an output file appears fully written or not
at all, and UTF-8 reads that turn bad bytes into a DataError."""

from __future__ import annotations

import os
import tempfile
from typing import Iterator

from .errors import DataError


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def utf8_lines(path: str) -> Iterator[str]:
    """The lines of a text file, as iterating ``open(path, encoding="utf-8")``
    yields them; invalid UTF-8 raises DataError naming the file and the
    first line that holds it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        # bytes.splitlines breaks at \n, \r and \r\n, as the text file does.
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        for line_no, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path!r} line {line_no}: invalid UTF-8") from None
        raise DataError(f"{path!r}: invalid UTF-8") from None
