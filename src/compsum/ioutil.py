"""File I/O: atomic writes, so an output file appears fully written or not
at all, and UTF-8 reads that turn bad bytes into a DataError."""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from .errors import DataError


def atomic_write_bytes(path: str, data: bytes) -> None:
    # Mode 0o666 less the umask, as open(path, "w") creates a file;
    # tempfile.mkstemp would make every output owner-only.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a "\\n" as UTF-8, atomically; no lines give an
    empty file."""
    atomic_write_bytes(path, "".join(line + "\n" for line in lines).encode("utf-8"))


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
