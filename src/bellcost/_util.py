"""Small shared helpers: atomic file writes and numeric formatting."""

from __future__ import annotations

import contextlib
import os
import tempfile
from collections.abc import Iterator
from typing import BinaryIO


@contextlib.contextmanager
def atomic_writer(path: str) -> Iterator[BinaryIO]:
    """Open a binary file that replaces path only when the block exits cleanly.

    The bytes go to a temp file beside path, renamed over it at the end, so readers never
    see a partial file; an exception inside the block removes the temp file instead.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8 via a temp file + rename, so readers never see a partial file."""
    with atomic_writer(path) as fh:
        fh.write(text.encode())


def fmt12(value: float) -> str:
    """Format a float with 12 significant digits (CSV convention)."""
    return f"{value:.12g}"
