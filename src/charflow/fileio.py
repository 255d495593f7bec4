"""Atomic artifact writes.

Every artifact goes to a temporary sibling of its path first and replaces
the path only once it is complete, so a write that fails midway leaves the
previous file as it was and no temporary file behind.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["atomic_open"]


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file next to ``path`` for writing; ``os.replace`` it on success.

    ``mode`` is "w" (UTF-8 text) or "wb".  The temporary file is created in
    the target directory, so the final rename never crosses a file system.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
