"""Replacing a file whole: every file annorate replaces is written here."""

import os
from collections.abc import Iterable
from pathlib import Path


def replace_file(path: Path, chunks: Iterable, mode: str = "wb", **open_args) -> None:
    """Write ``chunks`` to a new file beside ``path``, then rename it onto ``path``.

    ``mode`` and ``open_args`` are those of :func:`open`; the new file is
    ``.{name}.{16 hex digits}.part``, opened with ``x`` in place of ``w``, so
    it takes the umask's mode and never overwrites another file. The leading
    dot keeps it out of corpus loading. A reader of ``path`` sees the old
    file or the whole new one, and a symlink or read-only file at ``path``
    is replaced, not written through. No partial file is left, whatever
    fails, and an ``OSError`` that the system raised names ``path``.
    """
    partial = path.with_name(f".{path.name}.{os.urandom(8).hex()}.part")
    try:
        with open(partial, mode.replace("w", "x"), **open_args) as out:
            out.writelines(chunks)
        os.replace(partial, path)
    except OSError as exc:
        if exc.strerror:  # not the partial file, which is gone by the time it is reported
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
    finally:
        partial.unlink(missing_ok=True)
