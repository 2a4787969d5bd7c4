"""Replacing a file whole: every file annorate replaces is written here."""

import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO


@contextmanager
def replacing(path: Path, mode: str = "wb", **open_args) -> Iterator[IO]:
    """A new file beside ``path``, open for writing, renamed onto ``path`` when the block ends.

    ``mode`` and ``open_args`` are those of :func:`open`; the new file is
    ``.{name}.{16 hex digits}.part``, opened with ``x`` in place of ``w``, so
    it takes the umask's mode and never overwrites another file. The leading
    dot keeps it out of corpus loading. A reader of ``path`` sees the old
    file or the whole new one, and a symlink or read-only file at ``path``
    is replaced, not written through. Blocks nest: the innermost file is
    renamed first, once its block ends cleanly, so a failure before then
    leaves every previous file in place. No partial file is left, whatever
    fails, and an ``OSError`` that the system raised names ``path``, unless
    it already names the target of a nested block.
    """
    partial = path.with_name(f".{path.name}.{os.urandom(8).hex()}.part")
    try:
        with open(partial, mode.replace("w", "x"), **open_args) as out:
            yield out
        os.replace(partial, path)
    except OSError as exc:
        # the partial file is gone by the time this is reported; a nested block's names its own
        if exc.strerror and exc.filename in (None, partial, str(partial)):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
    finally:
        partial.unlink(missing_ok=True)


def replace_file(path: Path, chunks: Iterable[bytes]) -> None:
    """Replace ``path`` with a file of ``chunks``, written and renamed as :func:`replacing` does."""
    with replacing(path) as out:
        out.writelines(chunks)
