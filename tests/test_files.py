"""Replacing a file whole: the one writer behind every report, download and cache entry.

Failed writes are tested through the commands that make them, in test_cli,
test_ingest and test_ontology.
"""

import os
import stat

from annorate._files import replace_file


def test_new_file_takes_the_umask_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        replace_file(tmp_path / "entry", [b"data"])
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "entry").stat().st_mode) == 0o640


def test_symlink_is_replaced_not_written_through(tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.write_bytes(b"keep me")
    path = tmp_path / "scores.json"
    path.symlink_to(elsewhere)
    replace_file(path, [b"new"])
    assert not path.is_symlink() and path.read_bytes() == b"new"
    assert elsewhere.read_bytes() == b"keep me"


def test_read_only_file_is_replaced(tmp_path):
    path = tmp_path / "audit.json"
    path.write_bytes(b"old")
    path.chmod(0o444)
    replace_file(path, [b"new"])
    assert path.read_bytes() == b"new"
    assert stat.S_IMODE(path.stat().st_mode) != 0o444  # a new file, not the old one written through
