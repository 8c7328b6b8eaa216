"""Crash-safe writes: the bytes, and the rename that installs them, are durable."""

import json
import os
import stat

from repro.core.atomicio import atomic_write_json


def test_atomic_write_fsyncs_the_directory_after_the_rename(
    tmp_path, monkeypatch
):
    target = tmp_path / "result.json"
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append((os.fstat(fd), target.exists()))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    atomic_write_json(str(target), {"ok": True})
    directory = os.stat(tmp_path).st_ino
    # The temp file before the rename, then its directory after it.
    assert [
        (stat.S_ISDIR(status.st_mode), status.st_ino == directory, installed)
        for status, installed in synced
    ] == [(False, False, False), (True, True, True)]
    assert json.loads(target.read_text()) == {"ok": True}
