"""Every durable writer lands its file by temp file + fsync + rename.

The rename is what makes a write atomic, but only an fsync of the temp
file *before* the rename makes it durable: without it a crash can leave
the final name pointing at a file whose data never reached the disk.
These tests watch the two system calls at run time and check, for each
writer, that the inode renamed onto the final path was fsynced first.
"""

import os

import numpy as np
import pytest

from repro.cli import _write_baseline
from repro.contest import ContestScore, Table2Result, write_table2_artifact
from repro.nn import save_state
from repro.resilience import Checkpoint, save_checkpoint


def _checkpoint(n: int) -> Checkpoint:
    return Checkpoint(
        model_state={"w": np.full(3, float(n))},
        optimizer_state={},
        rng_state={},
        epoch=n,
        losses=[1.0] * n,
    )


def _table2(n: int) -> Table2Result:
    result = Table2Result()
    result.add(ContestScore("Design_A", "Ours", n, 5, 1.0, 0.5))
    return result


@pytest.fixture
def writers():
    """name -> (final file name, ``write(path, n)``); ``n`` varies the
    content so an overwrite is distinguishable from the original."""
    return {
        "save_state": (
            "state.npz",
            lambda path, n: save_state({"w": np.full(3, float(n))}, path),
        ),
        "save_checkpoint": (
            "last.ckpt.npz",
            lambda path, n: save_checkpoint(_checkpoint(n), path),
        ),
        "write_table2_artifact": (
            "table2_run.json",
            lambda path, n: write_table2_artifact(_table2(n), path),
        ),
        "write_baselines": (
            "ir_baseline.json",
            lambda path, n: _write_baseline(str(path), {"entries": [n]}),
        ),
    }


@pytest.mark.parametrize("name", [
    "save_state", "save_checkpoint",
    "write_table2_artifact", "write_baselines",
])
def test_temp_file_is_fsynced_before_rename(name, writers, tmp_path,
                                            monkeypatch):
    filename, write = writers[name]
    synced: list[int] = []
    renames: list[tuple[int, set[int], str]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    def replace(src, dst):
        renames.append((os.stat(src).st_ino, set(synced), os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write(tmp_path / filename, 1)
    monkeypatch.undo()

    assert [dst for _, _, dst in renames] == [str(tmp_path / filename)]
    ((inode, synced_before, _),) = renames
    assert inode in synced_before, f"{name} renamed before fsync"


# save_state has these two cases in its own suite (tests/nn/test_serialize.py).
_UNCOVERED = ["write_table2_artifact", "write_baselines"]


@pytest.mark.parametrize("name", _UNCOVERED)
def test_no_temp_file_left_behind(name, writers, tmp_path):
    filename, write = writers[name]
    write(tmp_path / filename, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == [filename]


@pytest.mark.parametrize("name", _UNCOVERED)
def test_crash_at_replace_keeps_previous_file(name, writers, tmp_path,
                                              monkeypatch):
    filename, write = writers[name]
    path = tmp_path / filename
    write(path, 1)
    before = path.read_bytes()

    def boom(src, dst):
        raise RuntimeError("crash before rename")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(RuntimeError):
        write(path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    write(path, 2)  # the writer still works, and the content does differ
    assert path.read_bytes() != before


@pytest.mark.parametrize("name", [
    "save_state", "save_checkpoint",
    "write_table2_artifact", "write_baselines",
])
def test_failed_write_leaves_no_temp_file(name, writers, tmp_path,
                                          monkeypatch):
    # The data is written but the fsync fails: the writer must raise
    # and remove its temp file, not leave debris next to the target.
    filename, write = writers[name]

    def failing_fsync(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="fsync failed"):
        write(tmp_path / filename, 1)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.glob("*.tmp*")) == []
