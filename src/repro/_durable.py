"""The one durable file writer behind every artifact the package saves.

Checkpoints, state dicts, the Table II run record and the IR baseline
all land the same way: written to a ``<name>.tmp`` sibling, fsynced,
renamed over ``path``, then the directory is fsynced so the rename
itself survives a power cut.  A failure at any step
removes the temp file and re-raises, so the final name only ever holds
the previous complete file or the new one.  A process killed outright
(SIGKILL, power loss) can still leave ``<name>.tmp`` behind;
:class:`repro.resilience.CheckpointManager` quarantines such debris.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable

__all__ = ["write_durably"]


def write_durably(path: str | os.PathLike, write: Callable[[BinaryIO], None]) -> Path:
    """Call ``write(fh)`` on a binary temp sibling of ``path``, then land it.

    Returns ``path`` as a :class:`~pathlib.Path`.
    """
    path = Path(path)
    tmp = path.parent / (path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path
