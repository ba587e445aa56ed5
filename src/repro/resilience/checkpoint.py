"""Atomic, checksummed, resumable checkpoint bundles.

A :class:`Checkpoint` captures everything a training run needs to
continue bit-for-bit after a crash: model parameters and buffers,
optimizer state (Adam moments + step via ``Optimizer.state_dict()``),
the ``np.random.Generator`` bit-generator state that drives batch
shuffling, the epoch counter and loss curve, and a fingerprint of the
training configuration so a resume with different hyperparameters is
refused instead of silently producing a chimera run.

Bundles are single ``.npz`` files written *atomically* — serialized to
a temp file in the same directory, fsync'd, then ``os.replace``d over
the destination (:func:`repro._durable.write_durably`) — so a kill
mid-write can never leave a truncated checkpoint where a good one used
to be.  Every bundle embeds a SHA-256
checksum over its arrays and metadata; :func:`load_checkpoint` verifies
it and raises :class:`CheckpointCorrupt` on mismatch.

:class:`CheckpointManager` adds rolling ``last``/``best`` retention on
top and is what :class:`repro.train.Trainer` drives.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .._durable import write_durably

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointCorrupt",
    "CheckpointMismatch",
    "Checkpoint",
    "fingerprint_of",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointManager",
]

CHECKPOINT_VERSION = 1

_MODEL_PREFIX = "model."
_OPTIM_PREFIX = "optim."
_META_KEY = "__meta__"


class CheckpointError(RuntimeError):
    """Base class for checkpoint failures."""


class CheckpointCorrupt(CheckpointError):
    """The bundle's checksum (or structure) does not verify."""


class CheckpointMismatch(CheckpointError):
    """The bundle was written under an incompatible configuration."""


def fingerprint_of(config: dict) -> dict:
    """A JSON-safe fingerprint of the knobs that shape a training run.

    Volatile knobs that may legitimately differ between the original
    run and a resume (epoch budget, logging, the checkpoint wiring
    itself) are dropped; everything else must match exactly.
    """
    volatile = {
        "epochs",
        "log_every",
        "checkpoint_dir",
        "checkpoint_every",
        "resume",
    }
    out = {}
    for key, value in config.items():
        if key in volatile:
            continue
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        out[key] = value
    return out


@dataclass
class Checkpoint:
    """One resumable snapshot of a training run."""

    model_state: dict[str, np.ndarray]
    optimizer_state: dict
    rng_state: dict
    epoch: int  # completed epochs
    losses: list[float]
    fingerprint: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # small JSON-safe scalars

    def copy(self) -> "Checkpoint":
        """Deep-copy the array payloads (for in-memory rollback points)."""
        return Checkpoint(
            model_state={k: v.copy() for k, v in self.model_state.items()},
            optimizer_state=_copy_state(self.optimizer_state),
            rng_state=json.loads(json.dumps(self.rng_state)),
            epoch=self.epoch,
            losses=list(self.losses),
            fingerprint=dict(self.fingerprint),
            extra=dict(self.extra),
        )


def _copy_state(state: dict) -> dict:
    out = {}
    for key, value in state.items():
        if isinstance(value, list):
            out[key] = [np.array(v, copy=True) for v in value]
        elif isinstance(value, np.ndarray):
            out[key] = value.copy()
        else:
            out[key] = value
    return out


def _split_optimizer_state(state: dict) -> tuple[dict[str, np.ndarray], dict]:
    """Separate a state dict into npz-able arrays and JSON-able scalars."""
    arrays: dict[str, np.ndarray] = {}
    scalars: dict = {}
    for key, value in state.items():
        if isinstance(value, list) and all(isinstance(v, np.ndarray) for v in value):
            for i, arr in enumerate(value):
                arrays[f"{_OPTIM_PREFIX}{key}.{i:04d}"] = arr
            scalars[f"__len__{key}"] = len(value)
        elif isinstance(value, np.ndarray):
            arrays[f"{_OPTIM_PREFIX}{key}"] = value
        else:
            if isinstance(value, (np.floating, np.integer)):
                value = value.item()
            scalars[key] = value
    return arrays, scalars


def _join_optimizer_state(arrays: dict[str, np.ndarray], scalars: dict) -> dict:
    state: dict = {}
    lengths = {
        key[len("__len__"):]: value
        for key, value in scalars.items()
        if key.startswith("__len__")
    }
    for key, length in lengths.items():
        state[key] = [arrays[f"{_OPTIM_PREFIX}{key}.{i:04d}"] for i in range(length)]
    for key, value in arrays.items():
        stem = key[len(_OPTIM_PREFIX):]
        if "." not in stem:
            state[stem] = value
    for key, value in scalars.items():
        if not key.startswith("__len__"):
            state[key] = value
    return state


def _checksum(arrays: dict[str, np.ndarray], meta_core: dict) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(meta_core, sort_keys=True).encode())
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def save_checkpoint(checkpoint: Checkpoint, path: str | os.PathLike) -> Path:
    """Atomically write ``checkpoint`` to ``path`` and return the path.

    The bundle lands via temp-file + fsync + rename in the destination
    directory (:func:`repro._durable.write_durably`), so concurrent
    readers only ever observe either the old complete bundle or the new
    complete bundle.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {
        f"{_MODEL_PREFIX}{name}": arr for name, arr in checkpoint.model_state.items()
    }
    optim_arrays, optim_scalars = _split_optimizer_state(checkpoint.optimizer_state)
    arrays.update(optim_arrays)
    meta_core = {
        "version": CHECKPOINT_VERSION,
        "epoch": checkpoint.epoch,
        "losses": [float(v) for v in checkpoint.losses],
        "rng_state": checkpoint.rng_state,
        "fingerprint": checkpoint.fingerprint,
        "optimizer": optim_scalars,
        "extra": checkpoint.extra,
    }
    meta = dict(meta_core, checksum=_checksum(arrays, meta_core))
    payload = dict(arrays)
    payload[_META_KEY] = np.array(json.dumps(meta))

    return write_durably(path, lambda fh: np.savez_compressed(fh, **payload))


def load_checkpoint(
    path: str | os.PathLike, expected_fingerprint: dict | None = None
) -> Checkpoint:
    """Read, checksum-verify, and (optionally) fingerprint-check a bundle."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _META_KEY not in archive.files:
                raise CheckpointCorrupt(f"{path}: not a checkpoint bundle (no metadata)")
            meta = json.loads(str(archive[_META_KEY]))
            arrays = {
                name: archive[name] for name in archive.files if name != _META_KEY
            }
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointCorrupt(f"{path}: unreadable checkpoint ({exc})") from exc

    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"{path}: checkpoint version {meta.get('version')} != "
            f"supported {CHECKPOINT_VERSION}"
        )
    stored = meta.pop("checksum", None)
    if stored != _checksum(arrays, meta):
        raise CheckpointCorrupt(f"{path}: checksum mismatch — bundle is corrupt")
    if expected_fingerprint is not None and meta["fingerprint"] != expected_fingerprint:
        diff = sorted(
            set(meta["fingerprint"].items()) ^ set(expected_fingerprint.items())
        )
        raise CheckpointMismatch(
            f"{path}: refusing resume under a different configuration "
            f"(differing keys: {sorted({k for k, _ in diff})})"
        )

    model_state = {
        name[len(_MODEL_PREFIX):]: arr
        for name, arr in arrays.items()
        if name.startswith(_MODEL_PREFIX)
    }
    optim_arrays = {
        name: arr for name, arr in arrays.items() if name.startswith(_OPTIM_PREFIX)
    }
    return Checkpoint(
        model_state=model_state,
        optimizer_state=_join_optimizer_state(optim_arrays, meta["optimizer"]),
        rng_state=meta["rng_state"],
        epoch=int(meta["epoch"]),
        losses=[float(v) for v in meta["losses"]],
        fingerprint=meta["fingerprint"],
        extra=meta.get("extra", {}),
    )


class CheckpointManager:
    """Rolling ``last``/``best`` checkpoint retention in one directory.

    On construction the manager scans its directory for crash debris:
    leftover ``*.tmp`` files (a kill mid-write, before the atomic
    rename) and ``last``/``best`` bundles that no longer verify (torn
    by a kill mid-rename or bit-rot).  Debris is moved into a
    ``quarantine/`` subdirectory — created only when needed — rather
    than deleted, so a post-mortem can still inspect it; the paths land
    in ``self.quarantined``.  :meth:`load_last` then falls back to the
    newest bundle that still verifies instead of raising
    :class:`CheckpointCorrupt` at resume time (a *fingerprint* mismatch
    still raises — that is a configuration error, not corruption).
    """

    LAST = "last.ckpt.npz"
    BEST = "best.ckpt.npz"
    QUARANTINE = "quarantine"

    def __init__(self, directory: str | os.PathLike, scan: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.quarantined: list[Path] = []
        if scan:
            self._startup_scan()

    @property
    def last_path(self) -> Path:
        return self.directory / self.LAST

    @property
    def best_path(self) -> Path:
        return self.directory / self.BEST

    def _quarantine(self, path: Path) -> Path:
        """Move crash debris aside (never delete evidence)."""
        qdir = self.directory / self.QUARANTINE
        qdir.mkdir(exist_ok=True)
        dest = qdir / path.name
        counter = 0
        while dest.exists():
            counter += 1
            dest = qdir / f"{path.name}.{counter}"
        os.replace(path, dest)
        self.quarantined.append(dest)
        return dest

    def _startup_scan(self) -> None:
        for tmp in sorted(self.directory.glob("*.tmp")):
            self._quarantine(tmp)
        for name in (self.LAST, self.BEST):
            path = self.directory / name
            if not path.exists():
                continue
            try:
                load_checkpoint(path)
            except CheckpointCorrupt:
                self._quarantine(path)

    def save(self, checkpoint: Checkpoint, is_best: bool = False) -> Path:
        """Write ``last`` (and ``best`` when flagged), each atomically."""
        path = save_checkpoint(checkpoint, self.last_path)
        if is_best:
            save_checkpoint(checkpoint, self.best_path)
        return path

    def load_last(self, expected_fingerprint: dict | None = None) -> Checkpoint | None:
        """The newest bundle that verifies, or None if no valid one remains.

        Preference order is ``last`` then ``best`` (``last`` is by
        construction the most recent save).  A bundle that fails its
        checksum is quarantined and the next candidate tried, so a
        crash that corrupted ``last`` degrades the resume by one
        checkpoint instead of aborting it.
        """
        for path in (self.last_path, self.best_path):
            if not path.exists():
                continue
            try:
                return load_checkpoint(path, expected_fingerprint)
            except CheckpointCorrupt:
                self._quarantine(path)
        return None

    def load_best(self, expected_fingerprint: dict | None = None) -> Checkpoint | None:
        if not self.best_path.exists():
            return None
        return load_checkpoint(self.best_path, expected_fingerprint)
