"""Binary parameter checkpoints.

Layout: magic ``ECGW``, version u16, then one entry per array in order:
name length u32, utf-8 name, rank u32, dims as u32 each, float64
little-endian payload. Round trips are bit-exact.

The networks' float32 parameters are stored upcast to float64, which is
exact, so ``Network.load_state_dict`` casting them back to
``autodiff.DTYPE`` restores them bit for bit. This module knows arrays
and names only: what a network's checkpoint holds, its ``meta.*`` sizes
included, is ``models.checkpoint_state``, and ``models.from_checkpoint``
rebuilds the network from it.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_MAGIC = b"ECGW"
_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_params(path: str | Path, params: dict[str, np.ndarray]) -> None:
    """Write each entry's header and its payload buffer straight to the file."""
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<H", _VERSION))
        for name, arr in params.items():
            arr = np.asarray(arr, dtype="<f8", order="C")
            nb = name.encode("utf-8")
            f.write(struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
            f.write(arr.data)


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    if len(blob) < 6:
        raise CheckpointError("file shorter than checkpoint header")
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"expected magic {_MAGIC!r}, found {blob[:4]!r}")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    off = 6
    while off < len(blob):
        try:
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off : off + name_len].decode("utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            count = int(np.prod(shape, dtype=np.int64)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
            off += count * 8
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"truncated checkpoint entry at byte {off}") from exc
        if arr.size != count:
            raise CheckpointError(f"truncated payload for entry {name!r}")
        out[name] = arr.reshape(shape).copy()
    return out
