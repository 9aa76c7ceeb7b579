"""Checkpoint files: a JSON manifest plus the parameter tensors in float64.

A version 2 file is the magic line ``audioret-checkpoint``, the manifest
as one line of JSON (model and training config, validation history, the
BLAS training ran on, and per tensor ``[offset, shape, crc32]``), then the
tensors as raw little-endian float64 in C order, in name order. Offsets
count from the first 64-byte boundary after the manifest; each tensor
starts on a 64-byte boundary, zeros pad the gaps and the last one ends
the file. Tensors are saved bit for bit, so a loaded checkpoint rebuilds
the model behind its reported metrics.

`load_checkpoint` checks every tensor's CRC-32 through one bounded buffer,
then returns read-only views over one read-only mapping of the file: no
tensor is copied, and `Checkpoint.rebuild()` runs on the page cache. A
mapped file must never be rewritten in place (truncating it makes reading
its views raise SIGBUS), so `save_checkpoint` always writes a new file and
renames it over the old one; a checkpoint loaded from the old file keeps
reading the old values.

A file that starts with the zip signature, as every version 1 file does,
is refused as an unsupported version.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .evaluation import report_from_dict, report_to_dict
from .training import Checkpoint, TrainConfig

FORMAT = "audioret-checkpoint"
VERSION = 2
MAGIC = FORMAT.encode() + b"\n"
ZIP_MAGIC = b"PK\x03\x04"  # how every version 1 file starts
ALIGN = 64  # bytes: every tensor starts on a multiple of it
CRC_BUFFER = 1 << 20  # bytes read at a time to check a tensor
_F8 = np.dtype("<f8")


def _aligned(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


def _layout(shapes: dict[str, list[int]]) -> tuple[dict[str, int], int]:
    """Each tensor's offset in name order, and the bytes they span."""
    offsets, end = {}, 0
    for name in sorted(shapes):
        offsets[name] = _aligned(end)
        end = offsets[name] + _F8.itemsize * math.prod(shapes[name])
    return offsets, end


def save_checkpoint(ckpt: Checkpoint, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a float64 C-order parameter is written from its own buffer, uncopied
    arrays = {name: np.ascontiguousarray(arr, dtype=_F8)
              for name, arr in ckpt.params.items()}
    offsets, _ = _layout({name: arr.shape for name, arr in arrays.items()})
    manifest = {
        "format": FORMAT,
        "version": VERSION,
        "architecture": ckpt.architecture,
        "experts": list(ckpt.model_config["experts"]),
        "model_config": ckpt.model_config,
        "train_config": asdict(ckpt.train_config),
        "seed": ckpt.train_config.seed,
        "selection_score": ckpt.selection_score,
        "best_step": ckpt.best_step,
        "history": [[step, report_to_dict(rep)] for step, rep in ckpt.history],
        "tensors": {name: [offsets[name], list(arr.shape),
                           zlib.crc32(memoryview(arr))]
                    for name, arr in arrays.items()},
        "blas": ckpt.blas,
    }
    header = MAGIC + json.dumps(manifest, sort_keys=True).encode() + b"\n"
    start = _aligned(len(header))
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(header)
        for name in offsets:
            out.write(bytes(start + offsets[name] - out.tell()))
            out.write(memoryview(arrays[name]))
    tmp.replace(path)
    return path


def load_checkpoint(path: Path | str) -> Checkpoint:
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
        if head.startswith(ZIP_MAGIC):
            raise ValueError(f"unsupported checkpoint version 1 (zip): {path}")
        if head != MAGIC:
            raise ValueError(f"not a checkpoint archive: {path}")
        manifest, params = _read_v2(f, path)
    cfg_dict = manifest["train_config"]
    for key in ("log_path", "lr_decay", "lookahead_k", "lookahead_alpha"):
        cfg_dict.pop(key, None)  # retired after format 2
    cfg_dict["frame_caps"] = {k: int(v)
                              for k, v in (cfg_dict.get("frame_caps") or {}).items()}
    train_config = TrainConfig(**cfg_dict)
    history = [(int(step), report_from_dict(rep))
               for step, rep in manifest["history"]]
    return Checkpoint(manifest["architecture"], manifest["model_config"],
                      params, train_config, history,
                      float(manifest["selection_score"]),
                      int(manifest["best_step"]), blas=manifest.get("blas"))


def _read_v2(f, path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and read-only float64 views of every tensor, each
    checked against its CRC-32 before the file is mapped."""
    try:
        manifest = json.loads(f.readline())
    except ValueError:  # undecodable bytes or malformed JSON
        raise ValueError(f"not a checkpoint archive (bad manifest): {path}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise ValueError(f"not a checkpoint archive: {path}")
    if manifest.get("version") != VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{manifest.get('version')!r}")
    table = manifest["tensors"]
    shapes = {name: [int(d) for d in shape] for name, (_, shape, _) in table.items()}
    if any(d < 0 for shape in shapes.values() for d in shape):
        raise ValueError("checkpoint tensor does not match manifest shape")
    offsets, end = _layout(shapes)
    start, size = _aligned(f.tell()), os.fstat(f.fileno()).st_size
    if any(table[name][0] != offsets[name] for name in offsets) or (
            size > start + end):
        raise ValueError("checkpoint tensor does not match manifest shape")
    buffer = memoryview(bytearray(CRC_BUFFER))
    for name, offset in offsets.items():
        first, left = start + offset, _F8.itemsize * math.prod(shapes[name])
        if left and first >= size:
            raise ValueError(f"checkpoint tensor missing: {name}")
        if first + left > size:
            raise ValueError(f"truncated checkpoint tensor {name}")
        f.seek(first)
        crc = 0
        while left:
            n = f.readinto(buffer[:min(left, CRC_BUFFER)])
            if not n:
                raise ValueError(f"truncated checkpoint tensor {name}")
            crc, left = zlib.crc32(buffer[:n], crc), left - n
        if crc != table[name][2]:
            raise ValueError(f"CRC mismatch in checkpoint tensor {name}")
    # the views keep the mapping open; it closes with the last of them
    mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return manifest, {
        name: np.frombuffer(mapped, _F8, count=math.prod(shapes[name]),
                            offset=start + offset).reshape(shapes[name])
        for name, offset in offsets.items()}
