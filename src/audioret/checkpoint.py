"""Checkpoint archives: one zip holding a JSON manifest plus parameter
tensors in the feature store's binary matrix format (float32).

Tensors of any rank are stored as 2-D matrices (leading axis kept, the
rest flattened); the manifest records every true shape, the model
hyperparameters, the training configuration, the validation history and
the BLAS training ran on (absent from older archives), so an archive
alone is enough to rebuild and requery the model.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .evaluation import report_from_dict, report_to_dict
from .experts import decode_matrix, encode_matrix
from .training import Checkpoint, TrainConfig

FORMAT = "audioret-checkpoint"
VERSION = 1


def save_checkpoint(ckpt: Checkpoint, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
        "tensors": {name: list(arr.shape) for name, arr in ckpt.params.items()},
        "blas": ckpt.blas,
    }
    tmp = path.with_name(path.name + ".tmp")
    # float32 weights deflate by under 10 % at many times the write time
    with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_STORED) as archive:
        archive.writestr("manifest.json", json.dumps(manifest, indent=1,
                                                     sort_keys=True))
        for name, arr in sorted(ckpt.params.items()):
            rows = arr.shape[0] if arr.ndim > 1 else 1  # a vector is 1 x N
            archive.writestr(f"params/{name}.mat",
                             encode_matrix(np.reshape(arr, (rows, -1))))
    tmp.replace(path)
    return path


def load_checkpoint(path: Path | str) -> Checkpoint:
    path = Path(path)
    if not zipfile.is_zipfile(path):
        raise ValueError(f"not a checkpoint archive: {path}")
    with zipfile.ZipFile(path) as archive:
        names = set(archive.namelist())
        if "manifest.json" not in names:
            raise ValueError(f"not a checkpoint archive (no manifest): {path}")
        manifest = json.loads(archive.read("manifest.json"))
        if manifest.get("format") != FORMAT:
            raise ValueError(f"not a checkpoint archive: {path}")
        if manifest.get("version") != VERSION:
            raise ValueError(f"unsupported checkpoint version "
                             f"{manifest.get('version')!r}")
        params = {}
        for name, shape in manifest["tensors"].items():
            member = f"params/{name}.mat"
            if member not in names:
                raise ValueError(f"checkpoint tensor missing: {name}")
            values = decode_matrix(archive.read(member),
                                   f"checkpoint tensor {name}").astype(np.float64)
            if values.size != int(np.prod(shape)):
                raise ValueError("checkpoint tensor does not match manifest shape")
            params[name] = values.reshape(shape)
    cfg_dict = manifest["train_config"]
    cfg_dict.pop("checkpoint_every", None)  # unused key of older archives
    cfg_dict["frame_caps"] = {k: int(v)
                              for k, v in (cfg_dict.get("frame_caps") or {}).items()}
    train_config = TrainConfig(**cfg_dict)
    history = [(int(step), report_from_dict(rep))
               for step, rep in manifest["history"]]
    return Checkpoint(manifest["architecture"], manifest["model_config"],
                      params, train_config, history,
                      float(manifest["selection_score"]),
                      int(manifest["best_step"]), blas=manifest.get("blas"))
