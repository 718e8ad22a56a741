"""Model checkpoint save/load (NumPy ``.npz`` archives).

Checkpoints let the experiment harness distill each scene once and share
the trained model across benchmark processes.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import ReproError
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.model import InstantNGPConfig, InstantNGPModel
from repro.nerf.tensorf import TensoRFConfig, TensoRFModel


def _config_to_json(config: InstantNGPConfig) -> str:
    payload = asdict(config)
    return json.dumps(payload)


def save_instant_ngp(model: InstantNGPModel, path: Union[str, Path]) -> None:
    """Write an Instant-NGP checkpoint to ``path`` (.npz)."""
    arrays = {"__config__": np.frombuffer(
        _config_to_json(model.config).encode(), dtype=np.uint8
    )}
    for i, table in enumerate(model.encoder.tables):
        arrays[f"table_{i}"] = table
    for prefix, mlp in (("density", model.density_mlp), ("color", model.color_mlp)):
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            arrays[f"{prefix}_w{i}"] = w
            arrays[f"{prefix}_b{i}"] = b
    np.savez_compressed(str(path), **arrays)


def load_instant_ngp(path: Union[str, Path]) -> InstantNGPModel:
    """Load an Instant-NGP checkpoint written by :func:`save_instant_ngp`."""
    data = np.load(str(path))
    if "__config__" not in data:
        raise ReproError(f"{path} is not an Instant-NGP checkpoint")
    payload = json.loads(bytes(data["__config__"]).decode())
    grid = HashGridConfig(**payload.pop("grid"))
    config = InstantNGPConfig(grid=grid, **payload)
    model = InstantNGPModel(config)
    model.encoder.tables = [data[f"table_{i}"] for i in range(config.grid.num_levels)]
    for prefix, mlp in (("density", model.density_mlp), ("color", model.color_mlp)):
        for i in range(len(mlp.weights)):
            mlp.weights[i] = data[f"{prefix}_w{i}"]
            mlp.biases[i] = data[f"{prefix}_b{i}"]
    return model


def save_tensorf(model: TensoRFModel, path: Union[str, Path]) -> None:
    """Write a TensoRF checkpoint to ``path`` (.npz)."""
    arrays = {"__config__": np.frombuffer(
        json.dumps(asdict(model.config)).encode(), dtype=np.uint8
    )}
    for k in range(3):
        arrays[f"plane_{k}"] = model.planes[k]
        arrays[f"line_{k}"] = model.lines[k]
    for prefix, mlp in (("density", model.density_mlp), ("color", model.color_mlp)):
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            arrays[f"{prefix}_w{i}"] = w
            arrays[f"{prefix}_b{i}"] = b
    np.savez_compressed(str(path), **arrays)


def load_tensorf(path: Union[str, Path]) -> TensoRFModel:
    """Load a TensoRF checkpoint written by :func:`save_tensorf`."""
    data = np.load(str(path))
    if "__config__" not in data:
        raise ReproError(f"{path} is not a TensoRF checkpoint")
    config = TensoRFConfig(**json.loads(bytes(data["__config__"]).decode()))
    model = TensoRFModel(config)
    for k in range(3):
        model.planes[k] = data[f"plane_{k}"]
        model.lines[k] = data[f"line_{k}"]
    for prefix, mlp in (("density", model.density_mlp), ("color", model.color_mlp)):
        for i in range(len(mlp.weights)):
            mlp.weights[i] = data[f"{prefix}_w{i}"]
            mlp.biases[i] = data[f"{prefix}_b{i}"]
    return model
