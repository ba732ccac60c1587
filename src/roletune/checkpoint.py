"""Binary weight files: frozen base plus both adapter delta sets.

Layout: a 4-byte magic, a little-endian u32 format version, a little-endian
u32 header length, a JSON header, then each array's raw little-endian bytes
in header order. The header carries the model configuration, the adapter
hyperparameters and the visibility regime they were trained in, an optional
free-form metadata dict, and one entry per array with its name, shape, and
dtype — enough to validate every byte on load before any weight is accepted.
The model configuration is read by `ModelConfig.from_dict` and the adapter
entry (rank, alpha, targets, regime) by `AdapterHeader.from_dict`, the same
schema of dataclass fields, so an unknown key or a mistyped or non-finite
value raises CheckpointError instead of being converted or ignored. An entry
without the regime keys loads under the default regime.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import CheckpointError
from .model import BaseWeights, ModelConfig, RoleAdapters, Transformer, base_shapes
from .tensor import Tensor

MAGIC = b"RTCK"
VERSION = 1


@dataclass(frozen=True)
class AdapterHeader(Config):
    """The header's adapter entry: the hyperparameters and targets the
    deltas were built with, and the visibility regime they were trained in."""

    rank: int
    alpha: float
    targets: dict[str, tuple[str, ...]]
    strict_cross_round: bool = False
    user_sees_instruction: bool = True


def _array_entries(model: Transformer, adapters: RoleAdapters):
    named = {f"base.{k}": v for k, v in model.base.named_arrays().items()}
    named.update({f"adapters.{k}": v for k, v in adapters.named_arrays().items()})
    return named


def save_checkpoint(path, model: Transformer, adapters: RoleAdapters,
                    extra: dict | None = None) -> None:
    """Write model + adapters (and optional JSON-serializable metadata)."""
    named = _array_entries(model, adapters)
    header = {
        "model_config": model.config.to_dict(),
        "adapters": AdapterHeader(rank=adapters.rank, alpha=adapters.alpha,
                                  targets=adapters.targets, **adapters.regime).to_dict(),
        "arrays": [
            {"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
            for name, arr in named.items()
        ],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for arr in named.values():
            f.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path):
    """Read a weight file; returns (model, adapters, extra metadata).

    Every structural mismatch — magic, version, header, array count, shape,
    or a short payload — and every non-finite weight raises CheckpointError
    before any partial state escapes.
    """
    with open(path, "rb") as f:
        payload = f.read()
    if payload[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a weight file (bad magic {payload[:4]!r})")
    if len(payload) < 12:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", payload, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version} (expected {VERSION})")
    (header_len,) = struct.unpack_from("<I", payload, 8)
    header_end = 12 + header_len
    if len(payload) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(payload[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header ({e})") from e

    try:
        config = ModelConfig.from_dict(header["model_config"], "model_config")
        meta = AdapterHeader.from_dict(header["adapters"], "adapters")
        adapters = RoleAdapters(config, rank=meta.rank, alpha=meta.alpha,
                                targets=meta.targets, seed=0)
        adapters.regime = {name: getattr(meta, name) for name in adapters.regime}
        entries = header["arrays"]
        if not isinstance(entries, list):
            raise TypeError("'arrays' is not a list")
        extra = header.get("extra", {})
        if not isinstance(extra, dict):
            raise TypeError("'extra' is not an object")
    except KeyError as e:
        raise CheckpointError(f"{path}: malformed header (no {e} entry)") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed header ({e})") from e

    arrays: dict[str, np.ndarray] = {}
    offset = header_end
    for i, entry in enumerate(entries):
        try:
            name, shape = str(entry["name"]), tuple(entry["shape"])
            dtype = np.dtype(str(entry["dtype"])).newbyteorder("<")
        except KeyError as e:
            raise CheckpointError(f"{path}: array entry {i} lacks {e}") from e
        except TypeError as e:
            raise CheckpointError(f"{path}: array entry {i} is malformed ({e})") from e
        if dtype.kind != "f" or not all(isinstance(n, int) and n >= 0 for n in shape):
            raise CheckpointError(f"{path}: array entry {i} ({name!r}) has dtype {dtype} and "
                                  f"shape {shape}; expected a float dtype and a list of sizes")
        count = int(np.prod(shape))
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload ends inside array {name!r}")
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name!r} holds non-finite values")
        arrays[name] = arr.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing bytes after arrays")

    # check every base weight against the configuration's shape table, so a
    # missing or misshaped weight is caught, not trusted from the file
    params: dict[str, Tensor] = {}
    for name, shape in base_shapes(config).items():
        key = f"base.{name}"
        if key not in arrays:
            raise CheckpointError(f"{path}: missing base weight {name!r}")
        if arrays[key].shape != shape:
            raise CheckpointError(
                f"{path}: base weight {name!r} has shape {arrays[key].shape}, "
                f"expected {shape}"
            )
        params[name] = Tensor(arrays[key])
    model = Transformer(config, BaseWeights(config, params))

    for name, tensor in adapters.trainable_parameters().items():
        key = f"adapters.{name}"
        if key not in arrays:
            raise CheckpointError(f"{path}: missing adapter weight {name!r}")
        if arrays[key].shape != tensor.shape:
            raise CheckpointError(
                f"{path}: adapter weight {name!r} has shape {arrays[key].shape}, "
                f"expected {tensor.shape}"
            )
        tensor.data = arrays[key].astype(tensor.data.dtype, copy=False)
    return model, adapters, extra
