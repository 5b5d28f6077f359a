"""Bit-exact binary checkpoint container for named tensors.

Layout: magic ``GOFA``, version u32, tensor count u32, then per tensor
{name length u32 + UTF-8 bytes, dtype u8, rank u8, dims u64..., raw
little-endian data}, and a trailing CRC32 over everything before it.
All integers little-endian.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"GOFA"
VERSION = 1

CONFIG_KEY = "__config_json__"

_DTYPE_CODES = {
    np.dtype("<f8"): 0,
    np.dtype("<f4"): 1,
    np.dtype("uint8"): 2,
    np.dtype("<i8"): 3,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointError(ValueError):
    pass


def _encode_tensor(name: str, arr: np.ndarray) -> bytes:
    dtype = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
    if dtype not in _DTYPE_CODES:
        raise CheckpointError(f"{name}: unsupported dtype {arr.dtype}")
    name_bytes = name.encode("utf-8")
    parts = [
        struct.pack("<I", len(name_bytes)),
        name_bytes,
        struct.pack("<BB", _DTYPE_CODES[dtype], arr.ndim),
        struct.pack(f"<{arr.ndim}Q", *arr.shape),
        np.ascontiguousarray(arr, dtype=dtype).tobytes(),
    ]
    return b"".join(parts)


def save_checkpoint(path, tensors: dict[str, np.ndarray], config: dict | None = None) -> None:
    """Write a named-tensor table; ``config`` rides along as a JSON chunk."""
    items = dict(tensors)
    if config is not None:
        items[CONFIG_KEY] = np.frombuffer(
            json.dumps(config, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
    body = [MAGIC, struct.pack("<II", VERSION, len(items))]
    for name, arr in items.items():
        body.append(_encode_tensor(name, np.asarray(arr)))
    blob = b"".join(body)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    # write beside the target, then rename: the final name only ever holds a whole file
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Read a checkpoint, verifying magic and CRC; returns (tensors, config)."""
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    offset = 12
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        dtype_code, rank = struct.unpack_from("<BB", blob, offset)
        offset += 2
        if dtype_code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: unknown dtype code {dtype_code} for {name}")
        dims = struct.unpack_from(f"<{rank}Q", blob, offset)
        offset += 8 * rank
        dtype = _CODE_DTYPES[dtype_code]
        n_elems = int(np.prod(dims, dtype=np.int64))
        nbytes = n_elems * dtype.itemsize
        arr = np.frombuffer(blob, dtype=dtype, count=n_elems, offset=offset)
        offset += nbytes
        tensors[name] = arr.reshape(dims).copy()
    config = None
    if CONFIG_KEY in tensors:
        config = json.loads(tensors.pop(CONFIG_KEY).tobytes().decode("utf-8"))
    return tensors, config


def without_retired(section: str, fields: dict, retired: dict) -> dict:
    """``fields`` of a checkpoint config ``section`` without the keys that
    earlier versions wrote and this one fixes at the constants ``retired``
    maps them to; a key at another value is a ``CheckpointError``."""
    for key, constant in retired.items():
        if key in fields and fields[key] != json.loads(json.dumps(constant)):  # a tuple compares as a list
            raise CheckpointError(f"checkpoint {section}.{key} is {fields[key]!r}, but {key} is fixed at {constant!r}")
    return {key: value for key, value in fields.items() if key not in retired}
