"""Checkpoint container: magic "CTRN", version, JSON header, f64 blobs.

Layout: 4 magic bytes, little-endian u32 version, little-endian u32 header
length, UTF-8 JSON header, then one little-endian float64 blob per parameter
tensor in declaration order, and nothing after the last blob.  The header
records each layer's descriptor, enough structure to rebuild the network
without consulting the architecture registry.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .net import LAYER_KINDS, Network

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "MAGIC", "VERSION"]

MAGIC = b"CTRN"
VERSION = 1


class CheckpointError(ValueError):
    """The file is not a checkpoint this version can read."""


def save_checkpoint(path, net: Network, meta=None):
    """Write the network (and optional metadata: arch name, seed, epoch)."""
    meta = dict(meta or {})
    header = {
        "meta": meta,
        "input_shape": list(net.input_shape),
        "num_classes": net.num_classes,
        "split_index": net.split_index,
        "layers": [layer.descriptor() for layer in net.layers],
        "tensor_shapes": [list(a.shape) for a in net.param_arrays()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for arr in net.param_arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into (Network, meta).

    Raises :class:`CheckpointError` for any file that is not a well-formed
    checkpoint; a missing or unreadable file raises the usual ``OSError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse(data)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from None
    except (ValueError, KeyError, TypeError, IndexError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint ({type(e).__name__}: {e})") from None


def _parse(data):
    if data[:4] != MAGIC:
        raise CheckpointError("not a checkpoint (bad magic)")
    if len(data) < 12:
        raise CheckpointError("short header")
    version, header_len = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
    except ValueError:
        raise CheckpointError("header is not UTF-8 JSON") from None
    sizes = [int(np.prod(shape)) for shape in header["tensor_shapes"]]
    offset, end = 12 + header_len, 12 + header_len + 8 * sum(sizes)
    if len(data) != end:
        raise CheckpointError("truncated parameter blob" if len(data) < end
                              else "trailing bytes after the last parameter blob")
    arrays = []
    for shape, n in zip(header["tensor_shapes"], sizes):
        arrays.append(np.frombuffer(data, "<f8", n, offset).reshape(shape).copy())
        offset += 8 * n
    layers = []
    for desc in header["layers"]:
        cls = LAYER_KINDS.get(desc["kind"])
        if cls is None:
            raise CheckpointError(f"unknown layer kind {desc['kind']!r}")
        n = len(cls.param_names)
        if len(arrays) < n:
            raise CheckpointError("fewer parameter tensors than the layers need")
        layers.append(cls.from_descriptor(desc, arrays[:n]))
        arrays = arrays[n:]
    if arrays:
        raise CheckpointError(f"{len(arrays)} parameter tensors left over after the last layer")
    net = Network(layers, header["split_index"], header["num_classes"],
                  tuple(header["input_shape"]))
    return net, header.get("meta", {})
