"""Versioned checkpoints: vocabulary, embedding table, heads, config.

A checkpoint is a JSON file plus one ``<stem>.<name>.npy`` sidecar per
array, under the name training gives it: the embedding ``table`` and the
head arrays ``nli_W``, ``nli_b``, ``def_W`` and ``def_bias``, each a C-order
float32 array (:data:`~sentsig.encoder.MODEL_DTYPE`, the dtype training
holds them in).  The JSON holds the rest, with floats in shortest
round-trip decimals, and maps each array's name to its sidecar's file name
and the sha256 of its bytes, so the JSON's bytes pin the whole checkpoint.
A save/load cycle of a float32 model is value-exact and re-saving an
unchanged model is byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import CLS_TOKEN, MAX_TOKENS, MODEL_DTYPE, UNK_TOKEN, ToyEncoder, Vocabulary
from .errors import InvalidInputError
from .fileio import atomic_write
from .objectives import TrainConfig

FORMAT = "sentsig-checkpoint"
VERSION = 6
SIDECAR_CHUNK = 1 << 20  # bytes of a sidecar read and hashed per call


@dataclass
class Checkpoint:
    encoder: ToyEncoder
    heads: dict[str, np.ndarray] = field(default_factory=dict)  # nli_W, nli_b, def_W, def_bias
    train_config: TrainConfig | None = None


def _write_sidecar(path: Path, name: str, array: np.ndarray) -> dict:
    """Write ``array`` as the bytes ``np.save`` writes, hashing them from memory, not from the file."""
    sidecar = path.with_name(f"{path.stem}.{name}.npy")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    digest = hashlib.sha256(header.getbuffer())
    digest.update(memoryview(array).cast("B"))
    with atomic_write(sidecar, binary=True) as fh:
        fh.write(header.getbuffer())
        array.tofile(fh)  # as np.save writes to a file, with no copy of the array
    return {"file": sidecar.name, "sha256": digest.hexdigest()}


def _shapes(names, V: int, dim: int) -> dict[str, tuple[int, ...]]:
    """The shape of each named array, after checking that the names make one model.

    A model is its ``table`` and any heads: the NLI head is ``nli_W`` and
    ``nli_b``; the definition head is ``def_bias`` and, when it is untied,
    ``def_W`` (a tied head's weights are the table).
    """
    shapes = {"table": (V, dim), "nli_W": (3, 3 * dim), "nli_b": (3,), "def_W": (V, dim), "def_bias": (V,)}
    unknown = sorted(set(names) - shapes.keys())
    if unknown:
        raise InvalidInputError(f"unknown arrays {unknown}; a checkpoint holds some of {sorted(shapes)}")
    if "table" not in names:
        raise InvalidInputError("missing array 'table'")
    for name, needs in (("nli_W", "nli_b"), ("nli_b", "nli_W"), ("def_W", "def_bias")):
        if name in names and needs not in names:
            raise InvalidInputError(f"array {name} needs {needs}, which is missing")
    return {name: shapes[name] for name in names}


def save_checkpoint(path, encoder: ToyEncoder, heads: dict[str, np.ndarray] | None = None,
                    train_config: TrainConfig | None = None) -> None:
    """Write the sidecars, then the JSON that names them; each file is replaced atomically.

    ``heads`` holds the trained arrays by the names the losses give them
    (the ``table`` is the encoder's); each is saved as C-order float32,
    rounded if it is not float32 already.  Every array is checked before anything
    is written: a model holding NaN or Inf (a diverged run) raises
    :class:`InvalidInputError` and writes nothing, and so do names or shapes
    that would not load.  The JSON goes last, so a checkpoint without its
    sidecars is never committed.
    """
    path = Path(path)
    arrays = {**(heads or {}), "table": encoder.table}
    with np.errstate(over="ignore"):  # an entry beyond float32's range rounds to inf, rejected below
        arrays = {name: np.ascontiguousarray(array, dtype=MODEL_DTYPE) for name, array in arrays.items()}
    for name, shape in _shapes(arrays, len(encoder.vocab), encoder.dim).items():
        if np.shape(arrays[name]) != shape:
            raise InvalidInputError(f"{path}: {name} has shape {np.shape(arrays[name])}, expected {shape}")
        if not np.all(np.isfinite(arrays[name])):
            raise InvalidInputError(f"{path}: {name} contains NaN or Inf; the model diverged")
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "pooling": encoder.pooling,
        "dim": encoder.dim,
        "max_tokens": MAX_TOKENS,
        "vocab": encoder.vocab.words,
        "arrays": {name: _write_sidecar(path, name, array) for name, array in arrays.items()},
        "train_config": dataclasses.asdict(train_config) if train_config else None,
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _read_sidecar(path: Path, ref: dict, shape: tuple[int, ...]) -> np.ndarray:
    """The float32 array a sidecar reference names, after checking its dtype, shape and sha256.

    The ``.npy`` header is checked before the array is allocated, and the
    array is read straight into it a chunk at a time, hashing each chunk, so
    a load holds one copy of the array, in the dtype it was trained in.
    """
    name = ref["file"]
    if not isinstance(name, str) or Path(name).name != name or name in ("", ".", ".."):
        raise InvalidInputError(f"sidecar name must be a plain file name, got {name!r}")
    sidecar = path.with_name(name)
    try:
        fh = open(sidecar, "rb")
    except OSError as exc:
        raise InvalidInputError(f"cannot read sidecar {sidecar}: {exc.strerror}") from None
    with fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):  # the version _write_sidecar writes
                raise ValueError(f"unsupported .npy version {version}")
            found, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise InvalidInputError(f"sidecar {name} is not a .npy array: {exc}") from None
        if dtype != MODEL_DTYPE or found != shape or fortran_order:
            order = " in Fortran order" if fortran_order else ""
            raise InvalidInputError(
                f"sidecar {name} holds {dtype} {found}{order}, expected {MODEL_DTYPE} {shape} in C order")
        digest = hashlib.sha256()
        header_bytes = fh.tell()
        fh.seek(0)
        digest.update(fh.read(header_bytes))
        array = np.empty(shape, MODEL_DTYPE)
        data = memoryview(array).cast("B")
        for chunk in (data[i : i + SIDECAR_CHUNK] for i in range(0, len(data), SIDECAR_CHUNK)):
            if fh.readinto(chunk) != len(chunk):
                raise InvalidInputError(f"sidecar {name} ends before its {shape} array does")
            digest.update(chunk)
        if fh.read(1):
            raise InvalidInputError(f"sidecar {name} has bytes after its {shape} array")
    if digest.hexdigest() != ref["sha256"]:
        raise InvalidInputError(f"sidecar {name} does not match the sha256 in the checkpoint")
    return array


def _parse(path: Path, payload: dict) -> Checkpoint:
    words = payload["vocab"]
    if not isinstance(words, list) or words[:2] != [CLS_TOKEN, UNK_TOKEN]:
        raise InvalidInputError("vocabulary is missing the reserved entries")
    vocab = Vocabulary(words[2:])
    V, dim = len(vocab), payload["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise InvalidInputError(f"dim must be a positive integer, got {dim!r}")
    if payload["max_tokens"] != MAX_TOKENS:
        raise InvalidInputError(f"max_tokens must be {MAX_TOKENS}, got {payload['max_tokens']!r}")
    refs = payload["arrays"]
    arrays = {name: _read_sidecar(path, refs[name], shape) for name, shape in _shapes(refs, V, dim).items()}
    encoder = ToyEncoder(vocab, arrays.pop("table"), pooling=payload["pooling"], name=path.stem)
    config = payload["train_config"]
    if config is not None:  # every field and no other: a checkpoint's train_config is its whole recipe
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        for name in [*names, *config]:
            if name not in config:
                raise KeyError(f"train_config.{name}")
            if name not in names:
                raise InvalidInputError(f"unknown field 'train_config.{name}'")
        config = TrainConfig(**config)
    return Checkpoint(encoder=encoder, heads=arrays, train_config=config)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and its sidecars; any defect raises :class:`InvalidInputError`."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # malformed JSON or UTF-8
        raise InvalidInputError(f"{path}: not a readable checkpoint: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise InvalidInputError(f"{path}: not a {FORMAT} file")
    if payload.get("version") != VERSION:
        raise InvalidInputError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    try:
        return _parse(path, payload)
    except KeyError as exc:
        raise InvalidInputError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:  # InvalidInputError included: add the path
        raise InvalidInputError(f"{path}: {exc}") from None
