"""Versioned checkpoints: vocabulary, embedding table, heads, config.

A checkpoint is a JSON file plus one ``<stem>.<name>.npy`` sidecar per
matrix with a row per vocabulary entry (the embedding table, and the
prediction weights of an untied definition head).  The JSON holds everything
else, with floats in shortest round-trip decimals, and names each sidecar
together with the sha256 of its bytes, so the JSON's bytes pin the whole
checkpoint.  A save/load cycle is value-exact and re-saving an unchanged
model is byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import CLS_TOKEN, UNK_TOKEN, ToyEncoder, Vocabulary
from .errors import InvalidInputError
from .fileio import atomic_write
from .objectives import TrainConfig

FORMAT = "sentsig-checkpoint"
VERSION = 2
SIDECAR_CHUNK = 1 << 20  # bytes of a sidecar read and hashed per call


@dataclass
class Checkpoint:
    encoder: ToyEncoder
    heads: dict[str, np.ndarray] = field(default_factory=dict)  # nli_W, nli_b, def_W, def_bias
    train_config: TrainConfig | None = None


def _floats(a: np.ndarray) -> list:
    """Nested lists of Python floats, which JSON writes in shortest round-trip form."""
    return np.asarray(a, dtype=np.float64).tolist()


def _write_sidecar(path: Path, name: str, array: np.ndarray) -> dict:
    """Write ``array`` as the bytes ``np.save`` writes, hashing them from memory, not from the file."""
    sidecar = path.with_name(f"{path.stem}.{name}.npy")
    array = np.ascontiguousarray(array, dtype=np.float64)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    digest = hashlib.sha256(header.getbuffer())
    digest.update(memoryview(array).cast("B"))
    with atomic_write(sidecar, binary=True) as fh:
        fh.write(header.getbuffer())
        array.tofile(fh)  # as np.save writes to a file, with no copy of the array
    return {"file": sidecar.name, "sha256": digest.hexdigest()}


def save_checkpoint(path, encoder: ToyEncoder, heads: dict[str, np.ndarray] | None = None,
                    train_config: TrainConfig | None = None) -> None:
    """Write the sidecars, then the JSON that names them; each file is replaced atomically.

    ``heads`` holds the trained arrays by the names the losses give them
    (a ``table`` entry is the encoder's): ``nli_W`` and ``nli_b`` make the
    NLI head, ``def_bias`` and ``def_W`` the definition head, which is tied
    to the table without ``def_W``.  Every array is checked before anything
    is written: a model holding NaN or Inf (a diverged run) raises
    :class:`InvalidInputError` and writes nothing.  The JSON goes last, so a
    checkpoint without its sidecars is never committed.
    """
    path = Path(path)
    heads = {**(heads or {}), "table": encoder.table}
    for name, array in heads.items():
        if not np.all(np.isfinite(array)):
            raise InvalidInputError(f"{path}: {name} contains NaN or Inf; the model diverged")

    payload = {
        "format": FORMAT,
        "version": VERSION,
        "pooling": encoder.pooling,
        "dim": encoder.dim,
        "max_tokens": encoder.max_tokens,
        "vocab": encoder.vocab.words,
        "table": _write_sidecar(path, "table", encoder.table),
        "nli_head": None,
        "def_head": None,
        "train_config": dataclasses.asdict(train_config) if train_config else None,
    }
    if "nli_W" in heads:
        payload["nli_head"] = {
            "W": _floats(heads["nli_W"]),
            "b": _floats(heads["nli_b"]) if "nli_b" in heads else None,
        }
    if "def_bias" in heads:
        payload["def_head"] = {
            "tied": "def_W" not in heads,
            "weights": _write_sidecar(path, "def_weights", heads["def_W"]) if "def_W" in heads else None,
            "bias": _floats(heads["def_bias"]),
        }
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_sidecar(path: Path, ref: dict, shape: tuple[int, int]) -> np.ndarray:
    """The array a sidecar reference names, after checking its dtype, shape and sha256.

    The ``.npy`` header is checked before the array is allocated, and the
    array is read straight into it a chunk at a time, hashing each chunk, so
    a load holds one copy of the array.
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
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"unsupported .npy version {version}")
            read_header = np.lib.format.read_array_header_1_0 if version == (1, 0) \
                else np.lib.format.read_array_header_2_0
            found, fortran_order, dtype = read_header(fh)
        except ValueError as exc:
            raise InvalidInputError(f"sidecar {name} is not a .npy array: {exc}") from None
        if dtype != np.float64 or found != shape or fortran_order:
            order = " in Fortran order" if fortran_order else ""
            raise InvalidInputError(
                f"sidecar {name} holds {dtype} {found}{order}, expected float64 {shape} in C order")
        digest = hashlib.sha256()
        header_bytes = fh.tell()
        fh.seek(0)
        digest.update(fh.read(header_bytes))
        array = np.empty(shape)
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


def _float_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    if array.shape != shape:
        raise InvalidInputError(f"{what} has shape {array.shape}, expected {shape}")
    return array


def _parse(path: Path, payload: dict) -> Checkpoint:
    words = payload["vocab"]
    if not isinstance(words, list) or words[:2] != [CLS_TOKEN, UNK_TOKEN]:
        raise InvalidInputError("vocabulary is missing the reserved entries")
    vocab = Vocabulary(words[2:])
    V, dim = len(vocab), payload["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise InvalidInputError(f"dim must be a positive integer, got {dim!r}")
    encoder = ToyEncoder(vocab, _read_sidecar(path, payload["table"], (V, dim)),
                         pooling=payload["pooling"], max_tokens=payload["max_tokens"],
                         name=path.stem)
    heads = {}
    if payload["nli_head"] is not None:
        raw = payload["nli_head"]
        heads["nli_W"] = _float_array(raw["W"], (3, 3 * dim), "NLI head weights")
        if raw["b"] is not None:
            heads["nli_b"] = _float_array(raw["b"], (3,), "NLI head bias")
    if payload["def_head"] is not None:
        raw = payload["def_head"]
        heads["def_bias"] = _float_array(raw["bias"], (V,), "definition head bias")
        if not raw["tied"]:
            heads["def_W"] = _read_sidecar(path, raw["weights"], (V, dim))
    train_config = None
    if payload["train_config"] is not None:
        train_config = TrainConfig(**payload["train_config"])
    return Checkpoint(encoder=encoder, heads=heads, train_config=train_config)


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
