"""Checkpoint format: JSON plus .npy sidecars, validation on load, atomic finite writes."""

import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from sentsig.checkpoint import load_checkpoint, save_checkpoint
from sentsig.cli import main
from sentsig.corpus import StsPair, save_sts
from sentsig.encoder import ToyEncoder, Vocabulary
from sentsig.errors import InvalidInputError
from sentsig.fileio import atomic_write
from sentsig.numstat import make_rng
from sentsig.objectives import TrainConfig

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]
V, DIM = len(WORDS) + 2, 4  # vocabulary size with [CLS] and [UNK]


def _model(tied, seed=0, dim=DIM):
    """An encoder and its named head arrays; a tied definition head has no ``def_W``."""
    rng = make_rng(seed)
    encoder = ToyEncoder(Vocabulary(WORDS), rng.normal(size=(len(WORDS) + 2, dim)), pooling="max")
    heads = {"nli_W": rng.normal(size=(3, 3 * dim)), "nli_b": rng.normal(size=3)}
    V = len(encoder.vocab)
    if not tied:
        heads["def_W"] = rng.normal(size=(V, dim))
    heads["def_bias"] = rng.normal(size=V)
    return encoder, heads


def _save(path, tied=False):
    encoder, heads = _model(tied)
    save_checkpoint(path, encoder, heads, TrainConfig(seed=3, base_lr=0.01))
    return encoder, heads


class TestRoundTrip:
    @pytest.mark.parametrize("tied", [True, False])
    def test_value_exact(self, tmp_path, tied):
        encoder, heads = _save(tmp_path / "ckpt.json", tied)
        ckpt = load_checkpoint(tmp_path / "ckpt.json")
        np.testing.assert_array_equal(ckpt.encoder.table, encoder.table)
        assert ckpt.heads.keys() == heads.keys()
        for name, array in heads.items():
            np.testing.assert_array_equal(ckpt.heads[name], array, err_msg=name)
        assert ("def_W" not in ckpt.heads) == tied
        assert ckpt.encoder.pooling == "max"
        assert ckpt.train_config == TrainConfig(seed=3, base_lr=0.01)

    @pytest.mark.parametrize("tied", [True, False])
    def test_resave_byte_identical(self, tmp_path, tied):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        _save(first / "ckpt.json", tied)
        ckpt = load_checkpoint(first / "ckpt.json")
        save_checkpoint(second / "ckpt.json", ckpt.encoder, ckpt.heads, ckpt.train_config)
        files = sorted(p.name for p in first.iterdir())
        expected = ["ckpt.json", "ckpt.table.npy"] + ([] if tied else ["ckpt.def_weights.npy"])
        assert files == sorted(expected)
        assert sorted(p.name for p in second.iterdir()) == files
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_json_pins_sidecar_bytes(self, tmp_path):
        _save(tmp_path / "ckpt.json", tied=False)
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        assert payload["version"] == 2
        for ref in (payload["table"], payload["def_head"]["weights"]):
            data = (tmp_path / ref["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == ref["sha256"]

    def test_minimal_encoder_only(self, tmp_path):
        encoder, _ = _model(tied=True)
        save_checkpoint(tmp_path / "enc.json", encoder)
        ckpt = load_checkpoint(tmp_path / "enc.json")
        np.testing.assert_array_equal(ckpt.encoder.table, encoder.table)
        assert ckpt.heads == {} and ckpt.train_config is None


# ---------------------------------------------------------------------------
# malformed checkpoints: one row per defect
# ---------------------------------------------------------------------------

def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _replace_sidecar(path, key, array):
    """Overwrite a sidecar with ``array`` and record its new sha256, so only the content is wrong."""
    def edit(payload):
        ref = payload["table"] if key == "table" else payload["def_head"]["weights"]
        sidecar = path.with_name(ref["file"])
        np.save(sidecar, array, allow_pickle=False)
        ref["sha256"] = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    _edit_json(path, edit)


def _npz_table(path):
    def edit(payload):
        sidecar = path.with_name(payload["table"]["file"])
        with open(sidecar, "wb") as fh:
            np.savez(fh, table=np.zeros((V, DIM)))
        payload["table"]["sha256"] = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    _edit_json(path, edit)


def _edit_sidecar_bytes(path, edit):
    """Rewrite the table sidecar's bytes and record their sha256, so only the layout is wrong."""
    def edit_json(payload):
        sidecar = path.with_name(payload["table"]["file"])
        sidecar.write_bytes(edit(sidecar.read_bytes()))
        payload["table"]["sha256"] = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    _edit_json(path, edit_json)


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _corrupt_table_sidecar(path):
    sidecar = path.with_name("ckpt.table.npy")
    data = bytearray(sidecar.read_bytes())
    data[-1] ^= 0xFF
    sidecar.write_bytes(bytes(data))


MALFORMED = [
    ("truncated-json", _truncate, "not a readable checkpoint"),
    ("missing-vocab", lambda p: _edit_json(p, lambda d: d.pop("vocab")), "missing field 'vocab'"),
    ("missing-table", lambda p: _edit_json(p, lambda d: d.pop("table")), "missing field 'table'"),
    ("missing-sidecar", lambda p: p.with_name("ckpt.table.npy").unlink(), "cannot read sidecar"),
    ("sidecar-sha256", _corrupt_table_sidecar, "does not match the sha256"),
    ("sidecar-dtype", lambda p: _replace_sidecar(p, "table", np.zeros((V, DIM), np.float32)),
     "expected float64"),
    ("sidecar-shape", lambda p: _replace_sidecar(p, "table", np.zeros((V - 1, DIM))),
     "expected float64"),
    ("sidecar-not-npy", _npz_table, "not a .npy array"),
    ("sidecar-short", lambda p: _edit_sidecar_bytes(p, lambda data: data[:-8]), "ends before"),
    ("sidecar-trailing-bytes", lambda p: _edit_sidecar_bytes(p, lambda data: data + bytes(8)),
     "bytes after"),
    ("sidecar-header-only", lambda p: _edit_sidecar_bytes(p, lambda data: data[:6]), "not a .npy array"),
    ("sidecar-fortran-order", lambda p: _replace_sidecar(p, "table", np.asfortranarray(np.zeros((V, DIM)))),
     "in Fortran order"),
    ("sidecar-outside-dir",
     lambda p: _edit_json(p, lambda d: d["table"].update(file="../ckpt.table.npy")),
     "plain file name"),
    ("nli-head-shape",
     lambda p: _edit_json(p, lambda d: d["nli_head"].update(W=[[0.0] * 3 * (DIM + 1)] * 3)),
     "NLI head weights"),
    ("def-bias-length",
     lambda p: _edit_json(p, lambda d: d["def_head"].update(bias=d["def_head"]["bias"][:-1])),
     "definition head bias"),
    ("def-weights-shape",
     lambda p: _replace_sidecar(p, "def_weights", np.zeros((V, DIM + 1))), "expected float64"),
    ("version-1", lambda p: _edit_json(p, lambda d: d.update(version=1)),
     "unsupported checkpoint version 1"),
    *((f"max-tokens-{name}", lambda p, value=value: _edit_json(p, lambda d: d.update(max_tokens=value)),
       "max_tokens must be an integer >= 1")
      for name, value in [("string", "x"), ("float", 1.5), ("zero", 0), ("negative", -3), ("null", None),
                          ("bool", True)]),
]


@pytest.mark.parametrize("damage, fragment", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_malformed_checkpoint_rejected(tmp_path, capsys, damage, fragment):
    ckpt = tmp_path / "ckpt.json"
    _save(ckpt, tied=False)
    damage(ckpt)
    with pytest.raises(InvalidInputError, match=fragment):
        load_checkpoint(ckpt)
    sts = tmp_path / "sts.tsv"
    save_sts([StsPair("alpha beta", "gamma", 1.0, "s"), StsPair("beta", "delta", 2.0, "s")], sts)
    out = tmp_path / "eval"
    assert main(["eval", str(ckpt), "--sts", str(sts), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_a_load_holds_one_copy_of_a_table(tmp_path):
    words = [f"w{i}" for i in range(2000)]
    encoder = ToyEncoder(Vocabulary(words), make_rng(0).normal(size=(len(words) + 2, 256)))
    save_checkpoint(tmp_path / "ckpt.json", encoder)
    tracemalloc.start()
    try:
        ckpt = load_checkpoint(tmp_path / "ckpt.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ckpt.encoder.table, encoder.table)
    assert peak < 1.5 * encoder.table.nbytes


# ---------------------------------------------------------------------------
# writes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tied", [True, False])
def test_sidecars_are_the_bytes_np_save_writes(tmp_path, tied):
    encoder, heads = _save(tmp_path / "ckpt.json", tied)
    payload = json.loads((tmp_path / "ckpt.json").read_text())
    refs = {"table": (payload["table"], encoder.table)}
    if not tied:
        refs["def_W"] = (payload["def_head"]["weights"], heads["def_W"])
    for ref, array in refs.values():
        expected = io.BytesIO()
        np.save(expected, array, allow_pickle=False)
        data = (tmp_path / ref["file"]).read_bytes()
        assert data == expected.getvalue()
        assert ref["sha256"] == hashlib.sha256(data).hexdigest()


def _poison_table(model):
    model[0].table[2, 1] = np.nan


def _poison_nli(model):
    model[1]["nli_W"][0, 0] = np.inf


def _poison_bias(model):
    model[1]["def_bias"][-1] = np.nan


def _poison_def_weights(model):
    model[1]["def_W"][1, 0] = -np.inf


@pytest.mark.parametrize("poison", [_poison_table, _poison_nli, _poison_bias, _poison_def_weights])
def test_non_finite_model_writes_nothing(tmp_path, poison):
    model = _model(tied=False)
    poison(model)
    encoder, heads = model
    with pytest.raises(InvalidInputError, match="NaN or Inf"):
        save_checkpoint(tmp_path / "ckpt.json", encoder, heads)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "file.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]
