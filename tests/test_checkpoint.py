"""Checkpoint format: JSON plus one .npy sidecar per array, validation on load, atomic finite writes."""

import dataclasses
import hashlib
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from sentsig.checkpoint import load_checkpoint, save_checkpoint
from sentsig.cli import main
from sentsig.corpus import StsPair, save_sts
from sentsig.encoder import MODEL_DTYPE, ToyEncoder, Vocabulary, build_vocab
from sentsig.errors import InvalidInputError
from sentsig.fileio import atomic_write
from sentsig.numstat import make_rng
from sentsig.objectives import PIPELINES, IndexedExamples, TrainConfig, method_datasets, run_pipeline
from sentsig.synth import make_definition_corpus, make_nli_corpus

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]
V, DIM = len(WORDS) + 2, 4  # vocabulary size with [CLS] and [UNK]


def _normal(rng, size):
    return rng.normal(size=size).astype(MODEL_DTYPE)


def _model(seed=0, dim=DIM):
    """An encoder and its named head arrays, float32 as training makes them."""
    rng = make_rng(seed)
    encoder = ToyEncoder(Vocabulary(WORDS), _normal(rng, (len(WORDS) + 2, dim)), pooling="max")
    heads = {"nli_W": _normal(rng, (3, 3 * dim)), "nli_b": _normal(rng, 3), "def_bias": _normal(rng, V)}
    return encoder, heads


def _save(path, with_heads=True):
    """Save :func:`_model`'s encoder with its heads, or with none."""
    encoder, heads = _model()
    if not with_heads:
        heads = {}
    save_checkpoint(path, encoder, heads, TrainConfig(seed=3, base_lr=0.01))
    return encoder, heads


class TestRoundTrip:
    @pytest.mark.parametrize("with_heads", [True, False])
    def test_value_exact(self, tmp_path, with_heads):
        encoder, heads = _save(tmp_path / "ckpt.json", with_heads)
        ckpt = load_checkpoint(tmp_path / "ckpt.json")
        assert ckpt.encoder.table.dtype == MODEL_DTYPE
        np.testing.assert_array_equal(ckpt.encoder.table, encoder.table)
        assert ckpt.heads.keys() == heads.keys()
        for name, array in heads.items():
            assert ckpt.heads[name].dtype == MODEL_DTYPE, name
            np.testing.assert_array_equal(ckpt.heads[name], array, err_msg=name)
        assert ckpt.encoder.pooling == "max"
        assert ckpt.train_config == TrainConfig(seed=3, base_lr=0.01)

    @pytest.mark.parametrize("with_heads", [True, False])
    def test_resave_byte_identical(self, tmp_path, with_heads):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        _save(first / "ckpt.json", with_heads)
        ckpt = load_checkpoint(first / "ckpt.json")
        save_checkpoint(second / "ckpt.json", ckpt.encoder, ckpt.heads, ckpt.train_config)
        files = sorted(p.name for p in first.iterdir())
        names = ["table"] + (["nli_W", "nli_b", "def_bias"] if with_heads else [])
        assert files == sorted(["ckpt.json"] + [f"ckpt.{name}.npy" for name in names])
        assert sorted(p.name for p in second.iterdir()) == files
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_train_config_without_a_field_rejected(self, tmp_path, key):
        # a train_config is the whole recipe: no field is filled in with its default
        _save(tmp_path / "ckpt.json")
        _edit_json(tmp_path / "ckpt.json", lambda d: d["train_config"].pop(key))
        with pytest.raises(InvalidInputError, match=re.escape(f"missing field 'train_config.{key}'")):
            load_checkpoint(tmp_path / "ckpt.json")

    @pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "warmup_fraction", "bucket_width", "lr_decay",
                                     "tied_head"])
    def test_train_config_with_a_removed_field_rejected(self, tmp_path, key):
        # the settings that became constants: a recipe that sets one is not this code's recipe
        _save(tmp_path / "ckpt.json")
        _edit_json(tmp_path / "ckpt.json", lambda d: d["train_config"].update({key: 1}))
        with pytest.raises(InvalidInputError, match=re.escape(f"unknown field 'train_config.{key}'")):
            load_checkpoint(tmp_path / "ckpt.json")

    def test_float64_arrays_saved_rounded_to_float32(self, tmp_path):
        encoder, heads = _model()
        wide = ToyEncoder(encoder.vocab, encoder.table + np.float64(1e-12), pooling="max")
        assert wide.table.dtype == np.float64
        save_checkpoint(tmp_path / "ckpt.json", wide, {**heads, "nli_b": heads["nli_b"].astype(np.float64)})
        ckpt = load_checkpoint(tmp_path / "ckpt.json")
        assert ckpt.encoder.table.tobytes() == wide.table.astype(np.float32).tobytes()
        assert ckpt.heads["nli_b"].tobytes() == heads["nli_b"].tobytes()

    def test_json_pins_sidecar_bytes(self, tmp_path):
        _save(tmp_path / "ckpt.json")
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        assert payload["version"] == 7
        assert payload["max_tokens"] == 128
        assert payload["arrays"].keys() == {"table", "nli_W", "nli_b", "def_bias"}
        for ref in payload["arrays"].values():
            data = (tmp_path / ref["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == ref["sha256"]

    def test_minimal_encoder_only(self, tmp_path):
        encoder, _ = _model()
        save_checkpoint(tmp_path / "enc.json", encoder)
        assert json.loads((tmp_path / "enc.json").read_text())["arrays"].keys() == {"table"}
        ckpt = load_checkpoint(tmp_path / "enc.json")
        np.testing.assert_array_equal(ckpt.encoder.table, encoder.table)
        assert ckpt.heads == {} and ckpt.train_config is None


@pytest.fixture(scope="module")
def world():
    """A vocabulary and both training datasets, a few batches each."""
    rng = make_rng(5)
    topics = dict(n_topics=4, words_per_topic=5, sentence_len=3)
    nli = make_nli_corpus(rng, 12, **topics)
    defs = make_definition_corpus(rng, per_word=1, **topics)
    vocab = build_vocab([e.premise for e in nli] + [e.hypothesis for e in nli]
                        + [e.definition for e in defs] + [e.word for e in defs])
    return vocab, IndexedExamples.nli(nli, vocab), IndexedExamples.definitions(defs, vocab)


def _float_lists(node):
    """The JSON lists under ``node`` that hold a float."""
    if isinstance(node, dict):
        return [found for value in node.values() for found in _float_lists(value)]
    if isinstance(node, list):
        inner = [found for value in node for found in _float_lists(value)]
        return inner + ([node] if any(isinstance(value, float) for value in node) else [])
    return []


@pytest.mark.parametrize("method", list(PIPELINES), ids=lambda method: f"{method}-tied")
def test_every_trained_model_round_trips(tmp_path, world, method):
    vocab, nli, defs = world
    config = TrainConfig(batch_size=4, base_lr=0.05)
    encoder = ToyEncoder(vocab, None, "max", dim=3)
    [result] = run_pipeline(method, [encoder], config, nli, defs, seeds=[2])
    uses_nli, uses_defs = method_datasets(method)
    names = set()
    if uses_nli:
        names |= {"nli_W", "nli_b"}
    if uses_defs:
        names |= {"def_bias"}
    heads = {name: array for name, array in result.params.items() if name != "table"}
    assert heads.keys() == names
    save_checkpoint(tmp_path / "ckpt.json", encoder, heads, config)

    payload = json.loads((tmp_path / "ckpt.json").read_text())
    assert payload["arrays"].keys() == names | {"table"}
    assert _float_lists(payload) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["ckpt.json"] + [f"ckpt.{name}.npy" for name in names | {"table"}])
    ckpt = load_checkpoint(tmp_path / "ckpt.json")
    assert ckpt.heads.keys() == names
    for name, array in heads.items():
        assert ckpt.heads[name].tobytes() == array.tobytes(), name  # bit for bit, signed zeros included
    assert ckpt.encoder.table.tobytes() == encoder.table.tobytes()
    assert ckpt.train_config == config


# ---------------------------------------------------------------------------
# malformed checkpoints: one row per defect
# ---------------------------------------------------------------------------

def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _add_def_weights(path, shape, keep_bias=True):
    """Give a checkpoint the ``def_W`` sidecar an untied definition head had, and take ``def_bias`` if asked."""
    sidecar = path.with_name("ckpt.def_W.npy")
    np.save(sidecar, np.zeros(shape, np.float32), allow_pickle=False)
    ref = {"file": sidecar.name, "sha256": hashlib.sha256(sidecar.read_bytes()).hexdigest()}

    def edit(payload):
        payload["arrays"]["def_W"] = ref
        if not keep_bias:
            del payload["arrays"]["def_bias"]
    _edit_json(path, edit)


def _replace_sidecar(path, key, array):
    """Overwrite a sidecar with ``array`` and record its new sha256, so only the content is wrong."""
    def edit(payload):
        ref = payload["arrays"][key]
        sidecar = path.with_name(ref["file"])
        np.save(sidecar, array, allow_pickle=False)
        ref["sha256"] = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    _edit_json(path, edit)


def _npz_table(path):
    def edit(payload):
        ref = payload["arrays"]["table"]
        sidecar = path.with_name(ref["file"])
        with open(sidecar, "wb") as fh:
            np.savez(fh, table=np.zeros((V, DIM)))
        ref["sha256"] = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    _edit_json(path, edit)


def _edit_sidecar_bytes(path, edit):
    """Rewrite the table sidecar's bytes and record their sha256, so only the layout is wrong."""
    def edit_json(payload):
        ref = payload["arrays"]["table"]
        sidecar = path.with_name(ref["file"])
        sidecar.write_bytes(edit(sidecar.read_bytes()))
        ref["sha256"] = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    _edit_json(path, edit_json)


def _npy_2_0(data):
    """The same array behind a .npy 2.0 header."""
    out = io.BytesIO()
    np.lib.format.write_array(out, np.load(io.BytesIO(data)), version=(2, 0))
    return out.getvalue()


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
    ("vocab-repeated-word", lambda p: _edit_json(p, lambda d: d["vocab"].__setitem__(3, d["vocab"][2])),
     "vocabulary words must be unique"),
    ("vocab-unk-after-reserved", lambda p: _edit_json(p, lambda d: d["vocab"].__setitem__(3, "[UNK]")),
     "[UNK] is reserved and cannot be a corpus word"),
    ("missing-arrays", lambda p: _edit_json(p, lambda d: d.pop("arrays")), "missing field 'arrays'"),
    ("missing-table", lambda p: _edit_json(p, lambda d: d["arrays"].pop("table")), "missing array 'table'"),
    ("unknown-array", lambda p: _edit_json(p, lambda d: d["arrays"].update(extra=d["arrays"]["table"])),
     "unknown arrays ['extra']"),
    ("nli-bias-without-weights", lambda p: _edit_json(p, lambda d: d["arrays"].pop("nli_W")),
     "array nli_b needs nli_W"),
    ("nli-weights-without-bias", lambda p: _edit_json(p, lambda d: d["arrays"].pop("nli_b")),
     "array nli_W needs nli_b"),
    ("def-weights", lambda p: _add_def_weights(p, (V, DIM)), "unknown arrays ['def_W']"),
    ("def-weights-without-bias", lambda p: _add_def_weights(p, (V, DIM), keep_bias=False),
     "unknown arrays ['def_W']"),
    ("pooling-cls", lambda p: _edit_json(p, lambda d: d.update(pooling="cls")), "unknown pooling strategy 'cls'"),
    ("missing-sidecar", lambda p: p.with_name("ckpt.table.npy").unlink(), "cannot read sidecar"),
    ("sidecar-sha256", _corrupt_table_sidecar, "does not match the sha256"),
    ("sidecar-float64", lambda p: _replace_sidecar(p, "table", np.zeros((V, DIM), "<f8")),
     f"holds float64 ({V}, {DIM}), expected float32 ({V}, {DIM})"),
    ("sidecar-dtype", lambda p: _replace_sidecar(p, "table", np.zeros((V, DIM), ">f4")),
     f"holds >f4 ({V}, {DIM}), expected float32 ({V}, {DIM})"),
    ("sidecar-shape", lambda p: _replace_sidecar(p, "table", np.zeros((V - 1, DIM), np.float32)),
     f"holds float32 ({V - 1}, {DIM}), expected float32 ({V}, {DIM})"),
    ("sidecar-not-npy", _npz_table, "not a .npy array"),
    ("sidecar-short", lambda p: _edit_sidecar_bytes(p, lambda data: data[:-8]), "ends before"),
    ("sidecar-trailing-bytes", lambda p: _edit_sidecar_bytes(p, lambda data: data + bytes(8)),
     "bytes after"),
    ("sidecar-header-only", lambda p: _edit_sidecar_bytes(p, lambda data: data[:6]), "not a .npy array"),
    ("sidecar-npy-2.0", lambda p: _edit_sidecar_bytes(p, _npy_2_0), "not a .npy array"),
    ("sidecar-fortran-order",
     lambda p: _replace_sidecar(p, "table", np.asfortranarray(np.zeros((V, DIM), np.float32))),
     f"holds float32 ({V}, {DIM}) in Fortran order, expected float32 ({V}, {DIM}) in C order"),
    ("sidecar-outside-dir",
     lambda p: _edit_json(p, lambda d: d["arrays"]["table"].update(file="../ckpt.table.npy")),
     "plain file name"),
    ("nli-head-shape", lambda p: _replace_sidecar(p, "nli_W", np.zeros((3, 3 * (DIM + 1)), np.float32)),
     f"holds float32 (3, {3 * (DIM + 1)}), expected float32 (3, {3 * DIM})"),
    ("nli-bias-length", lambda p: _replace_sidecar(p, "nli_b", np.zeros(4, np.float32)),
     "holds float32 (4,), expected float32 (3,)"),
    ("def-bias-length", lambda p: _replace_sidecar(p, "def_bias", np.zeros(V - 1, np.float32)),
     f"holds float32 ({V - 1},), expected float32 ({V},)"),
    ("def-weights-shape", lambda p: _add_def_weights(p, (V, DIM + 1)), "unknown arrays ['def_W']"),
    ("version-1", lambda p: _edit_json(p, lambda d: d.update(version=1)),
     "unsupported checkpoint version 1"),
    ("version-2", lambda p: _edit_json(p, lambda d: d.update(version=2)),
     "unsupported checkpoint version 2"),
    ("version-3", lambda p: _edit_json(p, lambda d: d.update(version=3)),
     "unsupported checkpoint version 3"),
    ("version-4", lambda p: _edit_json(p, lambda d: d.update(version=4)),
     "unsupported checkpoint version 4"),
    ("version-5", lambda p: _edit_json(p, lambda d: d.update(version=5)),
     "unsupported checkpoint version 5"),
    ("version-6", lambda p: _edit_json(p, lambda d: d.update(version=6)),
     "unsupported checkpoint version 6"),
    ("train-config-field", lambda p: _edit_json(p, lambda d: d["train_config"].pop("nli_cycle")),
     "missing field 'train_config.nli_cycle'"),
    *((f"max-tokens-{name}", lambda p, value=value: _edit_json(p, lambda d: d.update(max_tokens=value)),
       f"max_tokens must be 128, got {value!r}")
      for name, value in [("string", "x"), ("float", 1.5), ("zero", 0), ("negative", -3), ("null", None),
                          ("bool", True), ("other", 64)]),
]


@pytest.mark.parametrize("damage, fragment", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_malformed_checkpoint_rejected(tmp_path, capsys, damage, fragment):
    ckpt = tmp_path / "ckpt.json"
    _save(ckpt)
    damage(ckpt)
    with pytest.raises(InvalidInputError, match=re.escape(fragment)):
        load_checkpoint(ckpt)
    sts = tmp_path / "sts.tsv"
    save_sts([StsPair("alpha beta", "gamma", 1.0, "s"), StsPair("beta", "delta", 2.0, "s")], sts)
    out = tmp_path / "eval"
    assert main(["eval", str(ckpt), "--sts", str(sts), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_a_load_holds_one_copy_of_a_table(tmp_path):
    words = [f"w{i}" for i in range(2000)]
    encoder = ToyEncoder(Vocabulary(words), _normal(make_rng(0), (len(words) + 2, 256)))
    save_checkpoint(tmp_path / "ckpt.json", encoder)
    tracemalloc.start()
    try:
        ckpt = load_checkpoint(tmp_path / "ckpt.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ckpt.encoder.table.dtype == encoder.table.dtype == np.float32  # not widened on load
    np.testing.assert_array_equal(ckpt.encoder.table, encoder.table)
    assert peak < 1.5 * encoder.table.nbytes


# ---------------------------------------------------------------------------
# writes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("with_heads", [True, False])
def test_sidecars_are_the_bytes_np_save_writes(tmp_path, with_heads):
    encoder, heads = _save(tmp_path / "ckpt.json", with_heads)
    refs = json.loads((tmp_path / "ckpt.json").read_text())["arrays"]
    arrays = {**heads, "table": encoder.table}
    assert refs.keys() == arrays.keys()
    for name, array in arrays.items():
        ref = refs[name]
        assert ref["file"] == f"ckpt.{name}.npy"
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


def _beyond_float32(model):
    model[1]["def_bias"] = model[1]["def_bias"].astype(np.float64)
    model[1]["def_bias"][0] = 1e300  # finite in float64, inf once rounded to float32


@pytest.mark.parametrize("poison", [_poison_table, _poison_nli, _poison_bias, _beyond_float32])
def test_non_finite_model_writes_nothing(tmp_path, poison):
    model = _model()
    poison(model)
    encoder, heads = model
    with pytest.raises(InvalidInputError, match="NaN or Inf"):
        save_checkpoint(tmp_path / "ckpt.json", encoder, heads)
    assert list(tmp_path.iterdir()) == []


def _untie_without_bias(heads):
    """An untied definition head's weights in place of the tied head's bias."""
    del heads["def_bias"]
    heads["def_W"] = np.zeros((V, DIM), np.float32)


UNLOADABLE = [
    ("unknown-array", lambda heads: heads.update(extra=heads["def_bias"]), "unknown arrays ['extra']"),
    ("nli-bias-without-weights", lambda heads: heads.pop("nli_W"), "array nli_b needs nli_W"),
    ("nli-weights-without-bias", lambda heads: heads.pop("nli_b"), "array nli_W needs nli_b"),
    ("def-weights-without-bias", _untie_without_bias, "unknown arrays ['def_W']"),
    ("nli-head-shape", lambda heads: heads.update(nli_W=np.zeros((3, DIM))),
     f"nli_W has shape (3, {DIM}), expected (3, {3 * DIM})"),
    ("def-bias-length", lambda heads: heads.update(def_bias=np.zeros(V + 1)),
     f"def_bias has shape ({V + 1},), expected ({V},)"),
]


@pytest.mark.parametrize("damage, fragment", [row[1:] for row in UNLOADABLE], ids=[row[0] for row in UNLOADABLE])
def test_unloadable_model_writes_nothing(tmp_path, damage, fragment):
    encoder, heads = _model()
    damage(heads)
    with pytest.raises(InvalidInputError, match=re.escape(fragment)):
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
