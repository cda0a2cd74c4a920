"""Vocabulary, toy encoder, pooling and embedding dumps."""

from collections import Counter

import numpy as np
import pytest

from sentsig.corpus import tokenize
from sentsig.encoder import (
    CLS_INDEX,
    CLS_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    EmbeddingStore,
    ToyEncoder,
    Vocabulary,
    build_vocab,
    load_dump,
    save_dump,
)
from sentsig.errors import InvalidInputError, MissingEmbeddingError, ParseError
from sentsig.numstat import make_rng


class TestVocabulary:
    def test_reserved_entries_first(self):
        vocab = build_vocab(["a b", "a"])
        assert vocab.words[:2] == [CLS_TOKEN, UNK_TOKEN]
        assert vocab.words == [CLS_TOKEN, UNK_TOKEN, "a", "b"]  # a first: higher count

    def test_min_count_filters(self):
        vocab = build_vocab(["a b", "a"], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab(["a b"])
        assert vocab.index("zzz") == UNK_INDEX

    def test_counts_match_hash_count_oracle(self):
        rng = make_rng(20)
        words = [f"w{i}" for i in range(30)]
        corpus = [
            " ".join(words[j] for j in rng.integers(0, len(words), size=8))
            for _ in range(100)
        ]
        oracle = Counter()
        for text in corpus:
            oracle.update(tokenize(text))
        vocab = build_vocab(corpus, min_count=3)
        expected = sorted((w for w, c in oracle.items() if c >= 3),
                          key=lambda w: (-oracle[w], w))
        assert vocab.words[2:] == expected

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["b a c", "b a", "b"])
        assert vocab.words[2:] == ["b", "a", "c"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError):
            build_vocab([])


def pool(rows, strategy):
    """ToyEncoder's index-array pooling over ``rows``; the first row is the [CLS] position."""
    rows = np.asarray(rows, dtype=np.float64)
    table = np.vstack([rows, np.zeros((2, rows.shape[1]))])  # at least [CLS] and [UNK]
    enc = ToyEncoder(Vocabulary([f"w{i}" for i in range(rows.shape[0])]), table, pooling=strategy)
    vector, _ = enc.pool_forward(np.arange(rows.shape[0]))
    return vector


def without_cls(rows):
    """``rows`` behind a zero [CLS] row, so mean and max pool exactly ``rows``."""
    rows = np.asarray(rows, dtype=np.float64)
    return np.vstack([np.zeros((1, rows.shape[1])), rows])


class TestPooling:
    def test_mean_without_cls(self):
        np.testing.assert_allclose(pool(without_cls([(1, 3), (3, 1)]), "mean"), [2, 2])

    def test_max_without_cls(self):
        np.testing.assert_allclose(pool(without_cls([(1, 3), (3, 1)]), "max"), [3, 3])

    def test_cls_is_first_vector(self):
        np.testing.assert_allclose(pool([(9, 9), (1, 2), (3, 4)], "cls"), [9, 9])

    def test_mean_excludes_cls_position(self):
        np.testing.assert_allclose(pool([(100, 100), (1, 3), (3, 1)], "mean"), [2, 2])

    def test_max_excludes_cls_position(self):
        np.testing.assert_allclose(pool([(100, 100), (1, 3), (3, 1)], "max"), [3, 3])

    def test_mean_of_identical_vectors(self):
        np.testing.assert_allclose(pool(without_cls([(2.5, -1)] * 4), "mean"), [2.5, -1])

    def test_max_dominates_mean(self):
        rng = make_rng(30)
        for _ in range(100):
            mat = without_cls(rng.normal(size=(int(rng.integers(1, 8)), 5)))
            assert np.all(pool(mat, "max") >= pool(mat, "mean") - 1e-12)

    def test_mean_max_permutation_invariant_cls_not(self):
        rng = make_rng(31)
        mat = rng.normal(size=(5, 4))
        perm = mat[[0, 3, 1, 4, 2]]  # keep the leading position, shuffle the rest
        for strategy in ("mean", "max"):
            np.testing.assert_allclose(pool(mat, strategy), pool(perm, strategy), atol=1e-15)
        swapped = mat[[1, 0, 2, 3, 4]]
        assert not np.allclose(pool(mat, "cls"), pool(swapped, "cls"))

    def test_empty_content_rejected(self):
        with pytest.raises(InvalidInputError):
            pool([(1.0, 2.0)], "mean")

    def test_unknown_strategy(self):
        with pytest.raises(InvalidInputError):
            pool([(1, 2)], "sum")


def small_encoder(pooling="mean", dim=4, seed=0):
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    return ToyEncoder.create(vocab, dim, pooling, seed=seed)


class TestToyEncoder:
    def test_encode_prepends_cls(self):
        enc = small_encoder()
        seq = enc.table[enc.token_indices(["alpha"])]
        assert seq.shape == (2, 4)
        np.testing.assert_array_equal(seq[0], enc.table[CLS_INDEX])

    def test_unknown_word_uses_unk_row(self):
        enc = small_encoder()
        seq = enc.table[enc.token_indices(["zzz"])]
        np.testing.assert_array_equal(seq[1], enc.table[UNK_INDEX])

    def test_repeated_word_repeats_row(self):
        enc = small_encoder()
        seq = enc.table[enc.token_indices(["beta", "beta"])]
        np.testing.assert_array_equal(seq[1], seq[2])

    def test_embed_single_word_mean_is_its_row(self):
        enc = small_encoder()
        np.testing.assert_allclose(enc.embed("alpha"), enc.table[enc.vocab.index("alpha")])

    def test_embed_two_words_mean_is_row_average(self):
        enc = small_encoder()
        expected = (enc.table[enc.vocab.index("alpha")] + enc.table[enc.vocab.index("beta")]) / 2
        np.testing.assert_allclose(enc.embed("alpha beta"), expected, atol=1e-15)

    def test_embed_deterministic(self):
        a = small_encoder(seed=7).embed("alpha beta zzz")
        b = small_encoder(seed=7).embed("alpha beta zzz")
        np.testing.assert_array_equal(a, b)

    def test_init_range_scales_with_dim(self):
        enc = small_encoder(dim=10)
        assert np.all(np.abs(enc.table) <= 0.5 / 10)

    def test_truncation_at_max_tokens(self):
        vocab = Vocabulary(["a", "b"])
        enc = ToyEncoder.create(vocab, 3, "mean", max_tokens=2)
        seq = enc.table[enc.token_indices(["a", "b", "a", "b"])]
        assert seq.shape == (3, 3)

    def test_embed_no_tokens_rejected(self):
        with pytest.raises(InvalidInputError):
            small_encoder().embed("...")

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_embed_non_finite_rejected(self, pooling):
        enc = small_encoder(pooling)
        enc.table[[CLS_INDEX, enc.vocab.index("alpha")]] = np.nan
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            enc.embed("alpha")


class TestEmbeddingStore:
    def test_lookup_bit_exact(self):
        store = EmbeddingStore(3)
        vec = np.array([0.1, -0.2, 1e-17])
        store.add("a sentence", vec)
        np.testing.assert_array_equal(store.embed("a sentence"), vec)

    def test_missing_sentence_reported(self):
        store = EmbeddingStore(2)
        with pytest.raises(MissingEmbeddingError) as err:
            store.embed("nope")
        assert "nope" in str(err.value)

    def test_duplicate_rejected(self):
        store = EmbeddingStore(2)
        store.add("s", [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            store.add("s", [1.0, 2.0])

    def test_wrong_dim_rejected(self):
        store = EmbeddingStore(2)
        with pytest.raises(InvalidInputError):
            store.add("s", [1.0, 2.0, 3.0])


class TestDumps:
    def test_round_trip_small(self, tmp_path):
        store = EmbeddingStore(2)
        store.add("hello there", [0.5, -1.25])
        store.add("second one", [1e-300, 3.141592653589793])
        path = tmp_path / "dump.txt"
        save_dump(store, path)
        loaded = load_dump(path)
        assert loaded.dim == 2
        for sentence, vec in store.items():
            np.testing.assert_array_equal(loaded.embed(sentence), vec)

    def test_round_trip_random_bit_exact(self, tmp_path):
        rng = make_rng(77)
        store = EmbeddingStore(8)
        for i in range(1000):
            store.add(f"sentence number {i}", rng.normal(size=8) * 10.0 ** rng.integers(-12, 12))
        path = tmp_path / "big.txt"
        save_dump(store, path)
        loaded = load_dump(path)
        assert len(loaded) == 1000
        for sentence, vec in store.items():
            np.testing.assert_array_equal(loaded.embed(sentence), vec)

    def test_header_row_dim_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim=3\nsome sentence\t0.5 1.5\n")
        with pytest.raises(ParseError) as err:
            load_dump(path)
        assert err.value.line_no == 2

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("dim=1\ns\t1.0\ns\t2.0\n")
        with pytest.raises(ParseError) as err:
            load_dump(path)
        assert err.value.line_no == 3

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.txt"
        path.write_text("s\t1.0\n")
        with pytest.raises(ParseError):
            load_dump(path)
