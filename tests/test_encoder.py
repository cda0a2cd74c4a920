"""Vocabulary, toy encoder, pooling and embedding dumps."""

from collections import Counter

import numpy as np
import pytest

import oracles
import sentsig.encoder
from gradcheck import pool_one, unpool_one
from generators import fresh_encoder
from sentsig.corpus import tokenize
from sentsig.encoder import (
    CLS_INDEX,
    CLS_TOKEN,
    MAX_TOKENS,
    UNK_INDEX,
    UNK_TOKEN,
    EmbeddingStore,
    ScatterTerms,
    TokenCache,
    TokenIndex,
    ToyEncoder,
    Vocabulary,
    build_vocab,
    load_dump,
    pool_backward,
    pool_forward,
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

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_many_tied_counts_keep_the_count_then_word_order(self, min_count):
        # 300 words of 1 to 3 occurrences each: most counts are shared by about 100 words
        rng = make_rng(21)
        letters = np.array(list("abcdefz019"))
        words = sorted({"".join(rng.choice(letters, size=int(rng.integers(1, 6)))) for _ in range(300)})
        tokens = [w for w in words for _ in range(int(rng.integers(1, 4)))]
        tokens = [tokens[i] for i in rng.permutation(len(tokens))]
        corpus = [" ".join(tokens[i : i + 7]) for i in range(0, len(tokens), 7)]
        counts = Counter(tokens)
        expected = sorted((w for w, c in counts.items() if c >= min_count), key=lambda w: (-counts[w], w))
        assert len(expected) > 100 and len(set(counts.values())) == 3
        assert build_vocab(corpus, min_count=min_count).words[2:] == expected

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["b a c", "b a", "b"])
        assert vocab.words[2:] == ["b", "a", "c"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError):
            build_vocab([])


def pool(rows, strategy):
    """ToyEncoder's pooling of one text over ``rows``; the first row is the [CLS] position."""
    rows = np.asarray(rows, dtype=np.float64)
    table = np.vstack([rows, np.zeros((2, rows.shape[1]))])  # at least [CLS] and [UNK]
    enc = ToyEncoder(Vocabulary([f"w{i}" for i in range(rows.shape[0])]), table, pooling=strategy)
    n = rows.shape[0]
    vectors, _ = pool_forward(enc.table, enc.pooling, TokenIndex(np.arange(1, n), np.array([0, n - 1])))
    return vectors[0]


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
    return fresh_encoder(vocab, dim, pooling, seed=seed)


class TestToyEncoder:
    def test_encode_prepends_cls(self):
        # the index holds the words; the [CLS] position before them is implicit
        enc = small_encoder("cls")
        index = TokenIndex.build([["alpha"]], enc.vocab)
        assert index.ids.tolist() == [enc.vocab.index("alpha")]
        vectors, _ = pool_forward(enc.table, enc.pooling, index)
        np.testing.assert_array_equal(vectors[0], enc.table[CLS_INDEX])

    def test_unknown_word_uses_unk_row(self):
        enc = small_encoder()
        assert TokenIndex.build([["zzz"]], enc.vocab).ids.tolist() == [UNK_INDEX]

    def test_repeated_word_repeats_row(self):
        enc = small_encoder()
        ids = TokenIndex.build([["beta", "beta"]], enc.vocab).ids
        np.testing.assert_array_equal(enc.table[ids[0]], enc.table[ids[1]])

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
        enc = fresh_encoder(vocab, 3, "mean")
        words = ["a", "b"] * (MAX_TOKENS // 2) + ["b"] * 5
        index = TokenIndex.build([words], vocab)
        assert index.lengths.tolist() == [MAX_TOKENS]
        np.testing.assert_array_equal(enc.embed(" ".join(words)), enc.embed(" ".join(words[:MAX_TOKENS])))

    def test_embed_no_tokens_rejected(self):
        with pytest.raises(InvalidInputError):
            small_encoder().embed("...")

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_embed_non_finite_rejected(self, pooling):
        enc = small_encoder(pooling)
        enc.table[[CLS_INDEX, enc.vocab.index("alpha")]] = np.nan
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            enc.embed("alpha")


class TestEmbedBatch:
    """``embed_batch`` pools a whole list in one call, row for row like ``embed``."""

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_rows_equal_one_sentence_embeds(self, pooling):
        rng = make_rng(42)
        vocab = Vocabulary([f"w{i}" for i in range(8)])
        # few distinct values, so max ties occur
        table = rng.integers(-2, 3, size=(len(vocab), 3)).astype(np.float64)
        enc = ToyEncoder(vocab, table, pooling=pooling)
        sentences = [" ".join(f"w{i}" for i in rng.integers(0, 10, size=int(rng.integers(1, 9))))
                     for _ in range(40)]  # w8, w9 are [UNK]; up to 8 words
        sentences += ["w1 w1 w1", "zzz", "w0 w1 w2 w3 w4 w5 w6 w7", " ".join(["w2", "w5"] * MAX_TOKENS)]
        matrix = enc.embed_batch(sentences)
        assert matrix.shape == (len(sentences), 3)
        for i, sentence in enumerate(sentences):
            np.testing.assert_array_equal(matrix[i], enc.embed(sentence))
            reference, _ = pool_one(enc, np.array([vocab.index(t) for t in tokenize(sentence)[:MAX_TOKENS]]))
            np.testing.assert_array_equal(matrix[i], reference)

    def test_no_sentences_give_an_empty_matrix(self):
        enc = small_encoder(dim=5)
        store = EmbeddingStore(3)
        for provider, dim in ((enc, 5), (store, 3)):
            empty = provider.embed_batch([])
            assert empty.shape == (0, dim)
            assert empty.dtype == np.float64

    def test_sentence_without_tokens_named(self):
        with pytest.raises(InvalidInputError, match=r"text has no tokens: '\.\.\.'"):
            small_encoder().embed_batch(["alpha", "...", "beta"])

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_non_finite_row_names_first_bad_sentence(self, pooling):
        enc = small_encoder(pooling)
        enc.table[[CLS_INDEX, enc.vocab.index("beta")]] = np.nan
        first_bad = "alpha" if pooling == "cls" else "gamma beta"
        with pytest.raises(InvalidInputError, match=f"embedding of '{first_bad}' contains NaN"):
            enc.embed_batch(["alpha", "gamma beta", "beta"])

    def test_store_stacks_rows_bit_exact(self):
        rng = make_rng(43)
        store = EmbeddingStore(4)
        vectors = {f"s{i}": rng.normal(size=4) for i in range(6)}
        for sentence, vec in vectors.items():
            store.add(sentence, vec)
        order = ["s3", "s0", "s3", "s5"]
        np.testing.assert_array_equal(store.embed_batch(order), np.stack([vectors[s] for s in order]))

    def test_store_missing_sentence_raises(self):
        store = EmbeddingStore(2)
        store.add("known", [1.0, 2.0])
        with pytest.raises(MissingEmbeddingError) as err:
            store.embed_batch(["known", "nope"])
        assert err.value.sentence == "nope"


class TestTokenCache:
    """Encoders sharing a cache index a sentence list once per distinct word list."""

    def test_equal_word_lists_share_one_index(self, monkeypatch):
        calls = Counter()

        def counting(text, tokenize=sentsig.encoder.tokenize):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(sentsig.encoder, "tokenize", counting)
        cache = TokenCache()
        sentences = ["alpha beta", "gamma", "alpha beta", "zzz alpha"]
        # separately built vocabularies with one word list, as two checkpoints of one run have
        twins = [small_encoder(seed=seed) for seed in (1, 2)]
        other = fresh_encoder(Vocabulary(["gamma", "beta", "alpha"]), 4, seed=3)
        for enc in (*twins, other):
            alone = enc.embed_batch(sentences)
            enc.token_cache = cache
            np.testing.assert_array_equal(enc.embed_batch(sentences), alone)
        indexes = [cache.index(sentences, enc.vocab) for enc in (*twins, other)]
        assert indexes[0] is indexes[1]
        assert indexes[2] is not indexes[0]
        # three uncached calls tokenize each sentence three times, the cache once more
        assert calls == {"alpha beta": 4, "gamma": 4, "zzz alpha": 4}


def random_token_lists(rng, vocab_size, n_texts, max_len=9):
    token_lists = [[f"w{i}" for i in rng.integers(0, vocab_size, size=int(rng.integers(1, max_len)))]
                   for _ in range(n_texts)]
    return token_lists


class TestTokenIndex:
    def test_build_offsets_and_lengths(self):
        vocab = Vocabulary(["a", "b"])
        index = TokenIndex.build([["a"], ["b", "zzz", "a"]], vocab)
        assert index.ids.tolist() == [2, 3, UNK_INDEX, 2]
        assert index.offsets.tolist() == [0, 1, 4]
        assert index.lengths.tolist() == [1, 3]
        assert len(index) == 2

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidInputError, match="token list is empty"):
            TokenIndex.build([["a"], []], Vocabulary(["a"]))
        with pytest.raises(InvalidInputError, match="token list is empty"):
            TokenIndex.build([["a"] * (MAX_TOKENS + 1), (), ["a"]], Vocabulary(["a"]))

    def test_build_matches_a_lookup_per_token(self):
        # lists over MAX_TOKENS are cut, words w10-w13 are unknown; tuples and lists alike
        rng = make_rng(47)
        vocab = Vocabulary([f"w{i}" for i in range(10)])
        sizes = [1, MAX_TOKENS + 7, 3, MAX_TOKENS, 2 * MAX_TOKENS, MAX_TOKENS - 1, 1]
        token_lists = [[f"w{i}" for i in rng.integers(0, 14, size=size)] for size in sizes]
        token_lists[2] = tuple(token_lists[2])
        copies = [list(tokens) for tokens in token_lists]
        index = TokenIndex.build(token_lists, vocab)
        expected = [vocab.index(token) for tokens in token_lists for token in tokens[:MAX_TOKENS]]
        assert UNK_INDEX in expected
        assert index.ids.dtype == np.int32 and index.ids.tolist() == expected
        assert index.lengths.tolist() == [min(size, MAX_TOKENS) for size in sizes]
        assert [list(tokens) for tokens in token_lists] == copies  # the caller's lists are not cut

    def test_take_matches_building_the_selection(self):
        rng = make_rng(40)
        vocab = Vocabulary([f"w{i}" for i in range(12)])
        token_lists = random_token_lists(rng, 12, 30)
        index = TokenIndex.build(token_lists, vocab)
        rows = rng.permutation(30)[:11]
        taken = index.take(rows)
        expected = TokenIndex.build([token_lists[i] for i in rows], vocab)
        np.testing.assert_array_equal(taken.ids, expected.ids)
        np.testing.assert_array_equal(taken.offsets, expected.offsets)

    def test_tokenize_texts_once_per_distinct_text(self):
        assert TokenCache().tokens(["A b", "c", "A b"]) == [("a", "b"), ("c",), ("a", "b")]


class TestBatchedPooling:
    """A batch pools and scatters like the per-text reference, one text at a time."""

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_matches_per_text_reference(self, pooling):
        rng = make_rng(41)
        for _ in range(20):
            vocab = Vocabulary([f"w{i}" for i in range(int(rng.integers(3, 15)))])
            dim = int(rng.integers(1, 6))
            # few distinct values, so max ties occur and must go to the first position
            table = rng.integers(-2, 3, size=(len(vocab), dim)).astype(np.float64)
            enc = ToyEncoder(vocab, table, pooling=pooling)
            token_lists = random_token_lists(rng, len(vocab) - 2, int(rng.integers(1, 12)))
            index = TokenIndex.build(token_lists, vocab)
            grad = rng.normal(size=(len(index), dim))
            vectors, argmax_rows = pool_forward(enc.table, enc.pooling, index)
            table_grad = np.zeros_like(table)
            pool_backward(enc.pooling, index, argmax_rows, grad).add_to(table_grad)
            ref_grad = np.zeros_like(table)
            for i, tokens in enumerate(token_lists):
                words = np.array([vocab.index(t) for t in tokens])
                ref, argmax = pool_one(enc, words)
                np.testing.assert_array_equal(vectors[i], ref)
                unpool_one(enc, words, argmax, grad[i], ref_grad)
            # the scatter adds the same terms in the same order
            np.testing.assert_array_equal(table_grad, ref_grad)


def assert_same_bits(actual, expected):
    """Equal values and equal signs, so a +0.0 for a -0.0 fails too."""
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


# few distinct magnitudes, so sums cancel to zeros of either sign
_TERMS = np.array([-0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-17, 3.0])


def _target(rng, kind, shape):
    if kind == "zero":
        return np.zeros(shape)
    if kind == "signed-zeros":
        return rng.choice(np.array([0.0, -0.0, -0.0, 2.0, -1e-17]), size=shape)
    return rng.normal(size=shape)


class TestScatterAdd:
    """ScatterTerms.add_to forms the sums np.add.at forms, in its order, signed zeros included."""

    @pytest.mark.parametrize("target_kind", ["zero", "random", "signed-zeros"])
    @pytest.mark.parametrize("layout, split", [
        pytest.param(layout, split, id=layout if split == "whole" else f"{layout}-in-row-ranges")
        for split in ("whole", "row-ranges") for layout in ("row-per-value", "row-per-entry", "value-rows")])
    def test_matches_add_at(self, layout, split, target_kind):
        # "row-ranges" cuts the target into random row ranges, each filled on
        # its own as Adam fills a chunk of a table gradient
        rng = make_rng(43)
        ranges_seen = set()
        for _ in range(40):
            n_rows, dim, n = int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 25))
            target = _target(rng, target_kind, (n_rows, dim))
            expected, actual = target.copy(), target.copy()
            if layout == "row-per-entry":  # max pooling: each entry names its own row
                rows = rng.integers(0, n_rows, size=(n, dim))
                values = rng.choice(_TERMS, size=(n, dim))
                np.add.at(expected, (rows, np.arange(dim)), values)
                terms = ScatterTerms(rows, values)
            elif layout == "value-rows":  # mean pooling: a text's row is added at each of its words
                rows = rng.integers(0, n_rows, size=n).astype(np.int32)
                values = rng.choice(_TERMS, size=(int(rng.integers(1, 6)), dim))
                value_rows = rng.integers(0, values.shape[0], size=n)
                np.add.at(expected, rows, values[value_rows])
                terms = ScatterTerms(rows, values, value_rows)
            else:
                rows = rng.integers(0, n_rows, size=n)
                values = rng.choice(_TERMS, size=(n, dim))
                np.add.at(expected, rows, values)
                terms = ScatterTerms(rows, values)
            if split == "whole":
                terms.add_to(actual)
            else:
                cuts = np.unique(rng.integers(0, n_rows + 1, size=int(rng.integers(0, n_rows + 1))))
                bounds = [0, *cuts[(cuts > 0) & (cuts < n_rows)].tolist(), n_rows]
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    terms.add_to(actual[lo:hi], lo)
                    ranges_seen.add("one-row" if hi - lo == 1 else "rows")
                    if not np.any((rows >= lo) & (rows < hi)):
                        ranges_seen.add("no-terms")
            assert_same_bits(actual, expected)
        if split == "row-ranges":
            assert ranges_seen == {"one-row", "rows", "no-terms"}

    def test_negative_zero_target_keeps_its_sign_under_negative_zero_terms(self):
        target = np.array([[-0.0, -0.0], [-0.0, 1.0]])
        values = np.array([[-0.0, 0.0], [-0.0, -0.0]])
        expected = target.copy()
        np.add.at(expected, [0, 1], values)
        ScatterTerms(np.array([0, 1]), values).add_to(target)
        assert_same_bits(target, expected)
        assert np.signbit(target[0, 0]) and not np.signbit(target[0, 1])

    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_pooling_matches_add_at_code(self, pooling, start):
        # start "random" stands for the tied head, whose table gradient starts at G^T S.
        # Integer-valued tables sum alike in any order; float32 normal values
        # do not, and a text of -0.0 rows pools to +0.0 only when its sum
        # starts at +0.0.  Every other index stacks three tables, as lockstep does
        rng = make_rng(44)
        for trial in range(24):
            n_words = int(rng.integers(3, 15))
            vocab = Vocabulary([f"w{i}" for i in range(n_words)])
            dim = int(rng.integers(1, 6))
            seeds = 3 if trial % 2 else 1
            shape = (seeds * len(vocab), dim)
            if trial % 4 < 2:
                table = rng.integers(-2, 3, size=shape).astype(np.float64)
                token_lists = random_token_lists(rng, n_words, int(rng.integers(1, 12)))
            else:
                table = rng.normal(size=shape).astype(np.float32)
                table[rng.random(shape) < 0.2] = -0.0
                table[2::len(vocab)] = -0.0  # word w0 of every seed's table
                sizes = [MAX_TOKENS, *rng.integers(1, MAX_TOKENS + 1, size=5), *rng.integers(1, 4, size=8)]
                token_lists = [["w0"], ["w0", "w0"],
                               *([f"w{w}" for w in rng.integers(0, n_words, size=size)] for size in sizes)]
                token_lists = [token_lists[i] for i in rng.permutation(len(token_lists))]
            index = TokenIndex.build(token_lists, vocab)
            if seeds > 1:  # each text indexes one seed's table
                bases = rng.integers(0, seeds, size=len(index)) * len(vocab)
                index.ids += np.repeat(bases, index.lengths).astype(index.ids.dtype)
                index.cls = bases + CLS_INDEX
            vectors, argmax_rows = pool_forward(table, pooling, index)
            assert vectors.dtype == table.dtype
            if pooling == "mean":
                assert_same_bits(vectors, oracles.mean_pool_add_at(table, index))
                if table.dtype == np.float32:
                    only_w0 = [i for i, tokens in enumerate(token_lists) if set(tokens) == {"w0"}]
                    assert only_w0 and not np.signbit(vectors[only_w0]).any()
            grad = rng.choice(_TERMS, size=(len(index), dim)) * rng.normal(size=(len(index), dim))
            actual = _target(rng, start, table.shape)
            expected = actual.copy()
            pool_backward(pooling, index, argmax_rows, grad).add_to(actual)
            oracles.pool_backward_add_at(pooling, index, argmax_rows, grad, expected)
            assert_same_bits(actual, expected)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        store = EmbeddingStore(2)
        with pytest.raises(InvalidInputError, match="NaN or Inf"):
            store.add("s", [1.0, value])
        assert "s" not in store


DUMP_DEFECTS = {  # a bad line for a sentence, and the message it gets
    "columns": (lambda s: f"{s}\tx\t1.0 2.0", "expected '<sentence>\\t<floats>'"),
    "value-count": (lambda s: f"{s}\t1.0", "expected 2 values, got 1"),
    "non-numeric": (lambda s: f"{s}\t1.0 one", "non-numeric embedding value"),
    "non-finite": (lambda s: f"{s}\t1.0 nan", "vector holds NaN or Inf"),
    "duplicate": (lambda s: "first\t3.0 4.0", "duplicate sentence in store: 'first'"),
}


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        # float() parses each of these, so the store's finiteness check names the line
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"dim=2\ns\t1.0 2.0\nt\t0.5 {value}\n")
        with pytest.raises(ParseError, match="NaN or Inf") as err:
            load_dump(path)
        assert err.value.line_no == 3

    def test_save_load_save_is_byte_identical(self, tmp_path):
        seventeen = [0.30000000000000004, 1.0000000000000002, -1.7976931348623157e308, 123456789.12345679]
        assert all(len(repr(abs(v)).split("e")[0].replace(".", "").lstrip("0")) == 17 for v in seventeen)
        values = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, -1e308, *seventeen]
        store = EmbeddingStore(2)
        for i in range(0, len(values), 2):
            store.add(f"row {i}", values[i : i + 2])
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_dump(store, first)
        loaded = load_dump(first)
        save_dump(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert "-0.0 5e-324" in first.read_text()
        for (sentence, row), (again, loaded_row) in zip(store.items(), loaded.items()):
            assert sentence == again
            np.testing.assert_array_equal(loaded_row.view(np.int64), row.view(np.int64))  # signed zeros too

    @pytest.mark.parametrize("first, later", [(a, b) for a in DUMP_DEFECTS for b in DUMP_DEFECTS if a != b])
    def test_of_two_defects_the_first_line_is_named(self, tmp_path, first, later):
        path = tmp_path / "two.txt"
        lines = ["dim=2", "first\t0.5 1.5", DUMP_DEFECTS[first][0]("third"), "", "fifth\t1.0 2.0",
                 DUMP_DEFECTS[later][0]("sixth"), "seventh\t2.0 3.0"]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ParseError) as err:
            load_dump(path)
        assert err.value.line_no == 3
        assert str(err.value) == f"{path}:3: {DUMP_DEFECTS[first][1]}"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.txt"
        path.write_text("s\t1.0\n")
        with pytest.raises(ParseError):
            load_dump(path)
