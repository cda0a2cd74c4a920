"""Records, tokenization, Dice overlap, partitioning and file parsing."""

import pytest

import oracles
from generators import make_random_sts
from sentsig.corpus import (
    DefinitionExample,
    NliExample,
    StsPair,
    concat_subsets,
    dice,
    load_definitions,
    load_nli,
    load_sts,
    partition_by_dice,
    partition_by_source,
    save_sts,
    tokenize,
)
from sentsig.errors import InvalidInputError, ParseError
from sentsig.numstat import make_rng, spearman

GUITAR = "A man is playing a guitar."

# (sentence2, expected Dice) from the worked similarity examples
DICE_CASES = [
    ("The man is playing the guitar.", 0.800),
    ("A guy is playing an instrument.", 0.545),
    ("A man is playing a guitar and singing.", 0.833),
    ("The girl is playing the guitar.", 0.600),
    ("A woman is cutting vegetable.", 0.400),
]


class TestTokenize:
    def test_sentence_with_punctuation(self):
        assert tokenize(GUITAR) == ["a", "man", "is", "playing", "a", "guitar"]

    def test_single_word(self):
        assert tokenize("Hello") == ["hello"]

    def test_edge_punctuation_stripped(self):
        assert tokenize("  A  guy…  ") == ["a", "guy"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("go!!! ... now") == ["go", "now"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            tokenize("")

    def test_idempotent_on_joined_output(self):
        rng = make_rng(2)
        pool = ["Guitar!", "The", "a...", "very-long", "it's", "99", "(ok)", "end."]
        for _ in range(100):
            text = " ".join(pool[i] for i in rng.integers(0, len(pool), size=6))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    def test_matches_edge_scan_of_every_token(self):
        # random text mixing letters, digits, punctuation, non-ASCII letters and
        # non-alphanumeric symbols; the tokenizer before the whole-token fast path is the oracle
        rng = make_rng(3)
        alphabet = list("abcXYZ019") + list(".,!?'-()…\"") + list("éßÅжλ中") + ["²", "_", "½"]
        for _ in range(2000):
            text = "".join(alphabet[i] if rng.random() > 0.15 else " "
                           for i in rng.integers(0, len(alphabet), size=int(rng.integers(1, 30))))
            if not text:
                continue
            assert tokenize(text) == oracles.tokenize(text), text


class TestDice:
    @pytest.mark.parametrize("sentence2,expected", DICE_CASES)
    def test_reference_values(self, sentence2, expected):
        assert round(dice(GUITAR, sentence2), 3) == expected

    def test_identical_sentences(self):
        assert dice(GUITAR, GUITAR) == 1.0

    def test_word_types_not_token_counts(self):
        # with token multisets the first reference pair would give 8/12
        assert dice(GUITAR, "The man is playing the guitar.") == pytest.approx(0.8)

    def test_symmetric_and_bounded(self):
        rng = make_rng(4)
        pairs = make_random_sts(rng, 100)
        for p in pairs:
            d = dice(p.sentence1, p.sentence2)
            assert 0.0 <= d <= 1.0
            assert d == dice(p.sentence2, p.sentence1)

    def test_punctuation_only_rejected(self):
        with pytest.raises(InvalidInputError):
            dice("...", GUITAR)


def _pair(s1, s2, gold=2.5, source="src"):
    return StsPair(sentence1=s1, sentence2=s2, gold=gold, source=source)


class TestPartitionBySource:
    def test_sts12_shaped_sizes(self):
        sizes = {"MSRpar": 750, "MSRvid": 750, "SMTeuroparl": 459, "OnWN": 750, "SMTnews": 399}
        pairs = []
        for source, n in sizes.items():
            pairs.extend(_pair(f"{source} a {i}", f"{source} b {i}", source=source) for i in range(n))
        part = partition_by_source(pairs)
        assert part.labels() == list(sizes)
        assert part.sizes() == list(sizes.values())

    def test_single_source(self):
        pairs = [_pair(f"a {i}", f"b {i}") for i in range(4)]
        part = partition_by_source(pairs)
        assert part.labels() == ["src"]
        assert part.subsets[0][1] == pairs

    def test_counts_match_oracle(self):
        pairs = [
            _pair("a one", "b one", source="x"),
            _pair("a two", "b two", source="y"),
            _pair("a three", "b three", source="x"),
            _pair("a four", "b four", source="z"),
            _pair("a five", "b five", source="y"),
            _pair("a six", "b six", source="x"),
        ]
        part = partition_by_source(pairs)
        oracle = {}
        for p in pairs:
            oracle[p.source] = oracle.get(p.source, 0) + 1
        assert dict(zip(part.labels(), part.sizes())) == oracle
        assert part.labels() == ["x", "y", "z"]  # first appearance order


class TestPartitionByDice:
    def test_ten_distinct_values(self):
        # overlap with "w0 ... w9" increases with the number of shared words
        base = " ".join(f"w{i}" for i in range(10))
        pairs = []
        for k in range(10):
            shared = " ".join(f"w{i}" for i in range(k)) if k else ""
            rest = " ".join(f"x{k}y{i}" for i in range(10 - k))
            pairs.append(_pair(base, (shared + " " + rest).strip()))
        part = partition_by_dice(pairs, k=5)
        assert part.sizes() == [2, 2, 2, 2, 2]
        assert part.labels() == ["0-20%", "20-40%", "40-60%", "60-80%", "80-100%"]
        flat = concat_subsets(part)
        values = [dice(p.sentence1, p.sentence2) for p in flat]
        assert values == sorted(values)

    def test_remainder_sizes(self):
        pairs = [_pair(f"a{i} b{i}", f"c{i} d{i}") for i in range(12)]
        assert partition_by_dice(pairs, k=5).sizes() == [3, 3, 2, 2, 2]

    def test_sorted_between_subsets(self):
        rng = make_rng(8)
        pairs = make_random_sts(rng, 50)
        part = partition_by_dice(pairs, k=5)
        previous_max = -1.0
        for _, subset in part.subsets:
            values = [dice(p.sentence1, p.sentence2) for p in subset]
            assert min(values) >= previous_max - 1e-12  # boundary ties allowed
            previous_max = max(values)

    def test_too_few_pairs(self):
        with pytest.raises(InvalidInputError):
            partition_by_dice([_pair("a b", "c d")], k=5)


class TestConcatSubsets:
    def test_permutation_of_input(self):
        rng = make_rng(14)
        pairs = make_random_sts(rng, 40)
        for part in (partition_by_source(pairs), partition_by_dice(pairs, k=5)):
            pooled = concat_subsets(part)
            assert len(pooled) == len(pairs)
            assert sorted(id(p) for p in pooled) == sorted(id(p) for p in pairs)

    def test_pooled_score_is_not_subset_average(self):
        # two internally perfect subsets on clashing score scales
        gold1, scores1 = [0.0, 1.0, 2.0], [0.7, 0.8, 0.9]
        gold2, scores2 = [3.0, 4.0, 5.0], [0.1, 0.2, 0.3]
        subset_scores = [spearman(scores1, gold1), spearman(scores2, gold2)]
        pooled = spearman(scores1 + scores2, gold1 + gold2)
        assert subset_scores == [1.0, 1.0]
        assert pooled != pytest.approx(sum(subset_scores) / 2)
        assert pooled < min(subset_scores)


class TestLoaders:
    def test_sts_line(self, tmp_path):
        f = tmp_path / "sts.tsv"
        f.write_text("MSRvid\t4.909\tA man is playing a guitar.\tThe man is playing the guitar.\n")
        pairs = load_sts(f)
        assert len(pairs) == 1
        assert pairs[0].gold == 4.909
        assert pairs[0].source == "MSRvid"

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.tsv"
        f.write_text("")
        assert load_sts(f) == []

    def test_gold_out_of_range(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_text("s\t1.0\ta b\tc d\ns\t6.0\te f\tg h\n")
        with pytest.raises(ParseError) as err:
            load_sts(f)
        assert err.value.line_no == 2

    def test_wrong_column_count(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_text("s\t1.0\tonly one sentence\n")
        with pytest.raises(ParseError) as err:
            load_sts(f)
        assert "4" in str(err.value)

    def test_sts_round_trip(self, tmp_path):
        pairs = make_random_sts(make_rng(3), 25)
        f = tmp_path / "rt.tsv"
        save_sts(pairs, f)
        assert load_sts(f) == pairs

    def test_failed_save_keeps_previous_file(self, tmp_path):
        pairs = make_random_sts(make_rng(4), 10)
        f = tmp_path / "sts.tsv"
        save_sts(pairs, f)
        before = f.read_bytes()
        with pytest.raises(AttributeError):  # the sixth record is not a pair
            save_sts(pairs[:5] + [None] + pairs[5:], f)
        assert f.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sts.tsv"]

    def test_nli_file(self, tmp_path):
        f = tmp_path / "nli.tsv"
        f.write_text("entailment\ta man sleeps\ta person sleeps\nneutral\ta b\tc d\n")
        examples = load_nli(f)
        assert examples[0].label_index == 0
        assert examples[1].label == "neutral"

    def test_nli_unknown_label(self, tmp_path):
        f = tmp_path / "nli.tsv"
        f.write_text("maybe\ta b\tc d\n")
        with pytest.raises(ParseError) as err:
            load_nli(f)
        assert err.value.line_no == 1

    def test_definitions_file(self, tmp_path):
        f = tmp_path / "defs.tsv"
        f.write_text("guitar\ta stringed musical instrument\n")
        assert load_definitions(f) == [
            DefinitionExample(word="guitar", definition="a stringed musical instrument")
        ]

    def test_definition_word_with_whitespace(self, tmp_path):
        f = tmp_path / "defs.tsv"
        f.write_text("two words\tsome definition\n")
        with pytest.raises(ParseError):
            load_definitions(f)


class TestRecords:
    def test_gold_range_enforced(self):
        with pytest.raises(InvalidInputError):
            StsPair(sentence1="a", sentence2="b", gold=5.5, source="s")

    def test_tab_in_sentence_rejected(self):
        with pytest.raises(InvalidInputError):
            StsPair(sentence1="a\tb", sentence2="b", gold=1.0, source="s")

    def test_nli_label_validated(self):
        with pytest.raises(InvalidInputError):
            NliExample(premise="a", hypothesis="b", label="entails")
