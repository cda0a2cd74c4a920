"""Dataset records, parsers, tokenization, Dice overlap, and STS partitioning.

File formats (UTF-8, LF, tab-separated, one record per line):

* STS pairs:    ``source \\t gold \\t sentence1 \\t sentence2`` with gold in [0, 5]
* NLI examples: ``label \\t premise \\t hypothesis`` with label in
  {entailment, contradiction, neutral}
* Definitions:  ``word \\t definition`` where word is a single token
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidInputError, ParseError
from .fileio import atomic_write

NLI_LABELS = ("entailment", "contradiction", "neutral")
SPLITS = ("train", "dev", "test", "none")


@dataclass(frozen=True)
class StsPair:
    sentence1: str
    sentence2: str
    gold: float
    source: str
    split: str = "none"

    def __post_init__(self):
        if not self.sentence1 or not self.sentence2:
            raise InvalidInputError("STS sentences must be nonempty")
        for s in (self.sentence1, self.sentence2):
            if "\t" in s or "\n" in s:
                raise InvalidInputError("STS sentences must not contain tab or newline")
        if not 0.0 <= self.gold <= 5.0:
            raise InvalidInputError(f"gold score {self.gold} outside [0, 5]")
        if self.split not in SPLITS:
            raise InvalidInputError(f"unknown split tag {self.split!r}")


@dataclass(frozen=True)
class NliExample:
    premise: str
    hypothesis: str
    label: str

    def __post_init__(self):
        if self.label not in NLI_LABELS:
            raise InvalidInputError(f"unknown NLI label {self.label!r}")

    @property
    def label_index(self) -> int:
        return NLI_LABELS.index(self.label)


@dataclass(frozen=True)
class DefinitionExample:
    word: str
    definition: str

    def __post_init__(self):
        if not self.word or any(c.isspace() for c in self.word):
            raise InvalidInputError(f"headword must be a single nonempty token: {self.word!r}")


@dataclass
class Partition:
    """Named, ordered split of an STS dataset into disjoint labeled subsets.

    A Dice partition also keeps each subset's Dice values, pair by pair.
    """

    name: str
    subsets: list[tuple[str, list[StsPair]]] = field(default_factory=list)
    dice: list[list[float]] | None = None

    def labels(self) -> list[str]:
        return [label for label, _ in self.subsets]

    def sizes(self) -> list[int]:
        return [len(pairs) for _, pairs in self.subsets]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip non-alphanumeric edge characters.

    Tokens that become empty (pure punctuation) are dropped.  Interior
    punctuation is kept, so "don't" survives as one token.
    """
    if not text:
        raise InvalidInputError("cannot tokenize empty text")
    out = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        if end > start:
            out.append(raw[start:end])
    return out


def word_set(text: str) -> frozenset[str]:
    """Unique word types of a sentence under ``tokenize``."""
    return frozenset(tokenize(text))


def dice(s1: str, s2: str) -> float:
    """Dice overlap 2|W1 n W2| / (|W1| + |W2|) over word-type sets."""
    w1 = word_set(s1)
    w2 = word_set(s2)
    if not w1 or not w2:
        raise InvalidInputError("sentence tokenizes to no words; Dice is undefined")
    return 2.0 * len(w1 & w2) / (len(w1) + len(w2))


def partition_by_source(pairs: list[StsPair]) -> Partition:
    """One subset per distinct source tag, ordered by first appearance."""
    groups: dict[str, list[StsPair]] = {}
    for pair in pairs:
        if not pair.source:
            raise InvalidInputError("pair is missing a source tag")
        groups.setdefault(pair.source, []).append(pair)
    return Partition(name="source", subsets=list(groups.items()))


def _group_sizes(n: int, k: int) -> list[int]:
    # sizes differ by at most 1; earlier groups take the extra element
    base, extra = divmod(n, k)
    return [base + 1 if i < extra else base for i in range(k)]


def quantile_label(i: int, k: int) -> str:
    lo = round(100 * i / k)
    hi = round(100 * (i + 1) / k)
    return f"{lo}-{hi}%"


def partition_by_dice(pairs: list[StsPair], k: int = 5) -> Partition:
    """Sort pairs by ascending Dice overlap and cut into k near-equal groups.

    Ties are resolved by original position (stable sort), so the partition is
    deterministic across runs and platforms.
    """
    n = len(pairs)
    if k < 1:
        raise InvalidInputError(f"k must be positive, got {k}")
    if n < k:
        raise InvalidInputError(f"cannot split {n} pairs into {k} groups")
    scored = sorted(
        ((dice(p.sentence1, p.sentence2), idx, p) for idx, p in enumerate(pairs)),
        key=lambda t: (t[0], t[1]),
    )
    subsets = []
    values = []
    pos = 0
    for i, size in enumerate(_group_sizes(n, k)):
        chunk = scored[pos : pos + size]
        subsets.append((quantile_label(i, k), [p for _, _, p in chunk]))
        values.append([v for v, _, _ in chunk])
        pos += size
    return Partition(name="dice", subsets=subsets, dice=values)


def concat_subsets(partition: Partition) -> list[StsPair]:
    """All pairs of a partition pooled back together, subset order preserved."""
    out: list[StsPair] = []
    for _, pairs in partition.subsets:
        out.extend(pairs)
    return out


def read_lines(path):
    """(line number, line) for each nonempty line of a UTF-8 text file.

    Bytes that are not UTF-8 raise :class:`ParseError` naming the line that holds them.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield line_no, line
    except UnicodeDecodeError as exc:
        raise ParseError(path, _first_non_utf8_line(path), f"not UTF-8 text ({exc.reason})") from None


def _first_non_utf8_line(path: Path) -> int | None:
    # the text reader decodes in chunks, so its error does not tell the line
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return None


def _split_columns(path, line_no, line, expected: int):
    cols = line.split("\t")
    if len(cols) != expected:
        raise ParseError(path, line_no, f"expected {expected} tab-separated columns, got {len(cols)}")
    return cols


def load_sts(path, split: str = "none") -> list[StsPair]:
    """Parse an STS file; every pair is tagged with the given split."""
    pairs = []
    for line_no, line in read_lines(path):
        source, gold_text, s1, s2 = _split_columns(path, line_no, line, 4)
        try:
            gold = float(gold_text)
        except ValueError:
            raise ParseError(path, line_no, f"gold score is not a number: {gold_text!r}") from None
        try:
            pairs.append(StsPair(sentence1=s1, sentence2=s2, gold=gold, source=source, split=split))
        except InvalidInputError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return pairs


def load_nli(path) -> list[NliExample]:
    examples = []
    for line_no, line in read_lines(path):
        label, premise, hypothesis = _split_columns(path, line_no, line, 3)
        try:
            examples.append(NliExample(premise=premise, hypothesis=hypothesis, label=label))
        except InvalidInputError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return examples


def load_definitions(path) -> list[DefinitionExample]:
    examples = []
    for line_no, line in read_lines(path):
        word, definition = _split_columns(path, line_no, line, 2)
        try:
            examples.append(DefinitionExample(word=word, definition=definition))
        except InvalidInputError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return examples


def save_sts(pairs: list[StsPair], path) -> None:
    """Write pairs in the 4-column STS format (inverse of ``load_sts``), atomically."""
    with atomic_write(path) as fh:
        for p in pairs:
            fh.write(f"{p.source}\t{p.gold!r}\t{p.sentence1}\t{p.sentence2}\n")


def save_nli(examples: list[NliExample], path) -> None:
    with atomic_write(path) as fh:
        for ex in examples:
            fh.write(f"{ex.label}\t{ex.premise}\t{ex.hypothesis}\n")


def save_definitions(examples: list[DefinitionExample], path) -> None:
    with atomic_write(path) as fh:
        for ex in examples:
            fh.write(f"{ex.word}\t{ex.definition}\n")
