"""Unsupervised STS scoring over partitions and the frozen-feature probe harness.

STS scoring correlates per-pair cosine similarity with gold scores; reports
carry Spearman and Pearson x100 per subset plus an ALL row computed on the
pooled pairs (never by averaging subset scores).  The probe harness trains a
logistic-regression classifier on frozen embeddings with k-fold
cross-validation and reports mean accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Partition, StsPair, concat_subsets, read_lines
from .encoder import EmbeddingProvider
from .errors import DegenerateScoresError, InvalidInputError, ParseError
from .numstat import cosine, make_rng, pearson, spearman
from .objectives import Adam, check_optimizer_floats


# ---------------------------------------------------------------------------
# STS scoring
# ---------------------------------------------------------------------------

@dataclass
class SubsetScore:
    label: str
    n: int
    spearman_x100: float | None
    pearson_x100: float | None
    note: str = ""
    per_seed: dict[str, list[float]] | None = None


@dataclass
class StsReport:
    provider: str
    partition: str
    entries: list[SubsetScore]
    seeds: list[int] = field(default_factory=list)

    @property
    def n_seeds(self) -> int:
        return max(1, len(self.seeds))

    def entry(self, label: str) -> SubsetScore:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        return {
            "provider": self.provider,
            "partition": self.partition,
            "seeds": list(self.seeds),
            "n_seeds": self.n_seeds,
            "subsets": [
                {
                    "label": e.label,
                    "n": e.n,
                    "spearman_x100": e.spearman_x100,
                    "pearson_x100": e.pearson_x100,
                    "note": e.note,
                    "per_seed": e.per_seed,
                }
                for e in self.entries
            ],
        }

    def to_markdown(self) -> str:
        """Aligned table with scores x100 printed to 2 decimals."""
        headers = ["subset", "n", "spearman_x100", "pearson_x100", "note"]
        rows = [
            [e.label, str(e.n), _fmt(e.spearman_x100), _fmt(e.pearson_x100), e.note]
            for e in self.entries
        ]
        title = f"provider: {self.provider} | partition: {self.partition} | mean of {self.n_seeds} seed(s)"
        return title + "\n\n" + _markdown_table(headers, rows)


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(headers), sep, *(line(r) for r in rows)]) + "\n"


def eval_sts(provider: EmbeddingProvider, pairs: list[StsPair],
             scores: list[float] | None = None, embedded: dict | None = None) -> tuple[float, float]:
    """(spearman, pearson) between per-pair cosine similarity and gold scores.

    The distinct sentences are embedded in one ``embed_batch`` call and the
    pairs scored by one row-wise cosine.  A ``scores`` list receives the
    per-pair cosines before they are correlated; an ``embedded`` dict
    receives the embedding counts (see :func:`_embed_distinct`).
    """
    if len(pairs) < 2:
        raise InvalidInputError("STS evaluation needs at least 2 pairs")
    rows, slots = _embed_distinct(provider, [s for p in pairs for s in (p.sentence1, p.sentence2)],
                                  embedded)
    cosines = cosine(rows[slots[0::2]], rows[slots[1::2]]).tolist()
    if scores is not None:
        scores.extend(cosines)
    return _correlations(cosines, pairs)


def _embed_distinct(provider: EmbeddingProvider, sentences: list[str],
                    counts: dict | None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, slots): the distinct sentences embedded in one call, and each sentence's row.

    ``rows[slots[i]]`` embeds ``sentences[i]``.  A ``counts`` dict receives
    ``distinct`` (rows embedded) and ``reused`` (sentences served by a row
    that an earlier occurrence embedded).
    """
    row_of: dict[str, int] = {}
    slots = np.array([row_of.setdefault(s, len(row_of)) for s in sentences], dtype=np.intp)
    if counts is not None:
        counts.update(distinct=len(row_of), reused=len(sentences) - len(row_of))
    return provider.embed_batch(list(row_of)), slots


def _correlations(cosines: list[float], pairs: list[StsPair]) -> tuple[float, float]:
    gold = [p.gold for p in pairs]
    return spearman(cosines, gold), pearson(cosines, gold)


def eval_sts_partitioned(provider: EmbeddingProvider, partition: Partition,
                         seed: int | None = None, embedded: dict | None = None) -> StsReport:
    """Score every subset plus the pooled concatenation ("ALL").

    Every pair is embedded and scored once, for ALL; each subset correlates
    its slice of those scores.  Subsets that are too small or have zero score
    variance are flagged in the report instead of aborting the whole
    evaluation.  ``embedded`` receives the embedding counts of ALL.
    """
    pooled = concat_subsets(partition)
    scores: list[float] = []
    pooled_entry = _scored_entry("ALL", pooled, lambda: eval_sts(provider, pooled, scores, embedded))
    entries = []
    start = 0
    for label, pairs in partition.subsets:
        cosines = scores[start : start + len(pairs)]
        entries.append(_scored_entry(label, pairs, lambda: _correlations(cosines, pairs)))
        start += len(pairs)
    entries.append(pooled_entry)
    seeds = [] if seed is None else [seed]
    return StsReport(provider=provider.name, partition=partition.name,
                     entries=entries, seeds=seeds)


def _scored_entry(label, pairs, correlate) -> SubsetScore:
    """The report row of ``pairs``; ``correlate()`` gives their (spearman, pearson)."""
    if len(pairs) < 2:
        return SubsetScore(label, len(pairs), None, None, note="too few pairs")
    try:
        rho, r = correlate()
    except DegenerateScoresError:
        return SubsetScore(label, len(pairs), None, None, note="zero score variance")
    return SubsetScore(label, len(pairs), 100.0 * rho, 100.0 * r)


def aggregate_seeds(reports: list[StsReport]) -> StsReport:
    """Cell-wise arithmetic mean of same-shaped reports, keeping raw per-seed values."""
    if not reports:
        raise InvalidInputError("no reports to aggregate")
    first = reports[0]
    labels = [e.label for e in first.entries]
    for rep in reports[1:]:
        if [e.label for e in rep.entries] != labels:
            raise InvalidInputError("reports do not share subset structure")
        if [e.n for e in rep.entries] != [e.n for e in first.entries]:
            raise InvalidInputError("reports do not share subset sizes")
    entries = []
    for i, label in enumerate(labels):
        cells = [rep.entries[i] for rep in reports]
        spearmen = [c.spearman_x100 for c in cells]
        pearsons = [c.pearson_x100 for c in cells]
        if any(v is None for v in spearmen + pearsons):
            note = "; ".join(sorted({c.note for c in cells if c.note}))
            entries.append(SubsetScore(label, first.entries[i].n, None, None, note=note))
            continue
        entries.append(SubsetScore(
            label, first.entries[i].n,
            sum(spearmen) / len(spearmen), sum(pearsons) / len(pearsons),
            per_seed={"spearman_x100": spearmen, "pearson_x100": pearsons},
        ))
    seeds = [s for rep in reports for s in rep.seeds]
    names = list(dict.fromkeys(rep.provider for rep in reports))
    provider = names[0] if len(names) == 1 else (
        ", ".join(names) if len(names) <= 3 else f"{names[0]} (+{len(names) - 1} more)")
    return StsReport(provider=provider, partition=first.partition,
                     entries=entries, seeds=seeds)


# ---------------------------------------------------------------------------
# probe harness
# ---------------------------------------------------------------------------

@dataclass
class ProbeTask:
    name: str
    examples: list[tuple[str, str]]  # (sentence, class label)

    def __post_init__(self):
        if len(self.class_labels()) < 2:
            raise InvalidInputError(f"probe task {self.name!r} needs at least 2 classes")

    def class_labels(self) -> list[str]:
        return sorted({label for _, label in self.examples})

    def label_indices(self) -> np.ndarray:
        index = {label: i for i, label in enumerate(self.class_labels())}
        return np.array([index[label] for _, label in self.examples], dtype=np.int64)


@dataclass
class ProbeConfig:
    folds: int = 10
    batch_size: int = 64
    epochs: int = 4
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidInputError("cross-validation needs at least 2 folds")
        if self.batch_size < 1:
            raise InvalidInputError("probe batch_size must be >= 1")
        if self.epochs < 0:
            raise InvalidInputError("probe epochs must be >= 0")
        check_optimizer_floats("probe lr", self.lr, self.beta1, self.beta2, self.eps)
        if self.seed < 0:
            raise InvalidInputError("probe seed must be >= 0")


def load_probe_task(path, name: str | None = None) -> ProbeTask:
    """Parse a 2-column probe file: ``label \\t sentence`` per line."""
    examples = []
    for line_no, line in read_lines(path):
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(path, line_no, f"expected 2 tab-separated columns, got {len(cols)}")
        label, text = cols
        if not text:
            raise ParseError(path, line_no, "empty sentence")
        examples.append((text, label))
    return ProbeTask(name=name or Path(path).stem, examples=examples)


def kfold_split(n: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """k disjoint covering index sets with sizes differing by at most 1."""
    if k < 2:
        raise InvalidInputError("k must be >= 2")
    if n < k:
        raise InvalidInputError(f"cannot make {k} folds from {n} items")
    return list(np.array_split(rng.permutation(n), k))


def logreg_logits(params: dict[str, np.ndarray], features: np.ndarray) -> np.ndarray:
    """Each fold's logits: ``params`` holds ``W`` (folds, classes, dim) and ``b`` (folds, classes).

    Fold f scores the rows of ``features[f]``; features are (folds, m, dim).
    Stacked products round each fold's entries exactly as its own 2-D product does.
    """
    return features @ params["W"].transpose(0, 2, 1) + params["b"][:, None, :]


def _logreg_grads(params: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of each fold's mean softmax cross-entropy over its batch.

    ``X`` is (folds, m, dim) and ``y`` (folds, m).
    """
    logits = logreg_logits(params, X)
    logits -= logits.max(axis=2, keepdims=True)
    e = np.exp(logits)
    g = e / e.sum(axis=2, keepdims=True)
    m = X.shape[1]
    g[np.arange(X.shape[0])[:, None], np.arange(m), y] -= 1.0
    return {"W": g.transpose(0, 2, 1) @ X / m, "b": g.mean(axis=1)}


def train_logreg(features: np.ndarray, labels: np.ndarray, config: ProbeConfig,
                 n_classes: int, seeds) -> dict[str, np.ndarray]:
    """Minibatch-Adam softmax regression on frozen features, zero-initialized.

    (folds, m, dim) features with (folds, m) labels train one model per fold
    as a stack, and ``seeds`` holds one seed per fold: each fold draws its
    own minibatch order from its own rng, exactly as a fit of that fold
    alone would.  The result is the optimizer's parameters ``W`` and ``b``
    (see :func:`logreg_logits`); a step that leaves them non-finite ends
    the fit with an error, as the learning rate was too large.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 3 or y.shape != X.shape[:2]:
        raise InvalidInputError("features and labels disagree in shape")
    folds, n, dim = X.shape
    seeds = np.asarray(seeds)
    if seeds.shape != (folds,):
        raise InvalidInputError(f"{folds} fold(s) need as many seeds, got {seeds.size}")
    if any(np.unique(fold_labels).size < 2 for fold_labels in y):
        raise InvalidInputError("training data contains a single class")
    optimizer = Adam({"W": (folds, n_classes, dim), "b": (folds, n_classes)},
                     config.beta1, config.beta2, config.eps)
    params = optimizer.params
    rngs = [make_rng(s) for s in seeds]
    stack = np.arange(folds)[:, None]
    # a step that overflows is caught by the finiteness check after it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, config.batch_size):
                idx = order[:, start : start + config.batch_size]
                optimizer.step(_logreg_grads(params, X[stack, idx], y[stack, idx]), config.lr)
                if not all(np.isfinite(p).all() for p in params.values()):
                    raise InvalidInputError("the probe diverged to non-finite weights; lower [probe] lr")
    return params


def eval_probe(provider: EmbeddingProvider, task: ProbeTask, config: ProbeConfig,
               embedded: dict | None = None) -> float:
    """k-fold cross-validation accuracy of a probe over frozen embeddings.

    The distinct sentences are embedded in one ``embed_batch`` call; an
    ``embedded`` dict receives the counts (see :func:`_embed_distinct`).
    The folds of one size (there are at most two sizes) train as one stacked
    :func:`train_logreg` fit.
    """
    n = len(task.examples)
    labels = task.label_indices()
    counts = np.bincount(labels)
    if counts.min() < config.folds:
        raise InvalidInputError(
            f"every class needs >= {config.folds} examples for {config.folds}-fold CV")
    rows, slots = _embed_distinct(provider, [text for text, _ in task.examples], embedded)
    X = rows[slots]
    rng = make_rng(config.seed)
    folds = kfold_split(n, config.folds, rng)
    fold_seeds = rng.integers(0, 2**63 - 1, size=config.folds)
    correct = 0
    for size in dict.fromkeys(map(len, folds)):
        group = [i for i, fold in enumerate(folds) if len(fold) == size]
        test = np.stack([folds[i] for i in group])
        train = np.stack([np.setdiff1d(np.arange(n), fold) for fold in test])  # ascending rows
        params = train_logreg(X[train], labels[train], config, int(labels.max()) + 1,
                              fold_seeds[group])
        correct += int((logreg_logits(params, X[test]).argmax(axis=-1) == labels[test]).sum())
    return correct / n


def probe_results_to_markdown(results: dict[str, float]) -> str:
    """Accuracy table, values x100 to 2 decimals."""
    headers = ["task", "accuracy_x100"]
    rows = [[name, f"{100.0 * acc:.2f}"] for name, acc in results.items()]
    return _markdown_table(headers, rows)
