"""Unsupervised STS scoring over partitions and the frozen-feature probe harness.

STS scoring correlates per-pair cosine similarity with gold scores; reports
carry Spearman and Pearson x100 per subset plus an ALL row computed on the
pooled pairs (never by averaging subset scores).  The probe harness trains a
logistic-regression classifier on frozen embeddings with 10-fold
cross-validation and reports mean accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Partition, StsPair, concat_subsets, read_lines
from .encoder import EmbeddingProvider
from .errors import DegenerateScoresError, InvalidInputError, ParseError
from .numstat import cosine, make_rng, pearson, spearman
from .objectives import Adam


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

    def folds(self) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """Each fold's training rows (ascending), test rows and seed; every class needs ``PROBE_FOLDS`` examples."""
        if np.bincount(self.label_indices()).min() < PROBE_FOLDS:
            raise InvalidInputError(f"every class needs >= {PROBE_FOLDS} examples for {PROBE_FOLDS}-fold CV")
        rng = make_rng(PROBE_SEED)
        tests = kfold_split(len(self.examples), PROBE_FOLDS, rng)
        seeds = rng.integers(0, 2**63 - 1, size=PROBE_FOLDS).tolist()
        return [(np.setdiff1d(np.arange(len(self.examples)), test), test, seed) for test, seed in zip(tests, seeds)]


# SentEval's protocol (Conneau & Kiela 2018): 10-fold cross-validation; the
# folds and each fold's minibatch order come from one seeded rng
PROBE_FOLDS = 10
PROBE_BATCH_SIZE = 64
PROBE_SEED = 0


@dataclass
class ProbeConfig:
    epochs: int = 4
    lr: float = 1e-3

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidInputError("probe epochs must be >= 0")
        if not 0.0 < self.lr < math.inf:
            raise InvalidInputError("probe lr must be positive and finite")


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
    """Each model's logits: ``params`` holds ``W`` (..., classes, dim) and ``b`` (..., classes).

    Model ``i`` scores ``features[i]`` (..., m, dim), each entry rounded as its own 2-D product rounds it.
    """
    return features @ np.swapaxes(params["W"], -1, -2) + params["b"][..., None, :]


def _logreg_grads(params: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of each model's mean softmax cross-entropy over its batch: ``X`` (..., m, dim), ``y`` (..., m).

    Every entry rounds as the textbook form does: the class max is exact in any order, the
    exp-sum over classes is numpy's own reduce, and the batch mean is a sum divided once.
    """
    g = logreg_logits(params, X)
    top = g[..., 0].copy()
    for c in range(1, g.shape[-1]):
        np.maximum(top, g[..., c], out=top)
    g -= top[..., None]
    np.exp(g, out=g)
    g /= g.sum(axis=-1, keepdims=True)
    m, classes = X.shape[-2], g.shape[-1]
    g.reshape(-1)[np.arange(y.size) * classes + y.reshape(-1)] -= 1.0  # the one-hot
    grads = {"W": np.swapaxes(g, -1, -2) @ X, "b": g.sum(axis=-2)}
    for grad in grads.values():
        grad /= m
    return grads


def train_logreg(features: np.ndarray, labels: np.ndarray, train_rows: Sequence[np.ndarray],
                 config: ProbeConfig, n_classes: int, seeds) -> dict[str, np.ndarray]:
    """Minibatch-Adam softmax regression on frozen features: one zero-initialized model per (provider, fold).

    ``features`` (providers, n, dim) holds each provider's rows, ``labels`` (n,) their classes.
    Fold ``f`` fits each provider on the rows ``train_rows[f]`` in minibatches of ``PROBE_BATCH_SIZE``
    drawn from the rng of ``seeds[f]``, as a fit of that fold alone would.  The folds of one
    training-set size step as one stack, with their own Adam step counts, on batches gathered from
    ``features`` by (provider, row).  The result holds ``W`` (providers, folds, classes, dim) and
    ``b`` (providers, folds, classes); a step leaving them non-finite ends the fit with an error.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 3 or y.shape != X.shape[1:2]:
        raise InvalidInputError("features and labels disagree in shape")
    providers, n, dim = X.shape
    seeds = np.asarray(seeds)
    if seeds.shape != (len(train_rows),):
        raise InvalidInputError(f"{len(train_rows)} fold(s) need as many seeds, got {seeds.size}")
    if any(np.unique(y[rows]).size < 2 for rows in train_rows):
        raise InvalidInputError("training data contains a single class")
    sizes = [len(rows) for rows in train_rows]
    groups = [[f for f, s in enumerate(sizes) if s == size] for size in dict.fromkeys(sizes)]
    names = [(f"W{g}", f"b{g}") for g in range(len(groups))]
    optimizer = Adam({**{w: (providers, len(folds), n_classes, dim) for (w, _), folds in zip(names, groups)},
                      **{b: (providers, len(folds), n_classes) for (_, b), folds in zip(names, groups)}})
    params = optimizer.params
    rngs = [make_rng(s) for s in seeds]
    flat_X, flat_y = X.reshape(-1, dim), np.tile(y, providers)  # row r of provider p at p·n + r
    # a step that overflows is caught by the finiteness check after it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            # each group's (provider, fold, position) -> flat row of this epoch's batch order
            orders = [np.arange(0, flat_y.size, n)[:, None, None]
                      + np.stack([train_rows[f][rngs[f].permutation(sizes[f])] for f in folds]) for folds in groups]
            for start in range(0, max(sizes), PROBE_BATCH_SIZE):
                grads = {}
                for (w, b), rows in zip(names, orders):
                    if start < rows.shape[2]:
                        idx = rows[..., start : start + PROBE_BATCH_SIZE]
                        batch = _logreg_grads({"W": params[w], "b": params[b]}, np.take(flat_X, idx, axis=0),
                                              flat_y[idx])
                        grads[w], grads[b] = batch["W"], batch["b"]
                optimizer.step(grads, config.lr)
                if not all(np.isfinite(p).all() for p in params.values()):
                    raise InvalidInputError("the probe diverged to non-finite weights; lower [probe] lr")
    order = np.argsort(np.concatenate(groups))  # each fold's place among the groups' models
    return {k: np.concatenate([params[f"{k}{g}"] for g in range(len(groups))], axis=1)[:, order] for k in "Wb"}


def probe_features(provider: EmbeddingProvider, task: ProbeTask, embedded: dict | None = None) -> np.ndarray:
    """The (n, d) rows of ``task``'s sentences, in order, for :func:`eval_probe`; ``embedded`` gets the counts.

    The distinct sentences are embedded in one ``embed_batch`` call.  Rows that float32 holds exactly,
    as a float32 model's always are, come back in float32: a command keeping many providers' rows keeps half.
    """
    rows, slots = _embed_distinct(provider, [text for text, _ in task.examples], embedded)
    rows = rows if len(rows) == len(slots) else rows[slots]  # distinct sentences embed in order
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, and the rows stay float64
        narrow = rows.astype(np.float32)
    return narrow if np.array_equal(narrow, rows) else rows


def eval_probe(features: Sequence[np.ndarray], task: ProbeTask, config: ProbeConfig, folds: list | None = None) -> list[float]:
    """Each provider's ``PROBE_FOLDS``-fold cross-validation accuracy of a probe over its :func:`probe_features`.

    The providers share the folds, ``task.folds()`` unless given, and those of one dim train as one stacked
    :func:`train_logreg` fit, whose every model equals a fit of its (provider, fold) alone, bit for bit.
    """
    labels = task.label_indices()
    train, tests, seeds = zip(*(folds or task.folds()))
    accuracies = [0.0] * len(features)
    for dim in dict.fromkeys(rows.shape[1] for rows in features):
        members = [i for i, rows in enumerate(features) if rows.shape[1] == dim]
        X = np.asarray([features[i] for i in members], dtype=np.float64)
        params = train_logreg(X, labels, train, config, int(labels.max()) + 1, seeds)
        correct = 0
        for size in dict.fromkeys(map(len, tests)):  # the test folds of one size score as a stack
            group = [f for f, test in enumerate(tests) if len(test) == size]
            rows = np.stack([tests[f] for f in group])
            logits = logreg_logits({"W": params["W"][:, group], "b": params["b"][:, group]}, X[:, rows])
            correct = correct + (logits.argmax(axis=-1) == labels[rows]).sum(axis=(1, 2))
        for i, right in zip(members, correct.tolist()):
            accuracies[i] = right / len(labels)
    return accuracies


def probe_results_to_markdown(results: dict[str, float]) -> str:
    """Accuracy table, values x100 to 2 decimals."""
    headers = ["task", "accuracy_x100"]
    rows = [[name, f"{100.0 * acc:.2f}"] for name, acc in results.items()]
    return _markdown_table(headers, rows)
