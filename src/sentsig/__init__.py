"""sentsig: compare supervision signals for sentence embeddings.

A toy trainable encoder is fine-tuned with either an NLI classification
objective or a definition-to-headword prediction objective (or combinations
of the two), and the resulting embeddings are scored on unsupervised STS
with source- and Dice-partitioned reports plus a frozen-feature probing
harness.
"""

__version__ = "0.1.0"

from .combiner import CombinedProvider, combine_average, combine_concat
from .corpus import (
    DefinitionExample,
    NliExample,
    Partition,
    StsPair,
    concat_subsets,
    dice,
    load_definitions,
    load_nli,
    load_sts,
    partition_by_dice,
    partition_by_source,
    tokenize,
)
from .encoder import EmbeddingStore, TokenCache, ToyEncoder, Vocabulary, build_vocab, load_dump, save_dump
from .evalsuite import (
    ProbeConfig,
    ProbeTask,
    StsReport,
    aggregate_seeds,
    eval_probe,
    eval_sts,
    eval_sts_partitioned,
    kfold_split,
    load_probe_task,
    train_logreg,
)
from .numstat import cosine, make_rng, pearson, ranks_with_ties, softmax, spearman
from .objectives import (
    PIPELINES,
    Adam,
    IndexedExamples,
    MultiSchedule,
    TrainConfig,
    TrainResult,
    def_loss_and_grads,
    lr_at,
    nli_loss_and_grads,
    run_pipeline,
    smart_batches,
    stream_pattern,
)
