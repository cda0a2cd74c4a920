"""Names, units and workload mapping of every figure the benchmark reports."""

from __future__ import annotations

WORKLOAD_NAMES = ("toy-loop", "wide-defsent")

# name: (unit, better); measured with tracing off, on every workload
END_TO_END = {
    "setup_s": ("s", "lower"),
    "loop_s": ("s", "lower"),
    "train_examples_per_s": ("1/s", "higher"),
    "eval_pairs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sts_spearman_x100": ("x100", "higher"),
    "probe_acc_x100": ("x100", "higher"),
}

# Printed by ``run.py --all`` beside END_TO_END.  Only toy-loop embeds, and
# fail_ratio is 0 on a correct run, so neither can be a metric of every
# workload; the per-run result carries fail_ratio as its ``attempted`` and
# ``failed`` counts.
REPORTED = {
    "embed_sentences_per_s": "1/s",
    "fail_ratio": "ratio",
}

ALL = WORKLOAD_NAMES
# name: (unit, workloads whose traced run must show it nonzero)
PER_LAYER = {
    "corpus.tokenize_calls": ("count", ALL),
    "corpus.tokenize_s": ("s", ("toy-loop",)),
    "corpus.tokenize_useful_ratio": ("ratio", ("toy-loop",)),
    "corpus.load_s": ("s", ("toy-loop",)),
    "corpus.partition_s": ("s", ("toy-loop",)),
    "corpus.dice_calls": ("count", ("toy-loop",)),
    "encoder.build_vocab_s": ("s", ALL),
    "encoder.embed_calls": ("count", ALL),
    "encoder.embed_s": ("s", ("toy-loop",)),
    "encoder.dump_save_s": ("s", ("toy-loop",)),
    "encoder.dump_load_s": ("s", ("toy-loop",)),
    "encoder.dump_bytes": ("B", ("toy-loop",)),
    "objectives.nli_grad_ms_p50": ("ms", ("toy-loop",)),
    "objectives.nli_grad_ms_p90": ("ms", ("toy-loop",)),
    "objectives.nli_grad_calls": ("count", ("toy-loop",)),
    "objectives.def_grad_ms": ("ms", ALL),
    "objectives.def_grad_calls": ("count", ALL),
    "objectives.adam_ms": ("ms", ALL),
    "objectives.adam_calls": ("count", ALL),
    "objectives.batching_s": ("s", ALL),
    "numstat.cosine_calls": ("count", ALL),
    "numstat.cosine_s": ("s", ("toy-loop",)),
    "numstat.spearman_s": ("s", ALL),
    "numstat.softmax_calls": ("count", ALL),
    "numstat.softmax_s": ("s", ("toy-loop",)),
    "evalsuite.eval_sts_s": ("s", ALL),
    "evalsuite.embed_per_distinct_sentence": ("ratio", ALL),
    "evalsuite.probe_s": ("s", ALL),
    "evalsuite.logreg_fits": ("count", ALL),
    "combiner.run_pipeline_s": ("s", ALL),
    "combiner.combined_embed_calls": ("count", ("toy-loop",)),
    "checkpoint.save_s": ("s", ALL),
    "checkpoint.load_s": ("s", ALL),
    "checkpoint.bytes": ("B", ALL),
    "cli.self_s": ("s", ALL),
    "cli.train_examples_per_s": ("1/s", ALL),
    "cli.embed_sentences_per_s": ("1/s", ("toy-loop",)),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_share": ("ratio", ()),
}
