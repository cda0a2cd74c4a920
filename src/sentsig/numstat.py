"""Self-contained numeric kernel: vectors, similarity, rank correlation, softmax.

Vectors and matrices are plain float64 numpy arrays.  ``as_vector`` /
``as_matrix`` are the only constructors used at public boundaries and they
enforce finiteness, so downstream code can assume no NaN/Inf.  All statistics
are computed in 64-bit arithmetic.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegenerateScoresError, InvalidInputError

# Smallest positive normal float64; used as the log floor of the cross-entropies.
_TINY = float(np.finfo(np.float64).tiny)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the same seed yields the same stream everywhere."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_vector(values) -> np.ndarray:
    """Validate and return a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector contains NaN or Inf")
    return v


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and return a finite 2-D float64 array, optionally checking shape."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains NaN or Inf")
    if rows is not None and m.shape[0] != rows:
        raise InvalidInputError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise InvalidInputError(f"expected {cols} columns, got {m.shape[1]}")
    return m


def cosine(u, v):
    """Cosine similarity dot(u,v) / (|u||v|); for two matrices, one per row.

    Two vectors give a float and two (n, d) matrices an array of n cosines,
    each bit-identical to the cosine of that pair of rows as vectors.
    Zero-norm inputs are rejected rather than mapped to 0: a zero embedding
    signals a pipeline bug upstream.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    rows = u.ndim == 2 or v.ndim == 2
    u = as_matrix(u) if rows else as_vector(u)[None]
    v = as_matrix(v) if rows else as_vector(v)[None]
    if u.shape != v.shape:
        raise InvalidInputError(f"shape mismatch: {u.shape} vs {v.shape}")
    # stacked (1 x d) @ (d x 1) products round each row's dot exactly as np.dot does
    nu = np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0])
    nv = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    if not (nu.all() and nv.all()):
        raise InvalidInputError("cosine of a zero-norm vector is undefined")
    scores = (u[:, None, :] @ v[:, :, None])[:, 0, 0] / (nu * nv)
    return scores if rows else float(scores[0])


def ranks_with_ties(x: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values receive the mean of the rank positions they cover."""
    x = as_vector(x)
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        # positions i..j (0-based) hold equal values -> average of ranks i+1..j+1
        avg = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = avg
        i = j + 1
    return ranks


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length sequences."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise InvalidInputError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise InvalidInputError("correlation needs at least 2 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(np.dot(dx, dx))
    vy = float(np.dot(dy, dy))
    if vx == 0.0 or vy == 0.0:
        raise DegenerateScoresError("zero variance input to correlation")
    return float(np.dot(dx, dy)) / math.sqrt(vx * vy)


def spearman(x, y) -> float:
    """Rank correlation: Pearson applied to tie-averaged ranks."""
    return pearson(ranks_with_ties(x), ranks_with_ties(y))


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax (max logit subtracted before exponentiation).

    A matrix is normalised row by row.
    """
    z = np.asarray(logits, dtype=np.float64)
    z = as_matrix(z) if z.ndim == 2 else as_vector(z)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs, gold: int) -> float:
    """-ln(probs[gold]); the probability is floored at float64 tiny before the log."""
    p = as_vector(probs)
    if not 0 <= gold < p.shape[0]:
        raise InvalidInputError(f"gold index {gold} out of range for {p.shape[0]} classes")
    return -math.log(max(float(p[gold]), _TINY))


def mean_cross_entropy(probs: np.ndarray, golds: np.ndarray) -> float:
    """Mean of ``cross_entropy(probs[i], golds[i])`` over the rows of a probability matrix."""
    m = probs.shape[0]
    if golds.shape != (m,) or golds.min() < 0 or golds.max() >= probs.shape[1]:
        raise InvalidInputError(f"gold indices out of range for {probs.shape[1]} classes")
    total = 0.0
    for p in probs[np.arange(m), golds].tolist():
        total += -math.log(max(p, _TINY))
    return total / m
