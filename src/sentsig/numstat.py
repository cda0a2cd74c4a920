"""Self-contained numeric kernel: vectors, similarity, rank correlation, softmax.

Vectors and matrices are plain float64 numpy arrays, except that a float32
matrix (a model's table, or the logits of its heads) stays float32, so the
kernels given one run in its dtype.  ``as_vector`` / ``as_matrix`` are the
only constructors used at public boundaries and they enforce finiteness, so
downstream code can assume no NaN/Inf.  All statistics are computed in 64-bit
arithmetic.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegenerateScoresError, InvalidInputError

# Smallest positive normal float64; used as the log floor of the cross-entropy.
_TINY = float(np.finfo(np.float64).tiny)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the same seed yields the same stream everywhere."""
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
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
    """Validate and return a finite 2-D float array, optionally checking shape.

    A float32 array stays float32; anything else becomes float64.
    """
    m = np.asarray(values)
    if m.dtype != np.float32:
        m = m.astype(np.float64, copy=False)
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not (np.isfinite(m.min()) and np.isfinite(m.max())):  # NaN and inf reach one of them; no bool copy
        raise InvalidInputError("matrix contains NaN or Inf")
    if rows is not None and m.shape[0] != rows:
        raise InvalidInputError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise InvalidInputError(f"expected {cols} columns, got {m.shape[1]}")
    return m


def cosine(u, v) -> np.ndarray:
    """Row-wise cosine similarity of two (n, d) matrices: n cosines dot(u,v) / (|u||v|).

    Each dot product, the norms' included, rounds as ``np.dot`` of the two
    rows does.  Zero-norm rows are rejected rather than mapped to 0: a zero
    embedding signals a pipeline bug upstream.
    """
    u, v = as_matrix(u), as_matrix(v)
    if u.shape != v.shape:
        raise InvalidInputError(f"shape mismatch: {u.shape} vs {v.shape}")
    # stacked (1 x d) @ (d x 1) products round each row's dot exactly as np.dot does
    nu = np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0])
    nv = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    if not (nu.all() and nv.all()):
        raise InvalidInputError("cosine of a zero-norm vector is undefined")
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0] / (nu * nv)


def ranks_with_ties(x: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values receive the mean of the rank positions they cover."""
    _, group, counts = np.unique(as_vector(x), return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    # sorted positions first..last (0-based) hold equal values -> average of ranks
    # first+1..last+1, exact in float64
    return ((end - counts + end - 1) / 2.0 + 1.0)[group]


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


def softmax(logits, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax (max logit subtracted before exponentiation).

    A matrix is normalised row by row, in its dtype (see :func:`as_matrix`);
    a vector in float64.  The result is written into ``out`` when it is
    given, which may be ``logits`` itself; no other array of that size is
    made.
    """
    z = np.asarray(logits)
    z = as_matrix(z) if z.ndim == 2 else as_vector(z)
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def mean_cross_entropies(probs: np.ndarray, golds: np.ndarray, bounds: Sequence[int]) -> list[float]:
    """Mean of ``-ln(probs[i, golds[i]])`` over each block of rows ``bounds[k]:bounds[k + 1]``.

    Each probability is floored at float64 tiny before the log.
    """
    m = probs.shape[0]
    if golds.shape != (m,) or golds.min() < 0 or golds.max() >= probs.shape[1]:
        raise InvalidInputError(f"gold indices out of range for {probs.shape[1]} classes")
    picked = probs[np.arange(m), golds].tolist()
    means = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        total = 0.0
        for p in picked[lo:hi]:
            total += -math.log(max(p, _TINY))
        means.append(total / (hi - lo))
    return means
