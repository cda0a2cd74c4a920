"""Earlier implementations, kept verbatim as oracles for the code that replaced them."""

import math

import numpy as np

from sentsig.errors import InvalidInputError


class ParamAdam:
    """Adam with one set of buffers per parameter, updating the given arrays in place.

    The optimizer before the flat buffer: each parameter named in a step runs
    the per-element update of :class:`sentsig.objectives.Adam` on its own,
    whole and with its own step counter.  It is the oracle of the flat
    buffer's chunking, streaming and step counts, not of Adam's formula.
    """

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t = {k: 0 for k in params}
        self._scratch = {k: np.empty_like(p) for k, p in params.items()}

    def step(self, grads, lr):
        for name, g in grads.items():
            p = self.params[name]
            if g.shape != p.shape:
                raise InvalidInputError(
                    f"gradient shape {g.shape} does not match parameter {name} {p.shape}")
            self.t[name] += 1
            t = self.t[name]
            c2 = math.sqrt((1.0 - self.beta2) / (1.0 - self.beta2 ** t))
            c1 = lr * (1.0 - self.beta1) / ((1.0 - self.beta1 ** t) * c2)
            m = self.m[name]
            v = self.v[name]
            s = self._scratch[name]
            m *= self.beta1
            m += g
            v *= self.beta2
            np.multiply(g, g, out=s)
            v += s
            np.sqrt(v, out=s)
            s += self.eps / c2
            np.divide(m, s, out=s)
            s *= c1
            p -= s


def tokenize(text):
    """The tokenizer before the whole-token fast path: every token runs the edge scan."""
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


def mean_pool_add_at(table, index):
    """Mean pooling before the bincount form: one unbuffered np.add.at into zeros of the table's dtype.

    Each text's rows are summed in word order from +0.0, and the sums are
    divided in place, so a float32 table gives float32 rows.
    """
    sizes = index.lengths
    sums = np.zeros((len(index), table.shape[1]), table.dtype)
    np.add.at(sums, np.repeat(np.arange(len(index)), sizes), table[index.ids])
    sums /= sizes[:, None]
    return sums


def pool_backward_add_at(pooling, index, argmax_rows, grad_out, table_grad):
    """ToyEncoder.pool_backward before the bincount scatter: one unbuffered np.add.at."""
    if pooling == "mean":
        sizes = index.lengths
        np.add.at(table_grad, index.ids, np.repeat(grad_out / sizes[:, None], sizes, axis=0))
    else:
        np.add.at(table_grad, (argmax_rows, np.arange(grad_out.shape[1])), grad_out)


def dense_table_gradient(shape, bounds, head, pooling, index, argmax_rows, grad_out):
    """A loss's table gradient as it was written before it was streamed through Adam.

    Each seed's block of rows starts as G_k^T S_k (one product of the whole
    block) or +0.0 without a head, and the pooling's terms go in with one
    unbuffered np.add.at.
    """
    grad = np.zeros(shape)
    blocks = grad.reshape(len(bounds) - 1, -1, shape[1])
    if head is not None:
        G, S = head
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            np.matmul(G[lo:hi].T, S[lo:hi], out=blocks[k])
    pool_backward_add_at(pooling, index, argmax_rows, grad_out, grad)
    return grad
