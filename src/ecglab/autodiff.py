"""Reverse-mode automatic differentiation over dense numpy arrays.

Every array in the graph has dtype ``DTYPE``: ``Tensor()`` casts to it
and the ops allocate their buffers with it, looking it up on each call.
It is float32, the precision the networks train and infer in. The
finite-difference gradient checks set it to float64 while they run (the
``float64`` test marker), so nothing may bind it at import.

A Tensor wraps a numpy array and, while recording is enabled, every
operation appends a node to an implicit computation graph. Backward
functions are themselves written with Tensor ops, so gradients of
gradients (needed for the critic's gradient penalty) come for free via
``grad(..., create_graph=True)``. Linear ops come in pairs whose VJPs are
each other: ``conv_len``/``trans_conv_len``, the phase-shuffle pair
``shift_len``/``unshift_len`` and the 2-D row unfold ``unfold_rows``/``fold_rows``.
A kernel op, ``matmul`` or a convolution, adds its optional bias in its
own node (``_with_bias``), so a dense or conv layer is one node.
Two VJPs are plain numpy: that of ``batch_norm_train``, train-mode batch
norm and the (leaky) ReLU after it as one node, is its closed form behind
the activation's slope, and ``max_pool_2x2``'s routes each cotangent to its
window's winner. They are first order only and raise GraphError under
``create_graph``. No second-order path crosses them: the critic, the one
network differentiated twice, has no batch norm and no pool. Inference-mode
batch norm, ``batch_norm_infer``, records no graph at all.

Each recorded op is a node that holds its VJP and its parents' graph
vertices, and nothing else: a vertex is a parent's node, or the parent
itself when it is a leaf (a Tensor no op recorded). The Tensor an op
returns keeps its data and its node; its ``_vjp`` and ``_parents`` are
read from that node. So the one memory rule is PyTorch's (Paszke et al.
2019): an activation lives while the forward holds its Tensor or a VJP
closure reads it, and no longer. A VJP closure captures the arrays or
Tensors it reads (``leaky_relu``'s its output, whose sign is the mask;
``batch_norm_train``'s input, from which it rebuilds xhat) and only
shapes of the rest, so an output that no VJP reads (a conv output once
the phase shuffle or the leaky ReLU after it has read it) is freed as
soon as the forward drops it. Batch norm's xhat and output are not kept
either: its node rebuilds them from its input bit for bit, block by
block in its VJP and in ``_rebuild``, and a transposed conv whose
input it is captures that node instead of the data (``_reader``), so the
output is recomputed where a VJP reads it, the cheap-op recomputation of
Chen et al. (arXiv:1604.06174). VJPs read what they captured when they run, so
nothing may write an activation in place between the forward pass and
the walk that differentiates it; no op writes over its input. A VJP may
write over its cotangent, and only the VJPs of ``leaky_relu`` and
``batch_norm_train`` do, when the walk owns it: outside create_graph,
for a cotangent that is not the caller's seed, not returned to the
caller, and shares its buffer with no other pending cotangent (buffer
donation as in JAX; see ``_reverse_walk``). Where the walk does not own
it, they write into a fresh buffer by the same ops, so the bits are the same.

``grad`` leaves the graph intact, so it can be walked again (the
gradient penalty differentiates through the graph it was computed
from). It prunes its walk to the vertices on a path to ``wrt``: the walk
hands each VJP one flag per parent, whether that parent needs a gradient
(it requires one and, under ``grad``, lies on such a path), so the
penalty's walk computes no kernel correlations or bias sums for the
critic's parameters. The recorded gradient graph still depends on those
parameters.

``backward`` consumes the graph: it sets ``.grad`` on leaves only
(interior tensors keep ``.grad`` None) and unlinks each node as it walks
it, so each VJP's closure, and what it reads, is freed once the VJP has
run rather than when the cyclic garbage collector next runs. Walking a
consumed graph again raises GraphError.
"""

from __future__ import annotations

import collections
import contextlib
import math
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

DTYPE = np.float32

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class GraphError(RuntimeError):
    """Raised when a value has no recorded graph, or backward() consumed it."""


class _Node:
    """A recorded op: its VJP, called as vjp(g, need) with one flag per
    parent (whether the walk needs that parent's gradient), or as
    vjp(g, need, owned) when it is marked ``_takes_owned``, and its
    parents' graph vertices. Only ops a gradient flows through record one.
    A node whose output no closure keeps also has `_rebuild(tail)`, which
    computes that output again (see ``_reader``); other nodes have None."""

    __slots__ = ("_vjp", "_parents", "_rebuild")
    requires_grad = True

    def __init__(self, vjp, parents: tuple):
        self._vjp = vjp
        self._parents = parents
        self._rebuild = None


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None

    @property
    def _vjp(self) -> Callable | None:
        return None if self._node is None else self._node._vjp

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)


# a graph vertex: a recorded op's node, or a leaf Tensor
Vertex = _Node | Tensor


def _vertex(t: Tensor) -> Vertex:
    """t's vertex in the graph: its node, or t itself when it is a leaf."""
    return t if t._node is None else t._node


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._node = None
    out.requires_grad = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(vjp, tuple(_vertex(p) for p in parents))
    return out


def _takes_owned(vjp):
    """Mark a VJP that the walk calls as vjp(g, need, owned): with owned
    True it may write over g's data (see ``_reverse_walk``)."""
    vjp.takes_owned = True
    return vjp


def _reader(x: Tensor) -> Callable[[int], Tensor]:
    """What a VJP that reads x's data captures: a function of `tail` that
    returns x. When x's node can rebuild its output, the function rebuilds
    it into a fresh buffer with `tail` zero rows per sample after it (the
    Tensor's data is the head of that buffer, its node x's node), and the
    closure holds the node, not x's data. Otherwise it returns x itself."""
    node = x._node
    if node is None or node._rebuild is None:
        return lambda tail: x

    def rebuilt(tail):
        t = Tensor.__new__(Tensor)
        t.data, t.grad, t.requires_grad, t._node = node._rebuild(tail), None, True, node
        return t

    return rebuilt


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape

    def vjp(g, need):
        return (_unbroadcast(g, sa) if need[0] else None,
                _unbroadcast(g, sb) if need[1] else None)

    return _make(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape

    def vjp(g, need):
        return (_unbroadcast(g, sa) if need[0] else None,
                _unbroadcast(neg(g), sb) if need[1] else None)

    return _make(a.data - b.data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g, need: (neg(g),))


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g, need):
        return (_unbroadcast(mul(g, b), a.shape) if need[0] else None,
                _unbroadcast(mul(g, a), b.shape) if need[1] else None)

    return _make(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g, need):
        return (_unbroadcast(div(g, b), a.shape) if need[0] else None,
                _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape) if need[1] else None)

    return _make(a.data / b.data, (a, b), vjp)


def exp(a: Tensor) -> Tensor:
    out = _make(np.exp(a.data), (a,), None)
    if out._node is not None:  # the VJP reads the output, which exists only now
        out._node._vjp = lambda g, need: (mul(g, out),)
    return out


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g, need: (div(g, a),))


def sqrt(a: Tensor) -> Tensor:
    out = _make(np.sqrt(a.data), (a,), None)
    if out._node is not None:
        out._node._vjp = lambda g, need: (div(mul(g, Tensor(0.5)), out),)
    return out


def tanh(a: Tensor) -> Tensor:
    out = _make(np.tanh(a.data), (a,), None)
    if out._node is not None:
        out._node._vjp = lambda g, need: (mul(g, sub(Tensor(1.0), mul(out, out))),)
    return out


def relu(a: Tensor) -> Tensor:
    # max(a, 0) is +0.0 for every a <= 0, -inf included; the VJP rebuilds
    # the mask from the input, so the node holds none
    return _make(np.maximum(a.data, 0), (a,), lambda g, need: (mul(g, Tensor(a.data > 0)),))


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    """max(a, alpha*a), which is a*1 or a*alpha bit for bit for alpha in (0, 1].

    alpha*a goes into a fresh buffer and the maximum into the same buffer,
    which is the output. The node keeps that output: its VJP reads its
    sign, which is the mask a > 0 bit for bit (the output is positive
    exactly where a is, for ±0, ±inf and NaN too). Outside create_graph
    the VJP builds the slope one block of rows at a time and writes the
    cotangent times it over the cotangent when the walk owns it (see
    ``_reverse_walk``), and into one fresh buffer otherwise. alpha = 0 is
    refused, since 0*inf would make max(+inf, 0*inf) NaN; ``relu`` is the
    op for slope 0.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"leaky_relu alpha must be in (0, 1], got {alpha}; relu is the op for slope 0")
    y = np.multiply(a.data, a.data.dtype.type(alpha))
    np.maximum(a.data, y, out=y)

    @_takes_owned
    def vjp(g, need, owned):
        if _grad_enabled:  # create_graph: a recorded product
            return (mul(g, Tensor(_slope(y, alpha, np.empty_like(y)))),)
        # the same product, one block of sample rows at a time, over g's
        # buffer when the walk owns it and into a fresh one otherwise
        out = g.data if owned else np.empty_like(g.data)
        y1, g1, out1 = np.atleast_1d(y, g.data, out)
        step = max(1, _BLOCK_BYTES // max(1, y1[:1].nbytes))
        block = np.empty((min(step, len(y1)), *y1.shape[1:]), dtype=y1.dtype)
        for r in range(0, len(y1), step):
            rows = _slope(y1[r : r + step], alpha, block[: len(y1[r : r + step])])
            np.multiply(g1[r : r + step], rows, out=out1[r : r + step])
        return (Tensor(out),)

    return _make(y, (a,), vjp)


def _slope(act: np.ndarray, alpha: float, out: np.ndarray) -> np.ndarray:
    """The slope, 1 or alpha, of the activation max(y, alpha*y) whose output
    is `act`, into out (which may be act). It is built arithmetically from
    the output's sign: np.where on a data-dependent mask is several times
    slower, and for alpha in [0, 1] (1 - alpha) + alpha rounds to exactly 1."""
    np.greater(act, 0, out=out)
    out *= out.dtype.type(1.0 - alpha)
    out += out.dtype.type(alpha)
    return out


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.shape

    def vjp(g, need):
        if axis is not None and not keepdims:
            axes = {ax % len(in_shape) for ax in (axis if isinstance(axis, tuple) else (axis,))}
            g = reshape(g, tuple(1 if i in axes else n for i, n in enumerate(in_shape)))
        return (expand(g, in_shape),)

    return _make(np.asarray(np.sum(a.data, axis=axis, keepdims=keepdims)), (a,), vjp)


def mean_(a: Tensor) -> Tensor:
    return mul(sum_(a), Tensor(1.0 / a.size))


def expand(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Broadcast to `shape` (copying); adjoint of sum over broadcast axes."""
    in_shape = a.shape
    return _make(np.broadcast_to(a.data, shape).copy(), (a,), lambda g, need: (_unbroadcast(g, in_shape),))


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g, need: (reshape(g, in_shape),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(int(i) for i in np.argsort(axes))
    return _make(np.transpose(a.data, axes), (a,), lambda g, need: (transpose(g, inv),))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None) -> Tensor:
    """a @ b (+ bias): [n, k] @ [k, m] -> [n, m], one node with the bias
    (``_with_bias``), as each convolution is."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")

    def vjp(g, need):
        return (matmul(g, transpose(b, (1, 0)), None) if need[0] else None,
                matmul(transpose(a, (1, 0)), g, None) if need[1] else None)

    return _with_bias(a, b, bias, a.data @ b.data, vjp)


# the block of sample rows that batch norm's activation and input gradient
# are computed in: the gradient's four passes then run in cache (the VJP of
# a (64, 2048, 16) node timed 8-9 ms against 10-11 over whole arrays), and
# the one temporary of either is small
_BLOCK_BYTES = 2**18


def _affine_act(x2: np.ndarray, scale: np.ndarray, shift: np.ndarray, alpha: float, out: np.ndarray) -> np.ndarray:
    """act(x2 * scale + shift) into out, one block of sample rows at a time,
    for [n, row] x2 and out and per-channel vectors tiled to a row: batch
    norm's output in either mode, and every rebuild of it in train mode."""
    step = max(1, _BLOCK_BYTES // (x2.shape[1] * x2.itemsize))
    for r in range(0, len(out), step):
        rows = np.multiply(x2[r : r + step], scale, out=out[r : r + step])
        rows += shift
        if alpha == 0:
            np.maximum(rows, 0, out=rows)
        elif alpha < 1:
            np.maximum(rows, rows * rows.dtype.type(alpha), out=rows)
    return out


def batch_norm_train(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float, alpha: float
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Train-mode batch norm over every axis but the last (channel) axis,
    and the leaky ReLU of slope `alpha` in [0, 1] after it, as one node.

    Returns act(y) for y = xhat * gamma + beta, xhat = (x - mu) / sqrt(var + eps),
    and the batch mean mu and biased variance var per channel. act(y) is
    max(y, alpha*y), as ``leaky_relu`` computes it; alpha = 0 is ``relu``'s
    max(y, 0), which is +0.0 where max(y, 0*y) is -0.0, and alpha = 1 is
    no activation. The node keeps x, mu and 1 / sqrt(var + eps), not xhat
    and not its output: where they are read, xhat is rebuilt from x one
    block of sample rows at a time by the forward's own two ops, and the
    output from xhat by the forward's own pass (``_affine_act``), so their
    bits are the forward's (the recomputation of Chen et al.,
    arXiv:1604.06174). The VJP takes the slope from the sign of the
    rebuilt y, which is act(y)'s sign (act(y) > 0 exactly where y > 0, for
    signed zeros, infinities and NaN too), as ``leaky_relu`` takes it from
    its output, and applies the closed form of Ioffe & Szegedy in numpy,
    so it is first order only: it raises GraphError when called while a
    graph is recorded (create_graph=True). A transposed conv that reads the
    output in its kernel VJP rebuilds it there through the node's
    `_rebuild` (see ``_reader``).

    The forward allocates xhat and writes the output over it, one block of
    sample rows at a time, so that it holds x and one activation-sized
    buffer, and alpha*y needs no other. The VJP writes the cotangent times
    the slope, and then x's gradient, over the cotangent when the walk owns
    it (see ``_reverse_walk``), so it allocates no activation-sized buffer;
    otherwise it writes them over one fresh one. At alpha = 1 there is no
    slope, and only x's gradient goes there. Besides it, the VJP allocates
    one block of at most _BLOCK_BYTES (a whole sample row if one is
    larger), which holds xhat, y's slope or a product in turn, and a few
    row-sized vectors. dgamma adds the rows of g * xhat in row order, the
    order in which ``np.einsum("ij,ij->j")`` adds rows of two or more
    elements, so it is the whole-array sum bit for bit. A rebuild for a
    transposed conv allocates the output plus its zero rows, two rows and
    one block's temporary.
    """
    shape, c = x.shape, x.shape[-1]
    # one row per sample, so that per-channel vectors tiled to a row broadcast
    # with long inner loops, and channel sums add each position's batch sum
    x2 = x.data.reshape(shape[0], -1)
    reps = x2.shape[1] // c
    m = x.size // c
    step = max(1, _BLOCK_BYTES // (x2.shape[1] * x2.itemsize))

    def channel_sum(v):
        return v.reshape(reps, c).sum(0)

    def row(v):
        return np.tile(v, reps)

    mu = channel_sum(np.einsum("ij->j", x2)) / m
    xhat = x2 - row(mu)
    var = channel_sum(np.einsum("ij,ij->j", xhat, xhat)) / m
    inv = 1 / np.sqrt(var + eps)
    xhat *= row(inv)
    gamma_row, beta_row = row(gamma.data), row(beta.data)
    y = _affine_act(xhat, gamma_row, beta_row, alpha, xhat)  # the output, over xhat

    def normalized(r, stats, out):
        """xhat of the block of sample rows from r, into the head of out, by
        the forward's two ops; `stats` is (row(mu), row(inv))."""
        rows = np.subtract(x2[r : r + step], stats[0], out=out[: len(x2[r : r + step])])
        rows *= stats[1]
        return rows

    def rebuild(tail):
        # the output, then `tail` zero rows per sample, in one buffer
        buf = np.empty((shape[0], shape[1] + tail, *shape[2:]), dtype=x2.dtype)
        rows = buf.reshape(shape[0], -1)
        rows[:, x2.shape[1] :] = 0
        stats = row(mu), row(inv)
        for r in range(0, len(x2), step):
            block = normalized(r, stats, rows[r : r + step, : x2.shape[1]])
            _affine_act(block, gamma_row, beta_row, alpha, block)
        return buf[:, : shape[1]]

    @_takes_owned
    def vjp(g, need, owned):
        if _grad_enabled:
            raise GraphError("batch_norm in train mode has no second-order gradient")
        g2 = g.data.reshape(x2.shape)
        # g times the slope, then x's gradient, go over g's buffer when the
        # walk owns it and over one fresh buffer otherwise
        buf = g2 if owned else np.empty_like(g2)
        stats = row(mu), row(inv)
        block = np.empty((min(step, len(g2)), g2.shape[1]), dtype=g2.dtype)
        # dgamma's row: the rows of g * xhat added in row order, one block at a time
        gdot = np.zeros(x2.shape[1], dtype=g2.dtype)
        for r in range(0, len(g2), step):
            gs = g2[r : r + step]
            if alpha < 1:
                # the slope as leaky_relu builds it, from the sign of y, which
                # is the activation's; xhat is rebuilt again after it, so that
                # the pass needs one block
                pre = _affine_act(normalized(r, stats, block), gamma_row, beta_row, 1.0, block[: len(gs)])
                gs = np.multiply(gs, _slope(pre, alpha, pre), out=buf[r : r + step])
            for p in np.multiply(gs, normalized(r, stats, block), out=block[: len(gs)]):
                gdot += p
        if alpha < 1:
            g2 = buf
        dbeta = channel_sum(np.einsum("ij->j", g2))
        dgamma = channel_sum(gdot)
        del gdot  # one row less live in the second pass
        gx = None
        if need[0]:
            # gamma * inv * (g - dbeta / m - xhat * dgamma / m), one block of
            # sample rows at a time, with the same four elementwise ops as
            # over the whole array
            scale, shift, factor = row(dgamma / m), row(dbeta / m), row(gamma.data * inv)
            for r in range(0, len(g2), step):
                rows = buf[r : r + step]
                t = normalized(r, stats, block)
                t *= scale
                np.subtract(g2[r : r + step], t, out=rows)
                rows -= shift
                rows *= factor
            gx = Tensor(buf.reshape(shape))
        return gx, Tensor(dgamma), Tensor(dbeta)

    out = _make(y.reshape(shape), (x, gamma, beta), vjp)
    if out._node is not None:
        out._node._rebuild = rebuild
    return out, mu, var


def batch_norm_infer(x: Tensor, gamma: Tensor, beta: Tensor, mean: np.ndarray, var: np.ndarray,
                     eps: float, alpha: float) -> Tensor:
    """Inference-mode batch norm over the running `mean` and `var` and its
    activation, act(x * scale + shift) per channel for scale = gamma / sqrt(var + eps)
    and shift = beta - mean * scale, into one fresh buffer by train mode's pass.
    It records no graph: while recording, an input that requires grad raises GraphError."""
    if _grad_enabled and any(t.requires_grad for t in (x, gamma, beta)):
        raise GraphError("batch_norm in infer mode records no graph; run it under no_grad")
    scale = gamma.data * np.asarray(1 / np.sqrt(var + eps), dtype=DTYPE)
    shift = beta.data - np.asarray(mean, dtype=DTYPE) * scale
    reps = math.prod(x.shape[1:-1])
    x2 = x.data.reshape(x.shape[0], reps * x.shape[-1])
    y = _affine_act(x2, np.tile(scale, reps), np.tile(shift, reps), alpha, np.empty_like(x2))
    return Tensor(y.reshape(x.shape))


# ---------------------------------------------------------------------------
# structured ops along the length axis (axis 1 of [n, L, c] tensors)


def pad_len(a: Tensor, left: int, right: int) -> Tensor:
    n, L, c = a.shape
    out = np.zeros((n, L + left + right, c), dtype=DTYPE)
    out[:, left : left + L] = a.data
    return _make(out, (a,), lambda g, need: (crop_len(g, left, left + L),))


def crop_len(a: Tensor, start: int, stop: int) -> Tensor:
    L = a.shape[1]
    return _make(a.data[:, start:stop].copy(), (a,), lambda g, need: (pad_len(g, start, L - stop),))


def shift_len(a: Tensor, shifts: np.ndarray, n: int) -> Tensor:
    """y[b, t, c] = a[b, t + shifts[b, c], c], reading past either end by
    symmetric reflection (a[-1] = a[0], a[L] = a[L-1], ...).

    a [b, L, c], integer shifts [b, c] in [-n, n] -> [b, L, c]. Each output
    row is one length-L window of the reflect-padded row.
    """
    b, L, c = a.shape
    xp = np.pad(a.data, ((0, 0), (n, n), (0, 0)), mode="symmetric")
    rows = sliding_window_view(xp, L, axis=1)[np.arange(b)[:, None], shifts + n, np.arange(c)]
    y = np.ascontiguousarray(rows.transpose(0, 2, 1))
    return _make(y, (a,), lambda g, need: (unshift_len(g, shifts, n),))


def unshift_len(g: Tensor, shifts: np.ndarray, n: int) -> Tensor:
    """Adjoint of shift_len: write each row of g into its window of a
    reflect-padded row, then fold the 2n pad columns onto their sources."""
    b, L, c = g.shape
    acc = np.zeros((b, L + 2 * n, c), dtype=DTYPE)
    # one window per (b, c), so the scatter has no collisions
    win = sliding_window_view(acc, L, axis=1, writeable=True)
    win[np.arange(b)[:, None], shifts + n, np.arange(c)] = g.data.transpose(0, 2, 1)
    out = acc[:, n : n + L]
    for p in (*range(n), *range(L + n, L + 2 * n)):
        q = (p - n) % (2 * L)  # the reflection has period 2L, which covers L < n
        out[:, min(q, 2 * L - 1 - q)] += acc[:, p]
    # adding 0 copies out contiguously and turns -0 into +0, as summing into zeros does
    return _make(out + out.dtype.type(0), (g,), lambda gg, need: (shift_len(gg, shifts, n),))


# ---------------------------------------------------------------------------
# strided convolution along the length axis
#
# The three ops below share one index map: output sample o of a stride-s
# convolution meets input sample o*s + j - pl through kernel tap j, with
# zeros outside the input. Reading the zero-padded input as rows of s
# samples (polyphase form) and the kernel as T = ceil(k/s) groups of s
# taps (the last group may be short) turns each op into T matmuls over
# contiguous row slices, accumulated in place. Each op is bilinear and
# its VJPs are the other two ops, so gradients of gradients come for free.
#
# When a group's matmul is thin (few input channels per output column),
# the T passes over the output cost more than the products. conv_len
# and trans_conv_len then use one group of all the taps: each output row
# is one overlapping window of the flat padded input times the whole
# kernel, so the output is written once (Chellapilla et al. 2006). The
# windows are copied block by block into a buffer of at most
# _CHUNK_BYTES (4 MB), never all at once.

_CHUNK_BYTES = 4 * 2**20
_THIN_K = 64


def _polyphase(x: np.ndarray, stride: int, pl: int, rows: int) -> np.ndarray:
    """[n, L, c] delayed by pl and zero-padded or cut to rows*stride
    samples, as an [n*rows, stride*c] matrix."""
    n, L, c = x.shape
    xp = np.zeros((n, rows * stride, c), dtype=DTYPE)
    m = max(0, min(L, rows * stride - pl))  # a left pad past every row reads none of x
    xp[:, pl : pl + m] = x[:, :m]
    return xp.reshape(n * rows, stride * c)


def _zero_tailed(x: np.ndarray, rows: int) -> np.ndarray:
    """``_polyphase(x, 1, 0, rows)``: [n, L, c] followed by rows - L zero
    rows per sample, as an [n*rows, c] matrix. When x is already the head
    of such a buffer, one C-contiguous [n, rows, c] array whose tail rows
    hold +0 (a rebuilt batch norm output, see ``_reader``), that buffer is
    the matrix and nothing is copied."""
    n, L, c = x.shape
    base = x.base
    if (isinstance(base, np.ndarray) and base.shape == (n, rows, c) and base.dtype == DTYPE
            and base.flags.c_contiguous and x.ctypes.data == base.ctypes.data
            and x.strides == base.strides and not base[:, L:].view(np.uint8).any()):
        return base.reshape(n * rows, c)
    return _polyphase(x, 1, 0, rows)


def _tap_groups(k: int, stride: int) -> list[tuple[int, slice]]:
    """(group t, kernel taps of group t) for the T = ceil(k/stride) groups."""
    return [(t, slice(t * stride, min(k, (t + 1) * stride))) for t in range(-(-k // stride))]


def _one_group(k_group: int, n_out: int, transposed: bool) -> bool:
    """Whether one group of all the taps beats stride-wide groups, from the
    shapes alone. Each stride-wide group is a matmul with inner size
    k_group writing n_out columns, and with a small k_group the passes
    that accumulate its output cost more than the products. In conv_len
    one group also skips the T-1 padding rows per sample that the
    stride-wide matrix computes, so it wins up to k_group = 2*n_out. In
    trans_conv_len it multiplies T*stride taps against the kernel's k
    and one more row per sample, which loses once the products dominate
    (k_group above _THIN_K). Both bounds come from timing every layer of
    the four networks at B = 64 on 2 cores."""
    if transposed:
        return k_group <= min(n_out, _THIN_K)
    return k_group <= 2 * n_out


def _window_blocks(xp: np.ndarray, step: int, rows: int, width: int, out_width: int):
    """Yield (b0, b1, r0, r1, windows): windows[(b - b0)*(r1 - r0) + r - r0]
    is the `width` elements of sample b of the contiguous xp [n, ...] that
    start at element r*step. Each block holds whole samples, or rows of one
    sample, and its windows plus out_width columns per row fit in
    _CHUNK_BYTES."""
    n, size = xp.shape[0], xp.itemsize
    view = as_strided(xp, (n, rows, width), (xp.strides[0], step * size, size))
    per = max(1, _CHUNK_BYTES // ((width + out_width) * size))
    if per >= rows:
        blocks = ((b, min(n, b + per // rows), 0, rows) for b in range(0, n, per // rows))
    else:
        blocks = ((b, b + 1, r, min(rows, r + per)) for b in range(n) for r in range(0, rows, per))
    buf = np.empty(min(per, n * rows) * width, dtype=xp.dtype)
    for b0, b1, r0, r1 in blocks:
        win = buf[: (b1 - b0) * (r1 - r0) * width].reshape(b1 - b0, r1 - r0, width)
        np.copyto(win, view[b0:b1, r0:r1])
        yield b0, b1, r0, r1, win.reshape(-1, width)


def _swap_channels(w: Tensor) -> Tensor:
    return transpose(w, (0, 2, 1))


def _with_bias(x: Tensor, w: Tensor, b: Tensor | None, y: np.ndarray, vjp) -> Tensor:
    """The node of a kernel op's fresh contiguous output y [n, ..., c], with
    the bias b [c] added to y in place when there is one."""
    if b is None:
        return _make(y, (x, w), vjp)
    # b tiled to one row per sample broadcasts with a long inner loop
    rows = y.reshape(len(y), math.prod(y.shape[1:]))  # a view: y is a fresh contiguous buffer
    rows += np.tile(b.data, rows.shape[1] // b.size)

    def vjp_b(g, need):
        return (*vjp(g, need), _unbroadcast(g, b.shape) if need[2] else None)

    return _make(y, (x, w, b), vjp_b)


def conv_len(x: Tensor, w: Tensor, b: Tensor | None, stride: int, pl: int, out_len: int) -> Tensor:
    """y[:, o] = sum_j x[:, o*stride + j - pl] @ w[j] (+ b).

    x [n, L, ci], w [k, ci, co] -> [n, out_len, co].
    """
    n, L, ci = x.shape
    k, _, co = w.shape
    groups = _tap_groups(k, stride)
    rows = out_len + len(groups) - 1
    xf = _polyphase(x.data, stride, pl, rows)
    if _one_group(stride * ci, co, transposed=False):
        y = np.empty((n, out_len, co), dtype=DTYPE)
        y2, w2 = y.reshape(n * out_len, co), w.data.reshape(k * ci, co)
        for b0, b1, r0, r1, win in _window_blocks(xf.reshape(n, rows, stride * ci), stride * ci, out_len, k * ci, 0):
            np.matmul(win, w2, out=y2[b0 * out_len + r0 : (b1 - 1) * out_len + r1])
    else:
        # one matrix over the whole batch: the rows past out_len in each
        # sample absorb the taps that reach into the next sample, and are dropped
        R = n * rows - len(groups) + 1
        acc = np.zeros((n * rows, co), dtype=DTYPE)
        for t, taps in groups:
            wt = w.data[taps].reshape(-1, co)
            acc[:R] += xf[t : t + R, : wt.shape[0]] @ wt
        y = acc.reshape(n, rows, co)[:, :out_len].copy()

    def vjp(g, need):
        gx = trans_conv_len(g, _swap_channels(w), None, stride, pl, L) if need[0] else None
        gw = kernel_corr_len(x, g, stride, pl, k) if need[1] else None
        return gx, gw

    return _with_bias(x, w, b, y, vjp)


def trans_conv_len(x: Tensor, w: Tensor, b: Tensor | None, stride: int, pl: int, out_len: int) -> Tensor:
    """Adjoint of conv_len in its input: y[:, o*stride + j - pl] += x[:, o] @ w[j] (+ b).

    x [n, L, ci], w [k, ci, co] -> [n, out_len, co].
    """
    n, L, ci = x.shape
    k, _, co = w.shape
    T = len(_tap_groups(k, stride))
    # polyphase output rows r_lo..r_hi-1 hold samples pl..pl+out_len-1
    r_lo, r_hi = pl // stride, -(-(pl + out_len) // stride)
    if _one_group(ci, stride * co, transposed=True):
        # row r is x rows r-T+1..r (one window of T*ci) times the kernel's
        # groups stacked in reverse, zero-padded to T*stride taps
        wp = np.zeros((T * stride, ci, co), dtype=DTYPE)
        wp[:k] = w.data
        w2 = wp.reshape(T, stride, ci, co)[::-1].transpose(0, 2, 1, 3).reshape(T * ci, stride * co)
        xp = np.zeros((n, r_hi - r_lo + T - 1, ci), dtype=DTYPE)
        off = T - 1 - r_lo  # xp row of x row 0
        lo, hi = (min(L, max(0, v)) for v in (-off, xp.shape[1] - off))  # the x rows xp holds
        xp[:, off + lo : off + hi] = x.data[:, lo:hi]
        y = np.empty((n, out_len, co), dtype=DTYPE)
        for b0, b1, r0, r1, win in _window_blocks(xp, ci, r_hi - r_lo, T * ci, stride * co):
            p0 = (r_lo + r0) * stride - pl  # output sample of the block's first row
            lo, hi = max(0, p0), min(out_len, p0 + (r1 - r0) * stride)
            y[b0:b1, lo:hi] = (win @ w2).reshape(b1 - b0, -1, co)[:, lo - p0 : hi - p0]
    else:
        groups = _tap_groups(k, stride)
        rows = max(L + T - 1, r_hi)
        acc = np.zeros((n, rows, stride * co), dtype=DTYPE)
        x2 = x.data.reshape(n * L, ci)
        for t, taps in groups:
            wt = w.data[taps].transpose(1, 0, 2).reshape(ci, -1)
            acc[:, t : t + L, : wt.shape[1]] += (x2 @ wt).reshape(n, L, wt.shape[1])
        y = acc.reshape(n, rows * stride, co)[:, pl : pl + out_len].copy()

    read_x = _reader(x)

    def vjp(g, need):
        # the kernel gradient first, so that a rebuilt x is freed before gx
        # is allocated; a rebuilt x comes with the T-1 zero rows per sample
        # that kernel_corr_len appends to its second operand, so it is read
        # with no copy
        gw = _swap_channels(kernel_corr_len(g, read_x(T - 1), stride, pl, k)) if need[1] else None
        gx = conv_len(g, _swap_channels(w), None, stride, pl, L) if need[0] else None
        return gx, gw

    return _with_bias(x, w, b, y, vjp)


def kernel_corr_len(a: Tensor, g: Tensor, stride: int, pl: int, k: int) -> Tensor:
    """Kernel gradient of conv_len: out[j] = sum_{n, o} a[:, o*stride + j - pl]^T g[:, o].

    a [n, La, ca], g [n, Lg, cg] -> [k, ca, cg].
    """
    n, La, ca = a.shape
    _, Lg, cg = g.shape
    groups = _tap_groups(k, stride)
    # as in conv_len, but the zero rows appended to each sample of g cancel
    # the taps that reach into the next sample
    rows = Lg + len(groups) - 1
    R = n * rows - len(groups) + 1
    af = _polyphase(a.data, stride, pl, rows)
    gf = _zero_tailed(g.data, rows)
    out = np.empty((k, ca, cg), dtype=DTYPE)
    for t, taps in groups:
        ot = out[taps].reshape(-1, cg)
        np.matmul(af[t : t + R, : ot.shape[0]].T, gf[:R], out=ot)

    def vjp(gk, need):
        ga = trans_conv_len(g, _swap_channels(gk), None, stride, pl, La) if need[0] else None
        gg = conv_len(a, gk, None, stride, pl, Lg) if need[1] else None
        return ga, gg

    return _make(out, (a, g), vjp)


# ---------------------------------------------------------------------------
# [n, H, W, c] maps: the row unfold of conv2d, and 2x2 max pooling


def unfold_rows(a: Tensor, kh: int, stride: int, pt: int, out_h: int) -> Tensor:
    """y[b*out_h + o, :, i*c : (i+1)*c] = a[b, o*stride + i - pt], zero outside.

    a [n, H, W, c] -> [n*out_h, W, kh*c]: the kh rows that feed output row o
    of a stride-`stride` convolution, side by side in the channel axis.
    """
    n, H, W, c = a.shape
    span = stride * (out_h - 1) + 1
    xp = np.zeros((n, max(span + kh - 1, pt + H), W, c), dtype=DTYPE)
    xp[:, pt : pt + H] = a.data
    out = np.empty((n, out_h, W, kh, c), dtype=DTYPE)
    for i in range(kh):
        out[:, :, :, i] = xp[:, i : i + span : stride]
    return _make(out.reshape(n * out_h, W, kh * c), (a,), lambda g, need: (fold_rows(g, kh, stride, pt, out_h, (n, H)),))


def fold_rows(g: Tensor, kh: int, stride: int, pt: int, out_h: int, nh: tuple[int, int]) -> Tensor:
    """Adjoint of unfold_rows: each row tap of g is added back onto its row.

    g [n*out_h, W, kh*c] -> [n, H, W, c] for nh = (n, H).
    """
    n, H = nh
    _, W, khc = g.shape
    c = khc // kh
    span = stride * (out_h - 1) + 1
    acc = np.zeros((n, max(span + kh - 1, pt + H), W, c), dtype=DTYPE)
    taps = g.data.reshape(n, out_h, W, kh, c)
    for i in range(kh):
        acc[:, i : i + span : stride] += taps[:, :, :, i]
    return _make(acc[:, pt : pt + H].copy(), (g,), lambda gg, need: (unfold_rows(gg, kh, stride, pt, out_h),))


def max_pool_2x2(x: Tensor) -> Tensor:
    """Max over 2x2 windows at stride 2: [n, H, W, c] -> [n, H/2, W/2, c].

    The window elements are strided views of one reshape, read in row-major
    window order; a later one replaces the running maximum only when strictly
    greater, so a tie or a NaN after the first keeps the first. The node keeps
    the winner's window position, one uint8 per output, for its VJP. The
    forward and the VJP run one block of samples of at most _BLOCK_BYTES of
    input (one sample if that is larger) at a time, so their ``np.where``
    temporaries are one block's, not the whole batch's.
    """
    n, H, W, c = x.shape
    win = x.data.reshape(n, H // 2, 2, W // 2, 2, c)
    step = max(1, _BLOCK_BYTES // max(1, x.data[:1].nbytes))
    best = np.empty((n, H // 2, W // 2, c), dtype=x.data.dtype)
    arg = np.empty(best.shape, dtype=np.uint8)
    for r in range(0, n, step):
        block = win[r : r + step]
        top = block[:, :, 0, :, 0]
        pos = np.zeros(top.shape, dtype=np.uint8)
        for k, (i, j) in enumerate(((0, 1), (1, 0), (1, 1)), 1):
            take = block[:, :, i, :, j] > top
            top = np.where(take, block[:, :, i, :, j], top)
            pos = np.where(take, np.uint8(k), pos)
        best[r : r + step], arg[r : r + step] = top, pos

    def vjp(g, need):
        if _grad_enabled:
            raise GraphError("max pooling has no second-order gradient")
        gx = np.empty((n, H, W, c), dtype=DTYPE)
        gwin = gx.reshape(n, H // 2, 2, W // 2, 2, c)
        for r in range(0, n, step):
            pos, gb = arg[r : r + step], g.data[r : r + step]
            for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                # adding 0 turns a -0 cotangent into +0, as a scatter-add into zeros does
                np.add(np.where(pos == k, gb, 0), 0, out=gwin[r : r + step, :, i, :, j])
        return (Tensor(gx),)

    return _make(best, (x,), vjp)


# ---------------------------------------------------------------------------
# graph traversal


def _consumed(g, need):
    raise GraphError("graph already consumed by backward(); run the forward pass again")


def _topo_order(root: Vertex) -> list[Vertex]:
    order: list[Vertex] = []
    seen: set[int] = set()
    stack: list[tuple[Vertex, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p._vjp is not None:
                stack.append((p, False))
    return order


def _buffer(g: Tensor):
    """What holds g's memory: g's data, or the base it views."""
    return g.data if g.data.base is None else g.data.base


def _owned(g: Tensor, holders: collections.Counter) -> bool:
    """Whether a VJP may write over g: g is writeable and C-contiguous, its
    buffer is an array that owns its memory, and `holders` counts no
    other holder of that buffer."""
    buf = _buffer(g)
    return (holders[id(buf)] == 0 and isinstance(buf, np.ndarray) and buf.flags.owndata
            and g.data.flags.writeable and g.data.flags.c_contiguous)


def _reverse_walk(
    root: Vertex, cotangent: Tensor, keep: set[int], create_graph: bool, release: bool
) -> dict[int, tuple[Vertex, Tensor]]:
    """Push `cotangent` from vertex `root` back through its recorded graph.

    Returns {id: (vertex, cotangent)} for every leaf reached and for every
    node whose id is in `keep`. With release=True (``backward``) each node
    drops its VJP and parent links as it is walked, so what the VJP read
    is freed during the walk and a second walk raises GraphError. With
    release=False (``grad``) the graph is kept and only the vertices on a
    path to one in `keep` get a gradient.

    A VJP marked ``_takes_owned`` also gets `owned`: whether the walk owns
    the node's complete cotangent, so that the VJP may write over it. The
    walk owns it when it is not under `create_graph`, the cotangent is
    writeable and C-contiguous in a buffer that owns its memory, and no
    other holder of that buffer is left (``_owned``). The holders are the
    pending cotangents, counted per buffer: a leaf's and a kept vertex's
    stay pending to the end, and a cotangent that ``add`` hands to both
    parents or that ``reshape`` or ``transpose`` views counts once per
    entry. The caller's `cotangent` counts once more, since the caller
    keeps it, so it and its views are never owned. This holds because a
    VJP returns fresh arrays or numpy views of its cotangent, never an
    array the graph or the caller holds.
    """
    pending: dict[int, tuple[Vertex, Tensor]] = {id(root): (root, cotangent)}
    holders = collections.Counter([id(_buffer(cotangent))] * 2)
    order = _topo_order(root)
    to = None
    if not release:
        to = set(keep)
        for node in order:  # every node comes after its parents
            if any(id(p) in to for p in node._parents):
                to.add(id(node))

    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = create_graph
    try:
        while order:
            node = order.pop()
            vjp, parents = node._vjp, node._parents
            if release and vjp is not None:
                node._vjp, node._parents, node._rebuild = _consumed, (), None
            # every consumer of `node` has run, so its cotangent is complete
            if id(node) in keep:
                hit = pending.get(id(node))
            else:
                hit = pending.pop(id(node), None)
                if hit is not None:
                    holders[id(_buffer(hit[1]))] -= 1
            if hit is None or vjp is None:
                continue
            need = [p.requires_grad and (to is None or id(p) in to) for p in parents]
            args = (hit[1], need)
            if getattr(vjp, "takes_owned", False):
                args += (not create_graph and _owned(hit[1], holders),)
            for p, wanted, pg in zip(parents, need, vjp(*args)):
                if wanted and pg is not None:
                    acc = pending.get(id(p))
                    if acc is not None:
                        holders[id(_buffer(acc[1]))] -= 1
                        pg = add(acc[1], pg)
                    pending[id(p)] = (p, pg)
                    holders[id(_buffer(pg))] += 1
    finally:
        _grad_enabled = prev
    # leaves are never in `order`, so they and the kept nodes are what is left
    return pending


def grad(
    output: Tensor,
    wrt: Iterable[Tensor],
    cotangent: Tensor | None = None,
    create_graph: bool = False,
) -> list[Tensor]:
    """Gradients of `output` with respect to each tensor in `wrt`.

    The graph is left intact. With create_graph=True the returned
    gradients are themselves graph nodes and can be differentiated again.
    The walk owns only the cotangents it computes that nothing else
    holds (see ``_reverse_walk``): never `cotangent` or a view of it, so a
    caller can pass one seed to many calls, and never a returned gradient.
    With create_graph=True it owns none.
    """
    wrt = list(wrt)
    if output._vjp is None and not output.requires_grad:
        raise GraphError("output is not part of a recorded computation")
    if cotangent is None:
        cotangent = Tensor(np.ones_like(output.data))
    ids = [id(_vertex(t)) for t in wrt]
    hits = _reverse_walk(_vertex(output), cotangent, set(ids), create_graph, release=False)
    return [hits[i][1] if i in hits else Tensor(np.zeros_like(t.data)) for i, t in zip(ids, wrt)]


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` (numpy) of every leaf reached.

    Consumes the graph: interior nodes keep `.grad` None and lose their
    links as they are walked, so the graph is freed by the time this
    returns and cannot be walked again. The walk owns each interior
    cotangent that no other pending cotangent shares a buffer with (see
    ``_reverse_walk``), so a marked VJP writes over it instead of
    allocating; a leaf's cotangent stays pending, so it is never owned.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if loss._vjp is None:
        raise GraphError("loss is not part of a recorded computation")
    hits = _reverse_walk(loss._node, Tensor(np.ones_like(loss.data)), set(), False, release=True)
    for leaf, g in hits.values():
        leaf.grad = g.data.copy() if leaf.grad is None else leaf.grad + g.data
