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
each other: ``conv_len``/``trans_conv_len``, ``take_len``/``scatter_len``,
the phase-shuffle pair ``shift_len``/``unshift_len`` and the 2-D row
unfold ``unfold_rows``/``fold_rows``. The one VJP written in plain numpy
is train-mode ``batch_norm_train``'s closed form; it is first order only
and raises GraphError under ``create_graph``. No second-order path
crosses it: the critic has no batch norm.

``grad`` leaves the graph intact, so it can be walked again (the
gradient penalty differentiates through the graph it was computed
from). ``backward`` consumes the graph: it sets ``.grad`` on leaves only
(interior nodes keep ``.grad`` None) and unlinks each node as soon as
its VJP has run, so activations are freed during the walk rather than
when the cyclic garbage collector next runs. Walking a consumed graph
again raises GraphError.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Tensor], Sequence[Tensor | None]] | None = None

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

    def backward(self) -> None:
        backward(self)

    # operator sugar; constants are wrapped as non-differentiable tensors
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return pow_const(self, p)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = ()
    out._vjp = None
    out.requires_grad = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


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
    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(neg(g), b.shape)

    return _make(a.data - b.data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (neg(g),))


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return _unbroadcast(mul(g, b), a.shape), _unbroadcast(mul(g, a), b.shape)

    return _make(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        ga = _unbroadcast(div(g, b), a.shape)
        gb = _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)
        return ga, gb

    return _make(a.data / b.data, (a, b), vjp)


def pow_const(a: Tensor, p: float) -> Tensor:
    def vjp(g):
        return (mul(g, mul(Tensor(np.asarray(p, dtype=DTYPE)), pow_const(a, p - 1))),)

    return _make(a.data**p, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    out = _make(out_data, (a,), None)
    if out._parents:
        out._vjp = lambda g: (mul(g, out),)
    return out


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (div(g, a),))


def sqrt(a: Tensor) -> Tensor:
    out = _make(np.sqrt(a.data), (a,), None)
    if out._parents:
        out._vjp = lambda g: (div(mul(g, Tensor(0.5)), out),)
    return out


def tanh(a: Tensor) -> Tensor:
    out = _make(np.tanh(a.data), (a,), None)
    if out._parents:
        out._vjp = lambda g: (mul(g, sub(Tensor(1.0), mul(out, out))),)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    out = _make(out_data, (a,), None)
    if out._parents:
        out._vjp = lambda g: (mul(g, mul(out, sub(Tensor(1.0), out))),)
    return out


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0).astype(DTYPE)
    return _make(a.data * mask, (a,), lambda g: (mul(g, Tensor(mask)),))


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    dt = a.data.dtype.type
    # 1 or alpha, built arithmetically: np.where on a data-dependent mask is
    # several times slower, and for alpha in [0, 1] (1 - alpha) + alpha
    # rounds to exactly 1 in float32 and float64
    slope = (a.data > 0).astype(dt)
    slope *= dt(1.0 - alpha)
    slope += dt(alpha)
    return _make(a.data * slope, (a,), lambda g: (mul(g, Tensor(slope)),))


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.shape

    def vjp(g):
        gd = g
        if axis is not None and not keepdims:
            kept = np.sum(a.data, axis=axis, keepdims=True).shape
            gd = reshape(gd, kept)
        return (expand(gd, in_shape),)

    def vjp_scalar(g):
        return (expand(g, in_shape),)

    out = np.sum(a.data, axis=axis, keepdims=keepdims)
    if axis is None and not keepdims:
        return _make(np.asarray(out), (a,), vjp_scalar)
    return _make(out, (a,), vjp)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= a.shape[ax]
    return mul(sum_(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def expand(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Broadcast to `shape` (copying); adjoint of sum over broadcast axes."""

    def vjp(g):
        return (_unbroadcast(g, a.shape),)

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (reshape(g, in_shape),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(int(i) for i in np.argsort(axes))
    return _make(np.transpose(a.data, axes), (a,), lambda g: (transpose(g, inv),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")

    def vjp(g):
        return matmul(g, transpose(b, (1, 0))), matmul(transpose(a, (1, 0)), g)

    return _make(a.data @ b.data, (a, b), vjp)


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Train-mode batch norm over every axis but the last (channel) axis.

    Returns y = (x - mu) / sqrt(var + eps) * gamma + beta and the batch mean
    mu and biased variance var per channel. The VJP is the closed form of
    Ioffe & Szegedy in numpy, so it is first order only: it raises
    GraphError when called while a graph is recorded (create_graph=True).
    """
    c = x.shape[-1]
    # one row per sample, so that per-channel vectors tiled to a row broadcast
    # with long inner loops, and channel sums add each position's batch sum
    x2 = x.data.reshape(x.shape[0], -1)
    reps = x2.shape[1] // c
    m = x.size // c

    def channel_sum(v):
        return v.reshape(reps, c).sum(0)

    def row(v):
        return np.tile(v, reps)

    mu = channel_sum(np.einsum("ij->j", x2)) / m
    xhat = x2 - row(mu)
    var = channel_sum(np.einsum("ij,ij->j", xhat, xhat)) / m
    inv = 1 / np.sqrt(var + eps)
    xhat *= row(inv)
    y = xhat * row(gamma.data)
    y += row(beta.data)

    def vjp(g):
        if _grad_enabled:
            raise GraphError("batch_norm in train mode has no second-order gradient")
        g2 = g.data.reshape(x2.shape)
        dbeta = channel_sum(np.einsum("ij->j", g2))
        dgamma = channel_sum(np.einsum("ij,ij->j", g2, xhat))
        gx = None
        if x.requires_grad:
            # gamma * inv * (g - dbeta / m - xhat * dgamma / m)
            gx = xhat * row(dgamma / m)
            np.subtract(g2, gx, out=gx)
            gx -= row(dbeta / m)
            gx *= row(gamma.data * inv)
            gx = Tensor(gx.reshape(x.shape))
        return gx, Tensor(dgamma), Tensor(dbeta)

    return _make(y.reshape(x.shape), (x, gamma, beta), vjp), mu, var


# ---------------------------------------------------------------------------
# structured ops along the length axis (axis 1 of [n, L, c] tensors)


def pad_len(a: Tensor, left: int, right: int) -> Tensor:
    n, L, c = a.shape
    out = np.zeros((n, L + left + right, c), dtype=DTYPE)
    out[:, left : left + L] = a.data
    return _make(out, (a,), lambda g: (crop_len(g, left, left + L),))


def crop_len(a: Tensor, start: int, stop: int) -> Tensor:
    n, L, c = a.shape

    def vjp(g):
        return (pad_len(g, start, L - stop),)

    return _make(a.data[:, start:stop].copy(), (a,), vjp)


def take_len(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along axis 1 with per-(sample, channel) indices [n, L', c]."""
    n, L, c = a.shape

    def vjp(g):
        return (scatter_len(g, idx, L),)

    return _make(np.take_along_axis(a.data, idx, axis=1), (a,), vjp)


def scatter_len(g: Tensor, idx: np.ndarray, out_len: int) -> Tensor:
    n, Lp, c = g.shape
    acc = np.zeros((n, out_len, c), dtype=DTYPE)
    bi = np.arange(n)[:, None, None]
    ci = np.arange(c)[None, None, :]
    np.add.at(acc, (bi, idx, ci), g.data)

    def vjp(gg):
        return (take_len(gg, idx),)

    return _make(acc, (g,), vjp)


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
    return _make(y, (a,), lambda g: (unshift_len(g, shifts, n),))


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
    return _make(out + out.dtype.type(0), (g,), lambda gg: (shift_len(gg, shifts, n),))


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


def _polyphase(x: np.ndarray, stride: int, pl: int, rows: int) -> np.ndarray:
    """[n, L, c] delayed by pl and zero-padded or cut to rows*stride
    samples, as an [n*rows, stride*c] matrix."""
    n, L, c = x.shape
    xp = np.zeros((n, rows * stride, c), dtype=DTYPE)
    m = min(L, rows * stride - pl)
    xp[:, pl : pl + m] = x[:, :m]
    return xp.reshape(n * rows, stride * c)


def _tap_groups(k: int, stride: int) -> list[tuple[int, slice]]:
    """(group t, kernel taps of group t) for the T = ceil(k/stride) groups."""
    return [(t, slice(t * stride, min(k, (t + 1) * stride))) for t in range(-(-k // stride))]


def _swap_channels(w: Tensor) -> Tensor:
    return transpose(w, (0, 2, 1))


def _with_bias(x: Tensor, w: Tensor, b: Tensor | None, y: np.ndarray, vjp) -> Tensor:
    if b is None:
        return _make(y, (x, w), vjp)
    y += b.data

    def vjp_b(g):
        return (*vjp(g), _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(y, (x, w, b), vjp_b)


def conv_len(x: Tensor, w: Tensor, b: Tensor | None, stride: int, pl: int, out_len: int) -> Tensor:
    """y[:, o] = sum_j x[:, o*stride + j - pl] @ w[j] (+ b).

    x [n, L, ci], w [k, ci, co] -> [n, out_len, co].
    """
    n, L, _ = x.shape
    k, _, co = w.shape
    groups = _tap_groups(k, stride)
    # one matrix over the whole batch: the rows past out_len in each sample
    # absorb the taps that reach into the next sample, and are dropped
    rows = out_len + len(groups) - 1
    R = n * rows - len(groups) + 1
    xf = _polyphase(x.data, stride, pl, rows)
    acc = np.zeros((n * rows, co), dtype=DTYPE)
    for t, taps in groups:
        wt = w.data[taps].reshape(-1, co)
        acc[:R] += xf[t : t + R, : wt.shape[0]] @ wt
    y = acc.reshape(n, rows, co)[:, :out_len].copy()

    def vjp(g):
        gx = trans_conv_len(g, _swap_channels(w), None, stride, pl, L) if x.requires_grad else None
        gw = kernel_corr_len(x, g, stride, pl, k) if w.requires_grad else None
        return gx, gw

    return _with_bias(x, w, b, y, vjp)


def trans_conv_len(x: Tensor, w: Tensor, b: Tensor | None, stride: int, pl: int, out_len: int) -> Tensor:
    """Adjoint of conv_len in its input: y[:, o*stride + j - pl] += x[:, o] @ w[j] (+ b).

    x [n, L, ci], w [k, ci, co] -> [n, out_len, co].
    """
    n, L, ci = x.shape
    k, _, co = w.shape
    groups = _tap_groups(k, stride)
    rows = max(L + len(groups) - 1, -(-(pl + out_len) // stride))
    acc = np.zeros((n, rows, stride * co), dtype=DTYPE)
    x2 = x.data.reshape(n * L, ci)
    for t, taps in groups:
        wt = w.data[taps].transpose(1, 0, 2).reshape(ci, -1)
        acc[:, t : t + L, : wt.shape[1]] += (x2 @ wt).reshape(n, L, wt.shape[1])
    y = acc.reshape(n, rows * stride, co)[:, pl : pl + out_len].copy()

    def vjp(g):
        gx = conv_len(g, _swap_channels(w), None, stride, pl, L) if x.requires_grad else None
        gw = _swap_channels(kernel_corr_len(g, x, stride, pl, k)) if w.requires_grad else None
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
    gf = _polyphase(g.data, 1, 0, rows)
    out = np.empty((k, ca, cg), dtype=DTYPE)
    for t, taps in groups:
        ot = out[taps].reshape(-1, cg)
        np.matmul(af[t : t + R, : ot.shape[0]].T, gf[:R], out=ot)

    def vjp(gk):
        ga = trans_conv_len(g, _swap_channels(gk), None, stride, pl, La) if a.requires_grad else None
        gg = conv_len(a, gk, None, stride, pl, Lg) if g.requires_grad else None
        return ga, gg

    return _make(out, (a, g), vjp)


# ---------------------------------------------------------------------------
# the rows of [n, H, W, c] maps, unfolded for a convolution along W


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
    return _make(out.reshape(n * out_h, W, kh * c), (a,), lambda g: (fold_rows(g, kh, stride, pt, (n, H)),))


def fold_rows(g: Tensor, kh: int, stride: int, pt: int, nh: tuple[int, int]) -> Tensor:
    """Adjoint of unfold_rows: each row tap of g is added back onto its row.

    g [n*out_h, W, kh*c] -> [n, H, W, c] for nh = (n, H).
    """
    n, H = nh
    _, W, khc = g.shape
    out_h, c = g.shape[0] // n, khc // kh
    span = stride * (out_h - 1) + 1
    acc = np.zeros((n, max(span + kh - 1, pt + H), W, c), dtype=DTYPE)
    taps = g.data.reshape(n, out_h, W, kh, c)
    for i in range(kh):
        acc[:, i : i + span : stride] += taps[:, :, :, i]
    return _make(acc[:, pt : pt + H].copy(), (g,), lambda gg: (unfold_rows(gg, kh, stride, pt, out_h),))


# ---------------------------------------------------------------------------
# graph traversal


def _consumed(g):
    raise GraphError("graph already consumed by backward(); run the forward pass again")


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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


def _reverse_walk(
    root: Tensor, cotangent: Tensor, keep: set[int], create_graph: bool, release: bool
) -> dict[int, tuple[Tensor, Tensor]]:
    """Push `cotangent` from `root` back through its recorded graph.

    Returns {id: (tensor, cotangent)} for every leaf reached and for every
    interior tensor whose id is in `keep`. With release=True each node
    drops its VJP and parent links as it is walked, so activations are
    freed during the walk and a second walk raises GraphError.
    """
    pending: dict[int, tuple[Tensor, Tensor]] = {id(root): (root, cotangent)}
    order = _topo_order(root)

    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = create_graph
    try:
        while order:
            node = order.pop()
            # every consumer of `node` has run, so its cotangent is complete
            hit = pending.get(id(node)) if id(node) in keep else pending.pop(id(node), None)
            vjp, parents = node._vjp, node._parents
            if release and vjp is not None:
                node._vjp, node._parents = _consumed, ()
            if hit is None or vjp is None:
                continue
            for p, pg in zip(parents, vjp(hit[1])):
                if pg is None or not p.requires_grad:
                    continue
                prev_hit = pending.get(id(p))
                pending[id(p)] = (p, pg if prev_hit is None else add(prev_hit[1], pg))
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
    """
    wrt = list(wrt)
    if output._vjp is None and not output.requires_grad:
        raise GraphError("output is not part of a recorded computation")
    if cotangent is None:
        cotangent = Tensor(np.ones_like(output.data))
    hits = _reverse_walk(output, cotangent, {id(t) for t in wrt}, create_graph, release=False)
    return [hits[id(t)][1] if id(t) in hits else Tensor(np.zeros_like(t.data)) for t in wrt]


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` (numpy) of every leaf reached.

    Consumes the graph: interior nodes keep `.grad` None and lose their
    links as they are walked, so the graph is freed by the time this
    returns and cannot be walked again.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if loss._vjp is None:
        raise GraphError("loss is not part of a recorded computation")
    hits = _reverse_walk(loss, Tensor(np.ones_like(loss.data)), set(), False, release=True)
    for leaf, g in hits.values():
        leaf.grad = g.data.copy() if leaf.grad is None else leaf.grad + g.data
