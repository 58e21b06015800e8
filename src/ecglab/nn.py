"""Layer primitives for the four signal networks.

Convolutions use SAME-style padding: strided convs emit ceil(L/stride)
samples, transposed convs emit exactly L*stride, and the zero padding is
split evenly with the extra sample on the right. These are the only
conventions that reproduce the architecture tables' output shapes.

``conv1d`` and ``trans_conv1d`` are one graph node each
(``autodiff.conv_len`` / ``trans_conv_len``), computed in polyphase
form: the zero-padded signal is read as rows of ``stride`` samples, the
kernel as T = ceil(k/stride) groups of ``stride`` taps (7 groups for the
25-tap stride-4 stages, the last holding a single tap), and the output
is T accumulated matmuls over contiguous row slices, one per group.
There is no im2col buffer. The input VJP of each is the other with the kernel's
channel axes swapped (carrying the conv's own left pad and input length
when L is not a multiple of the stride), and the kernel VJP is one
per-tap correlation.

``conv2d`` is the same ``conv_len`` along the width: ``autodiff.unfold_rows``
sets the kh padded input rows that feed each output row side by side in
the channel axis ([n, H, W, c] -> [n*Ho, W, kh*c]), and the kernel is read
as kw taps of kh*c input channels. The row unfold's adjoint,
``fold_rows``, adds each row tap back onto its input row.

``phase_shuffle`` is one node too (``autodiff.shift_len``): each
(sample, channel) row is gathered as one length-L window of the
symmetrically padded row, and its adjoint writes the rows back into
their windows and folds the padding onto the samples it reflects.
Train-mode ``batch_norm`` is one node (``autodiff.batch_norm_train``)
whose VJP is the closed form, first order only; inference mode
normalizes with the running statistics.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

def same_pads_1d(length: int, k: int, stride: int) -> tuple[int, int, int]:
    out_len = -(-length // stride)
    total = max(0, (out_len - 1) * stride + k - length)
    left = total // 2
    return out_len, left, total - left


def conv1d(x: Tensor, w: Tensor, b: Tensor | None, stride: int) -> Tensor:
    """Cross-correlation of [n, L, c_in] with kernel [k, c_in, c_out]."""
    _, L, ci = x.shape
    k, wci, _ = w.shape
    if wci != ci:
        raise ValueError(f"conv1d channel mismatch: input {ci}, kernel {wci}")
    out_len, pl, _ = same_pads_1d(L, k, stride)
    return ad.conv_len(x, w, b, stride, pl, out_len)


def trans_conv1d(x: Tensor, w: Tensor, b: Tensor | None, stride: int) -> Tensor:
    """Transposed counterpart of conv1d: [n, L, c_in] -> [n, L*stride, c_out].

    Exact adjoint of a SAME conv1d from L*stride down to L (with the
    kernel's channel axes swapped), which makes <conv(x, w), y> equal
    <x, trans_conv(y, w_swapped)>.
    """
    _, L, ci = x.shape
    k, wci, _ = w.shape
    if wci != ci:
        raise ValueError(f"trans_conv1d channel mismatch: input {ci}, kernel {wci}")
    if k < stride:
        raise ValueError("trans_conv1d requires kernel size >= stride")
    return ad.trans_conv_len(x, w, b, stride, (k - stride) // 2, L * stride)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int) -> Tensor:
    """Cross-correlation of [n, H, W, c_in] with kernel [kh, kw, c_in, c_out]."""
    n, H, W, ci = x.shape
    kh, kw, wci, co = w.shape
    if wci != ci:
        raise ValueError(f"conv2d channel mismatch: input {ci}, kernel {wci}")
    Ho, pt, _ = same_pads_1d(H, kh, stride)
    Wo, pl, _ = same_pads_1d(W, kw, stride)
    rows = ad.unfold_rows(x, kh, stride, pt, Ho)
    wk = ad.reshape(ad.transpose(w, (1, 0, 2, 3)), (kw, kh * ci, co))
    return ad.reshape(ad.conv_len(rows, wk, b, stride, pl, Wo), (n, Ho, Wo, co))


def maxpool2d(x: Tensor, k: int = 2, stride: int = 2) -> Tensor:
    """Max over k x k windows, as a gather of each window's maximum.

    Ties send the gradient to the first maximum in row-major window order.
    """
    n, H, W, c = x.shape
    if H % stride or W % stride or k > stride:
        raise ValueError("maxpool2d requires spatial dims divisible by stride and k <= stride")
    Ho, Wo = H // stride, W // stride
    best = x.data[:, ::stride, ::stride]
    offset = np.zeros(best.shape, dtype=np.intp)  # flat offset of the maximum in its window
    for i in range(k):
        for j in range(k):
            cand = x.data[:, i::stride, j::stride]
            take = cand > best
            best = np.where(take, cand, best)
            offset = np.where(take, i * W + j, offset)
    corner = stride * (W * np.arange(Ho)[:, None] + np.arange(Wo))
    idx = (offset + corner[None, :, :, None]).reshape(n, Ho * Wo, c)
    return ad.reshape(ad.take_len(ad.reshape(x, (n, H * W, c)), idx), (n, Ho, Wo, c))


def dense(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    out = ad.matmul(x, w)
    if b is not None:
        out = ad.add(out, b)
    return out


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running: dict[str, np.ndarray],
    mode: str,
    momentum: float = 0.9,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel standardization over batch and spatial axes (channel last)."""
    if mode == "train":
        if x.shape[0] < 2:
            raise ValueError("batch_norm in train mode needs batch size >= 2")
        out, mu, var = ad.batch_norm_train(x, gamma, beta, eps)
        running["mean"] = momentum * running["mean"] + (1 - momentum) * mu
        running["var"] = momentum * running["var"] + (1 - momentum) * var
        return out
    if mode != "infer":
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    y = ad.div(
        ad.sub(x, Tensor(running["mean"])),
        Tensor(np.sqrt(running["var"] + eps)),
    )
    return ad.add(ad.mul(y, gamma), beta)


def phase_shuffle(
    x: Tensor,
    n_max: int,
    rng: np.random.Generator | None,
    mode: str,
    shifts: np.ndarray | None = None,
) -> Tensor:
    """Shift each (sample, channel) series by a uniform integer in [-n, n].

    Edges are filled by symmetric reflection. Identity (and no rng draw)
    when n_max == 0 or at inference time. `shifts` overrides the random
    per-(sample, channel) draw.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max == 0 or mode != "train":
        return x
    n, _, c = x.shape
    if shifts is None:
        if rng is None:
            raise ValueError("phase_shuffle in train mode needs an rng")
        shifts = rng.integers(-n_max, n_max + 1, size=(n, c))
    else:
        shifts = np.asarray(shifts)
        if (shifts.shape != (n, c) or not np.issubdtype(shifts.dtype, np.integer)
                or np.abs(shifts).max(initial=0) > n_max):
            raise ValueError(f"phase_shuffle shifts must be integers in [-{n_max}, {n_max}] of shape {(n, c)}")
    return ad.shift_len(x, shifts, n_max)


def crop_center(x: Tensor, target: int) -> Tensor:
    """Symmetric center crop along the length axis (extra sample off the back)."""
    n, L, c = x.shape
    if L < target:
        raise ValueError(f"cannot crop length {L} to {target}")
    front = (L - target) // 2
    return ad.crop_len(x, front, front + target)
