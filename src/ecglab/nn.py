"""Layer primitives for the four signal networks.

Convolutions use SAME-style padding: strided convs emit ceil(L/stride)
samples, transposed convs emit exactly L*stride, and the zero padding is
split evenly with the extra sample on the right. These are the only
conventions that reproduce the architecture tables' output shapes.

``conv1d`` and ``trans_conv1d`` are one graph node each
(``autodiff.conv_len`` / ``trans_conv_len``), computed in polyphase
form: the zero-padded signal is read as rows of ``stride`` samples and
the kernel as T = ceil(k/stride) groups of taps. Wide layers use
stride-wide groups (7 for the 25-tap stride-4 stages, the last holding
a single tap): the output is T accumulated matmuls over contiguous row
slices, with no unrolled buffer. Thin layers, whose stride-wide matmul
has few input channels per output column (one input channel into 16,
or the GP's one into one), use one group of all the taps: each output
row is an overlapping window of the flat padded input (im2col), and one
matmul writes the output once. Those windows are copied in blocks of at
most ``autodiff._CHUNK_BYTES`` (4 MB), so no full unrolled matrix is
ever held. The width depends on the shapes only. The input VJP of each
op is the other with the kernel's channel axes swapped (carrying the
conv's own left pad and input length when L is not a multiple of the
stride), and the kernel VJP is one per-tap correlation.

``conv2d`` is the same ``conv_len`` along the width: ``autodiff.unfold_rows``
sets the kh padded input rows that feed each output row side by side in
the channel axis ([n, H, W, c] -> [n*Ho, W, kh*c]), and the kernel is read
as kw taps of kh*c input channels. The row unfold's adjoint,
``fold_rows``, adds each row tap back onto its input row.

``phase_shuffle`` is one node too (``autodiff.shift_len``): each
(sample, channel) row is gathered as one length-L window of the
symmetrically padded row, and its adjoint writes the rows back into
their windows and folds the padding onto the samples it reflects.
``batch_norm`` ends in the (leaky) ReLU that follows it in the networks.
In train mode the two are one node (``autodiff.batch_norm_train``) that
keeps the normalized input only, whose VJP is the closed form, first
order only. The activation is rebuilt from the normalized input where a
VJP reads it: batch norm's own for its slope, and the kernel VJP of the
transposed conv it feeds. Inference mode (``autodiff.batch_norm_infer``)
folds the running statistics into one scale and shift per channel and
writes act(x * scale + shift) into one fresh buffer, by the same blockwise
pass that writes train mode's output. It records no graph: called while
recording with an input that requires grad, it raises GraphError, and
``Network.forward`` runs inference mode under ``no_grad``.
``maxpool2d`` is one 2x2, stride-2 node (``autodiff.max_pool_2x2``)
whose VJP, like train-mode batch norm's, is first order only.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


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


def maxpool2d(x: Tensor) -> Tensor:
    """Max over 2x2 windows at stride 2 of [n, H, W, c], H and W even."""
    if x.shape[1] % 2 or x.shape[2] % 2:
        raise ValueError(f"maxpool2d needs even spatial dims, got {x.shape[1]} x {x.shape[2]}")
    return ad.max_pool_2x2(x)


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
    alpha: float = 1.0,
) -> Tensor:
    """Per-channel standardization over batch and spatial axes (channel last),
    then a leaky ReLU of slope `alpha` (0 is ReLU, the default 1 none).
    Infer mode records no graph (see the module docstring)."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"batch_norm activation slope must be in [0, 1], got {alpha}")
    if mode == "train":
        if x.shape[0] < 2:
            raise ValueError("batch_norm in train mode needs batch size >= 2")
        out, mu, var = ad.batch_norm_train(x, gamma, beta, BN_EPS, alpha)
        running["mean"] = BN_MOMENTUM * running["mean"] + (1 - BN_MOMENTUM) * mu
        running["var"] = BN_MOMENTUM * running["var"] + (1 - BN_MOMENTUM) * var
        return out
    if mode != "infer":
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    return ad.batch_norm_infer(x, gamma, beta, running["mean"], running["var"], BN_EPS, alpha)


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
