"""Layer primitives for the four signal networks.

Convolutions use SAME-style padding: strided convs emit ceil(L/stride)
samples, transposed convs emit exactly L*stride, and the zero padding is
split evenly with the extra sample on the right. These are the only
conventions that reproduce the architecture tables' output shapes.

Each layer is one ``autodiff`` op, and that op's docstring or section
comment says how it is computed and what its graph node keeps. A dense
layer is ``autodiff.matmul`` itself, so it has no function here;
``conv1d`` and ``trans_conv1d`` are ``conv_len`` and ``trans_conv_len``
over the SAME pads, and ``maxpool2d`` is ``max_pool_2x2``. ``conv2d`` is
``conv_len`` along the width: ``autodiff.unfold_rows`` sets the kh padded
input rows that feed each output row side by side in the channel axis
([n, H, W, c] -> [n*Ho, W, kh*c]), and the kernel is read as kw taps of
kh*c input channels. ``phase_shuffle`` draws one shift per (sample,
channel) and applies them with ``shift_len``.

``batch_norm`` ends in the (leaky) ReLU that follows it in the networks.
Its train mode is ``autodiff.batch_norm_train``, whose batch statistics
this module folds into the running ones; its inference mode,
``autodiff.batch_norm_infer``, records no graph, and ``Network.forward``
runs it under ``no_grad``.
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


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running: dict[str, np.ndarray],
    mode: str,
    alpha: float,
) -> Tensor:
    """Per-channel standardization over batch and spatial axes (channel last),
    then a leaky ReLU of slope `alpha` (0 is ReLU, 1 none).
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


def phase_shuffle(x: Tensor, n_max: int, rng: np.random.Generator | None, mode: str) -> Tensor:
    """Shift each (sample, channel) series by a uniform integer in [-n, n].

    Edges are filled by symmetric reflection (``autodiff.shift_len``).
    Identity (and no rng draw) when n_max == 0 or at inference time.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max == 0 or mode != "train":
        return x
    if rng is None:
        raise ValueError("phase_shuffle in train mode needs an rng")
    n, _, c = x.shape
    return ad.shift_len(x, rng.integers(-n_max, n_max + 1, size=(n, c)), n_max)


def crop_center(x: Tensor, target: int) -> Tensor:
    """Symmetric center crop along the length axis (extra sample off the back)."""
    n, L, c = x.shape
    if L < target:
        raise ValueError(f"cannot crop length {L} to {target}")
    front = (L - target) // 2
    return ad.crop_len(x, front, front + target)
