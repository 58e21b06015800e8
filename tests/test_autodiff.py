import contextlib
import gc
import struct
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecglab import autodiff as ad
from ecglab import nn
from ecglab.autodiff import Tensor
from ecglab.checkpoint import load_params, save_params
from ecglab.optim import AdamState, adam_step

from conftest import assert_grads_match_fd

rng = np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# shape contracts from the architecture tables


@pytest.mark.parametrize("length,expect", [(5000, 1250), (1250, 313), (313, 79), (79, 20), (20, 5)])
def test_conv1d_strided_lengths(length, expect):
    x = Tensor(rng.normal(size=(2, length, 1)))
    w = Tensor(rng.normal(size=(25, 1, 3)))
    assert nn.conv1d(x, w, None, 4).shape == (2, expect, 3)


@pytest.mark.parametrize("length", [8, 32, 512, 2048, 20, 80, 320, 1280])
def test_trans_conv1d_lengths(length):
    x = Tensor(rng.normal(size=(2, length, 2)))
    w = Tensor(rng.normal(size=(25, 2, 1)))
    assert nn.trans_conv1d(x, w, None, 4).shape == (2, length * 4, 1)


def test_same_pads_put_the_extra_sample_on_the_right():
    """(out_len, left, right) for (L, k, stride); the conv properties take
    their SAME pads from this split, so it is pinned here."""
    cases = {(30, 25, 4): (8, 11, 12), (5000, 25, 4): (1250, 10, 11), (4, 5, 4): (1, 0, 1),
             (7, 3, 2): (4, 1, 1), (8, 2, 2): (4, 0, 0), (10, 1, 4): (3, 0, 0)}
    assert {args: nn.same_pads_1d(*args) for args in cases} == cases


# ---------------------------------------------------------------------------
# phase shuffle


def test_phase_shuffle_zero_is_identity():
    x = Tensor(rng.normal(size=(2, 8, 3)))
    out = nn.phase_shuffle(x, 0, None, "train")
    assert out is x


def test_phase_shuffle_infer_is_identity():
    x = Tensor(rng.normal(size=(2, 8, 3)))
    assert nn.phase_shuffle(x, 2, None, "infer") is x


def test_phase_shuffle_forced_shift_reflects():
    x = Tensor(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
    out = ad.shift_len(x, np.array([[1]]), 2)
    assert out.data[:, :, 0].tolist() == [[2.0, 3.0, 4.0, 4.0]]
    out = ad.shift_len(x, np.array([[-2]]), 2)
    assert out.data[:, :, 0].tolist() == [[2.0, 1.0, 1.0, 2.0]]


def test_phase_shuffle_preserves_shape():
    g = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 33, 5)))
    assert nn.phase_shuffle(x, 2, g, "train").shape == (4, 33, 5)


def _reference_shuffle_index(L, shifts):
    """The index map phase shuffle used to gather with: one reflection at each end."""
    idx = np.arange(L)[None, :, None] + shifts[:, None, :]
    idx = np.where(idx < 0, -idx - 1, idx)
    return np.where(idx >= L, 2 * L - idx - 1, idx)


def _reference_unshift(g, shifts):
    n, L, c = g.shape
    acc = np.zeros_like(g)
    np.add.at(acc, (np.arange(n)[:, None, None], _reference_shuffle_index(L, shifts),
                    np.arange(c)[None, None, :]), g)
    return acc


@pytest.mark.parametrize("L", [1, 2, 3, 4, 9, 313])
@pytest.mark.parametrize("n_max", [1, 2])
def test_shift_ops_are_bit_equal_to_index_gather(L, n_max):
    # every shift in [-n_max, n_max] appears in some (sample, channel)
    shifts = np.arange(-n_max, n_max + 1)[:, None] * np.array([1, -1, 0])
    x = rng.normal(size=(len(shifts), L, 3)).astype(ad.DTYPE)
    g = rng.normal(size=x.shape).astype(ad.DTYPE)
    g[:, ::2] *= -0.0  # summing into zeros turns -0 into +0
    y = ad.shift_len(Tensor(x), shifts, n_max).data
    back = ad.unshift_len(Tensor(g), shifts, n_max).data
    assert y.tobytes() == np.take_along_axis(x, _reference_shuffle_index(L, shifts), axis=1).tobytes()
    assert back.tobytes() == _reference_unshift(g, shifts).tobytes()


@pytest.mark.float64
@pytest.mark.parametrize("L", [1, 3, 9])
def test_shift_len_vjp_and_its_vjp_match_fd(L):
    """shift_len's gradient and, through create_graph, the gradient of
    that gradient (unshift_len's VJP)."""
    shifts = np.array([[2, -1], [0, -2], [1, 2]])
    x0, p0 = rng.normal(size=(3, L, 2)), rng.normal(size=(3, L, 2))

    def unshift_by_grad(p):
        x = Tensor(x0, requires_grad=True)
        (gx,) = ad.grad(ad.sum_(ad.mul(ad.shift_len(x, shifts, 2), p)), [x], create_graph=True)
        return gx

    assert_grads_match_fd(lambda x: ad.shift_len(x, shifts, 2), {"x": x0}, 1e-8)
    assert_grads_match_fd(unshift_by_grad, {"p": p0}, 1e-8)


# ---------------------------------------------------------------------------
# batch norm


def test_batch_norm_standardizes():
    x = Tensor(rng.normal(loc=3.0, scale=2.5, size=(8, 20, 4)))
    running = {"mean": np.zeros(4), "var": np.ones(4)}
    out = nn.batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), running, "train", 1.0)
    mean = out.data.mean(axis=(0, 1))
    var = out.data.var(axis=(0, 1))
    assert np.all(np.abs(mean) < 1e-6)
    assert np.all(np.abs(var - 1.0) < 1e-4)


def test_batch_norm_identity_on_standardized():
    x = rng.normal(size=(64, 16, 2))
    x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
    running = {"mean": np.zeros(2), "var": np.ones(2)}
    out = nn.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), running, "train", 1.0)
    assert np.allclose(out.data, x, atol=1e-4)


def test_batch_norm_batch_one_raises():
    x = Tensor(rng.normal(size=(1, 8, 2)))
    running = {"mean": np.zeros(2), "var": np.ones(2)}
    with pytest.raises(ValueError):
        nn.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), running, "train", 1.0)


def _reference_batch_norm(x, gamma, beta, running, momentum=0.9, eps=1e-5):
    """The 11-node composition train-mode batch_norm was built from."""
    axes = tuple(range(x.data.ndim - 1))
    inv_m = Tensor(1.0 / (x.size // x.shape[-1]))
    mu = ad.mul(ad.sum_(x, axis=axes, keepdims=True), inv_m)
    xc = ad.sub(x, mu)
    var = ad.mul(ad.sum_(ad.mul(xc, xc), axis=axes, keepdims=True), inv_m)
    y = ad.div(xc, ad.sqrt(ad.add(var, Tensor(eps))))
    running["mean"] = momentum * running["mean"] + (1 - momentum) * mu.data.reshape(-1)
    running["var"] = momentum * running["var"] + (1 - momentum) * var.data.reshape(-1)
    return ad.add(ad.mul(y, gamma), beta)


def _bn_arrays(shape):
    c = shape[-1]
    return {"x": rng.normal(loc=0.5, scale=1.5, size=shape), "gamma": rng.normal(size=c),
            "beta": rng.normal(size=c)}


def _bn_grads(bn, arrays, probe):
    """Output, running statistics and the gradients of <tanh(bn(...)), probe>."""
    c = arrays["x"].shape[-1]
    running = {"mean": np.linspace(-1, 1, c), "var": np.linspace(0.5, 2, c)}
    t = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    out = bn(t["x"], t["gamma"], t["beta"], running)
    y = out.data.copy()
    ad.backward(ad.sum_(ad.mul(ad.tanh(out), Tensor(probe))))
    return y, running, {k: v.grad for k, v in t.items()}


def _train_bn(x, gamma, beta, running):
    return nn.batch_norm(x, gamma, beta, running, "train", 1.0)


BN_SHAPES = [(4, 6, 2), (3, 4, 5, 2)]  # the generator's [n, L, c] and the classifier's [n, H, W, c]


@pytest.mark.float64
def test_batch_norm_gradient_matches_fd():
    for shape in BN_SHAPES:
        running = {"mean": np.zeros(shape[-1]), "var": np.ones(shape[-1])}
        assert_grads_match_fd(lambda x, gamma, beta: ad.tanh(_train_bn(x, gamma, beta, running)),
                              _bn_arrays(shape), 1e-6)


@pytest.mark.float64
@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_matches_reference_composition(shape):
    arrays = _bn_arrays(shape)
    probe = rng.normal(size=shape)
    y, running, grads = _bn_grads(_train_bn, arrays, probe)
    y_ref, running_ref, grads_ref = _bn_grads(_reference_batch_norm, arrays, probe)
    assert np.max(np.abs(y - y_ref)) < 1e-12
    for key in ("mean", "var"):
        assert np.max(np.abs(running[key] - running_ref[key])) < 1e-12, key
    for key in arrays:
        assert np.max(np.abs(grads[key] - grads_ref[key])) < 1e-12, key


@pytest.mark.float64
@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_cancels_a_per_channel_bias(shape):
    """bn(x + c) = bn(x), with the same gradients in x, gamma and beta, and
    the gradient in c (x's summed per channel) is 0: a bias in front of a
    train-mode batch norm does nothing, so the networks build none there."""
    arrays = _bn_arrays(shape)
    probe = rng.normal(size=shape)
    shifted = dict(arrays, x=arrays["x"] + rng.normal(scale=3.0, size=shape[-1]))
    y, _, grads = _bn_grads(_train_bn, arrays, probe)
    y_c, _, grads_c = _bn_grads(_train_bn, shifted, probe)
    assert np.max(np.abs(y_c - y)) < 1e-10
    for key in arrays:
        assert np.max(np.abs(grads_c[key] - grads[key])) < 1e-10, key
    assert np.max(np.abs(grads_c["x"].reshape(-1, shape[-1]).sum(0))) < 1e-10


def _infer_bn(x, gamma, beta, running):
    return nn.batch_norm(x, gamma, beta, running, "infer", 1.0)


def _reference_infer_bn(x, gamma, beta, running, eps=1e-5):
    """The four broadcast nodes inference-mode batch_norm was built from."""
    y = ad.div(ad.sub(x, Tensor(running["mean"])), Tensor(np.sqrt(running["var"] + eps)))
    return ad.add(ad.mul(y, gamma), beta)


@pytest.mark.float64
@pytest.mark.parametrize("shape", BN_SHAPES)
def test_infer_batch_norm_matches_reference_and_fd(shape):
    """One scale and shift per channel: the same values as the
    normalize-then-scale composition."""
    arrays = _bn_arrays(shape)
    running = {"mean": np.linspace(-1, 1, shape[-1]), "var": np.linspace(0.5, 2, shape[-1])}
    t = {k: Tensor(v) for k, v in arrays.items()}
    y = _infer_bn(t["x"], t["gamma"], t["beta"], running).data
    y_ref = _reference_infer_bn(t["x"], t["gamma"], t["beta"], running).data
    assert np.max(np.abs(y - y_ref)) < 1e-12
    empty = _infer_bn(Tensor(np.zeros((0, *shape[1:]))), t["gamma"], t["beta"], running)
    assert empty.shape == (0, *shape[1:])


def _composed_infer_bn(x, gamma, beta, running, alpha):
    """Inference-mode batch norm as the five nodes it was built from before
    it became one pass: scale and shift by mul, mul and sub, their product
    and sum with x with both vectors tiled to one row per sample, and then
    the activation's own node."""
    scale = ad.mul(gamma, Tensor(1 / np.sqrt(running["var"] + nn.BN_EPS)))
    shift = ad.sub(beta, ad.mul(Tensor(running["mean"]), scale))
    reps = int(np.prod(x.shape[1:-1]))
    y = x.data.reshape(x.shape[0], reps * x.shape[-1]) * np.tile(scale.data, reps)
    y += np.tile(shift.data, reps)
    out = Tensor(y.reshape(x.shape))
    if alpha == 1:
        return out
    return ad.relu(out) if alpha == 0 else ad.leaky_relu(out, alpha)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("shape", [(5, 7, 3), (3, 4, 5, 3), (0, 7, 3)], ids=["nlc", "nhwc", "empty"])
def test_infer_batch_norm_is_bit_equal_to_the_composition(shape, alpha, dtype, monkeypatch):
    """Byte for byte, with +0, -0, +inf, -inf and NaN in the pre-activation
    x * scale + shift: channel 1 has gamma 1, beta -0 and mean 0, so its
    shift is -0 and its x values keep their sign and class."""
    monkeypatch.setattr(ad, "DTYPE", dtype)
    local = np.random.default_rng(24)
    x = local.normal(loc=0.5, scale=1.5, size=shape)
    x[..., 1] = np.resize([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0], shape[:-1])
    gamma, beta = Tensor([local.normal(), 1.0, -0.7]), Tensor([local.normal(), -0.0, 0.3])
    running = {"mean": np.array([0.4, 0.0, -1.2], dtype=dtype), "var": np.array([0.5, 1.0, 2.0], dtype=dtype)}
    want = _composed_infer_bn(Tensor(x), gamma, beta, running, alpha)
    got = nn.batch_norm(Tensor(x), gamma, beta, running, "infer", alpha)
    assert got.data.dtype == want.data.dtype == dtype
    assert got.shape == shape and got.data.tobytes() == want.data.tobytes()
    if shape[0]:
        pre = _composed_infer_bn(Tensor(x), gamma, beta, running, 1.0).data
        assert np.isnan(pre).any() and np.isposinf(pre).any() and np.isneginf(pre).any()
        assert np.signbit(pre[pre == 0]).any() and not np.signbit(pre[pre == 0]).all()


@pytest.mark.parametrize("grad_input", ["x", "gamma", "beta"])
def test_infer_batch_norm_refuses_to_record(grad_input):
    """It records no graph, so called while recording with an input that
    requires grad it raises a one-line GraphError instead of dropping that
    gradient; under no_grad it runs. Its slope check comes first."""
    arrays = {"x": rng.normal(size=(4, 6, 3)), "gamma": np.ones(3), "beta": np.zeros(3)}
    t = {k: Tensor(v, requires_grad=k == grad_input) for k, v in arrays.items()}
    running = {"mean": np.zeros(3), "var": np.ones(3)}
    with pytest.raises(ad.GraphError, match="^batch_norm in infer mode records no graph") as err:
        nn.batch_norm(t["x"], t["gamma"], t["beta"], running, "infer", 0.2)
    assert "\n" not in str(err.value)
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        nn.batch_norm(t["x"], t["gamma"], t["beta"], running, "infer", 1.5)
    with ad.no_grad():
        out = nn.batch_norm(t["x"], t["gamma"], t["beta"], running, "infer", 0.2)
    assert out._node is None and not out.requires_grad


def test_batch_norm_float32_statistics_stay_accurate():
    """The per-channel sums over 131072 positions add per-position batch sums;
    one running float32 sum over all of them is off by about 7e-5 here."""
    x = np.random.default_rng(5).normal(loc=3.0, scale=2.0, size=(16, 8192, 4))
    running = {"mean": np.zeros(4), "var": np.ones(4)}
    y = nn.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), running, "train", 1.0)
    truth = (x - x.mean(axis=(0, 1))) / np.sqrt(x.var(axis=(0, 1)) + 1e-5)
    assert y.data.dtype == np.float32
    assert np.max(np.abs(y.data - truth)) < 1e-5


def test_batch_norm_train_is_one_node_with_first_order_vjp_only():
    x = Tensor(rng.normal(size=(4, 6, 3)), requires_grad=True)
    gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
    running = {"mean": np.zeros(3), "var": np.ones(3)}
    out = nn.batch_norm(x, gamma, beta, running, "train", 1.0)
    assert out._parents == (x, gamma, beta)
    loss = ad.sum_(ad.mul(out, out))
    ad.grad(loss, [x, gamma, beta])
    with pytest.raises(ad.GraphError, match="second-order") as err:
        ad.grad(loss, [x], create_graph=True)
    assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# batch norm and its activation as one node

_BN_ACTS = [(0.2, lambda t: ad.leaky_relu(t, 0.2)), (0.0, ad.relu)]
_bn_act_ids = ["leaky_relu", "relu"]


def _signed_zero_bn_arrays(shape):
    """x, gamma and beta over 4 channels, where y = xhat * gamma + beta is
    exactly +0 or -0 on the last three: gamma 0 and beta -0 (xhat's sign
    decides), a constant x (xhat +0) with gamma < 0 and beta -0 (all -0),
    and gamma 0 and beta +0 (all +0)."""
    x = rng.normal(loc=0.5, scale=1.5, size=shape)
    x[..., 2] = 1.0
    return {"x": x, "gamma": np.array([rng.normal(), 0.0, -1.5, 0.0]),
            "beta": np.array([rng.normal(), -0.0, -0.0, 0.0])}


@pytest.mark.parametrize("alpha,act", _BN_ACTS, ids=_bn_act_ids)
@pytest.mark.parametrize("shape", [(4, 6, 4), (3, 4, 5, 4)])
def test_batch_norm_activation_node_is_bit_equal_to_the_composition(alpha, act, shape):
    """The one node against batch norm followed by the activation's own node:
    the same output, running statistics and gradients of x, gamma and beta,
    byte for byte."""
    arrays = {k: np.asarray(v, dtype=ad.DTYPE) for k, v in _signed_zero_bn_arrays(shape).items()}
    g0 = rng.normal(size=shape).astype(ad.DTYPE)

    def run(bn):
        running = {"mean": np.linspace(-1, 1, 4, dtype=ad.DTYPE), "var": np.linspace(0.5, 2, 4, dtype=ad.DTYPE)}
        t = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
        out = bn(t["x"], t["gamma"], t["beta"], running)
        grads = ad.grad(out, list(t.values()), cotangent=Tensor(g0))
        return out.data, [out.data.tobytes(), running["mean"].tobytes(), running["var"].tobytes(),
                          *(g.data.tobytes() for g in grads)]

    pre, _ = run(lambda x, gamma, beta, r: nn.batch_norm(x, gamma, beta, r, "train", 1.0))
    zeros = pre[pre == 0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()  # both zeros meet the activation
    _, ref = run(lambda x, gamma, beta, r: act(nn.batch_norm(x, gamma, beta, r, "train", 1.0)))
    _, got = run(lambda x, gamma, beta, r: nn.batch_norm(x, gamma, beta, r, "train", alpha))
    assert got == ref


@pytest.mark.float64
@pytest.mark.parametrize("alpha", [0.2, 0.0], ids=_bn_act_ids)
def test_batch_norm_activation_gradients_match_fd(alpha):
    """On a leaf, and on a transposed conv's output as Network.forward runs
    it; the checker feeds the same leaf arrays to every evaluation, so an
    overwritten leaf would show here too."""
    running = {"mean": np.zeros(3), "var": np.ones(3)}
    local = np.random.default_rng(18)
    assert_grads_match_fd(lambda x, gamma, beta: nn.batch_norm(x, gamma, beta, running, "train", alpha),
                          {"x": local.normal(size=(4, 6, 3)), "gamma": local.normal(size=3),
                           "beta": local.normal(size=3)}, 1e-6)

    def staged(x, w, gamma, beta):
        return nn.batch_norm(nn.trans_conv1d(x, w, None, 2), gamma, beta, running, "train", alpha)

    assert_grads_match_fd(staged, {"x": local.normal(size=(3, 4, 2)), "w": local.normal(size=(5, 2, 3)) * 0.5,
                                   "gamma": local.normal(size=3), "beta": local.normal(size=3)}, 1e-6)


@pytest.mark.parametrize("alpha", [0.2, 0.0], ids=_bn_act_ids)
def test_batch_norm_activation_has_no_second_order_gradient(alpha):
    x = Tensor(rng.normal(size=(4, 6, 3)), requires_grad=True)
    gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
    out = nn.batch_norm(x, gamma, beta, {"mean": np.zeros(3), "var": np.ones(3)}, "train", alpha)
    assert out._parents == (x, gamma, beta)
    loss = ad.sum_(ad.mul(out, out))
    ad.grad(loss, [x, gamma, beta])
    with pytest.raises(ad.GraphError, match="second-order"):
        ad.grad(loss, [x], create_graph=True)


@pytest.mark.parametrize("alpha", [1.0, 0.2, 0.0])
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batch_norm_leaves_a_leaf_input_unchanged(alpha, mode):
    """Train mode while recording; infer mode, which records no graph, under no_grad."""
    x0 = rng.normal(size=(4, 6, 3)).astype(ad.DTYPE)
    x = Tensor(x0.copy(), requires_grad=True)
    with ad.no_grad() if mode == "infer" else contextlib.nullcontext():
        nn.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), {"mean": np.zeros(3), "var": np.ones(3)}, mode, alpha)
    assert x.data.tobytes() == x0.tobytes()


def _bn_vjp_whole_array(xhat, y, g, gamma, inv, alpha):
    """(gx, dgamma, dbeta) of batch_norm_train's VJP, computed over whole
    arrays as it was before it wrote gx over its slope buffer by blocks."""
    n, c = len(xhat), gamma.size
    x2, y2, g2 = (a.reshape(n, -1) for a in (xhat, y, g))
    reps, m = x2.shape[1] // c, xhat.size // c

    def channel_sum(v):
        return v.reshape(reps, c).sum(0)

    def row(v):
        return np.tile(v, reps)

    if alpha < 1:
        g2 = g2 * np.where(y2 > 0, ad.DTYPE(1), ad.DTYPE(alpha))
    dbeta = channel_sum(np.einsum("ij->j", g2))
    dgamma = channel_sum(np.einsum("ij,ij->j", g2, x2))
    gx = x2 * row(dgamma / m)
    np.subtract(g2, gx, out=gx)
    gx -= row(dbeta / m)
    gx *= row(gamma * inv)
    return gx.reshape(xhat.shape), dgamma, dbeta


@pytest.mark.parametrize("alpha", [0.2, 0.0, 1.0])
@pytest.mark.parametrize("n", [40, 42], ids=["whole_blocks", "short_last_block"])
def test_batch_norm_vjp_writes_the_input_gradient_blockwise_over_its_slope(alpha, n, monkeypatch):
    """Byte-equal to the whole-array form, with blocks of 4 sample rows.
    Beyond the arrays it returns, the VJP allocates one block and a few
    channel rows: gx is the slope buffer (at alpha = 1, its one fresh
    buffer), not a second activation-sized array."""
    import tracemalloc

    L, c = 1024, 4
    row_bytes = L * c * np.dtype(ad.DTYPE).itemsize
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 4 * row_bytes)
    local = np.random.default_rng(20)
    x = Tensor(local.normal(loc=0.5, scale=1.5, size=(n, L, c)), requires_grad=True)
    gamma = Tensor(local.normal(size=c), requires_grad=True)
    beta = Tensor(local.normal(size=c), requires_grad=True)
    out, mu, var = ad.batch_norm_train(x, gamma, beta, nn.BN_EPS, alpha)
    g = Tensor(local.normal(size=(n, L, c)))
    # the xhat the VJP reads, by the forward's own two ops
    inv = 1 / np.sqrt(var + nn.BN_EPS)
    xhat = x.data.reshape(n, -1) - np.tile(mu, L)
    xhat *= np.tile(inv, L)
    want = _bn_vjp_whole_array(xhat.reshape(x.shape), out.data, g.data, gamma.data, inv, alpha)
    tracemalloc.start()
    try:
        grads = ad.grad(out, [x, gamma, beta], cotangent=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.data.tobytes() for t in grads] == [a.tobytes() for a in want]
    returned = sum(t.data.nbytes for t in grads)
    assert peak - returned < 4 * row_bytes + 8 * row_bytes


@pytest.mark.parametrize("alpha", [0.2, 0.0, 1.0])
def test_batch_norm_forward_allocates_its_output_and_one_block(alpha, monkeypatch):
    """The forward writes its output over xhat, one block of 4 sample rows
    at a time: it allocates the output plus one block and a few rows, not
    xhat and the output. Afterwards the node holds no activation-sized
    array of its own (it keeps x, which it leaves unchanged)."""
    import tracemalloc

    L, c, n = 1024, 4, 42
    row_bytes = L * c * np.dtype(ad.DTYPE).itemsize
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 4 * row_bytes)
    local = np.random.default_rng(21)
    x0 = local.normal(loc=0.5, scale=1.5, size=(n, L, c)).astype(ad.DTYPE)
    x = Tensor(x0.copy(), requires_grad=True)
    gamma = Tensor(local.normal(size=c), requires_grad=True)
    beta = Tensor(local.normal(size=c), requires_grad=True)
    tracemalloc.start()
    try:
        out, _, _ = ad.batch_norm_train(x, gamma, beta, nn.BN_EPS, alpha)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.data.nbytes < 4 * row_bytes + 4 * row_bytes
    assert live - out.data.nbytes < 4 * row_bytes
    assert x.data.tobytes() == x0.tobytes()
    assert ad._reader(out)(0).data.tobytes() == out.data.tobytes()


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batch_norm_rejects_a_slope_outside_unit_interval(alpha, mode):
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        nn.batch_norm(Tensor(np.ones((2, 3, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                      {"mean": np.zeros(1), "var": np.ones(1)}, mode, alpha)


# ---------------------------------------------------------------------------
# batch norm's output, rebuilt where a VJP reads it


def _special_bn(alpha):
    """A train-mode batch norm node over 6 channels whose pre-activation
    y = xhat * gamma + beta holds +0, -0, +inf, -inf and NaN: gamma 0 with
    beta +0 and -0, gamma +inf and -inf (no xhat is 0 there), and beta NaN."""
    x = rng.normal(loc=0.5, scale=1.5, size=(5, 7, 6))
    gamma = np.array([rng.normal(), 0.0, 0.0, np.inf, -np.inf, 1.0])
    beta = np.array([rng.normal(), 0.0, -0.0, 0.0, 0.0, np.nan])
    out, _, _ = ad.batch_norm_train(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                                    Tensor(beta), nn.BN_EPS, alpha)
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("tail", [0, 3])
def test_rebuilt_batch_norm_output_is_the_forward_output_byte_for_byte(alpha, tail):
    """Rebuilt by the forward's own function, into the head of a buffer
    whose `tail` rows per sample are +0, with the batch norm's node."""
    out = _special_bn(alpha)
    y = out.data
    # relu's max(y, 0) turns -0 into +0; a slope keeps it
    assert np.isnan(y).any() and np.isposinf(y).any() and np.signbit(y[y == 0]).any() != (alpha == 0)
    if alpha == 1:
        assert np.isneginf(y).any()
    rebuilt = ad._reader(out)(tail)
    assert rebuilt._node is out._node and rebuilt.requires_grad
    assert rebuilt.data.tobytes() == y.tobytes()
    buf = rebuilt.data.base
    assert buf.shape == (5, 7 + tail, 6) and buf.flags.c_contiguous
    assert not buf[:, 7:].view(np.uint8).any()


@pytest.mark.parametrize("tail_value", [None, -0.0, 1.0], ids=["rebuilt", "neg_zero", "one"])
def test_kernel_gradient_reads_a_zero_tailed_input_without_a_copy(tail_value):
    """kernel_corr_len reads batch norm's rebuilt output, which comes with
    its zero tail rows, in place, and its gradient is byte-equal to the one
    over the zero-padded copy of the forward's output. A head view whose
    tail is not +0 bit for bit is copied instead."""
    x = Tensor(rng.normal(loc=0.5, scale=1.5, size=(5, 7, 6)), requires_grad=True)
    gamma, beta = Tensor(rng.normal(size=6), requires_grad=True), Tensor(rng.normal(size=6))
    out = ad.batch_norm_train(x, gamma, beta, nn.BN_EPS, 0.2)[0]
    a = Tensor(rng.normal(size=(5, 14, 4)))
    rows = 7 + 2  # T - 1 = 2 zero rows per sample for k = 5 taps at stride 2
    rebuilt = ad._reader(out)(rows - 7)
    if tail_value is not None:
        rebuilt.data.base[:, 7:] = tail_value
    got = ad._zero_tailed(rebuilt.data, rows)
    assert np.shares_memory(got, rebuilt.data) == (tail_value is None)
    assert got.tobytes() == ad._polyphase(out.data, 1, 0, rows).tobytes()
    want = ad.kernel_corr_len(a, Tensor(out.data.copy()), 2, 1, 5)
    assert ad.kernel_corr_len(a, rebuilt, 2, 1, 5).data.tobytes() == want.data.tobytes()


def test_trans_conv_kernel_vjp_rebuilds_its_input_without_a_copy():
    """After the forward, no array holds batch norm's output. The trans
    conv's kernel VJP (B=8, L=2048, c=16, one stage buffer of 1 MiB)
    rebuilds it once with its zero tail rows and reads it in place: its
    peak is that buffer, the cotangent's polyphase rows and one batch norm
    block, not a second stage buffer. The kernel gradient is byte-equal to
    one taken over the forward's output."""
    import tracemalloc

    n, L, c = 8, 2048, 16
    local = np.random.default_rng(22)
    x = Tensor(local.normal(size=(n, L, c)), requires_grad=True)
    w = Tensor(local.normal(size=(25, c, 1)) * 0.1, requires_grad=True)
    h, _, _ = ad.batch_norm_train(x, Tensor(np.ones(c)), Tensor(np.zeros(c)), nn.BN_EPS, 0.2)
    y = ad.trans_conv_len(h, w, None, 4, 10, 4 * L)
    forward_out, h_data = weakref.ref(h.data), h.data.copy()
    del h
    assert forward_out() is None
    g = Tensor(local.normal(size=y.shape))
    item = np.dtype(ad.DTYPE).itemsize
    rebuilt_bytes = n * (L + 6) * c * item  # T - 1 = 6 zero rows per sample
    polyphase_bytes = n * (L + 6) * 4 * item
    tracemalloc.start()
    try:
        (gw,) = ad.grad(y, [w], cotangent=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rebuilt_bytes + polyphase_bytes + ad._BLOCK_BYTES + 2**16
    assert peak < 2 * n * L * c * item
    plain = ad.trans_conv_len(Tensor(h_data), w, None, 4, 10, 4 * L)
    (want,) = ad.grad(plain, [w], cotangent=g)
    assert gw.data.tobytes() == want.data.tobytes()


@pytest.mark.float64
@pytest.mark.parametrize("alpha", [0.2, 0.0], ids=_bn_act_ids)
def test_kernel_gradient_over_a_rebuilt_input_is_differentiable(alpha):
    """The input a transposed conv's kernel VJP rebuilds is batch norm's
    graph vertex, so under create_graph the kernel gradient's own gradients
    in x, gamma and beta flow through batch norm's VJP."""
    running = {"mean": np.zeros(3), "var": np.ones(3)}
    local = np.random.default_rng(23)
    w0, probe = local.normal(size=(5, 3, 2)) * 0.5, Tensor(local.normal(size=(3, 8, 2)))

    def kernel_grad(x, gamma, beta):
        w = Tensor(w0, requires_grad=True)
        h = nn.batch_norm(x, gamma, beta, running, "train", alpha)
        (gw,) = ad.grad(ad.sum_(ad.mul(nn.trans_conv1d(h, w, None, 2), probe)), [w], create_graph=True)
        return gw

    assert_grads_match_fd(kernel_grad, {"x": local.normal(size=(3, 4, 3)), "gamma": local.normal(size=3),
                                        "beta": local.normal(size=3)}, 1e-6)


# ---------------------------------------------------------------------------
# leaky relu


@pytest.mark.parametrize("alpha", [0.2, 0.01, 0.3, 0.7])
@pytest.mark.parametrize("dtype", ["float32", pytest.param("float64", marks=pytest.mark.float64)])
def test_leaky_relu_is_bit_equal_to_where_form(alpha, dtype):
    """Output and gradient bytes; the VJP reads the output's sign as its
    mask, and x is left as it was."""
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-30, -1e-30]
    x0 = np.concatenate([special, rng.normal(size=200)]).astype(ad.DTYPE)
    g0 = rng.normal(size=x0.shape).astype(ad.DTYPE)
    slope = np.where(x0 > 0, ad.DTYPE(1.0), ad.DTYPE(alpha))
    x = Tensor(x0.copy(), requires_grad=True)
    y = ad.leaky_relu(x, alpha)
    (gx,) = ad.grad(y, [x], cotangent=Tensor(g0))
    assert y.data.dtype == np.dtype(dtype)
    assert y.data.tobytes() == (x0 * slope).tobytes()
    assert gx.data.tobytes() == (g0 * slope).tobytes()
    assert x.data.tobytes() == x0.tobytes()


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), 0.0])
def test_leaky_relu_rejects_alpha_outside_unit_interval(alpha):
    """0 too: max(+inf, 0*inf) would be NaN, and relu is the op for slope 0."""
    with pytest.raises(ValueError, match="alpha.*relu is the op for slope 0") as err:
        ad.leaky_relu(Tensor(np.ones(3)), alpha)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("op", [lambda t: ad.leaky_relu(t, 0.2), ad.relu],
                         ids=["leaky_relu", "relu"])
def test_relu_node_holds_no_activation_sized_array(op):
    """The slope or mask is rebuilt at backward time from the one array the
    node keeps: relu's input, or leaky_relu's output, whose sign is the
    same mask. Neither builds and keeps a mask array of the activation's
    size, and leaky_relu keeps no Tensor, so its node holds no input."""
    x = Tensor(rng.normal(size=(4, 50, 3)), requires_grad=True)
    y = op(x)
    held = [c.cell_contents for c in y._vjp.__closure__]
    arrays = [v for v in held if isinstance(v, np.ndarray) and v.size >= x.size]
    tensors = [v for v in held if isinstance(v, Tensor)]
    if op is ad.relu:
        assert arrays == [] and tensors == [x]
    else:
        assert len(arrays) == 1 and arrays[0] is y.data and tensors == []


@pytest.mark.parametrize("dtype", ["float32", pytest.param("float64", marks=pytest.mark.float64)])
def test_relu_is_max_with_zero(dtype):
    """x where x > 0, NaN where x is NaN, +0.0 elsewhere; the gradient is
    the cotangent times the float mask."""
    x0 = np.concatenate([[0.0, -0.0, np.nan, np.inf, -np.inf, 1e-30, -1e-30],
                         rng.normal(size=200)]).astype(ad.DTYPE)
    g0 = rng.normal(size=x0.shape).astype(ad.DTYPE)
    mask = (x0 > 0).astype(ad.DTYPE)
    x = Tensor(x0, requires_grad=True)
    y = ad.relu(x)
    (gx,) = ad.grad(y, [x], cotangent=Tensor(g0))
    assert y.data.dtype == np.dtype(dtype)
    assert y.data.tobytes() == np.where((x0 > 0) | np.isnan(x0), x0, ad.DTYPE(0)).tobytes()
    assert gx.data.tobytes() == (g0 * mask).tobytes()


def test_relu_of_minus_inf_is_zero_without_a_warning():
    """Warnings are errors in this suite, so an `-inf * 0` would fail here."""
    x = Tensor(np.array([-np.inf, np.inf, -1.0]), requires_grad=True)
    y = ad.relu(x)
    (gx,) = ad.grad(y, [x], cotangent=Tensor(np.ones(3)))
    assert y.data.tolist() == [0.0, np.inf, 0.0]
    assert gx.data.tolist() == [0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    ad.backward(ad.sum_(x))
    assert np.array_equal(x.grad, np.ones((3, 5)))


def test_backward_requires_graph():
    with pytest.raises(ad.GraphError):
        ad.backward(Tensor(np.array(1.0)))


def test_backward_accumulates_shared_input():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.mul(Tensor(3.0), x))  # x^2 + 3x -> 2x + 3 = 7
    ad.backward(ad.sum_(y))
    assert np.allclose(x.grad, [7.0])


def test_matmul_bias_is_bit_equal_to_an_add_after_the_matmul():
    """matmul with a bias is one node whose value and three gradients are
    byte-equal to those of an add after a bias-free matmul."""
    a0, w0, b0, g0 = (rng.normal(size=s).astype(ad.DTYPE) for s in ((5, 7), (7, 3), (3,), (5, 3)))

    def run(layer):
        a, w, b = (Tensor(v, requires_grad=True) for v in (a0, w0, b0))
        y = layer(a, w, b)
        return y, [y.data.tobytes()] + [g.data.tobytes() for g in ad.grad(y, [a, w, b], cotangent=Tensor(g0))]

    fused, got = run(lambda a, w, b: ad.matmul(a, w, b))
    _, want = run(lambda a, w, b: ad.add(ad.matmul(a, w, None), b))
    assert got == want
    assert len(fused._parents) == 3 and all(isinstance(p, Tensor) for p in fused._parents)  # one node


@pytest.mark.parametrize("op", [ad.mul, ad.sub, ad.div])
def test_binary_vjps_skip_a_constant_operand(op):
    """Under backward, a mul, sub or div by a constant returns None for the
    constant instead of computing its full-size gradient and dropping it."""
    x = Tensor(rng.uniform(1, 2, size=(3, 4)), requires_grad=True)
    for args, const in (((x, Tensor(rng.uniform(1, 2, size=(3, 4)))), 1),
                        ((Tensor(rng.uniform(1, 2, size=4)), x), 0)):
        out = op(*args)
        vjp, seen = out._node._vjp, []
        out._node._vjp = lambda g, need: seen.append(vjp(g, need)) or seen[-1]
        ad.backward(ad.sum_(out))
        assert seen[0][const] is None and seen[0][1 - const] is not None


def _layer_cases():
    k1 = rng.normal(size=(5, 2, 3)) * 0.5
    k2 = rng.normal(size=(3, 3, 2, 3)) * 0.5
    wd = rng.normal(size=(6, 4)) * 0.5
    return [
        ("conv1d", (2, 9, 2), lambda t: nn.conv1d(t, Tensor(k1), Tensor(np.ones(3)), 2)),
        ("trans_conv1d", (2, 4, 2), lambda t: nn.trans_conv1d(t, Tensor(k1), None, 2)),
        # 7 and 5 are not multiples of the stride: uneven SAME pads on both axes
        ("conv2d", (2, 7, 5, 2), lambda t: nn.conv2d(t, Tensor(k2), Tensor(np.zeros(3)), 2)),
        ("maxpool2d", (2, 4, 4, 3), lambda t: nn.maxpool2d(t)),
        ("dense", (3, 6), lambda t: ad.matmul(t, Tensor(wd), Tensor(np.ones(4)))),
        ("leaky_relu", (3, 7, 2), lambda t: ad.leaky_relu(t, 0.2)),
        ("relu", (3, 7, 2), lambda t: ad.relu(t)),
        ("tanh", (3, 7), lambda t: ad.tanh(t)),
        ("crop", (2, 11, 2), lambda t: nn.crop_center(t, 7)),
        ("reshape", (2, 6, 2), lambda t: ad.reshape(t, (2, 12))),
        ("phase_shuffle", (2, 9, 2),
         lambda t: ad.shift_len(t, np.array([[1, -2], [0, 2]]), 2)),
    ]


@pytest.mark.float64
@pytest.mark.parametrize("name,shape,layer", _layer_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_layer_gradients_match_fd(name, shape, layer):
    assert_grads_match_fd(lambda x: layer(x), {"x": rng.normal(size=shape)}, 1e-4)


def test_maxpool2d_tie_sends_gradient_to_top_left():
    x0 = np.full((1, 4, 4, 2), 0.5)
    x0[0, 2, 3, 1] = 0.9
    x = Tensor(x0, requires_grad=True)
    y = nn.maxpool2d(x)
    ad.backward(ad.sum_(y))
    assert np.array_equal(y.data[..., 0], np.full((1, 2, 2), 0.5))
    expect = np.zeros_like(x0)
    expect[0, ::2, ::2, :] = 1.0
    expect[0, 2, 2, 1], expect[0, 2, 3, 1] = 0.0, 1.0
    assert np.array_equal(x.grad, expect)


def _reference_maxpool2d(x, g):
    """The pool and its VJP in their earlier gather form, kept as a reference:
    the flat offset of each window's maximum, a gather along the flattened
    rows (take_len) and a scatter-add of the cotangent into zeros (scatter_len)."""
    n, H, W, c = x.shape
    Ho, Wo = H // 2, W // 2
    best = x[:, ::2, ::2]
    offset = np.zeros(best.shape, dtype=np.intp)
    for i in range(2):
        for j in range(2):
            cand = x[:, i::2, j::2]
            take = cand > best
            best = np.where(take, cand, best)
            offset = np.where(take, i * W + j, offset)
    corner = 2 * (W * np.arange(Ho)[:, None] + np.arange(Wo))
    idx = (offset + corner[None, :, :, None]).reshape(n, Ho * Wo, c)
    y = np.take_along_axis(x.reshape(n, H * W, c), idx, axis=1).reshape(n, Ho, Wo, c)
    acc = np.zeros((n, H * W, c), dtype=x.dtype)
    np.add.at(acc, (np.arange(n)[:, None, None], idx, np.arange(c)), g.reshape(n, Ho * Wo, c))
    return y, acc.reshape(x.shape)


@st.composite
def _pool_cases(draw):
    shape = (draw(st.integers(0, 3)), 2 * draw(st.integers(1, 5)), 2 * draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    # few distinct values, so windows tie; -0.0 ties with 0.0 but is another byte pattern
    x = draw(arrays(ad.DTYPE, shape, elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])))
    half = (shape[0], shape[1] // 2, shape[2] // 2, shape[3])
    g = draw(arrays(ad.DTYPE, half, elements=st.sampled_from([0.0, -0.0, 1.5, -2.0])))
    return x, g


@pytest.mark.parametrize("dtype", ["float32", pytest.param("float64", marks=pytest.mark.float64)])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=_pool_cases())
def test_maxpool2d_is_byte_equal_to_the_gather_form(dtype, case):
    x0, g0 = case
    assert x0.dtype == ad.DTYPE == np.dtype(dtype)
    x = Tensor(x0, requires_grad=True)
    y = nn.maxpool2d(x)
    (gx,) = ad.grad(y, [x], cotangent=Tensor(g0))
    y_ref, gx_ref = _reference_maxpool2d(x0, g0)
    assert y._parents == (x,)  # one node
    assert y.data.dtype == gx.data.dtype == x0.dtype
    assert y.data.tobytes() == y_ref.tobytes()
    assert gx.data.tobytes() == gx_ref.tobytes()


def _whole_array_maxpool2d(x, g):
    """The pool and its VJP over the whole batch at once, as they were
    before they ran in blocks of samples: the reference for the blocks."""
    n, H, W, c = x.shape
    win = x.reshape(n, H // 2, 2, W // 2, 2, c)
    best = win[:, :, 0, :, 0]
    arg = np.zeros(best.shape, dtype=np.uint8)
    for k, (i, j) in enumerate(((0, 1), (1, 0), (1, 1)), 1):
        take = win[:, :, i, :, j] > best
        best = np.where(take, win[:, :, i, :, j], best)
        arg = np.where(take, np.uint8(k), arg)
    gx = np.empty_like(x)
    gwin = gx.reshape(win.shape)
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.add(np.where(arg == k, g, 0), 0, out=gwin[:, :, i, :, j])
    return best, gx


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=_pool_cases(), n=st.integers(0, 5))
def test_maxpool2d_blocks_are_byte_equal_to_the_whole_array_form(case, n):
    """Blocks of two samples, so that an odd batch ends in a short block;
    the values tie, and hold NaN, infinities and both zeros."""
    x1, g1 = case
    x0 = np.resize(x1, (n, *x1.shape[1:]))
    g0 = np.resize(g1, (n, *g1.shape[1:]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_BLOCK_BYTES", 2 * max(1, x0[:1].nbytes))
        x = Tensor(x0, requires_grad=True)
        y = nn.maxpool2d(x)
        (gx,) = ad.grad(y, [x], cotangent=Tensor(g0))
    y_ref, gx_ref = _whole_array_maxpool2d(x0, g0)
    assert y.data.tobytes() == y_ref.tobytes()
    assert gx.data.tobytes() == gx_ref.tobytes()


def test_maxpool2d_temporaries_are_one_block(monkeypatch):
    """17 samples in blocks of two: beyond the pooled output and its uint8
    winner positions, the forward's peak is one block; beyond x's gradient,
    the VJP's is under one block. Over the whole batch at once both were
    more than three blocks here."""
    import tracemalloc

    shape = (17, 16, 16, 16)
    block = 2 * int(np.prod(shape[1:])) * np.dtype(ad.DTYPE).itemsize
    monkeypatch.setattr(ad, "_BLOCK_BYTES", block)
    local = np.random.default_rng(37)
    x = Tensor(local.normal(size=shape), requires_grad=True)
    g = Tensor(local.normal(size=(17, 8, 8, 16)))
    tracemalloc.start()
    try:
        y = ad.max_pool_2x2(x)
        forward_peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        (gx,) = ad.grad(y, [x], cotangent=g)
        vjp_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak - y.data.nbytes - y.data.size < block + 2**12
    assert vjp_peak - before - gx.data.nbytes < block


def test_maxpool2d_has_no_second_order_gradient():
    x = Tensor(rng.normal(size=(2, 4, 6, 3)), requires_grad=True)
    loss = ad.sum_(ad.mul(nn.maxpool2d(x), Tensor(rng.normal(size=(2, 2, 3, 3)))))
    ad.grad(loss, [x])
    with pytest.raises(ad.GraphError, match="second-order") as err:
        ad.grad(loss, [x], create_graph=True)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("shape", [(1, 3, 4, 2), (2, 4, 5, 1)])
def test_maxpool2d_rejects_odd_spatial_dims(shape):
    with pytest.raises(ValueError, match=r"^maxpool2d needs even spatial dims, got \d+ x \d+$"):
        nn.maxpool2d(Tensor(np.zeros(shape)))


@pytest.mark.float64
def test_composed_network_gradient_matches_fd():
    w1 = rng.normal(size=(5, 1, 2)) * 0.4
    w2 = rng.normal(size=(5, 2, 3)) * 0.4
    wd = rng.normal(size=(9, 1)) * 0.4

    def forward(x, w1, w2, wd):
        h = ad.leaky_relu(nn.conv1d(x, w1, None, 2), 0.2)
        h = ad.tanh(nn.conv1d(h, w2, None, 2))
        return ad.sum_(ad.matmul(ad.reshape(h, (h.shape[0], 9)), wd, None))

    assert_grads_match_fd(forward, {"x": rng.normal(size=(3, 12, 1)), "w1": w1, "w2": w2, "wd": wd}, 1e-4)


@pytest.mark.float64
def test_kernel_corr_gradients_match_fd():
    """The kernel-gradient op's own VJPs, used when a weight gradient is
    differentiated again."""
    arrays = {"a": rng.normal(size=(2, 30, 2)), "g": rng.normal(size=(2, 8, 3))}
    assert_grads_match_fd(lambda a, g: ad.kernel_corr_len(a, g, 4, 11, 25), arrays, 1e-6)


# ---------------------------------------------------------------------------
# conv group widths: one group of all the taps, or stride-wide groups


def _conv_args(op, L, k, stride):
    """(pl, out_len) of the SAME conv1d / trans_conv1d for an input of length L."""
    if op == "conv":
        out_len, pl, _ = nn.same_pads_1d(L, k, stride)
        return pl, out_len
    return (k - stride) // 2, L * stride


# (op, x shape, kernel shape, stride, takes one group)
_WIDTH_CASES = [
    ("conv", (2, 13, 1), (5, 1, 3), 2, True),      # c_in = 1 < c_out
    ("conv", (2, 13, 4), (5, 4, 1), 2, False),     # c_in > c_out
    ("conv", (6, 9, 3), (3, 3, 4), 2, True),       # conv2d's first layer: 3 unfolded rows of 1 channel
    ("conv", (2, 30, 1), (25, 1, 3), 4, True),     # the paper's kernel, uneven SAME pads
    ("trans", (2, 6, 1), (5, 1, 3), 2, True),
    ("trans", (2, 6, 4), (5, 4, 1), 2, False),
    ("trans", (2, 7, 1), (25, 1, 2), 4, True),
]
_width_ids = [f"{c[0]}-{'one' if c[4] else 'stride'}-{c[1]}>{c[2][2]}" for c in _WIDTH_CASES]


def _run_conv(op, x, w, b, stride):
    pl, out_len = _conv_args(op, x.shape[1], w.shape[0], stride)
    f = ad.conv_len if op == "conv" else ad.trans_conv_len
    return f(x, w, b, stride, pl, out_len)


@pytest.mark.parametrize("op,x_shape,w_shape,stride,one", _WIDTH_CASES, ids=_width_ids)
def test_conv_group_width_rule(op, x_shape, w_shape, stride, one):
    """The width rule, from the shapes conv_len and trans_conv_len pass it."""
    _, ci, co = w_shape
    if op == "conv":
        assert ad._one_group(stride * ci, co, transposed=False) == one
    else:
        assert ad._one_group(ci, stride * co, transposed=True) == one


@pytest.mark.float64
@pytest.mark.parametrize("op,x_shape,w_shape,stride,one", _WIDTH_CASES, ids=_width_ids)
def test_conv_group_widths_match_fd(op, x_shape, w_shape, stride, one, monkeypatch):
    """Through create_graph, the input gradient's own gradients in the
    kernel and in the cotangent, at the width each case names."""
    monkeypatch.setattr(ad, "_one_group", lambda *args, **kwargs: one)
    x0, w0 = rng.normal(size=x_shape), rng.normal(size=w_shape) * 0.3
    p0 = rng.normal(size=_run_conv(op, Tensor(x0), Tensor(w0), None, stride).shape)

    def input_grad(w, p):
        x = Tensor(x0, requires_grad=True)
        (gx,) = ad.grad(ad.sum_(ad.mul(_run_conv(op, x, w, None, stride), p)), [x], create_graph=True)
        return gx

    assert_grads_match_fd(input_grad, {"w": w0, "p": p0}, 1e-6)


def test_one_group_buffer_is_bounded_by_the_chunk():
    """A paper-size thin conv (tconv5's input gradient) allocates its
    output, the padded input and one chunk of windows, never the full
    unrolled [rows, k*c_in] matrix."""
    import tracemalloc

    x = Tensor(rng.normal(size=(64, 8192, 1)))
    w = Tensor(rng.normal(size=(25, 1, 16)))
    pl, out_len = _conv_args("conv", 8192, 25, 4)
    item = np.dtype(ad.DTYPE).itemsize
    out_bytes = 64 * out_len * 16 * item
    padded_bytes = 64 * (out_len + 6) * 4 * item
    unrolled_bytes = 64 * out_len * 25 * item
    tracemalloc.start()
    try:
        y = ad.conv_len(x, w, None, 4, pl, out_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (64, out_len, 16)
    assert unrolled_bytes > ad._CHUNK_BYTES
    assert peak < out_bytes + padded_bytes + ad._CHUNK_BYTES + 2**16


# ---------------------------------------------------------------------------
# 2-D convolution: a row unfold and conv_len along the width

_CONV2D_CASES = [
    ((2, 7, 5, 2), (3, 3, 2, 3), 2),
    ((3, 9, 11, 1), (3, 3, 1, 4), 2),   # one input channel, as the classifier's first layer
    ((2, 5, 4, 3), (2, 3, 3, 2), 3),    # kh != kw, stride 3
    ((2, 4, 4, 2), (3, 3, 2, 2), 1),
    ((1, 1, 1, 2), (3, 3, 2, 2), 2),    # every tap but the centre reads padding
]


def _direct_conv2d(x, w, b, stride):
    """SAME cross-correlation as a sum over the kernel taps of a zero-padded map."""
    n, H, W, _ = x.shape
    kh, kw, _, co = w.shape
    Ho, pt, _ = nn.same_pads_1d(H, kh, stride)
    Wo, pl, _ = nn.same_pads_1d(W, kw, stride)
    xp = np.pad(x, ((0, 0), (pt, stride * Ho + kh), (pl, stride * Wo + kw), (0, 0)))
    y = np.zeros((n, Ho, Wo, co)) + b
    for i in range(kh):
        for j in range(kw):
            y += xp[:, i : i + stride * Ho : stride, j : j + stride * Wo : stride] @ w[i, j]
    return y


@pytest.mark.float64
@pytest.mark.parametrize("x_shape,w_shape,stride", _CONV2D_CASES)
def test_conv2d_matches_direct_sum(x_shape, w_shape, stride):
    x, w, b = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[3])
    y = nn.conv2d(Tensor(x), Tensor(w), Tensor(b), stride)
    assert np.allclose(y.data, _direct_conv2d(x, w, b, stride), rtol=0, atol=1e-12)


@pytest.mark.float64
@pytest.mark.parametrize("x_shape,w_shape,stride", _CONV2D_CASES[:3])
def test_conv2d_gradients_match_fd(x_shape, w_shape, stride):
    """Input, kernel and bias gradients against finite differences."""
    arrays = {"x": rng.normal(size=x_shape), "w": rng.normal(size=w_shape) * 0.5,
              "b": rng.normal(size=w_shape[3])}
    assert_grads_match_fd(lambda x, w, b: nn.conv2d(x, w, b, stride), arrays, 1e-6)


@pytest.mark.float64
@pytest.mark.parametrize("H,out_h,pt", [(7, 4, 1), (5, 2, 0), (4, 3, 0), (1, 1, 1)])
def test_unfold_rows_vjp_and_its_vjp_match_fd(H, out_h, pt):
    """unfold_rows' gradient and, through create_graph, the gradient of
    that gradient (fold_rows' VJP). (4, 3, 0) reads past the last row."""
    kh, stride = 3, 2
    x0, p0 = rng.normal(size=(2, H, 3, 2)), rng.normal(size=(2 * out_h, 3, kh * 2))

    def fold_by_grad(p):
        x = Tensor(x0, requires_grad=True)
        (gx,) = ad.grad(ad.sum_(ad.mul(ad.unfold_rows(x, kh, stride, pt, out_h), p)), [x], create_graph=True)
        return gx

    assert_grads_match_fd(lambda x: ad.unfold_rows(x, kh, stride, pt, out_h), {"x": x0}, 1e-8)
    assert_grads_match_fd(fold_by_grad, {"p": p0}, 1e-8)


# ---------------------------------------------------------------------------
# the linear ops against direct sums and gathers, with each VJP as their adjoint

_PROPERTY = settings(derandomize=True, database=None, deadline=None)
_SEEDS = st.integers(0, 2**32 - 1)


def _assert_linear_op(op, args, expect, r):
    """op(*args) equals `expect`, and each argument's VJP, run through
    ad.grad, is the op's adjoint in that argument: for a random cotangent
    c, <op(a, b), c> = <a, vjp_a(c)> = <b, vjp_b(c)>."""
    tensors = [Tensor(a, requires_grad=True) for a in args]
    out = op(*tensors)
    assert out.shape == expect.shape
    assert np.allclose(out.data, expect, rtol=0, atol=1e-10)
    c = r.normal(size=out.shape)
    value = np.sum(out.data * c)
    for a, g in zip(args, ad.grad(out, tensors, cotangent=Tensor(c))):
        assert np.isclose(np.sum(a * g.data), value, rtol=1e-9, atol=1e-9)


def _index_map(n_out, k, stride, pad, n_in):
    """m[o, j, i] = 1 where output o meets input i through tap j of a
    stride-`stride` window, i = o*stride + j - pad, for i in [0, n_in)."""
    o, j = np.ogrid[:n_out, :k]
    return ((o * stride + j - pad)[..., None] == np.arange(n_in)).astype(float)


@st.composite
def _conv_cases(draw):
    """(n, L, c_in, c_out, stride, k, pl, out_len, same). A SAME case has L a
    multiple of the stride, k >= stride and the pads of nn.same_pads_1d;
    otherwise pl may pass every row the output reads."""
    same, stride = draw(st.booleans()), draw(st.integers(1, 4))
    k, L = draw(st.integers(stride if same else 1, 25)), draw(st.integers(1, 40))
    if same:
        L = -(-L // stride) * stride
        out_len, pl, _ = nn.same_pads_1d(L, k, stride)
    else:
        pl, out_len = draw(st.integers(0, 30)), draw(st.integers(1, 14))
    n, ci, co = draw(st.integers(0, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return n, L, ci, co, stride, k, pl, out_len, same


@pytest.mark.float64
@settings(_PROPERTY, max_examples=100)
@given(case=_conv_cases(), one=st.booleans(), chunk=st.sampled_from([64, 512, 4 * 2**20]), seed=_SEEDS)
def test_conv_ops_match_index_map_sums(case, one, chunk, seed):
    """conv_len with and without bias, trans_conv_len (out_len -> L, kernel
    channels swapped) and kernel_corr_len against sums over the index map,
    at either group width and with window blocks of 64 B to 4 MiB. A SAME
    case goes through nn.conv1d and nn.trans_conv1d."""
    n, L, ci, co, stride, k, pl, out_len, same = case
    r = np.random.default_rng(seed)
    x, w, b, g = (r.normal(size=s) for s in ((n, L, ci), (k, ci, co), co, (n, out_len, co)))
    m = _index_map(out_len, k, stride, pl, L)
    if same:
        def conv(x, w, b=None):
            return nn.conv1d(x, w, b, stride)

        def trans(g, w):
            return nn.trans_conv1d(g, w, None, stride)
    else:
        def conv(x, w, b=None):
            return ad.conv_len(x, w, b, stride, pl, out_len)

        def trans(g, w):
            return ad.trans_conv_len(g, w, None, stride, pl, L)

    def bias(b):
        return ad.sub(conv(Tensor(x), Tensor(w), b), conv(Tensor(x), Tensor(w)))

    with mock.patch.object(ad, "_one_group", lambda *args, **kwargs: one), mock.patch.object(ad, "_CHUNK_BYTES", chunk):
        _assert_linear_op(conv, (x, w), np.einsum("oji,nic,jcd->nod", m, x, w), r)
        _assert_linear_op(bias, (b,), np.broadcast_to(b, (n, out_len, co)), r)
        _assert_linear_op(trans, (g, w.transpose(0, 2, 1)), np.einsum("oji,nod,jcd->nic", m, g, w), r)
        _assert_linear_op(lambda x, g: ad.kernel_corr_len(x, g, stride, pl, k), (x, g),
                          np.einsum("oji,nic,nod->jcd", m, x, g), r)


@pytest.mark.float64
@settings(_PROPERTY, max_examples=50)
@given(b=st.integers(0, 3), L=st.integers(1, 9), c=st.integers(1, 3), n=st.integers(1, 3), seed=_SEEDS)
def test_shift_ops_match_the_reflected_gather(b, L, c, n, seed):
    """shift_len against the gather of a[min(s, 2L-1-s)], s = (t + shift)
    mod 2L, and unshift_len against its scatter-add; L < n occurs."""
    r = np.random.default_rng(seed)
    shifts = r.integers(-n, n + 1, size=(b, c))
    s = (np.arange(L)[:, None, None] + shifts) % (2 * L)
    m = (np.minimum(s, 2 * L - 1 - s)[..., None] == np.arange(L)).astype(float)  # [t, b, c, source]
    x, g = r.normal(size=(b, L, c)), r.normal(size=(b, L, c))
    _assert_linear_op(lambda x: ad.shift_len(x, shifts, n), (x,), np.einsum("tbcl,blc->btc", m, x), r)
    _assert_linear_op(lambda g: ad.unshift_len(g, shifts, n), (g,), np.einsum("tbcl,btc->blc", m, g), r)


@pytest.mark.float64
@settings(_PROPERTY, max_examples=50)
@given(n=st.integers(0, 2), H=st.integers(1, 7), W=st.integers(1, 3), c=st.integers(1, 2),
       kh=st.integers(1, 4), stride=st.integers(1, 3), pt=st.integers(0, 4), out_h=st.integers(1, 5), seed=_SEEDS)
def test_unfold_ops_match_the_row_gather(n, H, W, c, kh, stride, pt, out_h, seed):
    """unfold_rows against a direct gather of rows o*stride + i - pt and
    fold_rows against its scatter-add, n = 0 included."""
    r = np.random.default_rng(seed)
    m = _index_map(out_h, kh, stride, pt, H)
    a, g = r.normal(size=(n, H, W, c)), r.normal(size=(n * out_h, W, kh * c))
    _assert_linear_op(lambda a: ad.unfold_rows(a, kh, stride, pt, out_h), (a,),
                      np.einsum("oih,nhwc->nowic", m, a).reshape(g.shape), r)
    _assert_linear_op(lambda g: ad.fold_rows(g, kh, stride, pt, out_h, (n, H)), (g,),
                      np.einsum("oih,nowic->nhwc", m, g.reshape(n, out_h, W, kh, c)), r)


@pytest.mark.float64
@settings(_PROPERTY, max_examples=50)
@given(n=st.integers(0, 2), L=st.integers(1, 9), c=st.integers(1, 3), left=st.integers(0, 4),
       right=st.integers(0, 4), seed=_SEEDS)
def test_pad_and_crop_match_their_slices(n, L, c, left, right, seed):
    """pad_len against np.pad and crop_len against a slice."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, L, c))
    start, stop = sorted(int(v) for v in r.integers(0, L + 1, size=2))
    _assert_linear_op(lambda x: ad.pad_len(x, left, right), (x,), np.pad(x, ((0, 0), (left, right), (0, 0))), r)
    _assert_linear_op(lambda x: ad.crop_len(x, start, stop), (x,), x[:, start:stop], r)


# ---------------------------------------------------------------------------
# graph release


def _tiny_graph():
    x = Tensor(rng.normal(size=(2, 9, 1)))
    w = Tensor(rng.normal(size=(3, 1, 2)), requires_grad=True)
    h = ad.tanh(nn.conv1d(x, w, None, 2))  # tanh's VJP captures its own output
    return w, h, ad.sum_(ad.mul(h, h))


def test_backward_frees_graph_without_gc():
    gc.disable()
    try:
        w, h, loss = _tiny_graph()
        alive = weakref.ref(h.data)
        del h
        ad.backward(loss)
        del loss
        assert alive() is None
        assert w.grad is not None
    finally:
        gc.enable()


def _unread_conv_graph():
    """A conv whose output only tanh reads (tanh's VJP reads its own output,
    not its input), with the conv output dropped as Network.forward drops
    it; returns w, the loss and a weakref to the conv output's array."""
    x = Tensor(rng.normal(size=(2, 9, 1)))
    w = Tensor(rng.normal(size=(3, 1, 2)), requires_grad=True)
    h = nn.conv1d(x, w, None, 2)
    alive = weakref.ref(h.data)
    t = ad.tanh(h)
    del h
    return w, ad.sum_(ad.mul(t, t)), alive


def test_backward_frees_an_unread_output_before_its_own_vjp_runs():
    """No VJP reads the conv output and no node holds data, so the array is
    dead as soon as the forward drops it, before either walk starts; both
    walks still reach w, and two grad walks agree byte for byte."""
    gc.disable()
    try:
        w, loss, alive = _unread_conv_graph()
        assert alive() is None
        ad.backward(loss)
        assert w.grad is not None

        w, loss, alive = _unread_conv_graph()
        assert alive() is None
        (g1,) = ad.grad(loss, [w])
        (g2,) = ad.grad(loss, [w])
        assert g1.data.tobytes() == g2.data.tobytes()
    finally:
        gc.enable()


def test_backward_sets_grad_on_leaves_only():
    w, h, loss = _tiny_graph()
    ad.backward(loss)
    assert w.grad is not None
    assert h.grad is None and loss.grad is None


def test_second_backward_raises_graph_error():
    _, _, loss = _tiny_graph()
    ad.backward(loss)
    with pytest.raises(ad.GraphError, match="consumed") as err:
        ad.backward(loss)
    assert "\n" not in str(err.value)


def test_grad_keeps_graph():
    w, _, loss = _tiny_graph()
    (g1,) = ad.grad(loss, [w])
    (g2,) = ad.grad(loss, [w])
    ad.backward(loss)
    assert np.array_equal(g1.data, g2.data)
    assert np.array_equal(w.grad, g1.data)


# ---------------------------------------------------------------------------
# cotangent ownership: leaky_relu's and batch_norm_train's VJPs write over a
# cotangent the walk owns


_OWN_SHAPE = (3, 8, 4)


def _bn(t, alpha=0.2):
    c = t.shape[-1]
    gamma = Tensor(np.linspace(0.5, 1.5, c), requires_grad=True)
    beta = Tensor(np.linspace(-0.3, 0.3, c), requires_grad=True)
    return ad.batch_norm_train(t, gamma, beta, nn.BN_EPS, alpha)[0], [gamma, beta]


def _ownership_cases():
    """name -> f(a, b) giving (output, interior tensors to differentiate
    too). Each graph ends in neg, whose VJP hands the ops before it a fresh
    cotangent, so only the aliasing named decides ownership."""
    flat = (_OWN_SHAPE[0], -1)

    def two_consumers(a, b):  # add hands one cotangent to both leaky ReLUs
        return ad.neg(ad.add(ad.leaky_relu(a, 0.2), ad.leaky_relu(b, 0.2))), []

    def leaf_and_node(a, b):  # the leaf a and leaky_relu(a) get the one cotangent
        return ad.neg(ad.add(a, ad.leaky_relu(a, 0.2))), []

    def views(view):  # views of one cotangent reach a leaky ReLU and a batch norm
        def f(a, b):
            h, params = _bn(b)
            return ad.neg(ad.add(view(ad.leaky_relu(a, 0.2)), view(h))), params
        return f

    def kept(a, b):  # the inner leaky ReLU's and batch norm's cotangents are returned
        inner = ad.leaky_relu(a, 0.2)
        h, params = _bn(b, alpha=0.0)
        return ad.neg(ad.add(ad.leaky_relu(inner, 0.2), ad.leaky_relu(h, 0.2))), [inner, h, *params]

    return {
        "two_consumers": two_consumers,
        "leaf_and_node": leaf_and_node,
        "reshape_views": views(lambda t: ad.reshape(t, flat)),
        "transpose_views": views(lambda t: ad.transpose(t, (2, 0, 1))),
        "kept_vertex": kept,
    }


def _walk_case(build):
    """The gradients of one case under grad with a seed, and the leaf
    gradients of a backward over the same graph; the seed is left as it was."""
    local = np.random.default_rng(31)
    a, b = (Tensor(local.normal(size=_OWN_SHAPE), requires_grad=True) for _ in range(2))
    out, interior = build(a, b)
    cot0 = local.normal(size=out.shape).astype(ad.DTYPE)
    cot = Tensor(cot0.copy())
    grads = ad.grad(out, [a, b, *interior], cotangent=cot)
    ad.backward(ad.sum_(ad.mul(out, cot)))
    assert cot.data.tobytes() == cot0.tobytes()
    leaves = [t for t in (a, b, *interior) if t._node is None and t.grad is not None]
    return [g.data.tobytes() for g in grads] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("case", list(_ownership_cases()))
def test_owned_cotangents_give_the_gradients_of_a_walk_that_owns_none(case, monkeypatch):
    build = _ownership_cases()[case]
    owning = _walk_case(build)
    monkeypatch.setattr(ad, "_owned", lambda g, holders: False)
    assert owning == _walk_case(build)


def _owned_decisions(build, monkeypatch, **kw):
    """The `owned` flags the marked VJPs get in one grad walk of build's graph."""
    decisions, owned = [], ad._owned
    monkeypatch.setattr(ad, "_owned", lambda g, holders: decisions.append(owned(g, holders)) or decisions[-1])
    local = np.random.default_rng(33)
    a, b = (Tensor(local.normal(size=_OWN_SHAPE), requires_grad=True) for _ in range(2))
    out, interior = build(a, b)
    # a C-contiguous seed: ones_like(out) would follow a transposed out's layout
    ad.grad(out, [a, b, *interior], cotangent=Tensor(np.ones(out.shape)), **kw)
    return decisions


@pytest.mark.parametrize("case,want", [
    ("two_consumers", [False, True]),  # the second consumer runs after the first read it
    ("leaf_and_node", [False]),
    ("reshape_views", [False, True]),
    ("transpose_views", [False, False]),  # not C-contiguous
    ("kept_vertex", [False, True, False, False]),  # the outer two as two consumers; the kept two never
])
def test_walk_owns_a_cotangent_only_when_nothing_else_holds_its_buffer(case, want, monkeypatch):
    assert sorted(_owned_decisions(_ownership_cases()[case], monkeypatch)) == sorted(want)


def test_walk_owns_nothing_under_create_graph(monkeypatch):
    def build(a, b):
        return ad.neg(ad.leaky_relu(a, 0.2)), []
    assert _owned_decisions(build, monkeypatch) == [True]
    assert _owned_decisions(build, monkeypatch, create_graph=True) == []


@pytest.mark.parametrize("op", ["leaky_relu", "batch_norm", "reshaped_leaky_relu"])
def test_a_seed_reused_across_grad_calls_is_never_written_over(op, monkeypatch):
    """As the benchmark's layer table does: grad(y, wrt, cotangent=cot) three
    times with one cot, straight into the op or through a reshape view."""
    local = np.random.default_rng(34)
    x = Tensor(local.normal(size=_OWN_SHAPE), requires_grad=True)
    wrt = [x]
    if op == "batch_norm":
        y, params = _bn(x)
        wrt += params
    else:
        y = ad.leaky_relu(x, 0.2)
        if op == "reshaped_leaky_relu":
            y = ad.reshape(y, (_OWN_SHAPE[0], -1))
    cot0 = local.normal(size=y.shape).astype(ad.DTYPE)
    cot = Tensor(cot0.copy())
    runs = [[g.data.tobytes() for g in ad.grad(y, wrt, cotangent=cot)] for _ in range(3)]
    assert cot.data.tobytes() == cot0.tobytes()
    monkeypatch.setattr(ad, "_owned", lambda g, holders: False)
    assert runs == [[g.data.tobytes() for g in ad.grad(y, wrt, cotangent=cot)]] * 3


def test_leaky_relu_backward_allocates_no_slope_or_product():
    """backward through one (64, 1280, 16) leaky ReLU node, the denoiser's
    tconv3 output: the walk's peak above what is live before it is the
    cotangent that sum_'s VJP allocates plus row blocks, because the VJP
    writes g times the slope over that cotangent. Allocating the slope and
    the product, as a VJP that owns nothing does, adds two activations."""
    import tracemalloc

    shape = (64, 1280, 16)
    tracemalloc.start()
    try:
        x = Tensor(np.random.default_rng(35).normal(size=shape), requires_grad=True)
        loss = ad.sum_(ad.leaky_relu(x, 0.2))
        act = x.data.nbytes
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < act + 2**20
    assert x.grad.tobytes() == np.where(x.data > 0, ad.DTYPE(1), ad.DTYPE(0.2)).tobytes()


@pytest.mark.parametrize("alpha", [0.2, 0.0, 1.0])
def test_batch_norm_vjp_on_an_owned_cotangent_allocates_one_activation_less(alpha):
    """The VJP writes g times the slope and then x's gradient over an owned
    g, and over one fresh activation-sized buffer otherwise, with the same
    bits either way."""
    import tracemalloc

    shape = (64, 1024, 8)
    local = np.random.default_rng(36)
    x = Tensor(local.normal(loc=0.5, size=shape), requires_grad=True)
    y, _ = _bn(x, alpha)
    g0 = local.normal(size=shape).astype(ad.DTYPE)
    results, peaks = {}, {}
    for owned in (False, True):
        g = Tensor(g0.copy())
        tracemalloc.start()
        try:
            with ad.no_grad():  # as in a walk without create_graph
                results[owned] = y._vjp(g, [True, True, True], owned)
            peaks[owned] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(results[owned][0].data, g.data) == owned
    assert [t.data.tobytes() for t in results[True]] == [t.data.tobytes() for t in results[False]]
    act = x.data.nbytes
    assert peaks[False] - peaks[True] > act - 2**16
    assert peaks[True] < act // 2


# ---------------------------------------------------------------------------
# crop


def test_crop_table_sizes():
    x = Tensor(np.arange(8192, dtype=np.float64)[None, :, None])
    out = nn.crop_center(x, 5000)
    assert out.shape == (1, 5000, 1)
    assert out.data[0, 0, 0] == 1596.0  # (8192 - 5000) // 2 dropped in front
    x = Tensor(np.arange(5120, dtype=np.float64)[None, :, None])
    out = nn.crop_center(x, 5000)
    assert out.data[0, 0, 0] == 60.0


def test_crop_identity_and_error():
    x = Tensor(rng.normal(size=(2, 7, 1)))
    assert np.array_equal(nn.crop_center(x, 7).data, x.data)
    with pytest.raises(ValueError):
        nn.crop_center(x, 8)


# ---------------------------------------------------------------------------
# adam


def _param(values, grad):
    p = Tensor(np.asarray(values), requires_grad=True)
    p.grad = np.asarray(grad, dtype=ad.DTYPE)
    return p


def test_adam_zero_gradient_keeps_params():
    p = {"w": _param([1.0, -2.0], np.zeros(2))}
    before = p["w"].data.copy()
    adam_step(p, AdamState(alpha=1e-4, beta1=0.9, beta2=0.999))
    assert np.array_equal(p["w"].data, before)


def test_adam_skips_a_parameter_without_gradient():
    p = {"w": _param([1.0], [1.0]), "b": Tensor(np.array([2.0]), requires_grad=True)}
    state = adam_step(p, AdamState(alpha=1e-4, beta1=0.9, beta2=0.999))
    assert p["b"].data[0] == 2.0 and list(state.first_moment) == ["w"]


@pytest.mark.float64
def test_adam_first_step_is_minus_alpha():
    p = {"w": _param([0.5], np.ones(1))}
    state = AdamState(alpha=1e-4, beta1=0.9, beta2=0.999)
    adam_step(p, state)
    delta = p["w"].data[0] - 0.5
    assert abs(delta + 1e-4) < 1e-9


def test_adam_deterministic():
    def run():
        g = np.random.default_rng(5)
        p = {"w": Tensor(g.normal(size=4), requires_grad=True)}
        state = AdamState(alpha=1e-2, beta1=0.9, beta2=0.999)
        for _ in range(10):
            p["w"].grad = g.normal(size=4).astype(ad.DTYPE)
            adam_step(p, state)
        return p["w"].data

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    p = {"w": _param(np.zeros(3), np.zeros(4))}
    with pytest.raises(ValueError):
        adam_step(p, AdamState(alpha=1e-4, beta1=0.9, beta2=0.999))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = {
        "a.w": rng.normal(size=(3, 4, 5)),
        "a.b": rng.normal(size=5),
        "scalar": np.array(np.pi),
    }
    path = tmp_path / "ck.ecgw"
    save_params(path, params)
    loaded = load_params(path)
    assert list(loaded) == list(params)
    for k in params:
        assert loaded[k].shape == np.asarray(params[k]).shape
        assert np.array_equal(loaded[k], params[k])
        assert loaded[k].dtype == np.float64


def _buffered_save_params(path, params):
    """The encoder save_params had before it streamed: the whole file in one
    bytearray, written at once."""
    blob = bytearray(b"ECGW" + struct.pack("<H", 1))
    for name, arr in params.items():
        arr = np.asarray(arr, dtype=np.float64)
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype("<f8").tobytes()
    path.write_bytes(bytes(blob))


def test_checkpoint_writer_is_byte_equal_to_the_buffered_encoder(tmp_path):
    params = {
        "scalar": np.array(-0.0),
        "conv.w": rng.normal(size=(2, 3, 4, 5)).astype(np.float32),
        "transposed": rng.normal(size=(4, 6)).T,
        "größe.β": rng.normal(size=7),
        "empty": np.zeros((0, 3)),
    }
    streamed, buffered = tmp_path / "s.ecgw", tmp_path / "b.ecgw"
    save_params(streamed, params)
    _buffered_save_params(buffered, params)
    assert streamed.read_bytes() == buffered.read_bytes()
    assert list(load_params(streamed)) == list(params)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ecgw"
    path.write_bytes(b"NOPE" + bytes(10))
    from ecglab.checkpoint import CheckpointError

    with pytest.raises(CheckpointError):
        load_params(path)
