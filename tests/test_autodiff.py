import gc
import weakref

import numpy as np
import pytest

from ecglab import autodiff as ad
from ecglab import nn
from ecglab.autodiff import Tensor
from ecglab.checkpoint import load_params, save_params
from ecglab.optim import AdamState, adam_step

from conftest import numeric_grad, rel_err

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


@pytest.mark.float64
def test_conv1d_identity_kernel():
    x = rng.normal(size=(3, 17, 4))
    w = np.zeros((1, 4, 4))
    w[0] = np.eye(4)
    out = nn.conv1d(Tensor(x), Tensor(w), None, 1)
    assert np.array_equal(out.data, x)


def test_conv_transconv_adjoint():
    x = rng.normal(size=(2, 16, 3))
    w = rng.normal(size=(5, 3, 4))
    y = rng.normal(size=(2, 4, 4))
    conv = nn.conv1d(Tensor(x), Tensor(w), None, 4)
    w_swapped = np.transpose(w, (0, 2, 1))
    back = nn.trans_conv1d(Tensor(y), Tensor(w_swapped), None, 4)
    lhs = np.sum(conv.data * y)
    rhs = np.sum(x * back.data)
    assert abs(lhs - rhs) < 1e-6


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
    out = nn.phase_shuffle(x, 2, None, "train", shifts=np.array([[1]]))
    assert out.data[:, :, 0].tolist() == [[2.0, 3.0, 4.0, 4.0]]
    out = nn.phase_shuffle(x, 2, None, "train", shifts=np.array([[-2]]))
    assert out.data[:, :, 0].tolist() == [[2.0, 1.0, 1.0, 2.0]]


def test_phase_shuffle_preserves_shape():
    g = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 33, 5)))
    assert nn.phase_shuffle(x, 2, g, "train").shape == (4, 33, 5)


@pytest.mark.parametrize("shifts", [[[5]], [[-3]], [[1, 0]], [[1], [0]], [[1.0]], [[True]]])
def test_phase_shuffle_rejects_bad_shifts(shifts):
    x = Tensor(rng.normal(size=(1, 4, 1)))
    with pytest.raises(ValueError, match=r"integers in \[-2, 2\] of shape \(1, 1\)") as err:
        nn.phase_shuffle(x, 2, None, "train", shifts=np.array(shifts))
    assert "\n" not in str(err.value)


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
    """d<shift(x), p>/dx = unshift(p), and, through create_graph,
    d<unshift(p), q>/dp = shift(q)."""
    shifts = np.array([[2, -1], [0, -2], [1, 2]])
    x0, p0 = rng.normal(size=(3, L, 2)), rng.normal(size=(3, L, 2))
    q = rng.normal(size=(3, L, 2))
    x, p = Tensor(x0, requires_grad=True), Tensor(p0, requires_grad=True)
    (gx,) = ad.grad(ad.sum_(ad.mul(ad.shift_len(x, shifts, 2), p)), [x], create_graph=True)
    ad.backward(ad.sum_(ad.mul(gx, Tensor(q))))

    def shifted(v):
        return float(np.sum(ad.shift_len(Tensor(v), shifts, 2).data * p0))

    def unshifted(v):
        return float(np.sum(ad.unshift_len(Tensor(v), shifts, 2).data * q))

    assert rel_err(gx.data, numeric_grad(shifted, x0)) < 1e-8
    assert rel_err(p.grad, numeric_grad(unshifted, p0)) < 1e-8


# ---------------------------------------------------------------------------
# batch norm


def test_batch_norm_standardizes():
    x = Tensor(rng.normal(loc=3.0, scale=2.5, size=(8, 20, 4)))
    running = {"mean": np.zeros(4), "var": np.ones(4)}
    out = nn.batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), running, "train")
    mean = out.data.mean(axis=(0, 1))
    var = out.data.var(axis=(0, 1))
    assert np.all(np.abs(mean) < 1e-6)
    assert np.all(np.abs(var - 1.0) < 1e-4)


def test_batch_norm_identity_on_standardized():
    x = rng.normal(size=(64, 16, 2))
    x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
    running = {"mean": np.zeros(2), "var": np.ones(2)}
    out = nn.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), running, "train")
    assert np.allclose(out.data, x, atol=1e-4)


def test_batch_norm_batch_one_raises():
    x = Tensor(rng.normal(size=(1, 8, 2)))
    running = {"mean": np.zeros(2), "var": np.ones(2)}
    with pytest.raises(ValueError):
        nn.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), running, "train")


def _reference_batch_norm(x, gamma, beta, running, momentum=0.9, eps=1e-5):
    """The 11-node composition train-mode batch_norm was built from."""
    axes = tuple(range(x.data.ndim - 1))
    mu = ad.mean_(x, axis=axes, keepdims=True)
    xc = ad.sub(x, mu)
    var = ad.mean_(ad.mul(xc, xc), axis=axes, keepdims=True)
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
    return nn.batch_norm(x, gamma, beta, running, "train")


BN_SHAPES = [(4, 6, 2), (3, 4, 5, 2)]  # the generator's [n, L, c] and the classifier's [n, H, W, c]


@pytest.mark.float64
def test_batch_norm_gradient_matches_fd():
    for shape in BN_SHAPES:
        arrays = _bn_arrays(shape)
        probe = rng.normal(size=shape)
        _, _, grads = _bn_grads(_train_bn, arrays, probe)
        for target, arr in arrays.items():
            def loss(v):
                args = dict(arrays, **{target: v})
                running = {"mean": np.zeros(shape[-1]), "var": np.ones(shape[-1])}
                out = _train_bn(Tensor(args["x"]), Tensor(args["gamma"]), Tensor(args["beta"]), running)
                return float(np.sum(np.tanh(out.data) * probe))

            assert rel_err(grads[target], numeric_grad(loss, arr)) < 1e-6, (shape, target)


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


def test_batch_norm_float32_statistics_stay_accurate():
    """The per-channel sums over 131072 positions add per-position batch sums;
    one running float32 sum over all of them is off by about 7e-5 here."""
    x = np.random.default_rng(5).normal(loc=3.0, scale=2.0, size=(16, 8192, 4))
    running = {"mean": np.zeros(4), "var": np.ones(4)}
    y = nn.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), running, "train")
    truth = (x - x.mean(axis=(0, 1))) / np.sqrt(x.var(axis=(0, 1)) + 1e-5)
    assert y.data.dtype == np.float32
    assert np.max(np.abs(y.data - truth)) < 1e-5


def test_batch_norm_train_is_one_node_with_first_order_vjp_only():
    x = Tensor(rng.normal(size=(4, 6, 3)), requires_grad=True)
    gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
    running = {"mean": np.zeros(3), "var": np.ones(3)}
    out = nn.batch_norm(x, gamma, beta, running, "train")
    assert out._parents == (x, gamma, beta)
    loss = ad.sum_(ad.mul(out, out))
    ad.grad(loss, [x, gamma, beta])
    with pytest.raises(ad.GraphError, match="second-order") as err:
        ad.grad(loss, [x], create_graph=True)
    assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# leaky relu


@pytest.mark.parametrize("alpha", [0.2, 0.01, 0.3, 0.7])
@pytest.mark.parametrize("dtype", ["float32", pytest.param("float64", marks=pytest.mark.float64)])
def test_leaky_relu_is_bit_equal_to_where_form(alpha, dtype):
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-30, -1e-30]
    x0 = np.concatenate([special, rng.normal(size=200)]).astype(ad.DTYPE)
    g0 = rng.normal(size=x0.shape).astype(ad.DTYPE)
    slope = np.where(x0 > 0, ad.DTYPE(1.0), ad.DTYPE(alpha))
    x = Tensor(x0, requires_grad=True)
    y = ad.leaky_relu(x, alpha)
    (gx,) = ad.grad(y, [x], cotangent=Tensor(g0))
    assert y.data.dtype == np.dtype(dtype)
    assert y.data.tobytes() == (x0 * slope).tobytes()
    assert gx.data.tobytes() == (g0 * slope).tobytes()


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


def _layer_cases():
    k1 = rng.normal(size=(5, 2, 3)) * 0.5
    k2 = rng.normal(size=(3, 3, 2, 3)) * 0.5
    wd = rng.normal(size=(6, 4)) * 0.5
    return [
        ("conv1d", (2, 9, 2), lambda t: nn.conv1d(t, Tensor(k1), Tensor(np.ones(3)), 2)),
        ("trans_conv1d", (2, 4, 2), lambda t: nn.trans_conv1d(t, Tensor(k1), None, 2)),
        # 7 and 5 are not multiples of the stride: uneven SAME pads on both axes
        ("conv2d", (2, 7, 5, 2), lambda t: nn.conv2d(t, Tensor(k2), Tensor(np.zeros(3)), 2)),
        ("maxpool2d", (2, 4, 4, 3), lambda t: nn.maxpool2d(t, 2, 2)),
        ("dense", (3, 6), lambda t: nn.dense(t, Tensor(wd), Tensor(np.ones(4)))),
        ("leaky_relu", (3, 7, 2), lambda t: ad.leaky_relu(t, 0.2)),
        ("relu", (3, 7, 2), lambda t: ad.relu(t)),
        ("tanh", (3, 7), lambda t: ad.tanh(t)),
        ("sigmoid", (3, 7), lambda t: ad.sigmoid(t)),
        ("crop", (2, 11, 2), lambda t: nn.crop_center(t, 7)),
        ("reshape", (2, 6, 2), lambda t: ad.reshape(t, (2, 12))),
        ("phase_shuffle", (2, 9, 2),
         lambda t: nn.phase_shuffle(t, 2, None, "train", shifts=np.array([[1, -2], [0, 2]]))),
    ]


@pytest.mark.float64
@pytest.mark.parametrize("name,shape,layer", _layer_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_layer_gradients_match_fd(name, shape, layer):
    x0 = rng.normal(size=shape)
    probe = rng.normal(size=layer(Tensor(x0)).shape)

    def loss(xv):
        with ad.no_grad():
            return float(np.sum(layer(Tensor(xv)).data * probe))

    xt = Tensor(x0, requires_grad=True)
    ad.backward(ad.sum_(ad.mul(layer(xt), Tensor(probe))))
    assert rel_err(xt.grad, numeric_grad(loss, x0)) < 1e-4, name


def test_maxpool2d_tie_sends_gradient_to_top_left():
    x0 = np.full((1, 4, 4, 2), 0.5)
    x0[0, 2, 3, 1] = 0.9
    x = Tensor(x0, requires_grad=True)
    y = nn.maxpool2d(x, 2, 2)
    ad.backward(ad.sum_(y))
    assert np.array_equal(y.data[..., 0], np.full((1, 2, 2), 0.5))
    expect = np.zeros_like(x0)
    expect[0, ::2, ::2, :] = 1.0
    expect[0, 2, 2, 1], expect[0, 2, 3, 1] = 0.0, 1.0
    assert np.array_equal(x.grad, expect)


@pytest.mark.float64
def test_composed_network_gradient_matches_fd():
    w1 = rng.normal(size=(5, 1, 2)) * 0.4
    w2 = rng.normal(size=(5, 2, 3)) * 0.4
    wd = rng.normal(size=(9, 1)) * 0.4

    def forward(t, w1t, w2t, wdt):
        h = ad.leaky_relu(nn.conv1d(t, w1t, None, 2), 0.2)
        h = ad.tanh(nn.conv1d(h, w2t, None, 2))
        return ad.sum_(nn.dense(ad.reshape(h, (h.shape[0], 9)), wdt, None))

    x0 = rng.normal(size=(3, 12, 1))
    for target, arr in [("x", x0), ("w1", w1), ("w2", w2), ("wd", wd)]:
        def loss(v):
            args = {"x": x0, "w1": w1, "w2": w2, "wd": wd}
            args[target] = v
            with ad.no_grad():
                return float(forward(Tensor(args["x"]), Tensor(args["w1"]),
                                     Tensor(args["w2"]), Tensor(args["wd"])).data)

        tensors = {"x": Tensor(x0, requires_grad=True), "w1": Tensor(w1, requires_grad=True),
                   "w2": Tensor(w2, requires_grad=True), "wd": Tensor(wd, requires_grad=True)}
        ad.backward(forward(tensors["x"], tensors["w1"], tensors["w2"], tensors["wd"]))
        assert rel_err(tensors[target].grad, numeric_grad(loss, arr)) < 1e-4, target


@pytest.mark.parametrize("op,x_shape,w_shape", [
    (nn.conv1d, (2, 30, 2), (25, 2, 3)),        # 30 % 4 != 0: uneven SAME pads
    (nn.trans_conv1d, (2, 7, 3), (25, 3, 2)),
])
@pytest.mark.float64
def test_paper_kernel_gradients_match_fd(op, x_shape, w_shape):
    """k=25, stride 4: input, weight and bias gradients against finite differences."""
    arrays = {"x": rng.normal(size=x_shape), "w": rng.normal(size=w_shape) * 0.3,
              "b": rng.normal(size=w_shape[2])}
    probe = rng.normal(size=op(Tensor(arrays["x"]), Tensor(arrays["w"]), None, 4).shape)

    def loss(target, v):
        args = dict(arrays, **{target: v})
        with ad.no_grad():
            out = op(Tensor(args["x"]), Tensor(args["w"]), Tensor(args["b"]), 4)
        return float(np.sum(out.data * probe))

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    out = op(tensors["x"], tensors["w"], tensors["b"], 4)
    ad.backward(ad.sum_(ad.mul(out, Tensor(probe))))
    for target, arr in arrays.items():
        fd = numeric_grad(lambda v: loss(target, v), arr)
        assert rel_err(tensors[target].grad, fd) < 1e-6, target


@pytest.mark.float64
def test_kernel_corr_gradients_match_fd():
    """The kernel-gradient op's own VJPs, used when a weight gradient is
    differentiated again."""
    arrays = {"a": rng.normal(size=(2, 30, 2)), "g": rng.normal(size=(2, 8, 3))}
    probe = rng.normal(size=(25, 2, 3))

    def loss(target, v):
        args = dict(arrays, **{target: v})
        out = ad.kernel_corr_len(Tensor(args["a"]), Tensor(args["g"]), 4, 11, 25)
        return float(np.sum(out.data * probe))

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    out = ad.kernel_corr_len(tensors["a"], tensors["g"], 4, 11, 25)
    ad.backward(ad.sum_(ad.mul(out, Tensor(probe))))
    for target, arr in arrays.items():
        fd = numeric_grad(lambda v: loss(target, v), arr)
        assert rel_err(tensors[target].grad, fd) < 1e-6, target


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
    probe = rng.normal(size=nn.conv2d(Tensor(arrays["x"]), Tensor(arrays["w"]), None, stride).shape)

    def loss(target, v):
        args = dict(arrays, **{target: v})
        with ad.no_grad():
            out = nn.conv2d(Tensor(args["x"]), Tensor(args["w"]), Tensor(args["b"]), stride)
        return float(np.sum(out.data * probe))

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    ad.backward(ad.sum_(ad.mul(nn.conv2d(tensors["x"], tensors["w"], tensors["b"], stride), Tensor(probe))))
    for target, arr in arrays.items():
        fd = numeric_grad(lambda v: loss(target, v), arr)
        assert rel_err(tensors[target].grad, fd) < 1e-6, target


@pytest.mark.float64
@pytest.mark.parametrize("H,out_h,pt", [(7, 4, 1), (5, 2, 0), (4, 3, 0), (1, 1, 1)])
def test_unfold_rows_vjp_and_its_vjp_match_fd(H, out_h, pt):
    """d<unfold(x), p>/dx = fold(p), and, through create_graph,
    d<fold(p), q>/dp = unfold(q). (4, 3, 0) reads past the last row."""
    kh, stride = 3, 2
    x0 = rng.normal(size=(2, H, 3, 2))
    p0, q = rng.normal(size=(2 * out_h, 3, kh * 2)), rng.normal(size=x0.shape)
    x, p = Tensor(x0, requires_grad=True), Tensor(p0, requires_grad=True)
    (gx,) = ad.grad(ad.sum_(ad.mul(ad.unfold_rows(x, kh, stride, pt, out_h), p)), [x], create_graph=True)
    ad.backward(ad.sum_(ad.mul(gx, Tensor(q))))

    def unfolded(v):
        return float(np.sum(ad.unfold_rows(Tensor(v), kh, stride, pt, out_h).data * p0))

    def folded(v):
        return float(np.sum(ad.fold_rows(Tensor(v), kh, stride, pt, (2, H)).data * q))

    assert rel_err(gx.data, numeric_grad(unfolded, x0)) < 1e-8
    assert rel_err(p.grad, numeric_grad(folded, p0)) < 1e-8


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


def test_adam_zero_gradient_keeps_params():
    p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    before = p["w"].data.copy()
    adam_step(p, {"w": np.zeros(2)}, AdamState())
    assert np.array_equal(p["w"].data, before)


@pytest.mark.float64
def test_adam_first_step_is_minus_alpha():
    p = {"w": Tensor(np.array([0.5]), requires_grad=True)}
    state = AdamState(alpha=1e-4)
    adam_step(p, {"w": np.ones(1)}, state)
    delta = p["w"].data[0] - 0.5
    assert abs(delta + 1e-4) < 1e-9


def test_adam_deterministic():
    def run():
        g = np.random.default_rng(5)
        p = {"w": Tensor(g.normal(size=4), requires_grad=True)}
        state = AdamState(alpha=1e-2)
        for _ in range(10):
            adam_step(p, {"w": g.normal(size=4)}, state)
        return p["w"].data

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    p = {"w": Tensor(np.zeros(3), requires_grad=True)}
    with pytest.raises(ValueError):
        adam_step(p, {"w": np.zeros(4)}, AdamState())


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


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ecgw"
    path.write_bytes(b"NOPE" + bytes(10))
    from ecglab.checkpoint import CheckpointError

    with pytest.raises(CheckpointError):
        load_params(path)
