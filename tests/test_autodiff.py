import gc
import struct
import weakref

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
    return nn.batch_norm(x, gamma, beta, running, "infer")


def _reference_infer_bn(x, gamma, beta, running, eps=1e-5):
    """The four broadcast nodes inference-mode batch_norm was built from."""
    y = ad.div(ad.sub(x, Tensor(running["mean"])), Tensor(np.sqrt(running["var"] + eps)))
    return ad.add(ad.mul(y, gamma), beta)


@pytest.mark.float64
@pytest.mark.parametrize("shape", BN_SHAPES)
def test_infer_batch_norm_matches_reference_and_fd(shape):
    """One scale and shift per channel: same values and gradients as the
    normalize-then-scale composition, and gradients flow to gamma and beta."""
    arrays = _bn_arrays(shape)
    probe = rng.normal(size=shape)
    y, running, grads = _bn_grads(_infer_bn, arrays, probe)
    y_ref, _, grads_ref = _bn_grads(_reference_infer_bn, arrays, probe)
    assert np.max(np.abs(y - y_ref)) < 1e-12
    for target, arr in arrays.items():
        assert np.max(np.abs(grads[target] - grads_ref[target])) < 1e-12, target

        def loss(v):
            args = dict(arrays, **{target: v})
            out = _infer_bn(Tensor(args["x"]), Tensor(args["gamma"]), Tensor(args["beta"]), running)
            return float(np.sum(np.tanh(out.data) * probe))

        assert rel_err(grads[target], numeric_grad(loss, arr)) < 1e-6, target
    empty = _infer_bn(Tensor(np.zeros((0, *shape[1:]))), Tensor(arrays["gamma"]), Tensor(arrays["beta"]), running)
    assert empty.shape == (0, *shape[1:])


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


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
def test_leaky_relu_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ad.leaky_relu(Tensor(np.ones(3)), alpha)


@pytest.mark.parametrize("op", [lambda t: ad.leaky_relu(t, 0.2), ad.relu], ids=["leaky_relu", "relu"])
def test_relu_node_holds_no_activation_sized_array(op):
    """The slope or mask is rebuilt from the input at backward time, so the
    recorded node keeps no array of the activation's size besides its parent."""
    x = Tensor(rng.normal(size=(4, 50, 3)), requires_grad=True)
    y = op(x)
    held = [c.cell_contents for c in y._vjp.__closure__]
    assert not [v for v in held if isinstance(v, np.ndarray) and v.size >= x.size]
    assert [v for v in held if isinstance(v, Tensor)] == [x]


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
# thin convolutions: one group of all the taps, as overlapping windows


def _grouped_conv_len(x, w, stride, pl, out_len):
    """conv_len by stride-wide tap groups, the loop it used for every shape
    before thin layers took one group (reference)."""
    n, _, _ = x.shape
    k, _, co = w.shape
    groups = ad._tap_groups(k, stride)
    rows = out_len + len(groups) - 1
    R = n * rows - len(groups) + 1
    xf = ad._polyphase(x, stride, pl, rows)
    acc = np.zeros((n * rows, co), dtype=ad.DTYPE)
    for t, taps in groups:
        wt = w[taps].reshape(-1, co)
        acc[:R] += xf[t : t + R, : wt.shape[0]] @ wt
    return acc.reshape(n, rows, co)[:, :out_len].copy()


def _grouped_trans_conv_len(x, w, stride, pl, out_len):
    """trans_conv_len by stride-wide tap groups (reference, as above)."""
    n, L, ci = x.shape
    k, _, co = w.shape
    groups = ad._tap_groups(k, stride)
    rows = max(L + len(groups) - 1, -(-(pl + out_len) // stride))
    acc = np.zeros((n, rows, stride * co), dtype=ad.DTYPE)
    x2 = x.reshape(n * L, ci)
    for t, taps in groups:
        wt = w[taps].transpose(1, 0, 2).reshape(ci, -1)
        acc[:, t : t + L, : wt.shape[1]] += (x2 @ wt).reshape(n, L, wt.shape[1])
    return acc.reshape(n, rows * stride, co)[:, pl : pl + out_len].copy()


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


def _spy_width(monkeypatch):
    picked = []
    one_group = ad._one_group

    def spy(*args, **kwargs):
        picked.append(one_group(*args, **kwargs))
        return picked[-1]

    monkeypatch.setattr(ad, "_one_group", spy)
    return picked


@pytest.mark.float64
@pytest.mark.parametrize("op,x_shape,w_shape,stride,one", _WIDTH_CASES, ids=_width_ids)
def test_conv_group_width_matches_grouped_loop(op, x_shape, w_shape, stride, one, monkeypatch):
    """The rule picks the expected width; stride-wide groups reproduce the
    old loop bit for bit, one group agrees with it to rounding."""
    picked = _spy_width(monkeypatch)
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    y = _run_conv(op, Tensor(x), Tensor(w), None, stride).data
    assert picked == [one]
    pl, out_len = _conv_args(op, x_shape[1], w_shape[0], stride)
    ref = (_grouped_conv_len if op == "conv" else _grouped_trans_conv_len)(x, w, stride, pl, out_len)
    if one:
        assert np.allclose(y, ref, rtol=1e-12, atol=1e-12)
    else:
        assert y.tobytes() == ref.tobytes()


@pytest.mark.float64
@pytest.mark.parametrize("op,x_shape,w_shape,stride,one", _WIDTH_CASES, ids=_width_ids)
def test_conv_group_widths_match_fd(op, x_shape, w_shape, stride, one):
    """Input, kernel and bias gradients of both widths; then, through
    create_graph, the input gradient's own gradients in the kernel and
    in the cotangent."""
    arrays = {"x": rng.normal(size=x_shape), "w": rng.normal(size=w_shape) * 0.3,
              "b": rng.normal(size=w_shape[2])}
    probe = rng.normal(size=_run_conv(op, Tensor(arrays["x"]), Tensor(arrays["w"]), None, stride).shape)

    def loss(target, v):
        args = dict(arrays, **{target: v})
        with ad.no_grad():
            out = _run_conv(op, Tensor(args["x"]), Tensor(args["w"]), Tensor(args["b"]), stride)
        return float(np.sum(out.data * probe))

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    ad.backward(ad.sum_(ad.mul(_run_conv(op, *tensors.values(), stride), Tensor(probe))))
    for target, arr in arrays.items():
        assert rel_err(tensors[target].grad, numeric_grad(lambda v: loss(target, v), arr)) < 1e-6, target

    q = rng.normal(size=x_shape)

    def input_grad_dot_q(w, p):
        x = Tensor(arrays["x"], requires_grad=True)
        out = _run_conv(op, x, w, None, stride)
        (gx,) = ad.grad(ad.sum_(ad.mul(out, p)), [x], create_graph=True)
        return ad.sum_(ad.mul(gx, Tensor(q)))

    w, p = Tensor(arrays["w"], requires_grad=True), Tensor(probe, requires_grad=True)
    ad.backward(input_grad_dot_q(w, p))
    fd_w = numeric_grad(lambda v: input_grad_dot_q(Tensor(v), Tensor(probe)).item(), arrays["w"])
    fd_p = numeric_grad(lambda v: input_grad_dot_q(Tensor(arrays["w"]), Tensor(v)).item(), probe)
    assert rel_err(w.grad, fd_w) < 1e-6
    assert rel_err(p.grad, fd_p) < 1e-6


@pytest.mark.parametrize("op,x_shape,w_shape,stride,one", _WIDTH_CASES, ids=_width_ids)
def test_conv_group_widths_take_zero_row_batches(op, x_shape, w_shape, stride, one):
    x = Tensor(np.zeros((0, *x_shape[1:])), requires_grad=True)
    w, b = Tensor(rng.normal(size=w_shape), requires_grad=True), Tensor(np.ones(w_shape[2]), requires_grad=True)
    y = _run_conv(op, x, w, b, stride)
    assert y.shape == (0, _conv_args(op, x_shape[1], w_shape[0], stride)[1], w_shape[2])
    ad.backward(ad.sum_(y))
    assert x.grad.shape == x.shape and not w.grad.any() and not b.grad.any()


@pytest.mark.float64
@pytest.mark.parametrize("op,x_shape,w_shape,stride,one", [c for c in _WIDTH_CASES if c[4]],
                         ids=[i for i, c in zip(_width_ids, _WIDTH_CASES) if c[4]])
@pytest.mark.parametrize("rows_per_block", [1, 3, 8])
def test_one_group_blocks_agree(op, x_shape, w_shape, stride, one, rows_per_block, monkeypatch):
    """Blocks of single rows, of part of a sample and of whole samples
    give the same output as one block of the whole batch."""
    x, w = Tensor(rng.normal(size=x_shape)), Tensor(rng.normal(size=w_shape))
    whole = _run_conv(op, x, w, None, stride).data
    width = w_shape[0] * w_shape[1] if op == "conv" else -(-w_shape[0] // stride) * w_shape[1]
    out = 0 if op == "conv" else stride * w_shape[2]
    monkeypatch.setattr(ad, "_CHUNK_BYTES", rows_per_block * (width + out) * 8)
    assert np.allclose(_run_conv(op, x, w, None, stride).data, whole, rtol=1e-12, atol=1e-12)


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


def _index_map(n_out, k, stride, pl, n_in):
    """(o, j, i): output sample o meets input sample i through tap j."""
    return [(o, j, o * stride + j - pl) for o in range(n_out) for j in range(k)
            if 0 <= o * stride + j - pl < n_in]


# (n, L, c_in, c_out, stride, k, pl, out_len): left pads at or past every
# computed row, which no SAME layer makes
_FAR_PAD_CASES = [(1, 9, 7, 7, 1, 4, 6, 2), (2, 9, 3, 2, 1, 4, 6, 2), (2, 10, 2, 3, 2, 5, 7, 2),
                  (1, 5, 2, 2, 2, 3, 12, 3)]


@pytest.mark.float64
@pytest.mark.parametrize("one", [True, False], ids=["one", "stride"])
@pytest.mark.parametrize("n,L,ci,co,stride,k,pl,out_len", _FAR_PAD_CASES)
def test_conv_ops_take_a_left_pad_past_every_row(n, L, ci, co, stride, k, pl, out_len, one, monkeypatch):
    """conv_len, trans_conv_len (out_len -> L) and kernel_corr_len against
    direct sums over the index map, at either group width."""
    monkeypatch.setattr(ad, "_one_group", lambda *a, **kw: one)
    x, w, g = rng.normal(size=(n, L, ci)), rng.normal(size=(k, ci, co)), rng.normal(size=(n, out_len, co))
    y, gx, gw = np.zeros(g.shape), np.zeros(x.shape), np.zeros(w.shape)
    for o, j, i in _index_map(out_len, k, stride, pl, L):
        y[:, o] += x[:, i] @ w[j]
        gx[:, i] += g[:, o] @ w[j].T
        gw[j] += x[:, i].T @ g[:, o]
    wt = Tensor(w.transpose(0, 2, 1).copy())
    assert np.allclose(ad.conv_len(Tensor(x), Tensor(w), None, stride, pl, out_len).data, y, rtol=0, atol=1e-12)
    assert np.allclose(ad.trans_conv_len(Tensor(g), wt, None, stride, pl, L).data, gx, rtol=0, atol=1e-12)
    assert np.allclose(ad.kernel_corr_len(Tensor(x), Tensor(g), stride, pl, k).data, gw, rtol=0, atol=1e-12)


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


def _param(values, grad):
    p = Tensor(np.asarray(values), requires_grad=True)
    p.grad = np.asarray(grad, dtype=ad.DTYPE)
    return p


def test_adam_zero_gradient_keeps_params():
    p = {"w": _param([1.0, -2.0], np.zeros(2))}
    before = p["w"].data.copy()
    adam_step(p, AdamState())
    assert np.array_equal(p["w"].data, before)


def test_adam_skips_a_parameter_without_gradient():
    p = {"w": _param([1.0], [1.0]), "b": Tensor(np.array([2.0]), requires_grad=True)}
    state = adam_step(p, AdamState())
    assert p["b"].data[0] == 2.0 and list(state.first_moment) == ["w"]


@pytest.mark.float64
def test_adam_first_step_is_minus_alpha():
    p = {"w": _param([0.5], np.ones(1))}
    state = AdamState(alpha=1e-4)
    adam_step(p, state)
    delta = p["w"].data[0] - 0.5
    assert abs(delta + 1e-4) < 1e-9


def test_adam_deterministic():
    def run():
        g = np.random.default_rng(5)
        p = {"w": Tensor(g.normal(size=4), requires_grad=True)}
        state = AdamState(alpha=1e-2)
        for _ in range(10):
            p["w"].grad = g.normal(size=4).astype(ad.DTYPE)
            adam_step(p, state)
        return p["w"].data

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    p = {"w": _param(np.zeros(3), np.zeros(4))}
    with pytest.raises(ValueError):
        adam_step(p, AdamState())


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
