"""The dtype policy: the networks train and infer in autodiff.DTYPE = float32."""

import numpy as np
import pytest

from ecglab import autodiff as ad
from ecglab import models, training
from ecglab.autodiff import Tensor
from ecglab.checkpoint import load_params, save_params
from ecglab.optim import AdamState, adam_step, zero_grads
from ecglab.signals import Signal
from ecglab.training import bce_with_logits, gradient_penalty, mse_loss

from conftest import rel_err

F32 = np.dtype(np.float32)
LENGTH = 64
NETS = ("generator", "critic", "denoiser", "inception")


@pytest.fixture
def made_dtypes(monkeypatch):
    """Dtypes of every array an autodiff op produces while the test runs."""
    seen = set()
    make = ad._make

    def spy(data, parents, vjp):
        seen.add(data.dtype)
        return make(data, parents, vjp)

    monkeypatch.setattr(ad, "_make", spy)
    return seen


def _build(name, seed=0):
    return models.build(name, d=2, z_len=8, signal_length=LENGTH, seed=seed)


def _input(name, rng):
    if name == "generator":
        return rng.uniform(-1.0, 1.0, size=(4, 8))
    if name == "inception":
        return rng.normal(size=(4, 64, 64, 1))
    return rng.normal(size=(4, LENGTH, 1))


def _loss(name, net, x, rng):
    """The loss each trainer minimises, at desk size (float64 numpy inputs).
    The critic's holds the gradient penalty, so the arrays of its
    create_graph gradient are produced here too."""
    if name == "critic":
        score = ad.mean_(net.forward(Tensor(x), mode="train", rng=rng))
        return ad.add(score, gradient_penalty(net, x, x[::-1], rng))
    if name == "inception":
        logits = net.forward(Tensor(x), mode="train")
        return bce_with_logits(logits, (x[:, :5, 0, 0] > 0).astype(np.float64))
    out = net.forward(Tensor(x), mode="train", rng=rng)
    return ad.mean_(out) if name == "generator" else mse_loss(out, np.tanh(x))


def _train_step_and_infer(name, net, seed=0):
    rng = np.random.default_rng(seed)
    x = _input(name, rng)
    zero_grads(net.params)
    loss = _loss(name, net, x, rng)
    ad.backward(loss)
    grads = [p.grad for p in net.params.values() if p.grad is not None]
    assert grads and all(g.dtype == F32 for g in grads)
    adam_step(net.params, AdamState(alpha=1e-4, beta1=0.9, beta2=0.999))
    assert all(v.dtype == F32 for v in net.state_dict().values())
    assert models.infer(net, x).dtype == F32


@pytest.mark.parametrize("name", NETS)
def test_training_and_inference_never_upcast(name, made_dtypes):
    net = _build(name)
    _train_step_and_infer(name, net)
    # a float64 checkpoint dict (what load_params returns) loads as float32
    state = {k: v.astype(np.float64) for k, v in net.state_dict().items()}
    reloaded = _build(name, seed=1)
    reloaded.load_state_dict(state)
    _train_step_and_infer(name, reloaded, seed=1)
    assert made_dtypes == {F32}


def test_transferred_encoder_trains_in_float32(made_dtypes):
    critic_state = {k: v.astype(np.float64) for k, v in _build("critic").state_dict().items()}
    den = models.transfer_critic_to_denoiser(critic_state, _build("denoiser"))
    _train_step_and_infer("denoiser", den)
    assert made_dtypes == {F32}


def _loss_and_grads(name, net, x, clean=None):
    zero_grads(net.params)
    if name == "critic":
        loss = gradient_penalty(net, x, x[::-1], np.random.default_rng(3))
    else:
        loss = mse_loss(net.forward(Tensor(x), mode="train", rng=np.random.default_rng(3)), clean)
    ad.backward(loss)
    return loss.item(), {k: p.grad for k, p in net.params.items() if p.grad is not None}


@pytest.mark.parametrize("name", ["critic", "denoiser"])
def test_float32_agrees_with_float64(name, monkeypatch):
    """One critic GP and one denoiser MSE step, same parameters, both precisions."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, LENGTH, 1))
    clean = np.tanh(x)
    net32 = _build(name)
    state = net32.state_dict()
    value32, grads32 = _loss_and_grads(name, net32, x, clean)
    with monkeypatch.context() as m:
        m.setattr(ad, "DTYPE", np.float64)
        net64 = _build(name, seed=1)
        net64.load_state_dict(state)
        value64, grads64 = _loss_and_grads(name, net64, x, clean)
    assert all(g.dtype == np.float64 for g in grads64.values())
    assert abs(value32 - value64) <= 1e-4 * abs(value64)
    assert grads32.keys() == grads64.keys()
    for k in grads64:
        assert rel_err(grads32[k], grads64[k]) < 1e-4, k


def test_checkpoint_round_trips_float32_parameters_bit_exact(tmp_path):
    net = _build("generator")
    _train_step_and_infer("generator", net)
    state = net.state_dict()
    path = tmp_path / "g.ecgw"
    save_params(path, state)
    loaded = _build("generator", seed=1)
    loaded.load_state_dict(load_params(path))
    back = loaded.state_dict()
    assert list(back) == list(state)
    for k in state:
        assert back[k].dtype == F32
        assert back[k].tobytes() == state[k].tobytes(), k


@pytest.mark.float64
def test_float64_marker_fails_on_a_float32_parameter():
    """A network built under the marker, with one kernel cast back to
    float32: the conv's output is float64, but the guard sees the float32
    operand as the forward records it, before any walk."""
    net = _build("critic")
    w = net.params["conv2.w"]
    w.data = w.data.astype(np.float32)
    x = Tensor(np.random.default_rng(0).normal(size=(2, LENGTH, 1)))
    with pytest.raises(pytest.fail.Exception, match="float32 array of shape"):
        net.forward(x, mode="train", rng=np.random.default_rng(0))


@pytest.mark.float64
def test_float64_marker_fails_on_a_float32_leaf():
    w = Tensor(np.ones(3), requires_grad=True)
    w.data = w.data.astype(np.float32)
    with pytest.raises(pytest.fail.Exception, match="float32"):
        ad.backward(ad.sum_(ad.mul(w, w)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_arrays_are_stacked_once_in_the_network_dtype(dtype, monkeypatch):
    """The trainers' [N, L, 1] arrays come straight in autodiff.DTYPE, looked
    up at call time, each sample its rounding to it."""
    monkeypatch.setattr(ad, "DTYPE", dtype)
    samples = np.random.default_rng(3).normal(size=(3, 7))
    arr = training._signals_to_array([Signal(s, 100.0) for s in samples], "signal")
    assert arr.dtype == dtype and arr.shape == (3, 7, 1)
    assert arr[:, :, 0].tobytes() == samples.astype(dtype).tobytes()


def test_validation_mse_subtracts_in_float64():
    """Scoring float32 outputs against float32 targets subtracts in float64,
    as it did against the float64 targets of float32-representable samples."""
    pred = np.float32([[0.1], [3.0]])
    target = np.float32([[1.0 + 2.0**-23], [-0.3]])  # neither difference is a float32
    wide = np.float64(pred) - np.float64(target)
    assert training._mse_numpy(pred, target) == float(np.mean(wide**2))
