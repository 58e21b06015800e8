import numpy as np
import pytest

from ecglab import autodiff, synth, training


@pytest.fixture(autouse=True)
def _float64_when_marked(request, monkeypatch):
    """Run tests marked `float64` with the autodiff in double precision.

    A marked test fails as soon as an op records a float32 array into a
    graph, as its output or as an operand, e.g. a parameter built before
    the marker took effect: the check would not run at the precision it
    claims. Values recorded inside VJPs, as create_graph does, are checked
    the same way.
    """
    if not request.node.get_closest_marker("float64"):
        return
    monkeypatch.setattr(autodiff, "DTYPE", np.float64)
    make = autodiff._make

    def float64_make(data, parents, vjp):
        out = make(data, parents, vjp)
        if out.requires_grad:
            for t in (out, *parents):
                if t.data.dtype == np.float32:
                    pytest.fail(f"float64 test records a float32 array of shape {t.shape} into a graph")
        return out

    monkeypatch.setattr(autodiff, "_make", float64_make)


def numeric_grad(f, x, eps=1e-5):
    """Central finite differences of scalar f with respect to array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat_g = g.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += eps
        xm[i] -= eps
        flat_g[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * eps)
    return g


def rel_err(analytic, numeric):
    scale = np.max(np.abs(numeric)) + 1e-12
    return np.max(np.abs(analytic - numeric)) / scale


def assert_grads_match_fd(f, arrays, tol):
    """The gradient of <f(...), probe> in each of `arrays` against central
    finite differences, for a probe from a seeded rng.

    `f` maps Tensors named like `arrays` to a Tensor. It may call
    ``autodiff.grad(create_graph=True)`` inside, so a VJP's own VJP is
    checked the same way. A leaf the walk does not reach has gradient 0.
    """
    tensors = {k: autodiff.Tensor(v, requires_grad=True) for k, v in arrays.items()}
    out = f(**tensors)
    probe = np.random.default_rng(0).normal(size=out.shape)
    autodiff.backward(autodiff.sum_(autodiff.mul(out, autodiff.Tensor(probe))))

    def dot_probe(name, v):
        args = {k: autodiff.Tensor(v if k == name else a) for k, a in arrays.items()}
        return float(np.sum(f(**args).data * probe))

    for name, arr in arrays.items():
        analytic = tensors[name].grad if tensors[name].grad is not None else np.zeros_like(arr)
        assert rel_err(analytic, numeric_grad(lambda v: dot_probe(name, v), arr)) < tol, name


def poison_generator_updates(monkeypatch):
    """Patch training.adam_step to write NaN into the generator's tconv1.w
    after each update it makes: with one generator step, the last update,
    which no loss sees."""
    adam = training.adam_step

    def poisoned(params, state):
        out = adam(params, state)
        if "tconv1.w" in params:
            params["tconv1.w"].data[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(training, "adam_step", poisoned)


@pytest.fixture(scope="session")
def ecg_60bpm():
    return synth.mcsharry_batch([synth.McSharryParams(heart_rate_bpm=60, sample_rate_hz=500.0, duration_s=10.0)])[0]


@pytest.fixture(scope="session")
def ecg_90bpm():
    return synth.mcsharry_batch([synth.McSharryParams(heart_rate_bpm=90, sample_rate_hz=500.0, duration_s=10.0)])[0]
