import numpy as np
import pytest

from ecglab import autodiff, synth


def _float32_tensor_in(root):
    """A float32 tensor of the graph recorded under `root`, or None."""
    stack, seen = [root], set()
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.data.dtype == np.float32:
            return t
        stack.extend(t._parents)
    return None


@pytest.fixture(autouse=True)
def _float64_when_marked(request, monkeypatch):
    """Run tests marked `float64` with the autodiff in double precision.

    A marked test fails when `autodiff.backward` or `autodiff.grad` walks a
    graph that holds a float32 tensor, e.g. parameters built before the
    marker took effect: that check would not run at the precision it claims.
    """
    if not request.node.get_closest_marker("float64"):
        return
    monkeypatch.setattr(autodiff, "DTYPE", np.float64)
    walk = autodiff._reverse_walk

    def float64_walk(root, *args, **kwargs):
        leak = _float32_tensor_in(root)
        if leak is not None:
            pytest.fail(f"float64 test differentiates a float32 tensor of shape {leak.shape}")
        return walk(root, *args, **kwargs)

    monkeypatch.setattr(autodiff, "_reverse_walk", float64_walk)


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


@pytest.fixture(scope="session")
def ecg_60bpm():
    return synth.mcsharry_generate(synth.McSharryParams(heart_rate_bpm=60))


@pytest.fixture(scope="session")
def ecg_90bpm():
    return synth.mcsharry_generate(synth.McSharryParams(heart_rate_bpm=90))
