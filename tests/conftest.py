import numpy as np
import pytest

from ecglab import autodiff, synth


@pytest.fixture(autouse=True)
def _float64_when_marked(request, monkeypatch):
    """Run tests marked `float64` with the autodiff in double precision."""
    if request.node.get_closest_marker("float64"):
        monkeypatch.setattr(autodiff, "DTYPE", np.float64)


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
