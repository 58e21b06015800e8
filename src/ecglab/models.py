"""The four networks, built declaratively from layer specs.

Channel ladders and kernel sizes follow the reference architecture:
25-tap stride-4 one-dimensional stages everywhere, batch norm in the
generator only, phase shuffle in the critic only (and optionally before
the denoiser's encoder convolutions), and a 3x3 stride-2 2-D stack for
the spectrogram classifier. Every convolution, the 2-D ones included, is
one ``autodiff.conv_len`` or ``trans_conv_len`` node (see ``nn``). For
the standard 5000-sample signal length the generator upsamples 8 -> 8192
in five stride-4 stages and crops back to 5000; shorter training lengths
use the fewest stride-4 stages that reach the target so desk-scale runs
stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor

NETWORK_NAMES = ("generator", "critic", "inception", "denoiser")

KERNEL_1D = 25
STRIDE_1D = 4
LRELU_ALPHA = 0.2
GENERATOR_SEED_LEN = 8
INCEPTION_CHANNELS = 64
N_LABELS = 5
INFER_BATCH = 128

_NEEDS_KERNEL = {"dense", "conv1d", "trans_conv1d", "conv2d"}
_NEEDS_STRIDE = {"conv1d", "trans_conv1d", "conv2d", "maxpool2d"}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    kernel: tuple[int, ...] | None = None
    stride: int | None = None
    alpha: float | None = None
    n_max: int | None = None
    target: int | None = None
    shape: tuple[int, ...] | None = None
    param: str | None = None

    def __post_init__(self):
        if (self.kernel is not None) != (self.kind in _NEEDS_KERNEL):
            raise ValueError(f"layer {self.kind!r}: kernel {'required' if self.kind in _NEEDS_KERNEL else 'not allowed'}")
        if (self.stride is not None) != (self.kind in _NEEDS_STRIDE):
            raise ValueError(f"layer {self.kind!r}: stride {'required' if self.kind in _NEEDS_STRIDE else 'not allowed'}")


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    d: int
    z_len: int
    signal_length: int
    layers: tuple[LayerSpec, ...]


def _upsample_stages(signal_length: int) -> int:
    stages = 1
    while GENERATOR_SEED_LEN * STRIDE_1D**stages < signal_length:
        stages += 1
    return stages


def generator_spec(d: int, z_len: int = 100, signal_length: int = 5000) -> NetworkSpec:
    stages = _upsample_stages(signal_length)
    c0 = d * 2 ** (stages - 1)
    layers = [
        LayerSpec("dense", kernel=(z_len, GENERATOR_SEED_LEN * c0), param="dense1"),
        LayerSpec("reshape", shape=(GENERATOR_SEED_LEN, c0)),
    ]
    for i in range(1, stages + 1):
        ci = d * 2 ** (stages - i)
        co = d * 2 ** (stages - 1 - i) if i < stages else 1
        layers.append(
            LayerSpec("trans_conv1d", kernel=(KERNEL_1D, ci, co), stride=STRIDE_1D, param=f"tconv{i}")
        )
        if i < stages:
            layers.append(LayerSpec("batch_norm", param=f"bn{i}"))
            layers.append(LayerSpec("leaky_relu", alpha=LRELU_ALPHA))
    layers.append(LayerSpec("crop", target=signal_length))
    layers.append(LayerSpec("tanh"))
    return NetworkSpec("generator", d, z_len, signal_length, tuple(layers))


def critic_spec(d: int, signal_length: int = 5000, phase_shuffle_n: int = 2) -> NetworkSpec:
    channels = [1, 1, d, 2 * d, 4 * d, 8 * d]
    layers = []
    length = signal_length
    for i in range(5):
        layers.append(
            LayerSpec("conv1d", kernel=(KERNEL_1D, channels[i], channels[i + 1]), stride=STRIDE_1D, param=f"conv{i + 1}")
        )
        layers.append(LayerSpec("phase_shuffle", n_max=phase_shuffle_n))
        layers.append(LayerSpec("leaky_relu", alpha=LRELU_ALPHA))
        length = -(-length // STRIDE_1D)
    flat = length * channels[-1]
    layers.append(LayerSpec("reshape", shape=(flat,)))
    layers.append(LayerSpec("dense", kernel=(flat, 1), param="dense1"))
    return NetworkSpec("critic", d, 0, signal_length, tuple(layers))


def inception_spec() -> NetworkSpec:
    c = INCEPTION_CHANNELS
    layers = []
    ci = 1
    for i in range(3):
        layers.append(LayerSpec("conv2d", kernel=(3, 3, ci, c), stride=2, param=f"conv{i + 1}"))
        layers.append(LayerSpec("batch_norm", param=f"bn{i + 1}"))
        layers.append(LayerSpec("relu"))
        layers.append(LayerSpec("maxpool2d", stride=2))
        ci = c
    layers.append(LayerSpec("reshape", shape=(c,)))
    layers.append(LayerSpec("dense", kernel=(c, N_LABELS), param="dense1"))
    layers.append(LayerSpec("sigmoid"))
    return NetworkSpec("inception", 0, 0, 64, tuple(layers))


def denoiser_spec(d: int, signal_length: int = 5000, phase_shuffle_n: int = 0) -> NetworkSpec:
    enc_channels = [1, 1, d, 2 * d, 4 * d]
    layers = []
    for i in range(4):
        if phase_shuffle_n > 0:
            layers.append(LayerSpec("phase_shuffle", n_max=phase_shuffle_n))
        layers.append(
            LayerSpec("conv1d", kernel=(KERNEL_1D, enc_channels[i], enc_channels[i + 1]), stride=STRIDE_1D, param=f"conv{i + 1}")
        )
        layers.append(LayerSpec("leaky_relu", alpha=LRELU_ALPHA))
    dec_channels = [4 * d, 4 * d, 2 * d, d, 1]
    for i in range(4):
        layers.append(
            LayerSpec("trans_conv1d", kernel=(KERNEL_1D, dec_channels[i], dec_channels[i + 1]), stride=STRIDE_1D, param=f"tconv{i + 1}")
        )
        layers.append(LayerSpec("leaky_relu", alpha=LRELU_ALPHA))
    layers.append(LayerSpec("crop", target=signal_length))
    layers.append(LayerSpec("tanh"))
    return NetworkSpec("denoiser", d, 0, signal_length, tuple(layers))


# ---------------------------------------------------------------------------


class Network:
    """A spec plus its parameters, running statistics and forward pass."""

    def __init__(self, spec: NetworkSpec, seed: int = 0):
        self.spec = spec
        self.params: dict[str, Tensor] = {}
        self.running: dict[str, dict[str, np.ndarray]] = {}
        rng = np.random.default_rng(seed)
        for layer in spec.layers:
            if layer.kind in _NEEDS_KERNEL:
                fan_in = int(np.prod(layer.kernel[:-1]))
                bound = np.sqrt(6.0 / fan_in)
                w = rng.uniform(-bound, bound, size=layer.kernel)
                self.params[f"{layer.param}.w"] = Tensor(w, requires_grad=True)
                self.params[f"{layer.param}.b"] = Tensor(np.zeros(layer.kernel[-1]), requires_grad=True)
            elif layer.kind == "batch_norm":
                ch = self._bn_channels(layer)
                self.params[f"{layer.param}.gamma"] = Tensor(np.ones(ch), requires_grad=True)
                self.params[f"{layer.param}.beta"] = Tensor(np.zeros(ch), requires_grad=True)
                self.running[layer.param] = {"mean": np.zeros(ch, ad.DTYPE), "var": np.ones(ch, ad.DTYPE)}

    def _bn_channels(self, layer: LayerSpec) -> int:
        idx = self.spec.layers.index(layer)
        for prev in reversed(self.spec.layers[:idx]):
            if prev.kind in _NEEDS_KERNEL:
                return prev.kernel[-1]
        raise ValueError("batch_norm with no preceding parameterized layer")

    def forward(
        self,
        x: Tensor,
        mode: str = "infer",
        rng: np.random.Generator | None = None,
        trace: list | None = None,
        stop_at: str | None = None,
    ) -> Tensor:
        """Run the layer stack; `stop_at` halts before the first layer of that
        kind (used to read pre-sigmoid logits)."""
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode {mode!r}")
        h = x
        for i, layer in enumerate(self.spec.layers):
            k = layer.kind
            if stop_at is not None and k == stop_at:
                return h
            if k == "dense":
                h = nn.dense(h, self.params[f"{layer.param}.w"], self.params[f"{layer.param}.b"])
            elif k == "conv1d":
                h = nn.conv1d(h, self.params[f"{layer.param}.w"], self.params[f"{layer.param}.b"], layer.stride)
            elif k == "trans_conv1d":
                h = nn.trans_conv1d(h, self.params[f"{layer.param}.w"], self.params[f"{layer.param}.b"], layer.stride)
            elif k == "conv2d":
                h = nn.conv2d(h, self.params[f"{layer.param}.w"], self.params[f"{layer.param}.b"], layer.stride)
            elif k == "maxpool2d":
                h = nn.maxpool2d(h, 2, layer.stride)
            elif k == "batch_norm":
                h = nn.batch_norm(
                    h,
                    self.params[f"{layer.param}.gamma"],
                    self.params[f"{layer.param}.beta"],
                    self.running[layer.param],
                    mode,
                )
            elif k == "leaky_relu":
                h = ad.leaky_relu(h, layer.alpha)
            elif k == "relu":
                h = ad.relu(h)
            elif k == "tanh":
                h = ad.tanh(h)
            elif k == "sigmoid":
                h = ad.sigmoid(h)
            elif k == "phase_shuffle":
                h = nn.phase_shuffle(h, layer.n_max, rng, mode)
            elif k == "crop":
                h = nn.crop_center(h, layer.target)
            elif k == "reshape":
                h = ad.reshape(h, (h.shape[0],) + layer.shape)
            else:
                raise ValueError(f"unknown layer kind {k!r}")
            if trace is not None:
                trace.append((i, k, h.shape))
        return h

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {name: p.data.copy() for name, p in self.params.items()}
        for param, stats in self.running.items():
            out[f"{param}.running_mean"] = stats["mean"].copy()
            out[f"{param}.running_var"] = stats["var"].copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            if name not in state:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(state[name], dtype=ad.DTYPE)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()
        for param, stats in self.running.items():
            for stat in ("mean", "var"):
                key = f"{param}.running_{stat}"
                if key not in state:
                    raise ValueError(f"checkpoint is missing batch-norm statistic {key!r}")
                stats[stat] = np.asarray(state[key], dtype=ad.DTYPE).copy()


def build(
    name: str,
    d: int = 16,
    z_len: int = 100,
    signal_length: int = 5000,
    seed: int = 0,
    phase_shuffle_n: int | None = None,
) -> Network:
    """Construct one of the four networks with freshly initialized parameters."""
    if d < 1:
        raise ValueError("model dimensionality d must be >= 1")
    if name == "generator":
        spec = generator_spec(d, z_len, signal_length)
    elif name == "critic":
        spec = critic_spec(d, signal_length, 2 if phase_shuffle_n is None else phase_shuffle_n)
    elif name == "inception":
        spec = inception_spec()
    elif name == "denoiser":
        spec = denoiser_spec(d, signal_length, 0 if phase_shuffle_n is None else phase_shuffle_n)
    else:
        raise ValueError(f"unknown network {name!r}; expected one of {NETWORK_NAMES}")
    return Network(spec, seed=seed)


def infer(net: Network, x: np.ndarray, stop_at: str | None = None) -> np.ndarray:
    """Inference-mode forward of `x` in chunks of INFER_BATCH, recording no
    graph. An empty `x` runs one empty forward: zero rows of the output shape."""
    with ad.no_grad():
        return np.concatenate([
            net.forward(Tensor(x[i : i + INFER_BATCH]), mode="infer", stop_at=stop_at).data
            for i in range(0, max(len(x), 1), INFER_BATCH)
        ])


def count_params(net: Network) -> int:
    return sum(p.data.size for p in net.params.values())


LATENTS = ("uniform", "normal")


def sample_latent(rng: np.random.Generator, n: int, z_len: int, dist: str = "uniform") -> Tensor:
    if dist == "uniform":
        return Tensor(rng.uniform(-1.0, 1.0, size=(n, z_len)))
    if dist == "normal":
        return Tensor(rng.standard_normal(size=(n, z_len)))
    raise ValueError(f"unknown latent distribution {dist!r}")


ENCODER_CONVS = ("conv1", "conv2", "conv3", "conv4")


def transfer_critic_to_denoiser(critic_state: dict[str, np.ndarray], denoiser: Network) -> Network:
    """Copy the four shared convolution kernels from a critic checkpoint.

    The rest of the denoiser (decoder) keeps its fresh initialization.
    Raises if the kernel shapes disagree (different model dimensionality).
    """
    for conv in ENCODER_CONVS:
        for suffix in ("w", "b"):
            key = f"{conv}.{suffix}"
            if key not in critic_state:
                raise ValueError(f"critic checkpoint is missing {key!r}")
            src = np.asarray(critic_state[key], dtype=ad.DTYPE)
            dst = denoiser.params[key]
            if src.shape != dst.data.shape:
                raise ValueError(
                    f"encoder shape mismatch for {key!r}: critic {src.shape} vs denoiser {dst.data.shape} "
                    "(model dimensionality differs)"
                )
            dst.data = src.copy()
    return denoiser
