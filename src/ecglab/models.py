"""The four networks, built declaratively from layer specs.

Channel ladders and kernel sizes follow the reference architecture:
25-tap stride-4 one-dimensional stages everywhere, batch norm in the
generator only, phase shuffle in the critic only (and optionally before
the denoiser's encoder convolutions), and a 3x3 stride-2 2-D stack for
the spectrogram classifier, each stage ending in a 2x2 max pool (the
layers are ``nn``'s). For the standard 5000-sample signal length the
generator upsamples 8 -> 8192 in five stride-4 stages and crops back to
5000; shorter training lengths use the fewest stride-4 stages that reach
the target so desk-scale runs stay cheap.

Every kernel layer's spec says whether it has a bias (``LayerSpec.bias``).
One rule decides it: a kernel layer followed by a batch norm (generator
``tconv1``-``tconv4``, classifier ``conv1``-``conv3``) has none, since batch
norm subtracts each channel's mean and so cancels it (Ioffe & Szegedy,
arXiv:1502.03167). The critic's score layer, ``dense1``, has none either;
its spec says why. The classifier ends in its ``dense1`` logits, which
``training.train_inception``'s loss reads. A dense layer is one ``autodiff.matmul`` node with its
bias, as a convolution is one node.

A batch norm layer ends in the activation that follows it (``alpha``: the
generator's leaky ReLU, the classifier's ReLU at 0), so a generator stage
is tconv -> batch norm and a classifier stage conv2d -> batch norm -> pool.
What a train-mode graph keeps of each stage is ``autodiff``'s rule; an
inference-mode forward runs under ``no_grad`` and records none. The
crop's target and the phase shuffle's reach are the ``NetworkSpec``'s
``signal_length`` and ``phase_shuffle_n``.

A checkpoint (``checkpoint_state``) is a network's ``state_dict`` plus the
``NetworkSpec`` fields that rebuild it, each as a one-element
``meta.<field>`` array: ``d``, ``z_len``, ``signal_length`` for the
generator, ``d``, ``signal_length``, ``phase_shuffle_n`` for the critic
and the denoiser, none for the classifier. ``from_checkpoint`` reads them
back by name, so their order in the file does not matter. A denoiser
checkpoint without ``phase_shuffle_n`` (written before it was recorded,
or by hand) loads with 0: its shuffle acts in train mode only.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .signals import LABEL_COUNT

NETWORK_NAMES = ("generator", "critic", "inception", "denoiser")

KERNEL_1D = 25
STRIDE_1D = 4
LRELU_ALPHA = 0.2
GENERATOR_SEED_LEN = 8
INCEPTION_CHANNELS = 64
# the training batch, at which autodiff's _one_group bounds, _THIN_K and
# _CHUNK_BYTES were timed; one chunk's activations set inference memory
INFER_BATCH = 64

_NEEDS_KERNEL = {"dense", "conv1d", "trans_conv1d", "conv2d"}
_NEEDS_STRIDE = {"conv1d", "trans_conv1d", "conv2d"}
_REQUIRED = {"kernel": _NEEDS_KERNEL, "stride": _NEEDS_STRIDE, "bias": _NEEDS_KERNEL, "alpha": {"batch_norm"}}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    kernel: tuple[int, ...] | None = None
    stride: int | None = None
    shape: tuple[int, ...] | None = None
    param: str | None = None
    bias: bool | None = None  # whether a kernel layer adds a per-channel bias
    alpha: float | None = None  # slope of the activation a batch norm ends in

    def __post_init__(self):
        for field, kinds in _REQUIRED.items():
            if (getattr(self, field) is not None) != (self.kind in kinds):
                raise ValueError(f"layer {self.kind!r}: {field} {'required' if self.kind in kinds else 'not allowed'}")


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    d: int
    z_len: int
    signal_length: int
    layers: tuple[LayerSpec, ...]
    phase_shuffle_n: int = 0


def _upsample_stages(signal_length: int) -> int:
    stages = 1
    while GENERATOR_SEED_LEN * STRIDE_1D**stages < signal_length:
        stages += 1
    return stages


def generator_spec(d: int, z_len: int, signal_length: int) -> NetworkSpec:
    stages = _upsample_stages(signal_length)
    c0 = d * 2 ** (stages - 1)
    layers = [
        LayerSpec("dense", kernel=(z_len, GENERATOR_SEED_LEN * c0), bias=True, param="dense1"),
        LayerSpec("reshape", shape=(GENERATOR_SEED_LEN, c0)),
    ]
    for i in range(1, stages + 1):
        ci = d * 2 ** (stages - i)
        co = d * 2 ** (stages - 1 - i) if i < stages else 1
        # a batch norm follows every stage but the last
        layers.append(
            LayerSpec("trans_conv1d", kernel=(KERNEL_1D, ci, co), stride=STRIDE_1D, bias=i == stages,
                      param=f"tconv{i}")
        )
        if i < stages:
            layers.append(LayerSpec("batch_norm", param=f"bn{i}", alpha=LRELU_ALPHA))
    layers.append(LayerSpec("crop"))
    layers.append(LayerSpec("tanh"))
    return NetworkSpec("generator", d, z_len, signal_length, tuple(layers))


def critic_spec(d: int, signal_length: int, phase_shuffle_n: int) -> NetworkSpec:
    channels = [1, 1, d, 2 * d, 4 * d, 8 * d]
    layers = []
    length = signal_length
    for i in range(5):
        layers.append(
            LayerSpec("conv1d", kernel=(KERNEL_1D, channels[i], channels[i + 1]), stride=STRIDE_1D, bias=True,
                      param=f"conv{i + 1}")
        )
        layers.append(LayerSpec("phase_shuffle"))
        layers.append(LayerSpec("leaky_relu"))
        length = -(-length // STRIDE_1D)
    flat = length * channels[-1]
    layers.append(LayerSpec("reshape", shape=(flat,)))
    # the score enters the WGAN loss only as mean(real) - mean(fake), and the
    # gradient penalty only through its input gradient: a bias's gradient is exactly 0
    layers.append(LayerSpec("dense", kernel=(flat, 1), bias=False, param="dense1"))
    return NetworkSpec("critic", d, 0, signal_length, tuple(layers), phase_shuffle_n)


def inception_spec() -> NetworkSpec:
    c = INCEPTION_CHANNELS
    layers = []
    ci = 1
    for i in range(3):
        layers.append(LayerSpec("conv2d", kernel=(3, 3, ci, c), stride=2, bias=False, param=f"conv{i + 1}"))
        layers.append(LayerSpec("batch_norm", param=f"bn{i + 1}", alpha=0.0))
        layers.append(LayerSpec("maxpool2d"))
        ci = c
    layers.append(LayerSpec("reshape", shape=(c,)))
    layers.append(LayerSpec("dense", kernel=(c, LABEL_COUNT), bias=True, param="dense1"))
    return NetworkSpec("inception", 0, 0, 64, tuple(layers))


def denoiser_spec(d: int, signal_length: int, phase_shuffle_n: int) -> NetworkSpec:
    enc_channels = [1, 1, d, 2 * d, 4 * d]
    layers = []
    for i in range(4):
        if phase_shuffle_n > 0:
            layers.append(LayerSpec("phase_shuffle"))
        layers.append(
            LayerSpec("conv1d", kernel=(KERNEL_1D, enc_channels[i], enc_channels[i + 1]), stride=STRIDE_1D, bias=True,
                      param=f"conv{i + 1}")
        )
        layers.append(LayerSpec("leaky_relu"))
    dec_channels = [4 * d, 4 * d, 2 * d, d, 1]
    for i in range(4):
        layers.append(
            LayerSpec("trans_conv1d", kernel=(KERNEL_1D, dec_channels[i], dec_channels[i + 1]), stride=STRIDE_1D,
                      bias=True, param=f"tconv{i + 1}")
        )
        layers.append(LayerSpec("leaky_relu"))
    layers.append(LayerSpec("crop"))
    layers.append(LayerSpec("tanh"))
    return NetworkSpec("denoiser", d, 0, signal_length, tuple(layers), phase_shuffle_n)


# ---------------------------------------------------------------------------


class Network:
    """A spec plus its parameters, running statistics and forward pass."""

    def __init__(self, spec: NetworkSpec, seed: int):
        self.spec = spec
        self.params: dict[str, Tensor] = {}
        self.running: dict[str, dict[str, np.ndarray]] = {}
        rng = np.random.default_rng(seed)
        ch = None  # output channels of the last kernel layer
        for layer in spec.layers:
            if layer.kind in _NEEDS_KERNEL:
                fan_in = int(np.prod(layer.kernel[:-1]))
                bound = np.sqrt(6.0 / fan_in)
                w = rng.uniform(-bound, bound, size=layer.kernel)
                self.params[f"{layer.param}.w"] = Tensor(w, requires_grad=True)
                ch = layer.kernel[-1]
                if layer.bias:
                    self.params[f"{layer.param}.b"] = Tensor(np.zeros(ch), requires_grad=True)
            elif layer.kind == "batch_norm":
                if ch is None:
                    raise ValueError("batch_norm with no preceding parameterized layer")
                self.params[f"{layer.param}.gamma"] = Tensor(np.ones(ch), requires_grad=True)
                self.params[f"{layer.param}.beta"] = Tensor(np.zeros(ch), requires_grad=True)
                self.running[layer.param] = {"mean": np.zeros(ch, ad.DTYPE), "var": np.ones(ch, ad.DTYPE)}

    def forward(
        self,
        x: Tensor,
        mode: str = "infer",
        rng: np.random.Generator | None = None,
        trace: list | None = None,
        stop_at: str | None = None,
    ) -> Tensor:
        """Run the layer stack; `stop_at` halts before the first layer of that
        kind, and a `trace` list gets (index, kind, output shape) of each
        layer run. Infer mode runs under ``no_grad``: it records no graph and
        returns a Tensor with no node."""
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode {mode!r}")
        with ad.no_grad() if mode == "infer" else contextlib.nullcontext():
            h = x
            for i, layer in enumerate(self.spec.layers):
                k = layer.kind
                if stop_at is not None and k == stop_at:
                    return h
                if k in _NEEDS_KERNEL:  # the three convolutions are the nn functions of their kind's name
                    w, b = self.params[f"{layer.param}.w"], self.params[f"{layer.param}.b"] if layer.bias else None
                    h = ad.matmul(h, w, b) if k == "dense" else getattr(nn, k)(h, w, b, layer.stride)
                elif k == "maxpool2d":
                    h = nn.maxpool2d(h)
                elif k == "batch_norm":
                    h = nn.batch_norm(h, self.params[f"{layer.param}.gamma"], self.params[f"{layer.param}.beta"],
                                      self.running[layer.param], mode, layer.alpha)
                elif k == "leaky_relu":
                    h = ad.leaky_relu(h, LRELU_ALPHA)
                elif k == "tanh":
                    h = ad.tanh(h)
                elif k == "phase_shuffle":
                    h = nn.phase_shuffle(h, self.spec.phase_shuffle_n, rng, mode)
                elif k == "crop":
                    h = nn.crop_center(h, self.spec.signal_length)
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
        """Load every parameter and statistic; of other keys only `meta.*` ones may appear."""
        own = self.state_dict()
        for name in state:
            if name not in own and not name.startswith("meta."):
                raise ValueError(f"checkpoint has {name!r}, which the {self.spec.name} does not have")
        for name, current in own.items():
            if name not in state:
                raise ValueError(f"checkpoint is missing {name!r}")
            arr = np.asarray(state[name], dtype=ad.DTYPE)
            if arr.shape != current.shape:
                raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {current.shape}")
            if name in self.params:
                self.params[name].data = arr.copy()
            else:
                param, stat = name.rsplit(".running_", 1)
                self.running[param][stat] = arr.copy()


def build(
    name: str,
    d: int = 16,
    z_len: int = 100,
    signal_length: int = 5000,
    seed: int = 0,
    phase_shuffle_n: int = 0,
) -> Network:
    """Construct one of the four networks with freshly initialized parameters."""
    if d < 1:
        raise ValueError("model dimensionality d must be >= 1")
    if name == "generator":
        spec = generator_spec(d, z_len, signal_length)
    elif name == "critic":
        spec = critic_spec(d, signal_length, phase_shuffle_n)
    elif name == "inception":
        spec = inception_spec()
    elif name == "denoiser":
        spec = denoiser_spec(d, signal_length, phase_shuffle_n)
    else:
        raise ValueError(f"unknown network {name!r}; expected one of {NETWORK_NAMES}")
    return Network(spec, seed=seed)


# the spec fields each network's checkpoint records, in the order written
_META_FIELDS = {
    "generator": ("d", "z_len", "signal_length"),
    "critic": ("d", "signal_length", "phase_shuffle_n"),
    "inception": (),
    "denoiser": ("d", "signal_length", "phase_shuffle_n"),
}
# the meta keys a checkpoint may lack, with the value they then take
_META_ABSENT = {("denoiser", "phase_shuffle_n"): 0}


def checkpoint_state(net: Network) -> dict[str, np.ndarray]:
    """`net.state_dict()` plus its `meta.*` spec fields (module docstring)."""
    state = net.state_dict()
    for key in _META_FIELDS[net.spec.name]:
        state[f"meta.{key}"] = np.array([float(getattr(net.spec, key))])
    return state


def from_checkpoint(name: str, state: dict[str, np.ndarray], signal_length: int | None = None) -> Network:
    """Rebuild network `name` from a `checkpoint_state`; a given
    `signal_length` replaces the stored one, which then need not be there."""
    sizes = {} if signal_length is None else {"signal_length": signal_length}
    for key in _META_FIELDS[name]:
        if key not in sizes:
            arr = state.get(f"meta.{key}")
            if arr is not None:
                sizes[key] = int(float(np.asarray(arr).reshape(-1)[0]))
            elif (name, key) in _META_ABSENT:
                sizes[key] = _META_ABSENT[name, key]
            else:
                raise ValueError(f"checkpoint is missing metadata {key!r}")
    net = build(name, **sizes)
    net.load_state_dict(state)
    return net


def infer(net: Network, x: np.ndarray) -> np.ndarray:
    """Inference-mode forward of `x` in chunks of INFER_BATCH rows, the
    training batch, so its memory is one chunk's activations plus the
    output. Each row is computed on its own: the output bytes do not
    depend on the chunk size. Like every inference forward it records no
    graph. An empty `x` runs one empty forward: zero rows of the output
    shape."""
    return np.concatenate([
        net.forward(Tensor(x[i : i + INFER_BATCH]), mode="infer").data
        for i in range(0, max(len(x), 1), INFER_BATCH)
    ])


def sample_latent(rng: np.random.Generator, n: int, z_len: int, dist: str) -> Tensor:
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
