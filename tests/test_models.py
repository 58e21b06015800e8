import gc
import weakref

import numpy as np
import pytest

from ecglab import autodiff as ad
from ecglab import models
from ecglab.autodiff import Tensor
from ecglab.checkpoint import load_params, save_params

rng = np.random.default_rng(42)


def shapes_of(net, x, mode="infer", rng_=None):
    trace = []
    with ad.no_grad():
        net.forward(x, mode=mode, rng=rng_, trace=trace)
    return [t[2] for t in trace]


# expected per-layer output shapes for d=16, n=2, straight from the
# architecture tables
GENERATOR_SHAPES = [
    (2, 2048), (2, 8, 256),
    (2, 32, 128), (2, 32, 128),
    (2, 128, 64), (2, 128, 64),
    (2, 512, 32), (2, 512, 32),
    (2, 2048, 16), (2, 2048, 16),
    (2, 8192, 1), (2, 5000, 1), (2, 5000, 1),
]

CRITIC_SHAPES = [
    (2, 1250, 1), (2, 1250, 1), (2, 1250, 1),
    (2, 313, 16), (2, 313, 16), (2, 313, 16),
    (2, 79, 32), (2, 79, 32), (2, 79, 32),
    (2, 20, 64), (2, 20, 64), (2, 20, 64),
    (2, 5, 128), (2, 5, 128), (2, 5, 128),
    (2, 640), (2, 1),
]

INCEPTION_SHAPES = [
    (2, 32, 32, 64), (2, 32, 32, 64), (2, 16, 16, 64),
    (2, 8, 8, 64), (2, 8, 8, 64), (2, 4, 4, 64),
    (2, 2, 2, 64), (2, 2, 2, 64), (2, 1, 1, 64),
    (2, 64), (2, 5),
]

DENOISER_SHAPES = [
    (2, 1250, 1), (2, 1250, 1),
    (2, 313, 16), (2, 313, 16),
    (2, 79, 32), (2, 79, 32),
    (2, 20, 64), (2, 20, 64),
    (2, 80, 64), (2, 80, 64),
    (2, 320, 32), (2, 320, 32),
    (2, 1280, 16), (2, 1280, 16),
    (2, 5120, 1), (2, 5120, 1),
    (2, 5000, 1), (2, 5000, 1),
]


def test_generator_shapes_full_scale():
    net = models.build("generator", d=16, z_len=100, seed=0)
    assert shapes_of(net, Tensor(rng.uniform(-1, 1, size=(2, 100)))) == GENERATOR_SHAPES


def test_critic_shapes_full_scale():
    net = models.build("critic", d=16, seed=0)
    x = Tensor(rng.normal(size=(2, 5000, 1)))
    assert shapes_of(net, x, mode="train", rng_=np.random.default_rng(0)) == CRITIC_SHAPES


def test_inception_shapes():
    net = models.build("inception", seed=0)
    assert shapes_of(net, Tensor(rng.normal(size=(2, 64, 64, 1)))) == INCEPTION_SHAPES


def test_denoiser_shapes_full_scale():
    net = models.build("denoiser", d=16, seed=0)
    assert shapes_of(net, Tensor(rng.normal(size=(2, 5000, 1)))) == DENOISER_SHAPES


@pytest.mark.parametrize("d", [2, 4, 16])
def test_shape_formulas_scale_with_d(d):
    gen = models.build("generator", d=d, seed=0)
    out = []
    with ad.no_grad():
        t = []
        gen.forward(Tensor(rng.uniform(-1, 1, size=(3, 100))), trace=t)
    tconv_channels = [s[2][2] for s in t if s[1] == "trans_conv1d"]
    assert tconv_channels == [8 * d, 4 * d, 2 * d, d, 1]

    crit = models.build("critic", d=d, seed=0)
    with ad.no_grad():
        t = []
        crit.forward(Tensor(rng.normal(size=(3, 5000, 1))), trace=t)
    conv_channels = [s[2][2] for s in t if s[1] == "conv1d"]
    assert conv_channels == [1, d, 2 * d, 4 * d, 8 * d]
    assert t[-2][2] == (3, 40 * d)

    den = models.build("denoiser", d=d, seed=0)
    with ad.no_grad():
        out = den.forward(Tensor(rng.normal(size=(3, 5000, 1))))
    assert out.shape == (3, 5000, 1)


def test_output_ranges():
    gen = models.build("generator", d=4, signal_length=512, seed=1)
    with ad.no_grad():
        g = gen.forward(Tensor(rng.uniform(-1, 1, size=(4, 100))))
    assert np.all(g.data >= -1.0) and np.all(g.data <= 1.0)

    inc = models.build("inception", seed=1)  # ends in its dense layer's logits
    with ad.no_grad():
        p = inc.forward(Tensor(rng.normal(size=(4, 64, 64, 1))))
    assert p.shape == (4, 5) and np.all(np.isfinite(p.data))

    den = models.build("denoiser", d=4, signal_length=512, seed=1)
    with ad.no_grad():
        y = den.forward(Tensor(rng.normal(size=(4, 512, 1))))
    assert np.all(np.abs(y.data) <= 1.0)


def _move_running_stats(net):
    """Batch norm's running statistics, away from the identity map."""
    for stats in net.running.values():
        stats["mean"][:] = rng.normal(size=stats["mean"].shape)
        stats["var"][:] = rng.uniform(0.5, 2, size=stats["var"].shape)


def _infer_bytes(monkeypatch, net, x, batch):
    monkeypatch.setattr(models, "INFER_BATCH", batch)
    return models.infer(net, x).tobytes()


def test_infer_chunks_equal_one_whole_batch_forward(monkeypatch):
    """In float32, the precision the CLI runs, each network's output bytes
    do not depend on the chunk size. At paper size (d=16, 64x64 classifier
    grids) the matmuls are large enough for OpenBLAS to run on several
    threads."""
    for name, row in [("generator", (100,)), ("critic", (5000, 1)), ("denoiser", (5000, 1)),
                      ("inception", (64, 64, 1))]:
        net = models.build(name, seed=2)
        _move_running_stats(net)
        x = rng.uniform(-1, 1, size=(2 * 16 + 3, *row))
        assert _infer_bytes(monkeypatch, net, x, 16) == _infer_bytes(monkeypatch, net, x, 128), name


def test_infer_memory_is_one_chunk_plus_the_output():
    """On 3 chunks of rows, models.infer's tracemalloc peak exceeds its peak
    on one chunk by at most the output twice over: the chunk list and its
    concatenation. A chunk's activations are not held three times."""
    import tracemalloc

    gen = models.build("generator", d=2, z_len=8, signal_length=256, seed=2)
    peaks = []
    for n in (models.INFER_BATCH, 3 * models.INFER_BATCH):
        z = rng.uniform(-1, 1, size=(n, 8)).astype(ad.DTYPE)
        tracemalloc.start()
        try:
            out = models.infer(gen, z)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert out.shape == (3 * models.INFER_BATCH, 256, 1)
    assert peaks[1] - peaks[0] <= 2 * out.nbytes


@pytest.mark.float64
def test_infer_chunks_equal_one_whole_batch_forward_in_float64():
    den = models.build("denoiser", d=2, signal_length=128, seed=2)
    x = rng.normal(size=(2 * models.INFER_BATCH + 3, 128, 1))
    with ad.no_grad():
        whole = den.forward(Tensor(x), mode="infer").data
    out = models.infer(den, x)
    assert type(out) is np.ndarray
    assert np.array_equal(out, whole)
    assert models.infer(den, x[:0]).shape == (0, 128, 1)


def test_forward_stop_at_halts_before_the_first_layer_of_that_kind():
    den = models.build("denoiser", d=2, signal_length=128, seed=2)
    trace = []
    out = den.forward(Tensor(rng.normal(size=(2, 128, 1))), trace=trace, stop_at="crop")
    assert [kind for _, kind, _ in trace] == [layer.kind for layer in den.spec.layers[:-2]]
    assert out.shape == trace[-1][2] == (2, 256, 1)  # the decoder overshoots 128


@pytest.mark.parametrize("name,shape", [("generator", (3, 100)), ("critic", (3, 128, 1)),
                                        ("denoiser", (3, 128, 1)), ("inception", (3, 64, 64, 1))])
def test_infer_forward_records_no_graph(name, shape):
    """With recording on, an inference forward returns a Tensor with no
    node, byte-equal to models.infer's output, and recording is on again
    after it: a train forward records."""
    net = models.build(name, d=2, signal_length=128, seed=3)
    _move_running_stats(net)
    x = rng.uniform(-1, 1, size=shape)
    out = net.forward(Tensor(x), mode="infer")
    assert out._node is None and not out.requires_grad
    assert out.data.tobytes() == models.infer(net, x).tobytes()
    assert net.forward(Tensor(x), mode="train", rng=np.random.default_rng(0))._node is not None


def test_invalid_network_name_and_d():
    with pytest.raises(ValueError):
        models.build("vae")
    with pytest.raises(ValueError):
        models.build("generator", d=0)


# ---------------------------------------------------------------------------
# parameter counts


def test_count_params_generator_dense():
    net = models.build("generator", d=16, z_len=100, seed=0)
    dense = net.params["dense1.w"].size + net.params["dense1.b"].size
    assert dense == 100 * 128 * 16 + 2048 == 206_848


def test_count_params_inception_dense():
    net = models.build("inception", seed=0)
    assert net.params["dense1.w"].size + net.params["dense1.b"].size == 325


def test_count_params_invariant_under_forward():
    net = models.build("critic", d=4, signal_length=512, seed=0)
    before = sum(p.data.size for p in net.params.values())
    with ad.no_grad():
        net.forward(Tensor(rng.normal(size=(2, 512, 1))), mode="train",
                    rng=np.random.default_rng(0))
    assert sum(p.data.size for p in net.params.values()) == before


# ---------------------------------------------------------------------------
# transfer learning


def test_transfer_copies_encoder_activations():
    from ecglab import nn

    critic = models.build("critic", d=8, signal_length=512, seed=3)
    den = models.build("denoiser", d=8, signal_length=512, seed=4)
    models.transfer_critic_to_denoiser(critic.state_dict(), den)

    x = rng.normal(size=(2, 512, 1))
    with ad.no_grad():
        # walk the shared four convolutions of both nets, shuffle disabled
        hc, hd = Tensor(x), Tensor(x)
        for name in models.ENCODER_CONVS:
            hc = ad.leaky_relu(nn.conv1d(hc, critic.params[f"{name}.w"], critic.params[f"{name}.b"], 4), 0.2)
            hd = ad.leaky_relu(nn.conv1d(hd, den.params[f"{name}.w"], den.params[f"{name}.b"], 4), 0.2)
    assert np.max(np.abs(hc.data - hd.data)) < 1e-12


def test_transfer_d_mismatch_raises():
    critic = models.build("critic", d=16, signal_length=512, seed=0)
    den = models.build("denoiser", d=8, signal_length=512, seed=0)
    with pytest.raises(ValueError):
        models.transfer_critic_to_denoiser(critic.state_dict(), den)


def test_transfer_leaves_decoder_fresh():
    critic = models.build("critic", d=4, signal_length=512, seed=5)
    den = models.build("denoiser", d=4, signal_length=512, seed=6)
    decoder_before = {k: v.data.copy() for k, v in den.params.items() if k.startswith("tconv")}
    models.transfer_critic_to_denoiser(critic.state_dict(), den)
    for k, v in decoder_before.items():
        assert np.array_equal(den.params[k].data, v)
    # encoder actually changed
    assert not np.array_equal(den.params["conv2.w"].data, critic.params["conv2.w"].data * 0)


def test_state_dict_round_trip():
    net = models.build("inception", seed=7)
    state = net.state_dict()
    other = models.build("inception", seed=8)
    other.load_state_dict(state)
    for k, p in net.params.items():
        assert np.array_equal(other.params[k].data, p.data)


def test_load_state_dict_missing_running_stats_names_key():
    net = models.build("generator", d=1, z_len=4, signal_length=128, seed=0)
    state = net.state_dict()
    del state["bn1.running_var"]
    with pytest.raises(ValueError, match="bn1.running_var"):
        net.load_state_dict(state)


def test_load_state_dict_checks_the_shape_of_running_stats():
    """A one-element statistic would broadcast over every channel."""
    net = models.build("generator", d=4, z_len=4, signal_length=128, seed=0)
    state = dict(net.state_dict(), **{"bn1.running_mean": np.zeros(1)})
    with pytest.raises(ValueError, match=r"shape mismatch for 'bn1.running_mean': \(1,\) vs \(4,\)"):
        net.load_state_dict(state)


@pytest.mark.parametrize("name", models.NETWORK_NAMES)
def test_no_kernel_layer_before_a_batch_norm_has_a_bias(name):
    """Batch norm cancels a bias before it; a kernel layer has a bias
    parameter exactly when its spec says so."""
    net = models.build(name, d=16, seed=0)
    layers = net.spec.layers
    for layer, following in zip(layers, layers[1:] + (None,)):
        if layer.kind in models._NEEDS_KERNEL:
            assert not (layer.bias and following is not None and following.kind == "batch_norm"), layer.param
            assert (f"{layer.param}.b" in net.params) == layer.bias, layer.param
    expected = {"generator": (16, {"tconv1", "tconv2", "tconv3", "tconv4"}), "critic": (11, {"dense1"}),
                "inception": (11, {"conv1", "conv2", "conv3"}), "denoiser": (16, set())}[name]
    unbiased = {k[:-2] for k in net.params if k.endswith(".w") and k[:-2] + ".b" not in net.params}
    assert (len(net.params), unbiased) == expected


def test_load_state_dict_rejects_a_key_the_network_lacks():
    net = models.build("generator", d=1, z_len=4, signal_length=128, seed=0)
    state = dict(net.state_dict(), **{"meta.d": np.ones(1)})
    net.load_state_dict(state)
    state["tconv1.b"] = np.zeros(net.params["tconv1.w"].shape[-1])
    with pytest.raises(ValueError, match=r"^checkpoint has 'tconv1.b', which the generator does not have$"):
        net.load_state_dict(state)


def test_batch_norm_without_a_kernel_layer_before_it_raises():
    spec = models.NetworkSpec("bad", 0, 0, 8, (models.LayerSpec("batch_norm", param="bn1", alpha=0.0),))
    with pytest.raises(ValueError, match="no preceding"):
        models.Network(spec, seed=0)


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        models.LayerSpec("conv1d", kernel=(25, 1, 1))  # missing stride
    with pytest.raises(ValueError):
        models.LayerSpec("tanh", stride=2)  # stride not allowed
    with pytest.raises(ValueError, match="^layer 'batch_norm': alpha required$"):
        models.LayerSpec("batch_norm", param="bn1")
    with pytest.raises(ValueError, match="^layer 'leaky_relu': alpha not allowed$"):
        models.LayerSpec("leaky_relu", alpha=0.2)
    with pytest.raises(ValueError, match="^layer 'dense': bias required$"):
        models.LayerSpec("dense", kernel=(4, 2), param="dense1")
    with pytest.raises(ValueError, match="^layer 'tanh': bias not allowed$"):
        models.LayerSpec("tanh", bias=False)


# ---------------------------------------------------------------------------
# what a train-mode graph keeps


def _held_arrays(root, where=lambda v: True):
    """Every array that root's graph keeps alive at the vertices for which
    `where` holds: those their VJP and rebuild closures hold, directly or
    as a captured Tensor's data, and those the vertices carry."""
    arrays, seen, stack = [], set(), list(root._parents)
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        stack.extend(v._parents)
        if not where(v):
            continue
        if hasattr(v, "data"):
            arrays.append(v.data)
        cells = [cell for fn in (v._vjp, getattr(v, "_rebuild", None))
                 for cell in getattr(fn, "__closure__", None) or ()]
        while cells:
            held = cells.pop().cell_contents
            if isinstance(held, np.ndarray):
                arrays.append(held)
            elif isinstance(held, Tensor):
                arrays.append(held.data)
            elif callable(held):  # a helper or an inner VJP that the VJP calls
                cells.extend(getattr(held, "__closure__", None) or ())
    return arrays


_TRAIN_INPUTS = {"generator": (3, 8), "inception": (3, 64, 64, 1), "denoiser": (3, 250, 1), "critic": (3, 250, 1)}


@pytest.mark.parametrize("name,per_stage", [("generator", 1), ("inception", 1), ("denoiser", 1), ("critic", 1)])
def test_train_graph_holds_only_what_its_vjps_read(name, per_stage, monkeypatch):
    """The only kernel layer outputs that outlive a train-mode forward are
    the ones a batch norm node holds: it rebuilds its normalized input and
    its output from them where a VJP reads those. No VJP reads the others,
    the outputs that the phase shuffle or the leaky ReLU read. Each stage's
    graph holds `per_stage` buffers of its activation's size: that kernel
    output in a generator or classifier stage, the leaky ReLU's activation
    in a denoiser or critic stage (the critic's shuffled conv output is
    gone too). The input leaf is never written."""
    kernel_outputs = []

    def recording(op):
        def run(*args):
            out = op(*args)
            kernel_outputs.append(weakref.ref(out.data))
            return out

        return run

    for op in ("conv_len", "trans_conv_len"):
        monkeypatch.setattr(ad, op, recording(getattr(ad, op)))
    # 250 samples: no stage's activation has the input's or the output's shape
    net = models.build(name, d=2, z_len=8, signal_length=250, seed=0)
    x0 = rng.uniform(-1, 1, size=_TRAIN_INPUTS[name]).astype(ad.DTYPE)
    x = Tensor(x0.copy(), requires_grad=True)
    trace = []
    gc.disable()
    try:
        out = net.forward(x, mode="train", rng=np.random.default_rng(0), trace=trace)
        alive = [ref() for ref in kernel_outputs if ref() is not None]
        held = _held_arrays(out)
        by_batch_norm = _held_arrays(out, where=lambda v: getattr(v, "_rebuild", None) is not None)
    finally:
        gc.enable()
    kinds = [kind for _, kind, _ in trace]
    assert kernel_outputs and len(alive) == kinds.count("batch_norm")
    assert all(any(np.shares_memory(k, a) for a in by_batch_norm) for k in alive)
    stages = [shape for i, (_, kind, shape) in enumerate(trace)
              if kind in ("conv1d", "trans_conv1d", "conv2d") and kinds[i + 1] != "crop"]
    assert len(stages) == {"generator": 2, "inception": 3, "denoiser": 8, "critic": 5}[name]
    for shape in stages:
        flat = (shape[0], int(np.prod(shape[1:])))  # batch norm keeps its input as one row per sample
        buffers = []
        for arr in held:
            if arr.dtype == ad.DTYPE and arr.shape in (shape, flat) and not any(np.shares_memory(arr, b) for b in buffers):
                buffers.append(arr)
        assert len(buffers) == per_stage, shape
    assert x.data.tobytes() == x0.tobytes()


@pytest.mark.parametrize("name", ["generator", "inception", "critic", "denoiser"])
def test_a_batch_norm_run_alone_leaves_its_leaf_input_unchanged(name):
    """A spec holding only the batch norm layer (generator, classifier) or
    leaky ReLU layer (critic, denoiser), as the benchmark's layer table runs
    it: its input is a leaf, not a kernel layer's output."""
    import dataclasses

    net = models.build(name, d=2, z_len=8, signal_length=128, seed=0)
    kind = "batch_norm" if name in ("generator", "inception") else "leaky_relu"
    layer = next(layer for layer in net.spec.layers if layer.kind == kind)
    net.spec = dataclasses.replace(net.spec, layers=(layer,))
    c = net.params[f"{layer.param}.gamma"].size if kind == "batch_norm" else 3
    shape = (4, 8, 8, c) if name == "inception" else (4, 32, c)
    x0 = rng.normal(size=shape).astype(ad.DTYPE)
    x = Tensor(x0.copy(), requires_grad=True)
    ad.backward(ad.sum_(net.forward(x, mode="train")))
    assert x.data.tobytes() == x0.tobytes()


# ---------------------------------------------------------------------------
# checkpoint metadata


_META_CASES = {
    "generator": (dict(d=2, z_len=8, signal_length=128), ["d", "z_len", "signal_length"]),
    # phase shuffle 1, not build's default 2: the file must carry it
    "critic": (dict(d=3, signal_length=96, phase_shuffle_n=1), ["d", "signal_length", "phase_shuffle_n"]),
    "inception": ({}, []),
    # phase shuffle 2, not build's default 0: the file must carry it
    "denoiser": (dict(d=2, signal_length=96, phase_shuffle_n=2), ["d", "signal_length", "phase_shuffle_n"]),
}


@pytest.mark.parametrize("name", models.NETWORK_NAMES)
def test_checkpoint_metadata_round_trips_with_exactly_the_spec_keys(name, tmp_path):
    """The file holds the state plus exactly the listed meta keys, in order,
    and rebuilding from it gives the same spec and the same arrays."""
    sizes, keys = _META_CASES[name]
    net = models.build(name, seed=3, **sizes)
    state = models.checkpoint_state(net)
    assert list(state)[: len(net.state_dict())] == list(net.state_dict())
    assert [k for k in state if k.startswith("meta.")] == [f"meta.{k}" for k in keys]
    for key in keys:
        assert state[f"meta.{key}"].tolist() == [float(sizes[key])]
    save_params(tmp_path / "n.ecgw", state)
    back = models.from_checkpoint(name, load_params(tmp_path / "n.ecgw"))
    assert back.spec == net.spec
    got = back.state_dict()
    assert list(got) == list(net.state_dict())
    for key, arr in net.state_dict().items():
        assert got[key].tobytes() == arr.tobytes(), key


def test_from_checkpoint_reads_metadata_by_name_in_any_order():
    """A checkpoint whose meta keys come as d, signal_length, z_len loads."""
    net = models.build("generator", d=2, z_len=8, signal_length=128, seed=0)
    state = net.state_dict()
    for key, value in (("d", 2), ("signal_length", 128), ("z_len", 8)):
        state[f"meta.{key}"] = np.array([float(value)])
    assert models.from_checkpoint("generator", state).spec == net.spec


@pytest.mark.parametrize("name,missing", [("generator", "d"), ("generator", "z_len"),
                                          ("generator", "signal_length"), ("denoiser", "d"),
                                          ("critic", "phase_shuffle_n")])
def test_from_checkpoint_names_the_missing_metadata(name, missing):
    state = models.checkpoint_state(models.build(name, d=2, signal_length=128))
    del state[f"meta.{missing}"]
    with pytest.raises(ValueError, match=rf"^checkpoint is missing metadata '{missing}'$"):
        models.from_checkpoint(name, state)


def test_a_denoiser_checkpoint_without_phase_shuffle_loads_without_one():
    """Denoiser checkpoints written before the key was recorded, or by hand
    with d and signal_length only, load with phase shuffle 0."""
    net = models.build("denoiser", d=2, signal_length=96, seed=1, phase_shuffle_n=2)
    state = models.checkpoint_state(net)
    del state["meta.phase_shuffle_n"]
    back = models.from_checkpoint("denoiser", state)
    assert back.spec == models.build("denoiser", d=2, signal_length=96).spec
    assert back.spec.phase_shuffle_n == 0


def test_from_checkpoint_signal_length_replaces_the_stored_one():
    """A given length builds the denoiser at that length, with or without a
    stored one; the convolution kernels do not depend on it."""
    net = models.build("denoiser", d=2, signal_length=128, seed=1)
    state = models.checkpoint_state(net)
    other = models.from_checkpoint("denoiser", state, signal_length=96)
    assert other.spec == models.build("denoiser", d=2, signal_length=96).spec
    del state["meta.signal_length"]
    assert models.from_checkpoint("denoiser", state, signal_length=96).spec == other.spec
    assert models.infer(other, rng.normal(size=(2, 96, 1))).shape == (2, 96, 1)
