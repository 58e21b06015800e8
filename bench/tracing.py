"""Span tracing around ecglab's public functions, for the traced run only.

`Tracer.install` replaces each traced function by a wrapper wherever the
function is bound in a loaded `ecglab` module, so a call is seen whether
it is looked up where it is defined (`ad.backward`) or where it was
imported (`ecglab.training.adam_step`, `ecglab.metrics.detect_qrs`).
`Network.forward` is wrapped on the class. Spans (name, start, end,
parent) stay in memory; self time is a span's duration minus the time
its child spans cover.

After the job, `layer_table` times each layer of every network the job
ran, alone, at the input shapes its dominant forward recorded through
`Network.forward(trace=...)`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import defaultdict
from statistics import median

import numpy as np

NN_FUNCS = ("conv1d", "trans_conv1d", "conv2d", "maxpool2d", "batch_norm", "phase_shuffle")
# (module, function, span name); a span name may collect several functions
TRACED = (
    ("ecglab.autodiff", "grad", "autodiff.grad"),
    ("ecglab.training", "gradient_penalty", "training.gradient_penalty"),
    ("ecglab.optim", "adam_step", "optim.adam_step"),
    *(("ecglab.nn", f, f"nn.{f}") for f in NN_FUNCS),
    ("ecglab.synth", "mcsharry_batch", "synth.mcsharry_batch"),
    ("ecglab.synth", "make_training_pairs", "synth.make_training_pairs"),
    ("ecglab.dsp", "detect_qrs", "dsp.detect_qrs"),
    ("ecglab.dsp", "bandpass_filter", "dsp.bandpass_filter"),
    ("ecglab.dsp", "wavelet_filter", "dsp.wavelet_filter"),
    ("ecglab.dsp", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("ecglab.signals", "read_dataset", "signals.io"),
    ("ecglab.signals", "write_dataset", "signals.io"),
    ("ecglab.signals", "read_pairs", "signals.io"),
    ("ecglab.signals", "write_pairs", "signals.io"),
    ("ecglab.checkpoint", "load_params", "checkpoint.io"),
    ("ecglab.checkpoint", "save_params", "checkpoint.io"),
)
NETWORKS = ("generator", "critic", "denoiser", "inception")
MODES = ("train", "infer")
CLI_STAGES = ("synth", "noise", "train_inception", "eval", "synth_gan")
EVAL_METHODS = ("none", "bandpass", "wavelet", "denoiser")
LAYER_REPS = 3


@dataclasses.dataclass
class ForwardRecord:
    """Calls of one network at one (mode, input shape)."""

    net: object
    calls: int = 0
    seconds: float = 0.0
    recorded: bool = False  # some call built a graph
    out_shapes: list = dataclasses.field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.graph_nodes = 0
        self.forwards: dict[tuple, ForwardRecord] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ecglab" or mod_name.startswith("ecglab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _wrap(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import ecglab.cli  # noqa: F401  (loads every module the CLI looks names up in)
        from ecglab import autodiff, metrics, models

        for mod_name, attr, span_name in TRACED:
            fn = getattr(sys.modules[mod_name], attr)
            self._replace(fn, self._wrap(fn, lambda *a, _n=span_name, **k: _n))
        self._replace(metrics.evaluate_denoiser,
                      self._wrap(metrics.evaluate_denoiser, _evaluate_span_name))

        backward = autodiff.backward

        @functools.wraps(backward)
        def traced_backward(loss):
            self.graph_nodes += count_graph_nodes(loss)
            with self.span("autodiff.backward"):
                return backward(loss)

        self._replace(backward, traced_backward)

        forward = models.Network.forward

        @functools.wraps(forward)
        def traced_forward(net, x, mode="infer", rng=None, trace=None, stop_at=None):
            shapes = [] if trace is None else trace
            with self.span(f"models.forward.{net.spec.name}.{mode}") as idx:
                out = forward(net, x, mode=mode, rng=rng, trace=shapes, stop_at=stop_at)
            start, end = self.spans[idx][1:3]
            rec = self.forwards.setdefault((net.spec.name, mode, tuple(x.shape)), ForwardRecord(net))
            rec.calls += 1
            rec.seconds += end - start
            rec.recorded |= out._vjp is not None
            rec.out_shapes = [shape for _, _, shape in shapes]
            return out

        models.Network.forward = traced_forward
        self._patched.append((models.Network, "forward", forward))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds, self seconds."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        child = defaultdict(float)
        for idx, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[idx]
        return calls, total, self_s

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["name,start_s,end_s,parent"]
        lines += [f"{n},{s - t0!r},{e - t0!r},{p}" for n, s, e, p in self.spans]
        path.write_text("\n".join(lines) + "\n")


def _evaluate_span_name(denoise, pairs, tag, *a, **k) -> str:
    return f"metrics.evaluate_denoiser.{tag}"


def count_graph_nodes(root) -> int:
    """Distinct tensors reachable from `root` through `_parents`."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


# ---------------------------------------------------------------------------
# layer table


def layer_names(net_name: str) -> list[str]:
    """The `param` names of the paper-scale spec's parameterized layers."""
    from ecglab import models

    spec = models.build(net_name, d=16, signal_length=5000).spec
    return [layer.param for layer in spec.layers if layer.param is not None]


def _single_layer(net, layer):
    from ecglab import models

    sub = models.Network.__new__(models.Network)
    sub.spec = dataclasses.replace(net.spec, layers=(layer,))
    sub.params = net.params
    sub.running = {k: dict(v) for k, v in net.running.items()}
    return sub


def _median_ms(fn, reps: int = LAYER_REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def layer_table(forwards: dict[tuple, ForwardRecord], seed: int) -> dict[str, float]:
    """fwd/bwd (and critic gp) milliseconds of each layer, timed alone.

    For each network the (mode, input shape) with the most forward time is
    used. Backward is timed only where that forward built a graph; gp is
    the create_graph input-gradient plus the backward of its squared norm.
    """
    from ecglab import autodiff as ad
    from ecglab.autodiff import Tensor
    from ecglab.optim import zero_grads

    rng = np.random.default_rng(seed)
    out: dict[str, float] = defaultdict(float)
    best: dict[str, tuple] = {}
    for key, rec in forwards.items():
        if key[0] not in best or rec.seconds > forwards[best[key[0]]].seconds:
            best[key[0]] = key
    for net_name, key in best.items():
        rec = forwards[key]
        mode, in_shape = key[1], key[2]
        net = rec.net
        shapes = [in_shape] + rec.out_shapes
        for i, layer in enumerate(net.spec.layers[: len(rec.out_shapes)]):
            sub = _single_layer(net, layer)
            label = f"layer.{net_name}.{layer.param or 'other'}"
            params = [p for name, p in net.params.items() if name.split(".")[0] == layer.param]
            x = Tensor(rng.standard_normal(shapes[i]), requires_grad=rec.recorded and i > 0)

            def forward(x=x, sub=sub):
                return sub.forward(x, mode=mode, rng=np.random.default_rng(0))

            if rec.recorded:
                out[f"{label}.fwd_ms"] += _median_ms(forward)
            else:
                with ad.no_grad():
                    out[f"{label}.fwd_ms"] += _median_ms(forward)
                continue
            y = forward()
            wrt = ([x] if x.requires_grad else []) + params
            if y._vjp is None or not wrt:
                continue
            cot = Tensor(rng.standard_normal(y.shape))
            out[f"{label}.bwd_ms"] += _median_ms(lambda: ad.grad(y, wrt, cotangent=cot))
            if net_name == "critic" and layer.param is not None:
                xg = Tensor(x.data, requires_grad=True)
                yg = sub.forward(xg, mode=mode, rng=np.random.default_rng(0))

                def penalty(yg=yg, xg=xg):
                    (gx,) = ad.grad(yg, [xg], cotangent=cot, create_graph=True)
                    ad.backward(ad.sum_(ad.mul(gx, gx)))

                out[f"{label}.gp_ms"] = _median_ms(penalty)
                zero_grads(net.params)
    return out


# ---------------------------------------------------------------------------
# metric names


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    names = [("autodiff.grad.self_ms", "ms"), ("training.gradient_penalty.self_ms", "ms")]
    names += [(f"layer.critic.{p}.gp_ms", "ms") for p in layer_names("critic")]
    names += [("autodiff.backward.self_ms", "ms"), ("autodiff.backward.graph_nodes", "count"),
              ("optim.adam_step.self_ms", "ms")]
    names += [(f"nn.{f}.self_ms", "ms") for f in NN_FUNCS]
    for net in NETWORKS:
        for mode in MODES:
            names += [(f"models.forward.{net}.{mode}.calls", "count"),
                      (f"models.forward.{net}.{mode}.ms", "ms")]
    for net in NETWORKS:
        for param in layer_names(net) + ["other"]:
            names += [(f"layer.{net}.{param}.fwd_ms", "ms"), (f"layer.{net}.{param}.bwd_ms", "ms")]
    names += [(f"cli.{stage}.s", "s") for stage in CLI_STAGES]
    names += [("synth.mcsharry_batch.self_ms", "ms"), ("synth.make_training_pairs.self_ms", "ms"),
              ("dsp.detect_qrs.calls", "count"), ("dsp.detect_qrs.self_ms", "ms")]
    names += [(f"dsp.{f}.self_ms", "ms") for f in ("bandpass_filter", "wavelet_filter", "mel_spectrogram")]
    names += [(f"metrics.evaluate_denoiser.{m}.ms", "ms") for m in EVAL_METHODS]
    names += [("signals.io.self_ms", "ms"), ("checkpoint.io.self_ms", "ms"),
              ("trace.overhead_s", "s"), ("fail_ratio", "ratio")]
    return names


def traced_metrics(tracer: Tracer, layers: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric except trace.overhead_s and fail_ratio, which
    need the untraced repetition and the checks.

    Metrics of layers or functions the workload never reached read 0.
    """
    calls, total, self_s = tracer.summary()
    metrics: dict[str, dict] = {}
    for name, unit in per_layer_names():
        if name in ("trace.overhead_s", "fail_ratio"):
            continue
        if name.startswith("layer."):
            value = layers.get(name, 0.0)
        elif name.endswith(".self_ms"):
            value = 1e3 * self_s.get(name[: -len(".self_ms")], 0.0)
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".ms"):
            value = 1e3 * total.get(name[: -len(".ms")], 0.0)
        elif name.endswith(".s"):
            value = total.get(name[: -len(".s")], 0.0)
        else:
            value = tracer.graph_nodes
        metrics[name] = {"value": value, "unit": unit}
    return metrics
