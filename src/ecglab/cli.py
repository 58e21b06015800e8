"""Command-line pipeline: synth -> noise -> train -> eval/sweep.

Every subcommand with a --seed flag writes byte-identical outputs across
runs. Exit code is 0 iff all requested outputs were written; any failure
prints a single-line diagnostic to stderr and returns 1 (argparse usage
errors exit with 2).

On glibc, ``main`` first pins malloc's mmap threshold at 32 MiB and its
trim threshold at 64 MiB (``_pin_malloc_thresholds``). glibc starts both
at 128 KB and raises them only as buffers are freed, so until then each
freed multi-MB array goes back to the kernel and the next allocation
faults it in again. One paper-scale GAN step took about 100k minor faults
with glibc's defaults and 20k with the thresholds pinned; most of that
saving is the allocator's warm-up, paid once per process. The cost is
memory: up to 64 MiB of freed heap may stay mapped, and arrays under
32 MiB that glibc would have mmapped share the heap, so a short run's
peak RSS can sit a few MB higher. Importing ``ecglab`` leaves the
allocator alone: the CLI owns its process, a library caller's process is
its own. On another libc nothing is changed and nothing is said.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import models, training
from .checkpoint import load_params, save_params
from .config import load_config
from .dsp import bandpass_filter, wavelet_filter
from .metrics import evaluate_denoisers, reports_to_csv
from .signals import (
    LABEL_COUNT,
    LabeledDataset,
    Signal,
    read_dataset,
    read_dataset_f32,
    read_pairs,
    read_pairs_f32,
    write_dataset,
    write_pairs,
)
from .synth import McSharryParams, make_training_pairs, mcsharry_batch
from .training import sweep_to_csv


# glibc's mallopt parameters; 32 MiB is the largest mmap threshold glibc
# accepts on 64-bit and the ceiling of its own dynamic rule, which also keeps
# the trim threshold at twice the mmap threshold
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _is_glibc() -> bool:
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            return True
    except (ValueError, OSError):
        pass
    return platform.libc_ver()[0] == "glibc"


def _pin_malloc_thresholds() -> bool:
    """Keep freed array buffers in the heap for reuse from the first step.

    Sets both thresholds or neither: glibc freezes the other threshold at
    its 128 KB start once either is set. Returns whether both were set;
    on another libc, or without ``mallopt``, it does nothing. Calling it
    again sets the same values.
    """
    if not _is_glibc():
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1)


# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    cfg = load_config(args.config)
    rng = np.random.default_rng(args.seed)
    if args.model == "mcsharry":
        if args.hr is not None:
            rates = np.full(args.count, args.hr)
        else:
            for flag, value in (("--hr-min", args.hr_min), ("--hr-max", args.hr_max)):
                if not math.isfinite(value):
                    raise ValueError(f"{flag} must be finite, got {value}")
            if args.hr_min > args.hr_max:
                raise ValueError(f"--hr-min must not exceed --hr-max, got {args.hr_min} > {args.hr_max}")
            rates = rng.uniform(args.hr_min, args.hr_max, size=args.count)
        params = [
            McSharryParams(
                heart_rate_bpm=float(hr),
                sample_rate_hz=args.sample_rate,
                duration_s=args.duration,
            )
            for hr in rates
        ]
        sigs = mcsharry_batch(params)
    else:
        Signal((), args.sample_rate)  # refuses a bad rate before the checkpoint is loaded and run
        generator = models.from_checkpoint("generator", load_params(args.checkpoint))
        z = models.sample_latent(rng, args.count, generator.spec.z_len, cfg.latent)
        sigs = [Signal(row, args.sample_rate) for row in models.infer(generator, z.data)[:, :, 0]]
    labels = np.zeros((len(sigs), LABEL_COUNT), dtype=np.uint8)
    write_dataset(LabeledDataset(tuple(sigs), labels), args.out)
    print(f"wrote {len(sigs)} signals to {args.out}")
    return 0


def cmd_noise(args) -> int:
    cfg = load_config(args.config)
    ds = read_dataset(args.input)
    pairs = make_training_pairs(list(ds.signals), args.gamma, args.seed, cfg)
    write_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} clean/noisy pairs to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    # every network trains from the file's float32 samples as they are; the
    # classifier casts one row at a time to a Signal for its spectrogram
    if args.network == "gan":
        real, _, _ = read_dataset_f32(args.data)
        gen, critic, log = training.train_gan(real, cfg, args.seed)
        nets = [gen, critic]
    elif args.network == "inception":
        net, log = training.train_inception(*read_dataset_f32(args.data), cfg, args.seed)
        nets = [net]
    else:
        clean, noisy, _ = read_pairs_f32(args.data)
        critic_state = None
        if args.variant == "pretrained":
            if not args.critic_checkpoint:
                raise ValueError("the pretrained variant needs --critic-checkpoint")
            critic_state = load_params(args.critic_checkpoint)
        net, log = training.train_denoiser(clean, noisy, cfg, args.variant, args.seed, critic_state=critic_state)
        nets = [net]

    # the directory is made only once training has succeeded
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"{net.spec.name}.ecgw" for net in nets]
    for net, name in zip(nets, names):
        save_params(out / name, models.checkpoint_state(net))
    log_name = f"{args.network}_log.csv"
    (out / log_name).write_text(log.to_csv())
    print(f"wrote {', '.join(names + [log_name])} to {out}")
    return 0


def _write_table(csv: str, out: str | None, what: str) -> int:
    """Write a CSV table to `--out`, or to stdout when it is not given."""
    if out:
        Path(out).write_text(csv)
        print(f"wrote {what} to {out}")
    else:
        sys.stdout.write(csv)
    return 0


EVAL_METHOD_ORDER = ("none", "bandpass", "wavelet", "denoiser")


def cmd_eval(args) -> int:
    pairs = read_pairs(args.pairs)
    if not pairs:
        raise ValueError("no pairs to evaluate")
    methods = list(EVAL_METHOD_ORDER) if args.all else [args.method]
    if "denoiser" in methods and not args.checkpoint:
        if args.all:
            methods.remove("denoiser")
        else:
            raise ValueError("method denoiser needs --checkpoint")
    denoisers = {}
    for method in methods:
        if method == "none":
            denoisers[method] = None
        elif method == "denoiser":
            net = models.from_checkpoint("denoiser", load_params(args.checkpoint), pairs[0].clean.length)
            denoisers[method] = training.network_denoiser(net)
        else:
            filt = bandpass_filter if method == "bandpass" else wavelet_filter
            denoisers[method] = lambda noisy, filt=filt: [filt(s) for s in noisy]
    reports = evaluate_denoisers(denoisers, pairs)
    return _write_table(reports_to_csv(reports), args.out, f"{len(reports)} report rows")


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    real = read_pairs(args.real)
    synthetic = read_pairs(args.synthetic)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    comps = tuple(args.compositions.split(","))
    rows = training.ablation_sweep(real, synthetic, sizes, cfg, args.seed, compositions=comps)
    return _write_table(sweep_to_csv(rows), args.out, f"{len(rows)} sweep rows")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a clean signal dataset")
    p.add_argument("--model", choices=("mcsharry", "gan"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="generator checkpoint (gan model)")
    p.add_argument("--hr", type=float, help="fixed heart rate in bpm")
    p.add_argument("--hr-min", type=float, default=55.0)
    p.add_argument("--hr-max", type=float, default=95.0)
    p.add_argument("--sample-rate", type=float, default=500.0)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("noise", help="corrupt a dataset into clean/noisy pairs")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_noise)

    p = sub.add_parser("train", help="train one of the three networks")
    p.add_argument("network", choices=("gan", "inception", "denoiser"))
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", choices=training.DENOISER_VARIANTS, default="baseline")
    p.add_argument("--critic-checkpoint")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a denoising method on pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--method", choices=EVAL_METHOD_ORDER, default="none")
    p.add_argument("--checkpoint")
    p.add_argument("--all", action="store_true", help="all methods, one row each")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="training-set-size ablation grid")
    p.add_argument("--real", required=True)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--compositions", default=",".join(training.COMPOSITIONS))
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    _pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and args.model == "gan" and not args.checkpoint:
        parser.error("--model gan requires --checkpoint")
    try:
        # a diverging run overflows and makes NaNs before the trainers' checks
        # report it; numpy's warnings about that would break the one-line rule
        with np.errstate(all="ignore"):
            return args.fn(args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"ecglab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
