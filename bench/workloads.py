"""The three benchmark workloads: set-up, the timed job, and its checks.

Every job drives the public CLI entry `ecglab.cli.main` in-process, so a
workload measures exactly what `ecglab ...` does on the command line.
Inputs are made from the workload seed during set-up, before timing:

- gan_paper: `train gan` for one generator step at paper scale (B=64,
  L=5000, d=16, five critic updates, each with a create_graph gradient
  penalty). The only workload with second-order autodiff, batch_norm and
  phase shuffle; also the peak-memory case.
- denoiser_paper: `train denoiser --variant baseline` at the same scale.
  The same conv/transposed-conv ladder with first-order backward only, so
  a change to the gradient penalty or batch_norm should not move it.
- cli_pipeline: synth -> noise -> train inception -> eval --all ->
  synth --model gan. Synthesis, DSP, metrics, file formats, the 2-D
  classifier and inference-mode forwards; no paper-scale training.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Tally, check_checkpoint, check_eval, check_signals, check_stage, check_train_log

SAMPLE_RATE_HZ = 500.0


@dataclass(frozen=True)
class Size:
    signals: int  # training signals of gan_paper and denoiser_paper
    pipeline_signals: int  # `synth --model mcsharry --count` in cli_pipeline
    duration_s: float
    batch: int
    d: int
    gan_steps: int
    denoiser_epochs: int
    gan_count: int  # signals drawn by `synth --model gan`


SIZES = {
    # 72 signals leave 65 after the 10 % validation split: one full batch of 64
    "paper": Size(signals=72, pipeline_signals=64, duration_s=10.0, batch=64, d=16, gan_steps=1,
                  denoiser_epochs=8, gan_count=128),
    "tiny": Size(signals=12, pipeline_signals=12, duration_s=3.0, batch=8, d=2, gan_steps=1,
                 denoiser_epochs=2, gan_count=8),
}


def _main(argv: list[str]) -> int:
    from ecglab import cli

    with contextlib.redirect_stdout(None):
        return cli.main([str(a) for a in argv])


def _write_config(path: Path, **values) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def _clean_signals(seed: int, size: Size):
    from ecglab.synth import McSharryParams, mcsharry_batch

    rng = np.random.default_rng(seed)
    rates = rng.uniform(55.0, 95.0, size=size.signals)
    return mcsharry_batch([
        McSharryParams(heart_rate_bpm=float(hr), sample_rate_hz=SAMPLE_RATE_HZ, duration_s=size.duration_s)
        for hr in rates
    ])


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, size: str):
        self.work = work
        self.seed = seed
        self.size = SIZES[size]
        self.codes: dict[str, int] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, span) -> None:
        """Run the CLI stages; `span(name)` wraps each stage."""
        raise NotImplementedError

    def check(self) -> Tally:
        raise NotImplementedError

    def _stage(self, span, stage: str, argv: list) -> None:
        with span(f"cli.{stage}"):
            self.codes[stage] = _main(argv)


class GanPaper(Workload):
    name = "gan_paper"

    def setup(self) -> None:
        from ecglab.signals import LabeledDataset, write_dataset

        sigs = _clean_signals(self.seed, self.size)
        write_dataset(LabeledDataset(tuple(sigs), np.zeros((len(sigs), 5), dtype=np.uint8)),
                      self.work / "clean.ecgd")
        _write_config(self.work / "run.cfg", batch_size=self.size.batch, model_dim=self.size.d,
                      generator_steps=self.size.gan_steps)

    def job(self, span) -> None:
        w = self.work
        self._stage(span, "train_gan", ["train", "gan", "--data", w / "clean.ecgd", "--out", w / "gan",
                                        "--config", w / "run.cfg", "--seed", self.seed])

    def check(self) -> Tally:
        t = Tally()
        check_stage(t, "train_gan", self.codes["train_gan"])
        check_train_log(t, self.work / "gan" / "gan_log.csv", ("critic", "generator"))
        for net in ("generator", "critic"):
            check_checkpoint(t, self.work / "gan" / f"{net}.ecgw")
        return t


class DenoiserPaper(Workload):
    name = "denoiser_paper"

    def setup(self) -> None:
        from ecglab.signals import write_pairs
        from ecglab.synth import make_training_pairs

        pairs = make_training_pairs(_clean_signals(self.seed, self.size), 1.0, self.seed)
        write_pairs(pairs, self.work / "pairs.ecg2")
        _write_config(self.work / "run.cfg", batch_size=self.size.batch, model_dim=self.size.d,
                      epochs=self.size.denoiser_epochs)

    def job(self, span) -> None:
        w = self.work
        self._stage(span, "train_denoiser", ["train", "denoiser", "--variant", "baseline",
                                             "--data", w / "pairs.ecg2", "--out", w / "den",
                                             "--config", w / "run.cfg", "--seed", self.seed])

    def check(self) -> Tally:
        t = Tally()
        check_stage(t, "train_denoiser", self.codes["train_denoiser"])
        check_train_log(t, self.work / "den" / "denoiser_log.csv", ("denoiser",))
        check_checkpoint(t, self.work / "den" / "denoiser.ecgw")
        return t


class CliPipeline(Workload):
    name = "cli_pipeline"

    def setup(self) -> None:
        from ecglab import models
        from ecglab.checkpoint import save_params

        size = self.size
        length = int(round(size.duration_s * SAMPLE_RATE_HZ))
        meta = {"d": size.d, "signal_length": length}
        for name, extra in (("denoiser", {}), ("generator", {"z_len": 100})):
            net = models.build(name, d=size.d, signal_length=length, seed=self.seed)
            state = net.state_dict()
            for key, value in {**meta, **extra}.items():
                state[f"meta.{key}"] = np.array([float(value)])
            save_params(self.work / f"{name}.ecgw", state)
        _write_config(self.work / "run.cfg", batch_size=size.batch, model_dim=size.d, epochs=1)

    def job(self, span) -> None:
        w, seed = self.work, self.seed
        cfg = ["--config", w / "run.cfg"]
        self._stage(span, "synth", ["synth", "--model", "mcsharry", "--count", self.size.pipeline_signals,
                                    "--duration", self.size.duration_s, "--out", w / "clean.ecgd",
                                    "--seed", seed] + cfg)
        self._stage(span, "noise", ["noise", "--in", w / "clean.ecgd", "--out", w / "pairs.ecg2",
                                    "--seed", seed] + cfg)
        self._stage(span, "train_inception", ["train", "inception", "--data", w / "clean.ecgd",
                                              "--out", w / "inc", "--seed", seed] + cfg)
        self._stage(span, "eval", ["eval", "--all", "--pairs", w / "pairs.ecg2",
                                   "--checkpoint", w / "denoiser.ecgw", "--out", w / "eval.csv"])
        self._stage(span, "synth_gan", ["synth", "--model", "gan", "--count", self.size.gan_count,
                                        "--checkpoint", w / "generator.ecgw", "--out", w / "gan.ecgd",
                                        "--seed", seed] + cfg)

    def check(self) -> Tally:
        t = Tally()
        w = self.work
        for stage in ("synth", "noise", "train_inception", "eval", "synth_gan"):
            check_stage(t, stage, self.codes[stage])
        check_signals(t, w / "clean.ecgd", self.size.pipeline_signals)
        check_train_log(t, w / "inc" / "inception_log.csv", ("classifier",))
        check_eval(t, w / "eval.csv", w / "pairs.ecg2")
        check_signals(t, w / "gan.ecgd", self.size.gan_count)
        return t


WORKLOADS = {cls.name: cls for cls in (GanPaper, DenoiserPaper, CliPipeline)}
