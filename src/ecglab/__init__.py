"""Desk-scale ECG synthesis, noising, denoising and evaluation toolkit."""

# numpy 2 loads these submodules on their first use, about 27 ms together;
# importing them with the package keeps that cost in a command's start-up
# instead of inside its first stage
import numpy.fft  # noqa: F401  (the spectra in dsp)
import numpy.ma  # noqa: F401  (np.median's NaN check, in dsp.wavelet_filter)
import numpy.random  # noqa: F401  (every seeded stage)

from .signals import (
    LabeledDataset,
    Signal,
    SignalPair,
    read_dataset,
    read_pairs,
    scale_rows_to_unit,
    write_dataset,
    write_pairs,
)
from .synth import (
    McSharryParams,
    NoiseParams,
    apply_noise,
    make_training_pairs,
    mcsharry_batch,
)
from .dsp import (
    QrsAnnotation,
    bandpass_filter,
    detect_qrs_rows,
    mel_spectrogram,
    wavelet_filter,
)
from .metrics import (
    MetricReport,
    evaluate_denoiser,
    mse,
    snr_db,
)
from .models import Network, build, transfer_critic_to_denoiser

__version__ = "0.1.0"

__all__ = [
    "LabeledDataset",
    "McSharryParams",
    "MetricReport",
    "Network",
    "NoiseParams",
    "QrsAnnotation",
    "Signal",
    "SignalPair",
    "apply_noise",
    "bandpass_filter",
    "build",
    "detect_qrs_rows",
    "evaluate_denoiser",
    "make_training_pairs",
    "mcsharry_batch",
    "mel_spectrogram",
    "mse",
    "read_dataset",
    "read_pairs",
    "scale_rows_to_unit",
    "snr_db",
    "transfer_critic_to_denoiser",
    "wavelet_filter",
    "write_dataset",
    "write_pairs",
]
