"""Bias-corrected Adam over named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

ADAM_EPS = 1e-8


@dataclass
class AdamState:
    alpha: float
    beta1: float
    beta2: float
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState) -> AdamState:
    """One in-place Adam update from each `.grad`; parameters without one are skipped."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name!r}")
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.first_moment[name] = m
        state.second_moment[name] = v
        p.data -= state.alpha * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
