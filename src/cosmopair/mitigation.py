"""Readout-error correction and zero-noise extrapolation.

Readout correction takes counts or an exact distribution, builds the 16x16
assignment matrix by passing each basis state through the readout channel,
solves it restricted to the observed basis states and reports both the raw
quasi-probabilities, which may be slightly negative, and a clipped-renormalized
variant, with the delta-method standard error of each quasi-probability.

Extrapolation samples the exact outcome distribution at each amplified
gate-noise level, supplied by the caller, estimates p_pair and leakage from
those counts and fits a straight line in the amplification factor, weighted
by per-point binomial errors; the intercept at factor zero is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuits import N_QUBITS
from .noise import NoiseModel, apply_readout_noise
from .statevector import derived_seed, observables_from_counts, sample_counts

__all__ = [
    "SingularConfusionError",
    "ReadoutMitigation",
    "mitigate_readout",
    "linear_extrapolate",
    "ZNEResult",
    "validate_factors",
    "zne_estimate",
]

#: Condition number above which the restricted solve is flagged as unreliable.
ILL_CONDITION_THRESHOLD = 1e8

ZNE_OBSERVABLES = ("p_pair", "leakage")


class SingularConfusionError(RuntimeError):
    """Restricted confusion matrix is singular; more shots or fuller support needed."""


@dataclass(frozen=True)
class ReadoutMitigation:
    """Corrected distribution, raw quasi-probability and clipped, zero off the observed states.

    `quasi_stderr[k]` is sqrt((sum_i (M^-1)_ki^2 f_i - q_k^2) / shots), the
    delta-method standard error of q = M^-1 f: M the restricted confusion,
    f the observed frequencies, and the weights' total the shot count.
    """

    quasi: np.ndarray
    clipped: np.ndarray
    quasi_stderr: np.ndarray
    condition_number: float
    ill_conditioned: bool


def _restricted_confusion(observed: np.ndarray, model: NoiseModel) -> np.ndarray:
    """C[obs][true] over the observed states: the readout channel of each basis state."""
    return apply_readout_noise(np.eye(2**N_QUBITS), model)[np.ix_(observed, observed)].T


def mitigate_readout(weights: np.ndarray, model: NoiseModel) -> ReadoutMitigation:
    """Invert the readout channel on the subspace of observed basis states.

    Takes any basis-indexed weight array, counts or an exact distribution
    (weights are normalized internally).  In the exact-distribution,
    fully-supported limit the correction recovers the true distribution to
    solver precision.
    """
    raw = np.asarray(weights)
    if raw.shape != (2**N_QUBITS,):
        raise ValueError(f"weights of shape {raw.shape} do not match {N_QUBITS} qubits")
    observed = np.flatnonzero(raw > 0)
    if not observed.size:
        raise ValueError("no observed bitstrings to mitigate")
    shots = float(raw[observed].sum())
    freq = raw[observed] / shots

    m = _restricted_confusion(observed, model)
    cond = float(np.linalg.cond(m))
    try:
        quasi = np.linalg.solve(m, freq)
    except np.linalg.LinAlgError as exc:
        raise SingularConfusionError(
            "restricted confusion matrix is singular; collect more shots or "
            "a fuller set of observed bitstrings"
        ) from exc

    clipped = np.clip(quasi, 0.0, None)
    clipped_total = clipped.sum()
    if clipped_total > 0:
        clipped = clipped / clipped_total
    # Elementwise, not a matrix product, so no BLAS kernel moves a bit; at
    # huge shot counts the difference can round below zero.
    variance = ((np.linalg.inv(m) ** 2 * freq).sum(axis=1) - quasi**2) / shots
    full = np.zeros((3, len(raw)))
    full[:, observed] = quasi, clipped, np.sqrt(np.maximum(variance, 0.0))
    return ReadoutMitigation(
        quasi=full[0],
        clipped=full[1],
        quasi_stderr=full[2],
        condition_number=cond,
        ill_conditioned=cond > ILL_CONDITION_THRESHOLD,
    )


def linear_extrapolate(
    factors: Sequence[float], values: Sequence[float], stderrs: Sequence[float]
) -> tuple[float, float]:
    """Weighted straight-line fit; returns (intercept at 0, intercept stderr).

    Points are weighted by 1/stderr (floored to avoid infinite weights) and
    the intercept variance comes from the unscaled normal-equation covariance.
    """
    x = np.asarray(factors, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (factor, value) points")
    s = np.asarray(stderrs, dtype=float)
    floor = max(s[s > 0].min() if np.any(s > 0) else 1.0, 1e-300)
    w = 1.0 / np.maximum(s, floor * 1e-6)
    coeffs, cov = np.polyfit(x, y, 1, w=w, cov="unscaled")
    return float(np.polyval(coeffs, 0.0)), float(np.sqrt(cov[1, 1]))


def validate_factors(factors: Iterable[float]) -> tuple[float, ...]:
    """The noise factors as floats: at least two, finite, >= 1, strictly increasing."""
    f = tuple(float(v) for v in factors)
    if len(f) < 2:
        raise ValueError("need at least two noise factors")
    if not all(np.isfinite(f)):
        raise ValueError(f"noise factors must be finite, got {f}")
    if any(v < 1.0 for v in f):
        raise ValueError(f"noise factors must be >= 1, got {f}")
    if any(b <= a for a, b in zip(f, f[1:])):
        raise ValueError(f"noise factors must be strictly increasing, got {f}")
    return f


@dataclass(frozen=True)
class ZNEResult:
    """Per-factor estimates and the zero-noise intercept of the linear fit."""

    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    extrapolated: float
    extrapolated_stderr: float


def zne_estimate(
    factors: Sequence[float],
    distributions: Sequence[np.ndarray],
    shots: int = 4096,
    seed: int = 0,
) -> dict[str, ZNEResult]:
    """Estimate p_pair and leakage at amplified noise and extrapolate to zero.

    `distributions[i]`, the exact outcome distribution at noise factor
    `factors[i]`, is sampled once under the seed derived from (seed, i), and
    both observables are fitted from those same raw (unmitigated) counts;
    per-point weights are binomial shot-noise estimates floored at 1/shots.
    """
    f = validate_factors(factors)
    if len(distributions) != len(f):
        raise ValueError(f"{len(distributions)} distributions for {len(f)} noise factors")
    observed = [
        observables_from_counts(sample_counts(p, shots, derived_seed(seed, i)))
        for i, p in enumerate(distributions)
    ]
    out = {}
    for name in ZNE_OBSERVABLES:
        values = tuple(float(getattr(obs, name)) for obs in observed)
        stderrs = tuple(
            max(float(np.sqrt(max(v * (1.0 - v), 0.0) / shots)), 1.0 / shots)
            for v in values
        )
        out[name] = ZNEResult(values, stderrs, *linear_extrapolate(f, values, stderrs))
    return out
