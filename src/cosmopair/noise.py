"""Synthetic stochastic-Pauli gate noise and per-qubit readout confusion.

The model is deliberately simple: after every gate a uniformly random
non-identity Pauli is injected on the gate's operands with a fixed
probability (p1 per single-qubit gate, p2 per CNOT), and measurement sends
each true bit through a per-qubit 2x2 column-stochastic confusion matrix
C[observed][true].  Default magnitudes follow published backend calibration
medians: readout flip 1.49e-2, two-qubit error 2.80e-3, with p1 = p2/10.

Noise amplification for extrapolation scales the Pauli rates directly
(`scaled`), which in a stochastic-Pauli simulator is the exact semantic
target that hardware gate folding only approximates.

Injecting a uniformly random non-identity Pauli with probability p is
exactly the depolarizing channel on the gate's operands.  `noisy_distributions`
takes a list of schedules and a list of noise models and returns the
exact outcome distribution, readout included, of every (schedule, model)
pair of that grid, whatever the shot count.  It holds each pair's rho
as its real Pauli coefficients c_P = Tr(P rho) (the Pauli-transfer
representation).  X, H, S, SDG and CNOT permute these coefficients with
signs, read off the stabilizer-tableau rules on each letter's (x, z) bits
(Aaronson and Gottesman, quant-ph/0406196) with no matrix built, and
depolarizing at rate p scales those of the Paulis on the gate's
qubits by keep = 1 - p d²/(d²-1).  So every gate between two RZs, with its
depolarizing, folds into one map: a gather, a sign and keep1**a * keep2**b
with integer exponents a, b that no rate or angle enters.  Each RZ is a
cos/sin rotation of the (X_q, Y_q) coefficient pairs at each window's own
angle.  Each of a `StepTemplate`'s fixed `runs` is folded from index
arithmetic on first use and kept, so a slice costs about 20 rotations and
20 gathers for any batch of pairs, and windows run in one batch when their
schedules have equal `encoding.slice_cuts`; each model's readout then takes
all windows in one call.  The arithmetic is real multiplies and adds
throughout, with no BLAS product and no `np.power`, so the bytes depend on
neither the BLAS kernel nor numpy's SIMD dispatch.  The shots of a
stochastic-Pauli model are independent and identically distributed, so a
noisy run's counts are one `sample_counts` draw over that distribution; one
distribution serves every run of the same circuit and noise level.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuits import N_QUBITS
from .encoding import VACUUM_PREP, StepTemplate, slice_chunks, slice_cuts

__all__ = ["NoiseModel", "apply_readout_noise", "noisy_distributions"]


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit readout confusion plus stochastic Pauli gate-error rates."""

    readout: tuple[np.ndarray, ...]
    p1: float
    p2: float

    def __post_init__(self):
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"Pauli rate {p} outside [0, 1]")
        mats = tuple(np.asarray(c, dtype=float) for c in self.readout)
        object.__setattr__(self, "readout", mats)
        for q, c in enumerate(mats):
            if c.shape != (2, 2):
                raise ValueError(f"readout matrix for qubit {q} is not 2x2")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"readout matrix for qubit {q} has non-finite entries")
            if np.any(c < 0.0) or np.any(c > 1.0):
                raise ValueError(f"readout matrix for qubit {q} has entries outside [0, 1]")
            if np.max(np.abs(c.sum(axis=0) - 1.0)) > 1e-12:
                raise ValueError(f"readout matrix for qubit {q} is not column-stochastic")
        if len(mats) != N_QUBITS:
            raise ValueError(f"noise model covers {len(mats)} qubits, the register has {N_QUBITS}")

    @classmethod
    def symmetric(
        cls, *, epsilon: float = 1.49e-2, p2: float = 2.80e-3, p1: float | None = None
    ) -> "NoiseModel":
        """Uniform symmetric bit-flip readout with rate epsilon on every qubit."""
        c = np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])
        return cls(
            readout=tuple(c.copy() for _ in range(N_QUBITS)),
            p1=p2 / 10.0 if p1 is None else p1,
            p2=p2,
        )

    def scaled(self, factor: float) -> "NoiseModel":
        """Amplify the Pauli rates by `factor`; readout is unchanged."""
        if factor < 0:
            raise ValueError(f"noise factor must be nonnegative, got {factor}")
        return NoiseModel(readout=self.readout, p1=self.p1 * factor, p2=self.p2 * factor)

    def to_json(self) -> str:
        return json.dumps(
            {
                "readout": [c.tolist() for c in self.readout],
                "p1": self.p1,
                "p2": self.p2,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        """Parse `to_json` output; any malformed document raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("noise model must be a JSON object")
        missing = [k for k in ("readout", "p1", "p2") if k not in obj]
        if missing:
            raise ValueError(f"noise model is missing key(s) {', '.join(missing)}")
        if not isinstance(obj["readout"], list) or not obj["readout"]:
            raise ValueError("noise model 'readout' must be a nonempty list of 2x2 matrices")
        try:
            return cls(
                readout=tuple(np.asarray(c, dtype=float) for c in obj["readout"]),
                p1=float(obj["p1"]),
                p2=float(obj["p2"]),
            )
        except TypeError as exc:
            raise ValueError(f"noise model has a non-numeric entry: {exc}") from None


def apply_readout_noise(probs: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Push outcome distributions through the tensor-product confusion.

    Takes and returns a (..., 16) array of basis-indexed distributions (tiny
    entries kept); each total is preserved.  Each qubit's 2x2 matrix is applied
    as separate real multiplies and adds, so no BLAS kernel or batch moves a bit.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape[-1:] != (2**N_QUBITS,):
        raise ValueError(f"distribution of shape {p.shape} does not match {N_QUBITS} qubits")
    for q, c in enumerate(model.readout):
        t = p.reshape(-1, 2**q, 2, 2 ** (N_QUBITS - 1 - q))
        zero, one = t[:, :, 0], t[:, :, 1]
        p = np.stack([c[0, 0] * zero + c[0, 1] * one, c[1, 0] * zero + c[1, 1] * one], axis=2)
    return p.reshape(np.shape(probs))


def noisy_distributions(schedules: Sequence, models: Sequence[NoiseModel]) -> np.ndarray:
    """Exact outcome distribution of each schedule's circuit under each model.

    Entry [i, j] of the (len(schedules), len(models), 16) float64 array is
    that of `build_full_circuit(schedules[i])` under `models[j]`.  The circuit
    is never built: its slices apply their templates' folds.  Schedules with
    equal `slice_cuts` run as one batch of (schedule, model) rows, one group
    at a time.  A row's arithmetic is that of a batch of one, bit for bit.
    """
    groups = {}
    for i, schedule in enumerate(schedules):
        groups.setdefault(slice_cuts(schedule), []).append(i)
    out = np.empty((len(schedules), len(models), 16))
    for rows in groups.values():
        steps = _schedule_steps([schedules[i] for i in rows], len(models))
        out[rows] = _diagonals(steps, list(models) * len(rows)).reshape(len(rows), len(models), 16)
    for j, model in enumerate(models):
        out[:, j] = apply_readout_noise(out[:, j], model)
    return out


def _diagonals(steps, models: list[NoiseModel]) -> np.ndarray:
    """diag(rho), (rows, 16), of each model's row after the (run, qubit, cos, sin) steps.

    Each row starts at c_P = 1 on the 16 strings over {I, Z} (|0000>) and
    ends in the per-qubit Walsh map [[1/2, 1/2], [1/2, -1/2]] of its {I, Z}
    coefficients.
    """
    iz = (slice(None, None, 3),) * 4  # the letters I and Z of every qubit
    coeffs = np.zeros((4,) * 4 + (len(models),))
    coeffs[iz] = 1.0
    coeffs = _evolve(coeffs.reshape(256, len(models)), steps, _scaler(models))
    walsh = coeffs.reshape((4,) * 4 + (len(models),))[iz]
    for axis in range(4):
        i, z = np.split(walsh, 2, axis=axis)
        walsh = 0.5 * np.concatenate([i + z, i - z], axis=axis)
    return walsh.reshape(16, len(models)).T


def _evolve(coeffs: np.ndarray, steps, scale) -> np.ndarray:
    """Apply each step to the (256, rows) Pauli coefficients: its run, then its RZ.

    Held Pauli-major, so a run's gather copies whole rows of the batch and
    each RZ works on views.  A run is a gather and a per-row scale.
    RZ(theta) on qubit q turns each (X_q, Y_q) coefficient pair (x, y) into
    (cos x - sin y, sin x + cos y) at its row's angle; the last step has no RZ.
    """
    for run, q, cos, sin in steps:
        coeffs = coeffs[run.src] * scale(run)
        if q is not None:
            view = coeffs.reshape((4**q, 4, 4 ** (3 - q)) + coeffs.shape[1:])
            x, y = view[:, 1], view[:, 2]
            view[:, 1], view[:, 2] = cos * x - sin * y, sin * x + cos * y
    return coeffs


def _scaler(models: list[NoiseModel]):
    """run -> its (256, rows) scale sign * keep1**a * keep2**b, kept for one group.

    keep = 1 - p d²/(d²-1) at p1 (d = 2) and p2 (d = 4).  keep**e is row e
    of the running products 1, keep, keep * keep, ...: plain multiplies,
    which no SIMD dispatch rounds differently, where `np.power` does.
    """
    keeps = (1.0 - np.array([m.p1 for m in models]) * 4 / 3,
             1.0 - np.array([m.p2 for m in models]) * 16 / 15)
    memo = {}

    def power(keep, exponents):
        factors = np.repeat(keep[None, :], exponents.max() + 1, axis=0)
        factors[0] = 1.0
        return np.cumprod(factors, axis=0)[exponents]

    def scale(run):
        if run not in memo:
            memo[run] = run.sign[:, None] * power(keeps[0], run.a) * power(keeps[1], run.b)
        return memo[run]

    return scale


def _schedule_steps(schedules: list, models: int):
    """The steps of the circuits of schedules that are cut alike, for `models`
    rows per schedule, schedule-major.

    Each schedule is walked through `slice_chunks`.  A slice's first run joins
    it to the slice before, or to the vacuum preparation.
    """
    prev = None
    for chunks in zip(*map(slice_chunks, schedules), strict=True):
        template = chunks[0][0]
        runs = _template_fold(template)
        angles = np.repeat(np.stack([a for _, a in chunks], axis=-1), models, axis=-1)
        cos, sin = np.cos(angles), np.sin(angles)
        for i in range(len(angles)):
            slice_runs = (_junction(prev, template), *runs[1:-1])
            for j, (run, ((q,), _, _)) in enumerate(zip(slice_runs, template.rzs)):
                yield run, q, cos[i, j], sin[i, j]
            prev = template
    yield _fold(VACUUM_PREP) if prev is None else _template_fold(prev)[-1], None, None, None


# ---------------------------------------------------------------------------
# Folds: a Clifford gate permutes the Pauli coefficients with signs, and its
# depolarizing scales those on its qubits, so a run of gates is one monomial
# map, composed from index arrays alone.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Run:
    """The map c -> sign * keep1**a * keep2**b * c[src] of Pauli coefficients.

    Index i of c runs over the 256 Paulis, one base-4 digit per qubit, qubit 0
    first, each digit over (I, X, Y, Z).
    """

    src: np.ndarray
    sign: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def then(self, other: "_Run") -> "_Run":
        """This map followed by `other`: exact integer arithmetic."""
        s = other.src
        return _Run(self.src[s], other.sign * self.sign[s], other.a + self.a[s], other.b + self.b[s])


@functools.cache
def _gate_run(name: str, qubits: tuple[int, ...]) -> _Run:
    """One gate and its depolarizing on the register; of an RZ, the depolarizing alone.

    U^dagger P U = sign * P_src from the stabilizer-tableau rules on each
    operand's letter as bits (x, z): I, X, Y, Z = 00, 10, 11, 01.  An RZ
    scales X_q and Y_q alike, so its depolarizing commutes with its rotation
    and opens the run after it.
    """
    index = np.arange(4**N_QUBITS)
    place = [4 ** (N_QUBITS - 1 - q) for q in qubits]
    digits = [index // p % 4 for p in place]
    x, z = [d % 3 != 0 for d in digits], [d >= 2 for d in digits]
    flip = np.zeros(index.shape, dtype=bool)
    if name == "X":
        flip = z[0]
    elif name == "H":
        flip, x, z = x[0] & z[0], z, x
    elif name in ("S", "SDG"):
        flip, z = x[0] & (z[0] if name == "SDG" else ~z[0]), [z[0] ^ x[0]]
    elif name == "CNOT":
        (xc, xt), (zc, zt) = x, z
        flip, x, z = xc & zt & ~(xt ^ zc), [xc, xt ^ xc], [zc ^ zt, zt]
    src = index + sum(((3 * zj ^ xj) - d) * p for p, d, xj, zj in zip(place, digits, x, z))
    acts, idle = (sum(digits) != 0).astype(int), np.zeros(index.shape, dtype=int)
    return _Run(src, 1 - 2 * flip.astype(int), *((idle, acts) if name == "CNOT" else (acts, idle)))


def _fold(gates, run=_Run(np.arange(256), np.ones(256, dtype=int),
                          *np.zeros((2, 256), dtype=int))) -> _Run:
    """`run`, the identity by default, then each of the 4-qubit `gates` with its depolarizing."""
    for gate in gates:
        run = run.then(_gate_run(gate.name, gate.qubits))
    return run


@functools.lru_cache(maxsize=2)
def _template_fold(template: StepTemplate) -> tuple[_Run, ...]:
    """The fold of each fixed run of a slice template; each run after the
    first opens with the depolarizing of the RZ before it."""
    rzs = (_gate_run("RZ", qubits) for qubits, _, _ in template.rzs)
    return (_fold(template.runs[0]), *map(_fold, template.runs[1:], rzs))


@functools.cache
def _junction(before: StepTemplate | None, after: StepTemplate) -> _Run:
    """The run from the last RZ of slice template `before` (None: the vacuum
    preparation) to the first RZ of `after`."""
    tail = _fold(VACUUM_PREP) if before is None else _template_fold(before)[-1]
    return tail.then(_template_fold(after)[0])
