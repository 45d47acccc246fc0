"""Statevector simulator of the four-qubit register, with seeded shot sampling.

Amplitude layout: qubit j is bit j counted from the left of the bitstring,
i.e. the most significant bit of the flat index, so printed bitstrings read
exactly like ket labels.  A state is a plain complex amplitude array of
length 2**N_QUBITS = 16.  `run_circuit` replays any iterable of gates one by
one, and `circuit_unitary` runs the same gate loop over every basis state
at once.

Each gate kind has one in-place kernel on views of the target qubit's two
halves, taken from the state as a (batch, 2, ..., 2) array: X swaps the
halves, and CNOT swaps them inside the control's 1-half; S multiplies the
1-half by 1j and SDG by -1j; RZ multiplies each half by its phase; H mixes
the two with a rounded 1/sqrt(2).  No gate builds a matrix.  RZ multiplies
each half into a new array and copies it back: numpy's complex multiply
rounds some products in their last bit differently when it writes over
its own operand, and the new arrays keep the bytes RZ has always given.

`run_schedule` gives the same final amplitudes for the circuit of a
coefficient schedule without building the circuit.  It walks
`encoding.slice_chunks` and compiles each `StepTemplate` once.  Each fixed
gate run is a dense 16x16 matrix (through `circuit_unitary`) and each RZ a
per-slice diagonal phase; runs that only permute (CNOT ladders) are folded
into their neighbours.  The last RZ group stays a per-slice diagonal on the
left, and the first on the right when the run before it only permutes.
Each RZ in between is a fixed multiple of one reference RZ per angle
source, so together with the runs they multiply out to a Laurent polynomial
in the references' phases with fixed 16x16 coefficient matrices.  For the
pair shape the eight pair RZs at +-theta_a/4 give nine terms,
exp(1j * k * theta_a / 8) for k = -8, -6, ..., 8; the CNOT-only radiation
shape is one diagonal around the identity.  In exact Clifford arithmetic
only k = -8, 0, 8 are nonzero.  Under the rounded 1/sqrt(2) of H the other
six hold rounding residue, entries of at most 7.7e-31 against 0.5 and 1 in
the kept ones, and `_slice_map` drops every term below `_VOID_TERM` of the
largest.  Dropping them moves amplitudes by about 1e-27, and no
probability of 1e-15 or more (the clamp of `sample_counts`) by one bit.
A chunk of slices then costs three elementwise multiply-adds of
(slices, 256) arrays and two diagonal scalings, and each slice unitary is
applied to the state in turn.  The sum stays elementwise: as one
(slices, terms) @ (terms, 256) product it is large enough for BLAS to start
a second thread, which doubles the CPU time for no gain in wall time.

An outcome distribution is a float array of length 16 indexed by basis
state, in the amplitude layout above; counts are an int array in the same
layout.  Only `counts_to_csv` writes a basis state as a bitstring.

Shot sampling draws one multinomial per request from a Philox counter-based
generator seeded through numpy's SeedSequence, so identical (probs, shots,
seed) give identical counts on every platform.  Probabilities below 1e-15
are clamped to zero before sampling.  The draw is the int64 counts array
itself: its sum is the shot count.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .circuits import N_QUBITS, Gate
from .encoding import VACUUM_PREP, StepTemplate, slice_chunks
from .subspace import PHYS_INDICES

__all__ = [
    "NotNormalizedError",
    "Observables",
    "run_circuit",
    "run_schedule",
    "probabilities",
    "check_shots",
    "sample_counts",
    "observables_from_counts",
    "observables_from_probabilities",
    "counts_to_csv",
    "circuit_unitary",
    "counts_rng",
    "derived_seed",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_DIM = 2**N_QUBITS

#: A slice-polynomial term whose largest coefficient is below this fraction
#: of the largest term's is rounding residue, and `_slice_map` drops it.  The
#: pair shape's void terms sit below 1e-30 of its kept ones, which are of
#: order 1, so any bound from about 1e-28 to 1e-20 keeps the same terms.
_VOID_TERM = 1e-24


def _apply_gate_inplace(amps: np.ndarray, gate: Gate):
    """Apply `gate` in place to a state or a (batch, 16) array of states.

    Works on views of the target qubit's 0- and 1-halves, within the
    control's 1-half for a CNOT; see the module docstring.
    """
    view = amps.reshape((-1,) + (2,) * N_QUBITS)  # leading batch axis, maybe of one
    index: list = [slice(None)] * (N_QUBITS + 1)
    if gate.name == "CNOT":
        index[1 + gate.qubits[0]] = 1
    index[1 + gate.qubits[-1]] = 0
    a0 = view[tuple(index)]
    index[1 + gate.qubits[-1]] = 1
    a1 = view[tuple(index)]
    if gate.name in ("X", "CNOT"):
        a0[...], a1[...] = a1.copy(), a0.copy()
    elif gate.name == "H":
        s, d = _INV_SQRT2 * a0, _INV_SQRT2 * a1
        a0[...], a1[...] = s + d, s - d
    elif gate.name == "RZ":  # into new arrays, not in place: see the module docstring
        a0[...], a1[...] = np.exp(-0.5j * gate.angle) * a0, np.exp(0.5j * gate.angle) * a1
    else:
        a1 *= 1j if gate.name == "S" else -1j


def _run(amps: np.ndarray, gates: Iterable[Gate]) -> np.ndarray:
    """`amps`, one state or a batch of them, after each of `gates` in order."""
    for gate in gates:
        _apply_gate_inplace(amps, gate)
    return amps


def run_circuit(gates: Iterable[Gate]) -> np.ndarray:
    """Amplitudes after each of `gates` in order, starting from |0000>."""
    amps = np.zeros(_DIM, dtype=complex)
    amps[0] = 1.0
    return _run(amps, gates)


# ---------------------------------------------------------------------------
# Segment engine for schedule circuits
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def _slice_segments(template: StepTemplate) -> tuple[tuple[np.ndarray, ...], ...]:
    """`template` as (run, rzs, neg) steps: a fixed run, then a group of RZs.

    `rzs` indexes the group in `template.rzs`; the last group is empty.
    RZ(angle) on qubit q is exp(0.5j * angle), conjugate where its `neg`
    column is 1 (q's bit is 0).  A permutation run P, an empty run included,
    is folded into the step before it, as P diag(d) = diag(P d) P: the
    radiation shape becomes one diagonal.
    """
    index = np.arange(_DIM)[:, None]
    steps = [(circuit_unitary(run), [r], 1.0 * (index & (8 >> q) == 0))
             for r, (run, ((q,), _, _)) in enumerate(zip(template.runs, template.rzs))]
    steps.append((circuit_unitary(template.runs[-1]), [], np.zeros((_DIM, 0))))
    for k in range(len(steps) - 1, 0, -1):
        (head, rzs, neg), (perm, next_rzs, next_neg) = steps[k - 1], steps[k]
        if _permutes(perm):
            neg = np.hstack([perm.real @ neg, next_neg])
            steps[k - 1:k + 1] = [(perm @ head, rzs + next_rzs, neg)]
    return tuple((run, np.array(rzs, dtype=int), neg.astype(int)) for run, rzs, neg in steps)


def _permutes(run: np.ndarray) -> bool:
    return bool(np.all((run == 0) | (run == 1)))


@functools.lru_cache(maxsize=2)
def _slice_map(template: StepTemplate):
    """`template`'s slice unitary as diag(out) . sum_t phase_t C_t . diag(in).

    Returns (out, in, refs, powers, coeffs).  `out` is the last RZ group of
    `_slice_segments` and `in` the first, carried to the right edge when the
    run before it only permutes (as diag(d) P = P diag(P^T d)); each is an
    (rzs, neg) pair, maybe empty.  Every RZ in between is a fixed multiple
    of the first of them with its angle source, so with the runs they
    multiply out to a Laurent polynomial in the phases exp(0.5j * angle) of
    those reference RZs, `refs`: term t raises reference v to the power
    powers[t, v], and coeffs[t] is its 16x16 coefficient matrix, flattened.
    A term whose largest entry is below `_VOID_TERM` times the largest
    term's is dropped: the pair shape keeps k = -8, 0, 8 of its nine.
    """
    segments = _slice_segments(template)
    runs, groups = [run for run, *_ in segments], [group for _, *group in segments[:-1]]
    out, inn = segments[-1][1:], (np.zeros(0, dtype=int), np.zeros((_DIM, 0), dtype=int))
    if groups and _permutes(runs[0]):
        inn, groups[0] = (groups[0][0], runs[0].real.T.astype(int) @ groups[0][1]), inn
    middle = [r for rzs, _ in groups for r in rzs.tolist()]
    refs: dict = {}  # angle source -> its first RZ in the polynomial
    ratio = np.zeros((len(template.rzs), len({template.rzs[r][1] for r in middle})))
    for r in middle:  # each RZ's angle over its reference's
        _, source, coeff = template.rzs[r]
        ref = refs.setdefault(source, r)
        ratio[r, list(refs).index(source)] = coeff / template.rzs[ref][2]
    poly = {(0.0,) * len(refs): runs[0]}
    for (rzs, neg), run in zip(groups, runs[1:]):
        shift = (1 - 2 * neg) @ ratio[rzs]  # per basis state, the powers its phase adds
        # Distinct rows by set, not np.unique(axis=0): that imports numpy.ma (1 MB).
        masks = {s: np.all(shift == s, axis=1)[:, None] for s in sorted(set(map(tuple, shift)))}
        terms: dict = {}
        for p, c in poly.items():
            for s, mask in masks.items():
                key = tuple(np.add(p, s).tolist())
                terms[key] = terms.get(key, 0) + run @ (mask * c)
        poly = terms
    size = {k: np.abs(c).max() for k, c in poly.items()}
    keys = sorted(k for k in poly if size[k] >= _VOID_TERM * max(size.values()))
    return (out, inn, np.array(list(refs.values()), dtype=int), np.array(keys),
            np.stack([poly[k].reshape(-1) for k in keys]))


def _diagonal(angles: np.ndarray, rzs: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """(slices, 16) diagonal of the RZ group `rzs`: one exp per RZ and slice, as in the gate."""
    phase = np.exp(0.5j * angles[:, rzs])
    both = np.stack([phase, phase.conj()], axis=1)
    return both[:, neg, np.arange(len(rzs))].prod(axis=2)


def _slice_unitaries(template: StepTemplate, angles: np.ndarray) -> np.ndarray:
    """(len(angles), 16, 16) stack of `template`'s slice unitaries at rows of its RZ angles."""
    out, inn, refs, powers, coeffs = _slice_map(template)
    phases = np.exp(0.5j * angles[:, refs, None] * powers.T).prod(axis=1)
    u = phases[:, :1] * coeffs[0]
    for t in range(1, len(coeffs)):  # multiply-adds, not phases @ coeffs: see module docstring
        u += phases[:, t:t + 1] * coeffs[t]
    u = u.reshape(-1, _DIM, _DIM)
    return _diagonal(angles, *out)[:, :, None] * u * _diagonal(angles, *inn)[:, None, :]


def run_schedule(schedule) -> np.ndarray:
    """Final amplitudes of `build_full_circuit(schedule)`, without building it.

    Builds the slice unitaries of each `slice_chunks` run from its RZ angles
    and its template's compiled map, and chains them on the prepared vacuum.
    Agrees with gate-by-gate `run_circuit` to rounding; a schedule of no
    slices gives the prepared vacuum.
    """
    amps = run_circuit(VACUUM_PREP)
    for template, angles in slice_chunks(schedule):
        for block in _slice_unitaries(template, angles):
            amps = block @ amps
    return amps


def circuit_unitary(gates: Iterable[Gate]) -> np.ndarray:
    """Dense 16x16 unitary of a circuit.

    Runs every basis state through the gates as one batch of rows.  It
    builds the fixed runs that `run_schedule` compiles, and checks circuits
    against their target unitaries.
    """
    return _run(np.eye(_DIM, dtype=complex), gates).T.copy()


class NotNormalizedError(ValueError):
    """A state's probabilities do not sum to 1: a numerical failure."""


def probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|amplitude|^2 indexed by basis state, once the norm is checked."""
    p = np.abs(amplitudes) ** 2
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise NotNormalizedError(f"state is not normalized (sum of probs = {total})")
    return p


def counts_rng(*entropy: int) -> np.random.Generator:
    """The package-wide sampling generator: Philox keyed via SeedSequence.

    `counts_rng(s)` and `counts_rng(s, i)` key the stream by `[s]` and
    `[s, i]`; `SeedSequence(s)` and `SeedSequence([s])` are the same state.
    """
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence([int(e) for e in entropy]))
    )


def derived_seed(*entropy: int) -> int:
    """A child seed (per sweep row, noise factor, ...) from SeedSequence(entropy)."""
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1)[0])


#: Most shots one draw takes: numpy's multinomial sampler counts in a C long.
MAX_SHOTS = 2**63 - 1


def check_shots(shots: int):
    """Raise ValueError unless 1 <= shots <= MAX_SHOTS."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}, got {shots}")


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """One multinomial draw over the outcome distribution: int64 counts by basis state.

    Negative entries below -1e-12 are rejected; tiny negatives are clamped
    to zero and the distribution renormalized.  numpy's draw hands its last
    category what the others leave: at large shot counts, rounding residue.
    """
    check_shots(shots)
    p = np.asarray(probs, dtype=float)
    if np.any(p < -1e-12):
        raise ValueError(f"negative probability: min = {p.min()}")
    support = np.flatnonzero(p >= 1e-15)
    p = p[support]
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    counts = np.zeros(len(probs), dtype=np.int64)
    counts[support] = counts_rng(seed).multinomial(shots, p / total)
    return counts


@dataclass(frozen=True)
class Observables:
    """Mode occupations, pair probability, and subspace leakage."""

    n_plus: float
    n_minus: float
    p_pair: float
    leakage: float
    stderr_pair: float


def observables_from_probabilities(probs) -> Observables:
    """Occupations from an outcome distribution indexed by basis state (stderr 0)."""
    vac, plus, minus, pair = (float(probs[i]) for i in PHYS_INDICES)
    return Observables(
        n_plus=plus + pair,
        n_minus=minus + pair,
        p_pair=pair,
        leakage=1.0 - sum((vac, plus, minus, pair)),
        stderr_pair=0.0,
    )


def observables_from_counts(counts: np.ndarray) -> Observables:
    """Occupations from measured frequencies, with the binomial p_pair stderr.

    Raises ValueError unless `counts` is an integer array with a positive total.
    """
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
    shots = int(counts.sum())
    if shots < 1:
        raise ValueError(f"counts must total at least 1 shot, got {shots}")
    # A Python-int division rounds once, also above 2**53 shots.
    freq = {i: int(counts[i]) / shots for i in PHYS_INDICES}
    obs = observables_from_probabilities(freq)
    stderr = float(np.sqrt(obs.p_pair * (1.0 - obs.p_pair) / shots))
    return replace(obs, stderr_pair=stderr)


def counts_to_csv(counts: np.ndarray) -> str:
    """`bitstring,count` lines of the observed states, in basis order."""
    lines = ["bitstring,count"]
    lines.extend(f"{i:0{N_QUBITS}b},{c}" for i, c in enumerate(counts.tolist()) if c)
    return "\n".join(lines) + "\n"
