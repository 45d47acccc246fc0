"""Time-resolved simulation of pair creation across a sudden cosmological transition.

A mode pair in a de Sitter -> radiation background is evolved by a
second-order split-step product over a uniform conformal-time grid, three
ways: exactly on the four-dimensional physical subspace, as a four-qubit
Pauli-encoded circuit on a statevector simulator, and under synthetic gate
and readout noise with the matching mitigation methods.  The closed-form
sudden-matching pair number 1/(4 x^4) is the benchmark throughout.
"""

import os

# Every BLAS call here is at most 16x16, so OpenBLAS's worker pool, which it
# starts (and spins) as numpy or scipy loads it, only costs CPU; set before
# any submodule imports numpy.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .background import (
    BogoliubovPair,
    ModeParams,
    bogoliubov_analytic,
    bogoliubov_ode_oracle,
    multi_pair_probability,
    n_k_analytic,
    omega_squared,
    scale_factor,
)
from .circuits import N_QUBITS, Gate, circuit_from_text, circuit_to_text, gate_count_and_depth
from .encoding import (
    PauliString,
    aq_pauli_sum,
    build_full_circuit,
    pauli_to_matrix,
    synthesize_pauli_rotation,
    synthesize_step,
    zq_pauli_sum,
)
from .mitigation import (
    ReadoutMitigation,
    ZNEResult,
    linear_extrapolate,
    mitigate_readout,
    zne_estimate,
)
from .noise import NoiseModel, apply_readout_noise, noisy_distributions
from .schedule import CoeffSchedule, build_schedule
from .statevector import (
    Observables,
    observables_from_counts,
    probabilities,
    run_circuit,
    run_schedule,
    sample_counts,
)
from .subspace import (
    A_PHYS,
    PHYS_INDICES,
    PHYS_LABELS,
    Z_PHYS,
    evolve,
    particle_number,
    strang_step_unitary,
    vacuum_state,
)

__version__ = "0.1.0"
