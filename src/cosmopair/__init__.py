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

__version__ = "0.1.0"
