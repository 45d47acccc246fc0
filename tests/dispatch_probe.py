"""The noisy channel's output bytes, and numpy's wide SIMD dispatch targets.

Run as a script, prints the enabled AVX2/AVX-512 targets (or `-`) and the
digest, so a test can compare a run under NPY_DISABLE_CPU_FEATURES with its
own.  Imports only numpy and cosmopair.
"""

import hashlib

from cosmopair.background import ModeParams
from cosmopair.encoding import build_full_circuit
from cosmopair.noise import NoiseModel, noisy_distributions
from cosmopair.schedule import build_schedule


def wide_simd_targets() -> list[str]:
    """numpy's enabled AVX2/AVX-512 dispatch targets (names vary by version)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    wide = ("AVX2", "AVX512", "FMA3", "X86_V3", "X86_V4")
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f) and f.startswith(wide)]


def distributions_digest() -> str:
    """sha256 of `noisy_distributions` at a few (x, N, factor)."""
    digest = hashlib.sha256()
    for x, n_steps in ((1.3, 1), (2.2, 3)):
        circuit = build_full_circuit(build_schedule(ModeParams(x=x, n_steps=n_steps)))
        models = [NoiseModel.default(4).scaled(f) for f in (1.0, 2.0)]
        for row in noisy_distributions(circuit, models):
            digest.update(row.tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(" ".join(wide_simd_targets()) or "-", distributions_digest())
