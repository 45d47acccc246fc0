"""The output bytes of the noisy channel and of `run_schedule`, and the CPU
kernels numpy and OpenBLAS can pick.

Run as a script, prints the enabled AVX2/AVX-512 targets (or `-`) and the
channel's digest, or `run_schedule`'s with the argument `schedule`, so a
test can compare a run under NPY_DISABLE_CPU_FEATURES or OPENBLAS_CORETYPE
with its own.  Imports only numpy and cosmopair.
"""

import hashlib
import sys

from cosmopair.background import ModeParams
from cosmopair.noise import NoiseModel, noisy_distributions
from cosmopair.schedule import build_schedule
from cosmopair.statevector import run_schedule


def _cpu_features() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath


def wide_simd_targets() -> list[str]:
    """numpy's enabled AVX2/AVX-512 dispatch targets (names vary by version)."""
    umath = _cpu_features()
    wide = ("AVX2", "AVX512", "FMA3", "X86_V3", "X86_V4")
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f) and f.startswith(wide)]


def openblas_core_types() -> list[str]:
    """The OPENBLAS_CORETYPE values this CPU can run: SSE3, AVX2 and AVX-512 kernels."""
    features = _cpu_features().__cpu_features__
    if not features.get("SSE3"):  # not x86
        return []
    needs = {"Prescott": (), "Haswell": ("AVX2", "FMA3"), "SkylakeX": ("AVX512_SKX",)}
    return [core for core, flags in needs.items() if all(features.get(f) for f in flags)]


def distributions_digest() -> str:
    """sha256 of one `noisy_distributions` grid over a few (x, N) windows and
    factors, its rows in x-major, factor-minor order."""
    schedules = [build_schedule(ModeParams(x=x, n_steps=n)) for x, n in ((1.3, 1), (2.2, 3))]
    models = [NoiseModel.symmetric().scaled(f) for f in (1.0, 2.0)]
    return hashlib.sha256(noisy_distributions(schedules, models).tobytes()).hexdigest()


def schedule_digest() -> str:
    """sha256 of `run_schedule`'s amplitudes over a few (x, y_i, N) windows:
    de Sitter and radiation slices, over one chunk and over several."""
    windows = ((1.3, -80.0, 1000), (2.0, -80.0, 1000), (2.0, -10.0, 10), (2.3, -2.5, 257))
    amps = [run_schedule(build_schedule(ModeParams(x=x, y_i=y_i, n_steps=n)))
            for x, y_i, n in windows]
    return hashlib.sha256(b"".join(a.tobytes() for a in amps)).hexdigest()


if __name__ == "__main__":
    digest = schedule_digest if sys.argv[1:] == ["schedule"] else distributions_digest
    print(" ".join(wide_simd_targets()) or "-", digest())
