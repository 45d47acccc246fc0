"""Fast built-in verification suite behind the `verify` subcommand.

Each check is independent, runs in at most a few seconds, and produces a
deterministic one-line result, so two consecutive runs print identical
reports.  The operator-table arguments exist so tests can corrupt an
operator and confirm the corresponding check trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import background, encoding, statevector, subspace
from .background import ModeParams
from .encoding import PauliString, phase_aligned_distance
from .schedule import build_schedule

__all__ = ["CheckResult", "run_checks", "format_report"]

_REFERENCE_X = (1.3, 1.5, 1.8, 2.0, 2.2)
_REFERENCE_N_K = (0.0875, 0.0494, 0.0238, 0.0156, 0.0107)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_analytic_benchmark() -> CheckResult:
    got = tuple(round(background.n_k_analytic(x), 4) for x in _REFERENCE_X)
    ok = got == _REFERENCE_N_K
    return CheckResult(
        "analytic_benchmark", ok, f"n_k rounded to 4 decimals: {got}"
    )


def _check_normalization() -> CheckResult:
    defect = max(
        abs(background.bogoliubov_analytic(x).normalization_defect)
        for x in np.geomspace(0.5, 10.0, 25)
    )
    return CheckResult(
        "bogoliubov_normalization", defect < 1e-12, f"max defect {defect:.3e}"
    )


def _check_number_embedding(zq_terms: tuple[PauliString, ...]) -> CheckResult:
    dense = encoding.pauli_to_matrix(zq_terms)
    idx = np.array(subspace.PHYS_INDICES)
    sub = dense[np.ix_(idx, idx)]
    ok = np.array_equal(sub.real, subspace.Z_PHYS) and not np.any(sub.imag)
    return CheckResult(
        "number_operator_embedding",
        bool(ok),
        f"restriction diag = {np.diag(sub.real).tolist()}",
    )


def _check_pair_embedding(aq_terms: tuple[PauliString, ...]) -> CheckResult:
    dense = encoding.pauli_to_matrix(aq_terms)
    idx = np.array(subspace.PHYS_INDICES)
    sub = dense[np.ix_(idx, idx)]
    ok = np.array_equal(sub.real, subspace.A_PHYS) and not np.any(sub.imag)
    off = dense.copy()
    off[np.ix_(idx, idx)] = 0.0
    ok = ok and not np.any(off)
    return CheckResult(
        "pair_operator_embedding",
        bool(ok),
        f"vac<->pair element = {sub[0, 3]:.1f}, off-subspace max {np.max(np.abs(off)):.1e}",
    )


def _check_pair_commutation(aq_terms: tuple[PauliString, ...]) -> CheckResult:
    mats = [encoding.pauli_to_matrix(t) for t in aq_terms]
    worst = max(
        float(np.max(np.abs(a @ b - b @ a)))
        for i, a in enumerate(mats)
        for b in mats[i + 1 :]
    )
    return CheckResult(
        "pair_term_commutation", worst < 1e-14, f"max commutator norm {worst:.3e}"
    )


def _check_mode_oracle() -> CheckResult:
    pair = background.bogoliubov_ode_oracle(2.0)
    rel = abs(pair.n_k - background.n_k_analytic(2.0)) / background.n_k_analytic(2.0)
    return CheckResult(
        "mode_equation_oracle", rel < 1e-6, f"|beta|^2 relative error {rel:.3e}"
    )


def _check_engine_equivalence() -> CheckResult:
    sched = build_schedule(ModeParams(x=2.0, n_steps=10))
    final = subspace.evolve(sched)
    probs = statevector.probabilities(
        statevector.run_circuit(encoding.build_full_circuit(sched))
    )
    worst = max(
        abs(abs(final[i]) ** 2 - probs[j]) for i, j in enumerate(subspace.PHYS_INDICES)
    )
    return CheckResult(
        "engine_equivalence_n10", worst < 1e-10, f"max population diff {worst:.3e}"
    )


def _check_schedule_runner() -> CheckResult:
    # Eight de Sitter slices then two radiation slices: both slice templates.
    sched = build_schedule(ModeParams(x=2.0, y_i=-10.0, n_steps=10))
    fused = statevector.run_schedule(sched)
    gatewise = statevector.run_circuit(encoding.build_full_circuit(sched))
    worst = float(np.max(np.abs(fused - gatewise)))
    return CheckResult(
        "schedule_runner_n10", worst < 1e-12, f"max amplitude diff {worst:.3e}"
    )


def _check_step_synthesis() -> CheckResult:
    angles = [a.item() for a in build_schedule(ModeParams(x=1.3, n_steps=1)).angles()]
    idx = np.array(subspace.PHYS_INDICES)
    dense = statevector.circuit_unitary(encoding.synthesize_step(*angles))
    dist = phase_aligned_distance(
        dense[np.ix_(idx, idx)], subspace.strang_step_unitary(*angles)
    )
    return CheckResult(
        "step_circuit_synthesis", dist < 1e-10, f"phase-aligned distance {dist:.3e}"
    )


def run_checks(
    zq_terms: tuple[PauliString, ...] | None = None, aq_terms: tuple[PauliString, ...] | None = None
) -> list[CheckResult]:
    """Run every check; operator tables may be overridden for negative tests."""
    zq = encoding.zq_pauli_sum() if zq_terms is None else zq_terms
    aq = encoding.aq_pauli_sum() if aq_terms is None else aq_terms
    return [
        _check_analytic_benchmark(),
        _check_normalization(),
        _check_number_embedding(zq),
        _check_pair_embedding(aq),
        _check_pair_commutation(aq),
        _check_mode_oracle(),
        _check_engine_equivalence(),
        _check_schedule_runner(),
        _check_step_synthesis(),
    ]


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [
        f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}"
        for r in results
    ]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
