"""Deterministic density-matrix propagator: the brute-force cross-check.

Propagates d(rho)/dt = -i[H, rho] + sum_i (C_i rho C_i^+ - {C_i^+ C_i, rho}/2)
with H = (lambda0/sqrt(2)) P in the same frame as the trajectory engine, so
trajectory ensemble averages must reproduce these populations. The truncated
generator is time independent, so each grid interval is bridged exactly by
the matrix exponential of the dim^2 x dim^2 Liouvillian; trace, hermiticity
and positivity are monitored, never enforced, to keep the check unbiased.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import SimulationError
from .model import PhysicalParams, Rates, jump_operators
from .quadrature import csv_float
from .trajectories import thermal_probabilities
from .fock import matrix_exponential, number_operator, quadratures

__all__ = [
    "thermal_state",
    "integrate",
    "expectation",
    "mean_occupation",
    "write_populations_csv",
    "truncation_convergence_check",
]

_TRACE_TOL = 1e-8
_HERM_TOL = 1e-10
_POSITIVITY_TOL = 1e-6


def thermal_state(beta: float, dim: int) -> np.ndarray:
    """Diagonal thermal density matrix renormalized on the truncation."""
    return np.diag(thermal_probabilities(beta, dim)).astype(complex)


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """trace(op @ rho)."""
    if rho.shape != op.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs op {op.shape}")
    return complex(np.trace(op @ rho))


def mean_occupation(rho: np.ndarray) -> float:
    return float(np.real(expectation(rho, number_operator(rho.shape[0]))))


def _validate_rho(rho: np.ndarray, dim: int) -> None:
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix must be {dim}x{dim}, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > 1e-8:
        raise ValueError("initial density matrix is not hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-6:
        raise ValueError(f"initial density matrix has trace {np.trace(rho)}")


def integrate(
    rho0: np.ndarray,
    params: PhysicalParams,
    rates: Rates,
    grid: Sequence[float],
) -> list[np.ndarray]:
    """Density matrices on ``grid`` (grid[0] may be > 0; evolution starts at 0).

    Builds the Liouvillian L on the row-major vectorised density matrix once
    and steps between grid points with exp(L dt), one dense Pade ``expm`` per
    distinct interval length (cached on the exact float). The generator takes
    16 dim^4 bytes (160 kB at dim = 10, 41 MB at dim = 40) and each ``expm``
    costs O(dim^6) time and about ten times the generator in workspace:
    milliseconds at dim = 10; at dim = 40 about 5 s (8 s on one BLAS thread)
    and 0.4 GB peak resident memory on a 2-core x86-64 host.
    """
    dim = params.dim
    _validate_rho(rho0, dim)
    grid = [float(t) for t in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise ValueError("grid must be strictly increasing and non-negative")

    _, p = quadratures(dim)
    h = params.lambda0 / np.sqrt(2) * p
    eye = np.eye(dim)
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    generator = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in jump_operators(rates, dim):
        cdc = c.conj().T @ c
        generator += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    propagators: dict[float, np.ndarray] = {}

    def check(rho: np.ndarray, t: float) -> None:
        drift = abs(np.trace(rho).real - 1.0)
        if drift > _TRACE_TOL * max(1.0, t):
            raise SimulationError(f"trace drift {drift:.2e} at t = {t}")
        if np.abs(rho - rho.conj().T).max() > _HERM_TOL * max(1.0, t):
            raise SimulationError(f"hermiticity loss at t = {t}")
        lo = float(np.linalg.eigvalsh(rho).min())
        if lo < -_POSITIVITY_TOL:
            raise SimulationError(f"positivity violation {lo:.2e} at t = {t}")

    out: list[np.ndarray] = []
    vec = rho0.astype(complex).ravel()
    t_prev = 0.0
    for t_next in grid:
        seg = t_next - t_prev
        if seg > 0:
            if seg not in propagators:
                propagators[seg] = matrix_exponential(seg * generator)
            vec = propagators[seg] @ vec
        rho = vec.reshape(dim, dim)
        check(rho, t_next)
        out.append(rho.copy())
        t_prev = t_next
    return out


def write_populations_csv(path, grid, rhos, header_lines: Sequence[str] = ()) -> None:
    """Populations over the grid: t, p0, ..., p_{D-1}."""
    dim = rhos[0].shape[0]
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("t," + ",".join(f"p{m}" for m in range(dim)) + "\n")
        for t, rho in zip(grid, rhos):
            pops = np.real(np.diag(rho))
            fh.write(csv_float(t) + "," + ",".join(csv_float(p) for p in pops) + "\n")


def truncation_convergence_check(
    params: PhysicalParams,
    rates: Rates,
    grid: Sequence[float],
    rtol: float = 1e-3,
) -> tuple[bool, float]:
    """Integrate at dim and 2*dim and compare mean occupations.

    Returns (converged, worst relative difference). A failure means the
    truncation is biting and ``dim`` should be raised.
    """
    from dataclasses import replace

    big = replace(params, dim=2 * params.dim)
    rhos_small = integrate(thermal_state(params.beta, params.dim), params, rates, grid)
    rhos_big = integrate(thermal_state(big.beta, big.dim), big, rates, grid)
    worst = 0.0
    for rs, rb in zip(rhos_small, rhos_big):
        a = mean_occupation(rs)
        b = mean_occupation(rb)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
    return worst <= rtol, worst
