"""Exact references and the correctness checks the benchmark counts.

The reference is built outside the timed region from the program's own
operators (``model.jump_operators`` and ``fock.quadratures``) but none of its
solvers: the truncated Lindblad generator in the rotating frame is augmented
with the mean heat current tr(C0 rho C0^+) - tr(C1 rho C1^+) and propagated
with ``scipy.linalg.expm`` over each grid interval. That gives the exact
level populations, the exact mean heat and from them the exact ensemble
means of both work estimators. The guardian-photon probabilities are written
out here from their closed forms, independently of ``qho_cal.work``.

Every check is one counted operation: the benchmark reports how many were
attempted and how many failed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.stats import norm

# Family-wise false-alarm probability of the z-score checks of one run. The
# per-check threshold is Bonferroni-corrected for the number of checks, so a
# run of a correct program fails by chance about once in 10^4 runs.
Z_FAMILY_ALPHA = 1e-4
# RK4 oracle populations against the exact propagator (observed ~1e-12).
POP_ABS_TOL = 1e-8
# Unitary analytic rows against the closed form (CSV keeps 12 digits).
UNITARY_REL_TOL = 1e-8
# Displacement matrix elements come from expm on this many levels; at the
# largest drive displacement of the presets (pi/2) the kept elements are exact
# to machine precision.
_DISPLACEMENT_DIM = 96
_UNITARY_LEVELS = 60


@dataclass
class Checks:
    """Counter of attempted and failed checks, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


@dataclass(frozen=True)
class Reference:
    """Exact ensemble quantities on a checkpoint grid."""

    times: np.ndarray          # (K,)
    populations: np.ndarray    # (K, dim) level populations
    mean_wp: np.ndarray        # (K,) projective work mean
    mean_wc: np.ndarray        # (K,) calorimetric work mean


def guardian_probs(dim: int, boltzmann_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """(P(ell_i = 1 | n), P(ell_f = 0 | m)) for levels 0..dim-1.

    With x = gamma1/gamma0, the last pre-drive photon was an absorption with
    probability n/(x(n+1) + n), and the first post-drive photon is an
    emission with probability m/(m + x(m+1)).
    """
    x = boltzmann_ratio
    n = np.arange(dim, dtype=float)
    den_i = x * (n + 1) + n
    den_f = n + x * (n + 1)
    pi1 = np.divide(n, den_i, out=np.zeros(dim), where=den_i > 0)
    pf0 = np.divide(n, den_f, out=np.zeros(dim), where=den_f > 0)
    return pi1, pf0


def thermal_populations(beta: float, dim: int) -> np.ndarray:
    p = np.exp(-beta * np.arange(dim))
    return p / p.sum()


def exact_reference(params, rates, grid: Sequence[float], jump_operators, quadratures) -> Reference:
    """Propagate the heat-augmented truncated Lindblad generator exactly."""
    dim = params.dim
    _, p_quad = quadratures(dim)
    h = params.lambda0 / np.sqrt(2) * np.asarray(p_quad)
    c0, c1 = (np.asarray(c) for c in jump_operators(rates, dim))
    eye = np.eye(dim)
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in (c0, c1):
        cdc = c.conj().T @ c
        gen += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    heat_current = (c0.conj().T @ c0 - c1.conj().T @ c1).T.ravel()
    aug = np.zeros((dim * dim + 1, dim * dim + 1), dtype=complex)
    aug[: dim * dim, : dim * dim] = gen
    aug[dim * dim, : dim * dim] = heat_current

    p0 = thermal_populations(params.beta, dim)
    y = np.zeros(dim * dim + 1, dtype=complex)
    y[: dim * dim] = np.diag(p0).ravel()
    propagators: dict[float, np.ndarray] = {}
    pops, heat = [], []
    t_prev = 0.0
    for t in grid:
        step = round(float(t) - t_prev, 12)
        if step > 0:
            if step not in propagators:
                propagators[step] = scipy.linalg.expm(aug * step)
            y = propagators[step] @ y
        t_prev = float(t)
        pops.append(np.diag(y[: dim * dim].reshape(dim, dim)).real.copy())
        heat.append(y[dim * dim].real)
    pops = np.array(pops)
    heat = np.array(heat)
    levels = np.arange(dim, dtype=float)
    pi1, pf0 = guardian_probs(dim, rates.boltzmann_ratio)
    # W_p = m - n + Q; W_c = [ell_f = 0] - ell_i + Q (an absorbed final
    # guardian cancels its own energy, a missing one carries none)
    mean_wp = pops @ levels - p0 @ levels + heat
    mean_wc = pops @ pf0 - p0 @ pi1 + heat
    return Reference(np.asarray(grid, dtype=float), pops, mean_wp, mean_wc)


def unitary_rows(params, rates, grid: Sequence[float]) -> np.ndarray:
    """Closed-form unitary-limit rows (t, mean_Wp, var_Wp, mean_Wc, var_Wc).

    Projective: mean mu = (lambda0 t/2)^2, variance 2(N + 1/2) mu. Calorimetric:
    guardian algebra over the displacement transfer probabilities
    |<m|D(lambda0 t/2)|n>|^2, initial levels n <= 1 with renormalized thermal
    weights.
    """
    occ = rates.occupation
    x = rates.boltzmann_ratio
    n_lv = _UNITARY_LEVELS
    pi1, pf0 = guardian_probs(n_lv, x)
    ms = np.arange(n_lv, dtype=float)
    den_f = ms + x * (ms + 1)
    pf1 = np.divide(x * (ms + 1), den_f, out=np.zeros(n_lv), where=den_f > 0)
    pno = np.clip(1.0 - pf0 - pf1, 0.0, 1.0)
    weights = np.exp(-params.beta * np.arange(2))
    weights /= weights.sum()
    lower = np.diag(np.sqrt(np.arange(1, _DISPLACEMENT_DIM)), 1)
    rows = []
    for t in grid:
        mu_t = (params.lambda0 * float(t) / 2.0) ** 2
        alpha = params.lambda0 * float(t) / 2.0
        disp = scipy.linalg.expm(alpha * (lower.T - lower))[:n_lv, :n_lv]
        moments = []
        for k in (1, 2):
            total = 0.0
            for n, wt in enumerate(weights):
                t0 = disp[:, n] ** 2
                # final branch value: ell_f = 0 -> 1 - ell_i; ell_f = 1 or none -> -ell_i
                w = 0.0
                for ell_i, p_i in ((0, 1.0 - pi1[n]), (1, pi1[n])):
                    bracket = pf0 * (1.0 - ell_i) ** k + (pf1 + pno) * float(-ell_i) ** k
                    w += p_i * float(t0 @ bracket)
                total += wt * w
            moments.append(total)
        m1, m2 = moments
        rows.append((float(t), mu_t, 2.0 * (occ + 0.5) * mu_t, m1, m2 - m1 * m1))
    return np.array(rows)


def z_threshold(n_checks: int) -> float:
    return float(norm.isf(Z_FAMILY_ALPHA / (2.0 * max(n_checks, 1))))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a program CSV, skipping '#' provenance lines."""
    header: list[str] | None = None
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header or [], rows


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _columns(header, rows, names) -> dict[str, np.ndarray] | None:
    if any(n not in header for n in names) or not rows:
        return None
    idx = {n: header.index(n) for n in names}
    try:
        return {n: np.array([float(r[i]) for r in rows]) for n, i in idx.items()}
    except (ValueError, IndexError):
        return None


_SIM_COLUMNS = ("t", "mean_Wp", "se_mean_Wp", "mean_Wc", "se_mean_Wc", "n_traj")


def simulate_table(path, grid, n_traj: int, checks: Checks) -> dict[str, np.ndarray] | None:
    """Parse a simulate CSV; one check that its grid and n_traj are as asked."""
    header, rows = read_csv(path)
    cols = _columns(header, rows, _SIM_COLUMNS)
    ok = (
        cols is not None
        and cols["t"].shape == (len(grid),)
        and np.allclose(cols["t"], grid, rtol=0.0, atol=1e-9)
        and np.all(cols["n_traj"] == n_traj)
    )
    checks.record(ok, f"simulate CSV {path}: bad layout, grid or n_traj")
    return cols if ok else None


def check_simulate_means(tables, ref: Reference, checks: Checks) -> float:
    """One check per (checkpoint, estimator): the mean pooled over the run's
    independent ensembles lies within the Bonferroni z-threshold of the exact
    mean. Returns the largest |z| seen."""
    n_k = ref.times.size
    threshold = z_threshold(2 * n_k)
    worst = 0.0
    for col, exact in (("mean_Wp", ref.mean_wp), ("mean_Wc", ref.mean_wc)):
        if not tables:
            for k in range(n_k):
                checks.record(False, f"{col} at t={ref.times[k]:.6g}: no ensemble to check")
            continue
        means = np.array([t[col] for t in tables])
        ses = np.array([t["se_" + col] for t in tables])
        mean = means.mean(axis=0)
        se = np.sqrt((ses**2).sum(axis=0)) / len(tables)
        diff = np.abs(mean - exact)
        for k in range(n_k):
            if se[k] > 0:
                z = diff[k] / se[k]
                ok = z <= threshold
            else:  # a sure value (W_p at t = 0) must match exactly
                z = 0.0 if diff[k] <= 1e-12 else np.inf
                ok = diff[k] <= 1e-12
            worst = max(worst, float(z))
            checks.record(
                bool(ok),
                f"{col} at t={ref.times[k]:.6g}: z={z:.2f} > {threshold:.2f}",
            )
    return worst


def check_oracle(path, ref: Reference, checks: Checks) -> float:
    """One layout check and one check per grid row: the RK4 populations are
    within POP_ABS_TOL of the exact ones. Returns the largest error."""
    header, rows = read_csv(path)
    dim = ref.populations.shape[1]
    names = ["t"] + [f"p{m}" for m in range(dim)]
    cols = _columns(header, rows, names)
    ok = (
        cols is not None
        and cols["t"].shape == ref.times.shape
        and np.allclose(cols["t"], ref.times, rtol=0.0, atol=1e-9)
    )
    checks.record(ok, f"oracle CSV {path}: bad layout or grid")
    if not ok:
        for k in range(ref.times.size):
            checks.record(False, f"oracle row {k}: unreadable")
        return float("inf")
    pops = np.column_stack([cols[f"p{m}"] for m in range(dim)])
    err = np.abs(pops - ref.populations).max(axis=1)
    for k, e in enumerate(err):
        checks.record(bool(e <= POP_ABS_TOL), f"oracle populations at t={ref.times[k]:.6g}: error {e:.2e}")
    return float(err.max())


def check_analytic(path, grid, unitary: np.ndarray, dissipative: bool, checks: Checks) -> None:
    """One layout check (a unitary row per grid time, plus a perturbative row
    per grid time when gamma > 0) and one check per unitary row against the
    closed form."""
    header, rows = read_csv(path)
    names = ("t", "mean_Wp", "var_Wp", "mean_Wc", "var_Wc")
    ok = bool(header) and header[-1] == "method" and all(n in header for n in names)
    unit_rows = [r for r in rows if r and r[-1] == "unitary"]
    pert_rows = [r for r in rows if r and r[-1] == "perturbative"]
    ok = ok and len(unit_rows) == len(grid) and len(pert_rows) == (len(grid) if dissipative else 0)
    cols = _columns(header, unit_rows, names) if ok else None
    ok = ok and cols is not None and np.allclose(cols["t"], grid, rtol=0.0, atol=1e-9)
    checks.record(bool(ok), f"analytic CSV {path}: bad layout or grid")
    for k in range(len(grid)):
        if not ok:
            checks.record(False, f"analytic unitary row {k}: unreadable")
            continue
        got = np.array([cols[n][k] for n in names])
        want = unitary[k]
        good = np.all(np.abs(got - want) <= UNITARY_REL_TOL * np.maximum(1.0, np.abs(want)))
        checks.record(bool(good), f"analytic unitary row t={want[0]:.6g}: {got} vs {want}")
