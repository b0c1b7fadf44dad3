"""Work estimators of the trajectory ensemble, and moment statistics.

Two work values are attached to each trajectory at a checkpoint time tau:

* projective: a level m is drawn from the checkpoint state populations and
  W = (m - n) + Q, with n the initial level and Q the integer heat count.
* calorimetric: the internal energy change is inferred as if the system
  were a two-level system, from the guardian photons -- the last photon
  before the drive (ell_i) and the first one after it (ell_f). Then
  W_c = (ell_f - ell_i) + Q + (-1)^ell_f, the last term being the heat the
  final guardian photon itself carries. At zero temperature a trajectory
  ending in the ground state emits no final photon; that branch contributes
  delta_u = -ell_i and no guardian heat.

One set of guardian probabilities (model.guardian_probs) and one W_c rule
(model.calorimetric_value) serve both the sampled measurement and the exact
moment kernel work_moments, which the analytics apply to their transfer
tables.

The sampling happens during the trajectory readout (trajectories): each
checkpoint row is measured as soon as it exists, so a TrajectoryBatch
arrives carrying its (K, n) work arrays W_p and W_c, and measure_ensemble,
which reads nothing but the batches, counts each row into exact histograms
with bincount.

All work values are exact integers in units of hbar*omega0, so moment
accumulation is an exact value -> count histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GridMismatchError, InsufficientDataError
from .model import Rates, calorimetric_value, guardian_probs
from .quadrature import write_csv
from .trajectories import TrajectoryBatch

__all__ = [
    "MomentSummary",
    "EnsembleWorkResult",
    "work_moments",
    "measure_ensemble",
    "write_moments_csv",
]


def work_moments(table: np.ndarray, weights: np.ndarray, rates: Rates) -> np.ndarray:
    """Mean and second moment of both work values from transfer weights.

    ``table[..., n, m, j]`` is the weight of ending in level m with integer
    jump heat Q = j - (J - 1)/2 from initial level n (J = table.shape[-1] odd,
    so the heat axis is centred on Q = 0); ``weights[n]`` are the
    initial-level probabilities. Returns [<W_p>, <W_p^2>, <W_c>, <W_c^2>] on
    a last axis, shape (..., 4), one row per table of the leading axes, with
    W_p = m - n + Q and W_c as in model.calorimetric_value, the guardian
    photons drawn independently given n and m. Each table is summed in one
    flat pass, so a row does not depend on the tables stacked with it.
    """
    *stack, n_lv, m_lv, q_lv = table.shape
    ns, ms = np.arange(n_lv), np.arange(m_lv)
    heats = np.arange(q_lv) - q_lv // 2
    joint = np.asarray(weights, dtype=float)[:, None, None] * table
    pi0, _, _ = guardian_probs(ns, rates)
    _, pf0, _ = guardian_probs(ms, rates)
    wp = ms[None, :, None] - ns[:, None, None] + heats

    def total(x: np.ndarray) -> np.ndarray:
        return x.reshape(*stack, -1).sum(axis=-1)

    out = np.zeros((*stack, 4))
    out[..., 0] = total(joint * wp)
    out[..., 1] = total(joint * wp**2)
    for ell_i, p_i in ((0, pi0), (1, 1.0 - pi0)):
        for emitted, p_f in ((1, pf0), (0, 1.0 - pf0)):
            wc = calorimetric_value(emitted, ell_i, heats)
            branch = p_i[:, None, None] * p_f[None, :, None] * joint
            out[..., 2] += total(branch * wc)
            out[..., 3] += total(branch * wc**2)
    return out


# ---------------------------------------------------------------------------
# moment statistics


def _central_moments(counts: dict[int, int]) -> tuple[int, float, float, float]:
    n = sum(counts.values())
    vals = np.array(sorted(counts), dtype=float)
    cs = np.array([counts[int(v)] for v in vals], dtype=float)
    mean = float((vals * cs).sum() / n)
    d = vals - mean
    m2 = float((cs * d**2).sum() / n)
    m4 = float((cs * d**4).sum() / n)
    return n, mean, m2, m4


def _variance_se_moments(n: int, m2: float, m4: float) -> float:
    s2 = m2 * n / (n - 1)
    var_of_var = (m4 - s2 * s2 * (n - 3) / (n - 1)) / n
    return float(np.sqrt(max(var_of_var, 0.0)))


@dataclass
class MomentSummary:
    """Ensemble mean/variance with standard errors and the exact value
    histogram per checkpoint time. The variance standard error is the
    moment estimate sqrt((m4 - s^4 (n-3)/(n-1)) / n) from the fourth central
    moment m4 and the sample variance s^2."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    stderr_mean: np.ndarray
    stderr_variance: np.ndarray
    histograms: list[dict[int, int]]
    n_traj: int

    @classmethod
    def from_counts(
        cls, times: Sequence[float], histograms: list[dict[int, int]]
    ) -> "MomentSummary":
        times = np.asarray([float(t) for t in times])
        if len(histograms) != times.size:
            raise ValueError("one histogram per time required")
        n_ref = None
        mean = np.empty(times.size)
        var = np.empty(times.size)
        se_m = np.empty(times.size)
        se_v = np.empty(times.size)
        for k, counts in enumerate(histograms):
            n, mu_k, m2, m4 = _central_moments(counts)
            if n < 2:
                raise InsufficientDataError(
                    f"need at least 2 samples per time, got {n} at t = {times[k]}"
                )
            if n_ref is None:
                n_ref = n
            elif n != n_ref:
                raise ValueError("histograms carry different sample counts")
            mean[k] = mu_k
            var[k] = m2 * n / (n - 1)
            se_m[k] = np.sqrt(var[k] / n)
            se_v[k] = _variance_se_moments(n, m2, m4)
        return cls(times, mean, var, se_m, se_v, [dict(h) for h in histograms], n_ref)


# ---------------------------------------------------------------------------
# ensemble measurement pipeline


@dataclass
class EnsembleWorkResult:
    projective: MomentSummary
    calorimetric: MomentSummary


def _add_counts(hist: dict[int, int], values: np.ndarray) -> None:
    lo = int(values.min())
    counts = np.bincount(values - lo)
    for v in np.flatnonzero(counts):
        hist[lo + int(v)] = hist.get(lo + int(v), 0) + int(counts[v])


def measure_ensemble(batches: Iterable[TrajectoryBatch]) -> EnsembleWorkResult:
    """Both work values of every (trajectory, checkpoint) pair, reduced per
    checkpoint to exact histograms. The result does not depend on how the
    ensemble is cut into batches. Only the batches are read: each arrives
    measured (see TrajectoryBatch).
    """
    times: np.ndarray | None = None
    for batch in batches:
        if times is None:
            times = batch.times
            k_n = len(times)
            counts_p: list[dict[int, int]] = [{} for _ in range(k_n)]
            counts_c: list[dict[int, int]] = [{} for _ in range(k_n)]
        elif not np.array_equal(batch.times, times):
            raise GridMismatchError("batches carry different checkpoint grids")
        for k in range(k_n):
            _add_counts(counts_p[k], batch.W_p[k])
            _add_counts(counts_c[k], batch.W_c[k])
        # free this batch before the next is evolved
        del batch

    if times is None:
        raise InsufficientDataError("no trajectories given")
    return EnsembleWorkResult(
        projective=MomentSummary.from_counts(times, counts_p),
        calorimetric=MomentSummary.from_counts(times, counts_c),
    )


_MOMENT_COLUMNS = (
    "t,mean_Wp,se_mean_Wp,var_Wp,se_var_Wp,"
    "mean_Wc,se_mean_Wc,var_Wc,se_var_Wc,n_traj"
)


def write_moments_csv(path, result: EnsembleWorkResult, header_lines: Sequence[str] = ()) -> None:
    """Estimator CSV: one row per checkpoint time."""
    p, c = result.projective, result.calorimetric
    rows = [
        (t, p.mean[k], p.stderr_mean[k], p.variance[k], p.stderr_variance[k],
         c.mean[k], c.stderr_mean[k], c.variance[k], c.stderr_variance[k], str(p.n_traj))
        for k, t in enumerate(p.times)
    ]
    write_csv(path, _MOMENT_COLUMNS, rows, header_lines)
