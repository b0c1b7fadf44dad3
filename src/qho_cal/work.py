"""Work estimators sampled from trajectory batches, and moment statistics.

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

One set of guardian probabilities (guardian_probs) and one W_c rule serve
both the sampled measurement and the exact moment kernel work_moments, which
the analytics apply to their transfer tables.

Sampling is one vectorized pass over a TrajectoryBatch's arrays
(sample_work): per checkpoint row k, one inverse-CDF draw over the
populations (K, n, dim) and one comparison with the final-guardian emission
probability, reading the trajectory's measurement stream at event k + 1
(event 0 is the pre-drive guardian photon). measure_ensemble counts the
(K, n) work arrays into histograms with bincount.

All work values are exact integers in units of hbar*omega0, so moment
accumulation is an exact value -> count histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GridMismatchError, InsufficientDataError
from .model import Rates
from .quadrature import csv_float
from .trajectories import MEASUREMENT, TrajectoryBatch, inverse_cdf, uniforms

__all__ = [
    "MomentSummary",
    "EnsembleWorkResult",
    "guardian_probs",
    "work_moments",
    "sample_work",
    "measure_ensemble",
    "write_moments_csv",
]


def guardian_probs(
    levels, rates: Rates
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guardian-photon probabilities per level, x = gamma1/gamma0.

    Returns (pi0, pf0, pf1). pi0 = x(n+1) / (x(n+1) + n) is the probability
    that the last pre-drive photon was an emission (index 0) given initial
    level n: a level-n equilibrium state was entered from above or from
    below. pf0 = m / (m + x(m+1)) and pf1 = x(m+1) / (m + x(m+1)) are the
    probabilities that the first post-drive photon given final level m is an
    emission or an absorption; the remainder 1 - pf0 - pf1 is the no-photon
    branch. It is nonzero only at m = 0 and zero temperature, where no photon
    is ever observed; the same degenerate point resolves pi0 = 1, the system
    having sat in the ground state.
    """
    lv = np.asarray(levels, dtype=float)
    if (lv < 0).any():
        raise ValueError(f"levels must be non-negative, got {levels}")
    up = rates.boltzmann_ratio * (lv + 1)
    den = up + lv
    ok = den > 0
    den = np.where(ok, den, 1.0)
    return np.where(ok, up / den, 1.0), np.where(ok, lv / den, 0.0), np.where(ok, up / den, 0.0)


def _calorimetric_value(final_emission, ell_i, heat):
    """W_c = [ell_f = 0] - ell_i + Q. An emitted final guardian adds its own
    quantum to the inferred rise; an absorbed one cancels its own energy and
    a missing one carries none, so only P(ell_f = 0 | m) matters."""
    return final_emission - ell_i + heat


def work_moments(table: np.ndarray, weights: np.ndarray, rates: Rates) -> np.ndarray:
    """Mean and second moment of both work values from transfer weights.

    ``table[n, m, j]`` is the weight of ending in level m with integer jump
    heat Q = j - (J - 1)/2 from initial level n (J = table.shape[2] odd, so
    the heat axis is centred on Q = 0); ``weights[n]`` are the initial-level
    probabilities. Returns [<W_p>, <W_p^2>, <W_c>, <W_c^2>] with
    W_p = m - n + Q and W_c as in _calorimetric_value, the guardian photons
    drawn independently given n and m.
    """
    n_lv, m_lv, q_lv = table.shape
    ns, ms = np.arange(n_lv), np.arange(m_lv)
    heats = np.arange(q_lv) - q_lv // 2
    joint = np.asarray(weights, dtype=float)[:, None, None] * table
    pi0, _, _ = guardian_probs(ns, rates)
    _, pf0, _ = guardian_probs(ms, rates)
    wp = ms[None, :, None] - ns[:, None, None] + heats
    out = np.array([np.sum(joint * wp), np.sum(joint * wp**2), 0.0, 0.0])
    for ell_i, p_i in ((0, pi0), (1, 1.0 - pi0)):
        for emitted, p_f in ((1, pf0), (0, 1.0 - pf0)):
            wc = _calorimetric_value(emitted, ell_i, heats)
            branch = p_i[:, None, None] * p_f[None, :, None] * joint
            out[2] += np.sum(branch * wc)
            out[3] += np.sum(branch * wc**2)
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


def sample_work(batch: TrajectoryBatch, rates: Rates) -> tuple[np.ndarray, np.ndarray]:
    """Projective and calorimetric work of every trajectory of the batch at
    every checkpoint, as two (K, n) integer arrays.

    Per checkpoint row: one inverse-CDF draw of the final level m over the
    row's populations (W_p = m - n + Q) and one comparison with the
    final-guardian emission probability (W_c as in _calorimetric_value).
    The pre-drive guardian photon is drawn once per trajectory. Uniforms
    come from each trajectory's measurement stream, so the values do not
    depend on batching.
    """
    k_n, n, dim = batch.populations.shape
    pi0, pf0, _ = guardian_probs(np.arange(dim), rates)
    ids = batch.traj_ids
    ell_i = (uniforms(batch.key, 0, MEASUREMENT, ids)[:, 0] >= pi0[batch.levels]).astype(np.int64)
    wp = np.empty((k_n, n), dtype=np.int64)
    wc = np.empty((k_n, n), dtype=np.int64)
    for k, pops in enumerate(batch.populations):
        u = uniforms(batch.key, k + 1, MEASUREMENT, ids)
        m = inverse_cdf(np.cumsum(pops, axis=1), u[:, 0])
        wp[k] = m - batch.levels + batch.heats[k]
        # einsum, not gemv: a row's rounding must not depend on its batch
        final_emission = (u[:, 1] < np.einsum("ij,j->i", pops, pf0)).astype(np.int64)
        wc[k] = _calorimetric_value(final_emission, ell_i, batch.heats[k])
    return wp, wc


def _add_counts(hist: dict[int, int], values: np.ndarray) -> None:
    lo = int(values.min())
    counts = np.bincount(values - lo)
    for v in np.flatnonzero(counts):
        hist[lo + int(v)] = hist.get(lo + int(v), 0) + int(counts[v])


def measure_ensemble(batches: Iterable[TrajectoryBatch], rates: Rates) -> EnsembleWorkResult:
    """Both work values for every (trajectory, checkpoint) pair (sample_work),
    reduced per checkpoint to exact histograms. The result does not depend
    on how the ensemble is cut into batches.
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
        wp, wc = sample_work(batch, rates)
        for k in range(k_n):
            _add_counts(counts_p[k], wp[k])
            _add_counts(counts_c[k], wc[k])
        # free this batch and its work arrays before the next is evolved
        del batch, wp, wc

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
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(_MOMENT_COLUMNS + "\n")
        for k, t in enumerate(p.times):
            row = [
                t,
                p.mean[k], p.stderr_mean[k], p.variance[k], p.stderr_variance[k],
                c.mean[k], c.stderr_mean[k], c.variance[k], c.stderr_variance[k],
            ]
            fh.write(",".join(csv_float(x) for x in row) + f",{p.n_traj}\n")
