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
which reads nothing but the batches, counts each row with one bincount into
one count table per estimator.

All work values are exact integers in units of hbar*omega0, so the moments
are read off exact (K, B) value counts.
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


@dataclass
class MomentSummary:
    """Ensemble mean/variance with standard errors, and the exact value
    counts per checkpoint time: ``histograms[k, j]`` samples took the value
    ``lowest + j`` at ``times[k]``. The variance standard error is the
    moment estimate sqrt((m4 - s^4 (n-3)/(n-1)) / n) from the fourth central
    moment m4 and the sample variance s^2."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    stderr_mean: np.ndarray
    stderr_variance: np.ndarray
    histograms: np.ndarray
    lowest: int
    n_traj: int

    @classmethod
    def from_counts(
        cls, times: Sequence[float], lowest: int, counts: np.ndarray
    ) -> "MomentSummary":
        times = np.array(times, dtype=float)
        if len(counts) != times.size:
            raise ValueError("one count row per time required")
        totals = counts.sum(axis=1)
        if np.any(totals < 2):
            k = int(np.argmax(totals < 2))
            raise InsufficientDataError(
                f"need at least 2 samples per time, got {totals[k]} at t = {times[k]}"
            )
        if np.any(totals != totals[0]):
            raise ValueError("count rows carry different sample counts")
        n = int(totals[0])
        mean, m2, m4 = np.empty((3, times.size))
        for k, row in enumerate(counts):
            # the nonzero bins only, in value order: the sums do not depend
            # on the table's range, and so not on the batch cut
            bins = np.flatnonzero(row)
            vals, cs = (lowest + bins).astype(float), row[bins].astype(float)
            mean[k] = (vals * cs).sum() / n
            d = vals - mean[k]
            m2[k], m4[k] = (cs * d**2).sum() / n, (cs * d**4).sum() / n
        var = m2 * n / (n - 1)
        var_of_var = (m4 - var * var * (n - 3) / (n - 1)) / n
        return cls(
            times, mean, var, np.sqrt(var / n), np.sqrt(np.maximum(var_of_var, 0.0)),
            counts, int(lowest), n,
        )


# ---------------------------------------------------------------------------
# ensemble measurement pipeline


@dataclass
class EnsembleWorkResult:
    projective: MomentSummary
    calorimetric: MomentSummary


def measure_ensemble(batches: Iterable[TrajectoryBatch]) -> EnsembleWorkResult:
    """Both work values of every (trajectory, checkpoint) pair, counted per
    checkpoint into one (2, K, B) table: bin j is the value ``lowest + j``,
    with ``lowest`` and B from the smallest and largest value of either
    estimator, so the result does not depend on how the ensemble is cut into
    batches. Only the batches are read: each arrives measured (see
    TrajectoryBatch), its work values in the narrowest integer type that
    holds them, which may differ from batch to batch; each row is widened
    before ``lowest`` is subtracted.
    """
    times: np.ndarray | None = None
    for batch in batches:
        values = (batch.W_p, batch.W_c)
        lo = min(int(w.min()) for w in values)
        hi = max(int(w.max()) for w in values)
        if times is None:
            times = batch.times
            lowest, counts = lo, np.zeros((2, len(times), 0), dtype=np.int64)
        elif not np.array_equal(batch.times, times):
            raise GridMismatchError("batches carry different checkpoint grids")
        # widen the table to this batch's values
        below = max(lowest - lo, 0)
        above = max(hi - lowest - counts.shape[2] + 1, 0)
        if below or above:
            counts = np.pad(counts, ((0, 0), (0, 0), (below, above)))
            lowest -= below
        for table, rows in zip(counts, values):
            for k, row in enumerate(rows):
                # widened first: an int8 row minus lowest would wrap
                table[k] += np.bincount(np.subtract(row, lowest, dtype=np.intp),
                                        minlength=counts.shape[2])
        # free this batch before the next is evolved
        del batch, values

    if times is None:
        raise InsufficientDataError("no trajectories given")
    return EnsembleWorkResult(
        projective=MomentSummary.from_counts(times, lowest, counts[0]),
        calorimetric=MomentSummary.from_counts(times, lowest, counts[1]),
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
