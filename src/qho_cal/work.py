"""Per-trajectory thermodynamic bookkeeping and ensemble moment statistics.

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

All work values are exact integers in units of hbar*omega0, so moment
accumulation is a value -> count histogram and merging ensembles is exact,
associative and commutative.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InsufficientDataError
from .model import Rates
from .quadrature import csv_float
from .trajectories import TrajectoryRecord

__all__ = [
    "GuardianOutcome",
    "WorkSample",
    "MomentSummary",
    "PopulationSummary",
    "EnsembleWorkResult",
    "heat_up_to",
    "projective_work",
    "guardian_probs",
    "work_moments",
    "draw_guardian_outcome",
    "calorimetric_work",
    "summarize",
    "measure_ensemble",
    "write_moments_csv",
]


@dataclass(frozen=True)
class GuardianOutcome:
    """Guardian photon pair; ell_f is None when no final photon can ever be
    observed (zero temperature with the system left in the ground state)."""

    ell_i: int
    ell_f: int | None


@dataclass(frozen=True)
class WorkSample:
    """One work draw, in integer units of hbar*omega0. value = delta_u + heat
    holds exactly by construction."""

    kind: str
    tau: float
    delta_u: int
    heat: int
    value: int


def heat_up_to(record: TrajectoryRecord, tau: float) -> int:
    """Integer heat count up to tau: emissions minus absorptions."""
    horizon = record.times[-1]
    if tau < 0 or tau > horizon * (1 + 1e-12) + 1e-12:
        raise ValueError(f"tau = {tau} outside the record horizon [0, {horizon}]")
    return sum(1 if j.index == 0 else -1 for j in record.jumps if j.time <= tau)


def projective_work(
    record: TrajectoryRecord, tau: float, rng: np.random.Generator
) -> WorkSample:
    """Two-measurement work: draw the final level from the checkpoint state."""
    k = record.checkpoint_index(tau)
    state = record.states[k]
    p = state.real**2 + state.imag**2
    m = int(min(np.searchsorted(np.cumsum(p), rng.random(), side="right"), p.size - 1))
    heat = int(record.heats[k])
    delta_u = m - record.initial_level
    return WorkSample("projective", float(tau), delta_u, heat, delta_u + heat)


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


def draw_guardian_outcome(
    record: TrajectoryRecord,
    tau: float,
    rates: Rates,
    rng: np.random.Generator,
    ell_i: int | None = None,
) -> GuardianOutcome:
    """Sample the guardian pair for one trajectory at checkpoint tau."""
    state = record.states[record.checkpoint_index(tau)]
    pi0, pf0, pf1 = guardian_probs(np.arange(state.size), rates)
    if ell_i is None:
        ell_i = 0 if rng.random() < pi0[record.initial_level] else 1
    p = state.real**2 + state.imag**2
    p0 = float(p @ pf0)
    r = rng.random()
    if r < p0:
        ell_f: int | None = 0
    elif r < p0 + float(p @ pf1):
        ell_f = 1
    else:
        ell_f = None
    return GuardianOutcome(ell_i=ell_i, ell_f=ell_f)


def calorimetric_work(
    record: TrajectoryRecord,
    tau: float,
    rates: Rates,
    rng: np.random.Generator,
    ell_i: int | None = None,
) -> WorkSample:
    """Calorimetric work at tau. Pass ell_i to reuse one pre-drive photon
    draw across several checkpoints of the same trajectory (it is a single
    physical event)."""
    outcome = draw_guardian_outcome(record, tau, rates, rng, ell_i=ell_i)
    k = record.checkpoint_index(tau)
    jump_heat = int(record.heats[k])
    if outcome.ell_f is None:
        delta_u = -outcome.ell_i
        heat = jump_heat
    else:
        delta_u = outcome.ell_f - outcome.ell_i
        heat = jump_heat + (1 - 2 * outcome.ell_f)
    return WorkSample("calorimetric", float(tau), delta_u, heat, delta_u + heat)


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
    if n < 2:
        return float("nan")
    s2 = m2 * n / (n - 1)
    var_of_var = (m4 - s2 * s2 * (n - 3) / (n - 1)) / n
    return float(np.sqrt(max(var_of_var, 0.0)))


def _variance_se_jackknife(counts: dict[int, int]) -> float:
    n = sum(counts.values())
    if n < 3:
        return float("nan")
    vals = np.array(sorted(counts), dtype=float)
    cs = np.array([counts[int(v)] for v in vals], dtype=float)
    s1 = float((vals * cs).sum())
    s2 = float((vals**2 * cs).sum())
    loo = ((s2 - vals**2) - (s1 - vals) ** 2 / (n - 1)) / (n - 2)
    loo_mean = float((cs * loo).sum() / n)
    ss = float((cs * (loo - loo_mean) ** 2).sum())
    return float(np.sqrt((n - 1) / n * ss))


@dataclass
class MomentSummary:
    """Ensemble mean/variance with standard errors and the exact value
    histogram per checkpoint time. Merging is exact (histogram addition)."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    stderr_mean: np.ndarray
    stderr_variance: np.ndarray
    histograms: list[dict[int, int]]
    n_traj: int

    @classmethod
    def from_counts(
        cls,
        times: Sequence[float],
        histograms: list[dict[int, int]],
        variance_se: str = "moments",
    ) -> "MomentSummary":
        if variance_se not in ("moments", "jackknife"):
            raise ValueError(f"unknown variance_se method {variance_se!r}")
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
            if variance_se == "moments":
                se_v[k] = _variance_se_moments(n, m2, m4)
            else:
                se_v[k] = _variance_se_jackknife(counts)
        return cls(times, mean, var, se_m, se_v, [dict(h) for h in histograms], n_ref)

    def merge(self, other: "MomentSummary") -> "MomentSummary":
        if not np.array_equal(self.times, other.times):
            raise ValueError("cannot merge summaries on different grids")
        merged = []
        for a, b in zip(self.histograms, other.histograms):
            c = Counter(a)
            c.update(b)
            merged.append(dict(c))
        return MomentSummary.from_counts(self.times, merged)


def summarize(
    samples: Iterable[WorkSample], variance_se: str = "moments"
) -> MomentSummary:
    """Group samples by checkpoint time and reduce to a MomentSummary."""
    by_time: dict[float, Counter] = {}
    for s in samples:
        by_time.setdefault(s.tau, Counter())[s.value] += 1
    if not by_time:
        raise InsufficientDataError("no samples given")
    times = sorted(by_time)
    return MomentSummary.from_counts(
        times, [dict(by_time[t]) for t in times], variance_se=variance_se
    )


# ---------------------------------------------------------------------------
# ensemble measurement pipeline


@dataclass
class PopulationSummary:
    """Ensemble-averaged level populations and mean occupation per checkpoint."""

    times: np.ndarray
    mean: np.ndarray          # (K, dim)
    stderr: np.ndarray        # (K, dim)
    nbar_mean: np.ndarray     # (K,)
    nbar_stderr: np.ndarray   # (K,)
    n_traj: int


@dataclass
class EnsembleWorkResult:
    projective: MomentSummary
    calorimetric: MomentSummary
    populations: PopulationSummary


def _record_chunks(
    records: Iterable[TrajectoryRecord], size: int
) -> Iterator[list[TrajectoryRecord]]:
    chunk: list[TrajectoryRecord] = []
    for record in records:
        chunk.append(record)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def measure_ensemble(
    records: Iterable[TrajectoryRecord],
    rates: Rates,
    variance_se: str = "moments",
) -> EnsembleWorkResult:
    """Draw both work values for every (trajectory, checkpoint) pair and
    accumulate exact histograms plus population statistics.

    Measurement randomness comes from each record's own measurement stream,
    so the result is reproducible and independent of iteration chunking. The
    pre-drive guardian photon is drawn once per trajectory; the final
    guardian and the projective level are drawn per checkpoint.
    """
    times: np.ndarray | None = None
    counts_p: list[Counter] | None = None
    counts_c: list[Counter] | None = None
    pop_sum = pop_sumsq = nbar_sum = nbar_sumsq = None
    narr = pi0 = pf0 = None
    n_total = 0

    for chunk in _record_chunks(records, 2048):
        if times is None:
            times = chunk[0].times.copy()
            k_n = times.size
            dim = chunk[0].states.shape[1]
            counts_p = [Counter() for _ in range(k_n)]
            counts_c = [Counter() for _ in range(k_n)]
            pop_sum = np.zeros((k_n, dim))
            pop_sumsq = np.zeros((k_n, dim))
            nbar_sum = np.zeros(k_n)
            nbar_sumsq = np.zeros(k_n)
            narr = np.arange(dim, dtype=float)
            pi0, pf0, _ = guardian_probs(narr, rates)
        k_n = times.size
        vp_chunk = np.empty((len(chunk), k_n), dtype=np.int64)
        vc_chunk = np.empty((len(chunk), k_n), dtype=np.int64)
        for row, record in enumerate(chunk):
            if not np.array_equal(record.times, times):
                raise ValueError("records carry inconsistent checkpoint grids")
            if record.measure_seed is None:
                raise ValueError(
                    f"record {record.traj_id} has no measurement seed attached"
                )
            gen = np.random.Generator(np.random.PCG64(record.measure_seed))
            u = gen.random(1 + 2 * k_n)
            p2 = record.states.real**2 + record.states.imag**2  # (K, dim)

            n0 = record.initial_level
            ell_i = 0 if u[0] < pi0[n0] else 1

            cum = np.cumsum(p2, axis=1)
            m_draw = (cum < u[1::2, None]).sum(axis=1)
            np.minimum(m_draw, p2.shape[1] - 1, out=m_draw)
            heats = record.heats
            vp_chunk[row] = m_draw - n0 + heats

            final_emission = (u[2::2] < p2 @ pf0).astype(np.int64)
            vc_chunk[row] = _calorimetric_value(final_emission, ell_i, heats)

            pop_sum += p2
            pop_sumsq += p2**2
            nbar = p2 @ narr
            nbar_sum += nbar
            nbar_sumsq += nbar**2
        n_total += len(chunk)
        for k in range(k_n):
            counts_p[k].update(vp_chunk[:, k].tolist())
            counts_c[k].update(vc_chunk[:, k].tolist())

    if times is None:
        raise InsufficientDataError("no records given")

    def _se(total: np.ndarray, total_sq: np.ndarray, n: int) -> np.ndarray:
        mean = total / n
        var = np.maximum(total_sq / n - mean**2, 0.0) * n / max(n - 1, 1)
        return np.sqrt(var / n)

    populations = PopulationSummary(
        times=times,
        mean=pop_sum / n_total,
        stderr=_se(pop_sum, pop_sumsq, n_total),
        nbar_mean=nbar_sum / n_total,
        nbar_stderr=_se(nbar_sum, nbar_sumsq, n_total),
        n_traj=n_total,
    )
    return EnsembleWorkResult(
        projective=MomentSummary.from_counts(
            times, [dict(c) for c in counts_p], variance_se=variance_se
        ),
        calorimetric=MomentSummary.from_counts(
            times, [dict(c) for c in counts_c], variance_se=variance_se
        ),
        populations=populations,
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
