"""Stochastic quantum-jump (Monte Carlo wave function) trajectory engine.

Exact waiting times (Dalibard, Castin & Molmer, PRL 68, 580 (1992)), no
time step: ``||exp(-iKt) psi||^2``, with the constant rotating-frame
generator ``K = model.nh_generator``, is the probability of no jump by t.
Each trajectory holds a uniform threshold r and jumps when that norm falls
to r, applying C0 (emission into the bath, heat +1) or C1 (absorption, heat
-1) with probability proportional to ``||C_i psi||^2``; then it draws a new
r. One eigendecomposition ``K = V diag(k) V^-1`` propagates a batch in
closed form; jump instants are Newton roots of ``log ||psi||^2 = log r``
inside a bisection bracket. Checkpoints store the normalized state and the
integer cumulative heat, and rescale r by the norm lost (r <- r/||psi||^2),
so trajectories do not depend on the checkpoint grid.

Per-trajectory random streams derive from SeedSequence(master_seed)
children keyed by trajectory index and are read only for the initial level,
the first threshold and at jumps (jump type, then next threshold), so
results are bitwise reproducible for every worker count and batching.
"""

from __future__ import annotations

import csv
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import GridMismatchError, SimulationError, TruncationWarning
from .fock import matrix_exponential
from .model import PhysicalParams, Rates, jump_operators, nh_generator

__all__ = [
    "JumpEvent",
    "TrajectoryRecord",
    "EnsembleConfig",
    "sample_initial_level",
    "evolve_trajectory",
    "iter_ensemble",
    "run_ensemble",
    "dump_events_csv",
]

_LEAK_WARN = 1e-3
_LEAK_FAIL = 1e-1
# the eigen propagator must reproduce expm(-i K span) on every grid interval
_EIG_TOL = 1e-8
# a jump instant is accepted when log ||psi||^2 is this close to log r
_ROOT_TOL = 1e-13
_ROOT_MAX_ITER = 200


@dataclass(frozen=True)
class JumpEvent:
    """One detector click: index 0 = quantum emitted into the bath (C0),
    index 1 = quantum absorbed from the bath (C1)."""

    time: float
    index: int

    def __post_init__(self) -> None:
        if self.index not in (0, 1):
            raise ValueError(f"jump index must be 0 or 1, got {self.index}")
        if self.time <= 0:
            raise ValueError(f"jump time must be positive, got {self.time}")


@dataclass
class TrajectoryRecord:
    """One stochastic realization.

    ``states[k]`` is the normalized state at ``times[k]`` and ``heats[k]``
    the cumulative heat up to that time as an exact integer in units of
    hbar*omega0 (number of emissions minus absorptions).
    """

    initial_level: int
    jumps: tuple[JumpEvent, ...]
    times: np.ndarray
    states: np.ndarray
    heats: np.ndarray
    traj_id: int = 0
    measure_seed: np.random.SeedSequence | None = None

    @property
    def checkpoints(self) -> list[tuple[float, np.ndarray, int]]:
        return [
            (float(t), self.states[k], int(self.heats[k]))
            for k, t in enumerate(self.times)
        ]

    def checkpoint_index(self, tau: float) -> int:
        hits = np.nonzero(np.isclose(self.times, tau, rtol=0.0, atol=1e-9))[0]
        if hits.size == 0:
            raise GridMismatchError(
                f"time {tau} is not on the checkpoint grid {self.times}"
            )
        return int(hits[0])


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble controls.

    ``checkpoint_grid`` must be strictly increasing inside [0, drive_time].
    ``initial_level`` of None samples levels from the truncated thermal
    distribution.
    """

    checkpoint_grid: tuple[float, ...]
    n_traj: int = 100_000
    master_seed: int = 0
    initial_level: int | None = None
    batch_size: int = 8192

    def __post_init__(self) -> None:
        grid = tuple(float(t) for t in self.checkpoint_grid)
        object.__setattr__(self, "checkpoint_grid", grid)
        if len(grid) == 0:
            raise ValueError("checkpoint grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("checkpoint grid must be strictly increasing")
        if grid[0] < 0:
            raise ValueError("checkpoint grid must start at or after t = 0")
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be positive, got {self.n_traj}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")


def thermal_probabilities(beta: float, dim: int) -> np.ndarray:
    """Thermal occupation probabilities renormalized on the truncation."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    logp = -beta * np.arange(dim)
    p = np.exp(logp - logp.max())
    return p / p.sum()


def sample_initial_level(beta: float, dim: int, rng: np.random.Generator) -> int:
    """Draw a level from the thermal distribution over the ``dim`` kept levels."""
    p = thermal_probabilities(beta, dim)
    return int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))


def _trajectory_children(master_seed: int, start: int, count: int):
    root = np.random.SeedSequence(master_seed)
    return root.spawn(start + count)[start:]


class _Propagator:
    """Closed-form no-jump evolution, built once per ensemble.

    ``K = V diag(k) V^-1`` once; every grid interval length gets its
    propagator from that decomposition, checked against ``expm``.
    """

    def __init__(self, params: PhysicalParams, rates: Rates, grid) -> None:
        k = nh_generator(params, rates)
        self.eigvals, v = np.linalg.eig(k)
        self._to_eig = np.ascontiguousarray(np.linalg.inv(v).T)
        self._from_eig = np.ascontiguousarray(v.T)
        c0, c1 = jump_operators(rates, params.dim)
        self.jump_t = (np.ascontiguousarray(c0.T), np.ascontiguousarray(c1.T))
        # C_i^+ C_i is diagonal, so ||C_i psi||^2 = |psi|^2 @ w_i
        self.w0 = np.sum(np.abs(c0) ** 2, axis=0)
        self.w1 = np.sum(np.abs(c1) ** 2, axis=0)
        self.rate = self.w0 + self.w1
        self.can_jump = bool(self.rate.any())
        # a grid that starts at t = 0 opens with an empty interval
        self.interval_t = {0.0: np.eye(params.dim, dtype=complex)}
        for a, b in zip((0.0,) + grid[:-1], grid):
            span = b - a
            if span in self.interval_t:
                continue
            u_t = self.propagate(np.eye(params.dim, dtype=complex), np.full(params.dim, span))
            gap = float(np.max(np.abs(u_t.T - matrix_exponential(-1j * span * k))))
            if not gap <= _EIG_TOL:
                raise SimulationError(
                    f"no-jump eigen propagator is off by {gap:.2e} from expm over {span}"
                )
            self.interval_t[span] = u_t

    def propagate(self, states: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Rows of ``states`` evolved by their own times ``tau``."""
        c = states @ self._to_eig
        c *= np.exp(-1j * np.outer(tau, self.eigvals))
        return c @ self._from_eig

    def jump_states(self, states, log_r, span):
        """Per row, the time tau in (0, span] at which the squared norm of the
        normalized ``states`` has decayed to exp(log_r), and the state there.

        Newton on g(tau) = log ||psi(tau)||^2 - log_r, whose derivative is
        -<psi|sum C_i^+ C_i|psi>/||psi||^2; steps that leave the bracket
        [lo, hi] with g(lo) > 0 > g(hi) are replaced by bisection.
        """
        c = states @ self._to_eig
        lo = np.zeros(len(span))
        hi = span.copy()
        with np.errstate(divide="ignore"):
            tau = np.fmin(-log_r / (np.abs(states) ** 2 @ self.rate), 0.5 * span)
        out = np.empty_like(states)
        act = np.arange(len(span))
        for _ in range(_ROOT_MAX_ITER):
            psi = (c[act] * np.exp(-1j * np.outer(tau[act], self.eigvals))) @ self._from_eig
            p2 = psi.real**2 + psi.imag**2
            norm2 = p2.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.log(norm2) - log_r[act]
                t_new = tau[act] + g * norm2 / (p2 @ self.rate)
            above = g > 0
            lo[act[above]] = tau[act[above]]
            hi[act[~above]] = tau[act[~above]]
            done = (np.abs(g) <= _ROOT_TOL) | (hi[act] - lo[act] <= _ROOT_TOL * hi[act])
            out[act[done]] = psi[done]
            act, t_new = act[~done], t_new[~done]
            if act.size == 0:
                return tau, out
            inside = (t_new > lo[act]) & (t_new < hi[act])
            tau[act] = np.where(inside, t_new, 0.5 * (lo[act] + hi[act]))
        raise SimulationError(f"jump-time root solve did not converge for {act.size} trajectories")


class _Batch:
    """Work arrays for a batch of trajectories advanced in lockstep."""

    def __init__(self, prop, params, grid, children, initial_level, id_offset=0):
        self.n = len(children)
        dim = params.dim
        self.grid = grid
        self.prop = prop
        self.id_offset = id_offset
        self.dyn = []
        self.meas_seeds = []
        for child in children:
            dyn_seed, meas_seed = child.spawn(2)
            self.dyn.append(np.random.Generator(np.random.PCG64(dyn_seed)))
            self.meas_seeds.append(meas_seed)

        if initial_level is None:
            cdf = np.cumsum(thermal_probabilities(params.beta, dim))
            u0 = np.array([g.random() for g in self.dyn])
            self.levels = np.searchsorted(cdf, u0, side="right").astype(np.int64)
        else:
            if not 0 <= initial_level < dim:
                raise ValueError(f"initial_level {initial_level} outside [0, {dim})")
            self.levels = np.full(self.n, initial_level, dtype=np.int64)
        # a threshold of 0 is never crossed: without any jump channel the
        # norm is conserved and no draw is needed
        if prop.can_jump:
            self.thresholds = np.array([g.random() for g in self.dyn])
        else:
            self.thresholds = np.zeros(self.n)

        self.states = np.zeros((self.n, dim), dtype=complex)
        self.states[np.arange(self.n), self.levels] = 1.0
        self.heats = np.zeros(self.n, dtype=np.int64)
        self.jumps: list[list[JumpEvent]] = [[] for _ in range(self.n)]
        self.ck_states = np.zeros((len(grid), self.n, dim), dtype=complex)
        self.ck_heats = np.zeros((len(grid), self.n), dtype=np.int64)
        self.max_leak = 0.0

    def _checkpoint(self, k: int) -> None:
        self.ck_states[k] = self.states
        self.ck_heats[k] = self.heats
        # ensemble-mean top-level population is what biases the moments
        leak = float(np.mean(self.states[:, -1].real ** 2 + self.states[:, -1].imag ** 2))
        self.max_leak = max(self.max_leak, leak)
        if leak > _LEAK_FAIL:
            raise SimulationError(
                f"mean top-level population {leak:.3e} exceeds {_LEAK_FAIL} at "
                f"t = {self.grid[k]}; increase dim"
            )

    def run(self) -> None:
        t_prev = 0.0
        for k, t in enumerate(self.grid):
            self._advance(t_prev, t)
            self._checkpoint(k)
            t_prev = t

    def _advance(self, t0: float, t1: float) -> None:
        """Evolve every trajectory from the checkpoint t0 to the next, t1."""
        span = t1 - t0
        rows = np.arange(self.n)
        elapsed = np.zeros(self.n)
        end = self.states @ self.prop.interval_t[span]
        while True:
            p = np.sum(end.real**2 + end.imag**2, axis=1)
            r = self.thresholds[rows]
            stay = p >= r
            kept = rows[stay]
            self.states[kept] = end[stay] / np.sqrt(p[stay])[:, None]
            self.thresholds[kept] = r[stay] / p[stay]
            rows, elapsed = rows[~stay], elapsed[~stay]
            if rows.size == 0:
                return
            tau, psi = self.prop.jump_states(
                self.states[rows], np.log(self.thresholds[rows]), span - elapsed
            )
            elapsed += tau
            self._jump(rows, psi, t0 + elapsed)
            end = self.prop.propagate(self.states[rows], span - elapsed)

    def _jump(self, rows: np.ndarray, psi: np.ndarray, times: np.ndarray) -> None:
        """Apply a jump to each row's pre-jump state ``psi`` and redraw its
        threshold: two uniforms from the row's dynamics stream."""
        p2 = psi.real**2 + psi.imag**2
        w0 = p2 @ self.prop.w0
        total = w0 + p2 @ self.prop.w1
        if not np.all(total > 0):
            bad = self.id_offset + int(rows[np.argmin(total)])
            raise SimulationError(f"jump without a jump rate in trajectory {bad}")
        draws = np.array([self.dyn[i].random(2) for i in rows])
        kinds = (draws[:, 0] * total >= w0).astype(np.int64)
        post = np.where(
            (kinds == 0)[:, None], psi @ self.prop.jump_t[0], psi @ self.prop.jump_t[1]
        )
        post /= np.linalg.norm(post, axis=1)[:, None]
        self.states[rows] = post
        self.heats[rows] += 1 - 2 * kinds
        self.thresholds[rows] = draws[:, 1]
        for i, kind, t in zip(rows.tolist(), kinds.tolist(), times.tolist()):
            self.jumps[i].append(JumpEvent(t, kind))

    def records(self, id_offset: int) -> list[TrajectoryRecord]:
        times = np.array(self.grid)
        out = []
        for i in range(self.n):
            states = self.ck_states[:, i, :].copy()
            states.flags.writeable = False
            out.append(
                TrajectoryRecord(
                    initial_level=int(self.levels[i]),
                    jumps=tuple(self.jumps[i]),
                    times=times,
                    states=states,
                    heats=self.ck_heats[:, i].copy(),
                    traj_id=id_offset + i,
                    measure_seed=self.meas_seeds[i],
                )
            )
        return out


def _warn_leak(max_leak: float) -> None:
    if max_leak > _LEAK_WARN:
        warnings.warn(
            f"top-level population reached {max_leak:.2e}; moments may be "
            "truncation-limited",
            TruncationWarning,
            stacklevel=3,
        )


def _validate_grid(params: PhysicalParams, config: EnsembleConfig) -> None:
    if config.checkpoint_grid[-1] > params.drive_time * (1 + 1e-12):
        raise ValueError(
            f"checkpoint grid extends to {config.checkpoint_grid[-1]} beyond "
            f"drive_time = {params.drive_time}"
        )


def evolve_trajectory(
    params: PhysicalParams,
    rates: Rates,
    config: EnsembleConfig,
    seed: int | np.random.SeedSequence,
) -> TrajectoryRecord:
    """Generate a single trajectory from an explicit per-trajectory seed."""
    _validate_grid(params, config)
    prop = _Propagator(params, rates, config.checkpoint_grid)
    child = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    batch = _Batch(prop, params, config.checkpoint_grid, [child], config.initial_level)
    batch.run()
    _warn_leak(batch.max_leak)
    return batch.records(0)[0]


def iter_ensemble(
    params: PhysicalParams,
    rates: Rates,
    config: EnsembleConfig,
    n_workers: int | None = None,
) -> Iterator[TrajectoryRecord]:
    """Yield exactly ``config.n_traj`` records in trajectory-id order.

    Batches may be evolved concurrently by up to ``n_workers`` threads
    (default: the QHO_CAL_THREADS environment variable, else 1); the yielded
    sequence is identical for every worker count.
    """
    _validate_grid(params, config)
    prop = _Propagator(params, rates, config.checkpoint_grid)
    if n_workers is None:
        n_workers = int(os.environ.get("QHO_CAL_THREADS", "1"))
    n_workers = max(1, n_workers)

    starts = list(range(0, config.n_traj, config.batch_size))

    def make_batch(start: int) -> _Batch:
        count = min(config.batch_size, config.n_traj - start)
        children = _trajectory_children(config.master_seed, start, count)
        batch = _Batch(
            prop, params, config.checkpoint_grid, children,
            config.initial_level, id_offset=start,
        )
        batch.run()
        return batch

    max_leak = 0.0
    if n_workers == 1:
        for start in starts:
            batch = make_batch(start)
            max_leak = max(max_leak, batch.max_leak)
            yield from batch.records(start)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for start, batch in zip(starts, pool.map(make_batch, starts)):
                max_leak = max(max_leak, batch.max_leak)
                yield from batch.records(start)
    _warn_leak(max_leak)


def run_ensemble(
    params: PhysicalParams,
    rates: Rates,
    config: EnsembleConfig,
    n_workers: int | None = None,
) -> list[TrajectoryRecord]:
    """Materialized ensemble; see iter_ensemble for the streaming variant."""
    return list(iter_ensemble(params, rates, config, n_workers=n_workers))


def dump_events_csv(records: Iterable[TrajectoryRecord], path) -> None:
    """Raw jump log for debugging: one row per event."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["traj_id", "event_time", "event_index"])
        for record in records:
            for event in record.jumps:
                writer.writerow([record.traj_id, f"{event.time:.12g}", event.index])
