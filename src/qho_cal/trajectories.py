"""Stochastic quantum-jump (Monte Carlo wave function) trajectory engine.

Exact waiting times (Dalibard, Castin & Molmer, PRL 68, 580 (1992)), no
time step: ``||exp(-iKt) psi||^2``, with the constant rotating-frame
generator ``K = model.nh_generator``, is the probability of no jump by t.
Each trajectory holds a uniform threshold r and jumps when that norm falls
to r, applying C0 (emission into the bath, heat +1) or C1 (absorption, heat
-1) with probability proportional to ``||C_i psi||^2``; then it draws a new
r. One eigendecomposition ``K = V diag(k) V^-1`` propagates a batch in
closed form; jump instants are Newton roots of ``log ||psi||^2 = log r``
inside a bisection bracket.

A batch evolves in two phases. The first solves every jump up to the last
checkpoint T, one round per jump: each round propagates every row still
active from its last post-jump state to T, retires the rows whose norm stays
at or above r there and makes the next jump of the others. It keeps only the
post-jump states the second phase reads, each row's last in each checkpoint
interval, with the row's cumulative heat there (emissions minus absorptions,
an exact integer). The second reads the checkpoints off that record. It
propagates the jumped rows in first-jump order, so that the rows that have
jumped by any checkpoint are a prefix: per interval the shared propagator
advances that prefix and one normalized dim x dim table, whose row n stands
for every row that has not jumped from level n; a row that jumped inside the
interval restarts from its last post-jump state there and takes its heat.
Every row is rounded as if all rows were propagated. Each checkpoint is
measured (both work values, see work) with the rows grouped by initial
level: every row is measured off its level's table row, with heat 0, and
then the jumped prefix is measured row by row, replacing those values. So no
batch lays out populations per row or holds those of all its checkpoints; it
keeps the two work values per checkpoint, in id order.
The jump solves see only T, so the points before it do not change a
trajectory at all, and a grid that ends earlier changes its jump times only
within the root tolerance.

Random numbers are counter based (Philox4x32-10; Salmon, Moraes, Dror &
Shaw, SC11): each uniform is a pure function of the ensemble key, two words
of SeedSequence(master_seed).generate_state, and the counter (event index,
stream, trajectory id low word, high word). The DYNAMICS stream spends event
0 on the initial level and the first threshold and event j on jump j's type
and the next threshold; the MEASUREMENT stream, read during the readout,
spends event 0 on the pre-drive guardian photon and event k + 1 on
checkpoint k. A call to uniforms has a fixed cost of about 60 us and then
about 40 ns per block from 4096 blocks up (150 ns at 512), so each stream
draws a block of events per call, about _BLOCK blocks: the readout
``_BLOCK // n`` checkpoints of the batch's n rows, the jump rounds
``_BLOCK // rows`` events of the rows still jumping, at least one event
either way. A block depends only on its counter, so this changes no draw.
No generator object exists per trajectory, and results are bitwise
identical for every batch size.

Ensembles are columnar and serial: iter_ensemble checks and builds what
every batch shares once (the key, the level and guardian probabilities,
one propagator per distinct interval length) and then evolves one
TrajectoryBatch at a time, when it is asked for. A batch holds n
trajectories on K checkpoints as arrays (see its docstring), never one
object per trajectory or per jump.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SimulationError, TruncationWarning, outside_stacklevel
from .fock import matrix_exponential
from .model import (
    PhysicalParams,
    Rates,
    calorimetric_value,
    guardian_probs,
    jump_operators,
    nh_generator,
    thermal_probabilities,
)
from .quadrature import checked_grid, interval_lengths

__all__ = [
    "DYNAMICS",
    "MEASUREMENT",
    "JUMP_DTYPE",
    "EnsembleConfig",
    "TrajectoryBatch",
    "philox4x32",
    "uniforms",
    "iter_ensemble",
]

_LEAK_WARN = 1e-3
_LEAK_FAIL = 1e-1
# the eigen propagator must reproduce expm(-i K span) for every distinct
# interval length and over the whole span T
_EIG_TOL = 1e-8
# a jump instant is accepted when log ||psi||^2 is this close to log r
_ROOT_TOL = 1e-13
_ROOT_MAX_ITER = 200
# about this many Philox blocks per uniforms call: each stream draws
# max(1, _BLOCK // rows) events of its rows at a time (see the module notes)
_BLOCK = 4096

JUMP_DTYPE = np.dtype([("time", float), ("kind", np.int8)])

# the two counter streams
DYNAMICS = 0
MEASUREMENT = 1

_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble controls.

    ``checkpoint_grid`` is a quadrature.checked_grid, never empty, inside
    [0, drive_time]. ``initial_level`` of None samples levels from the
    truncated thermal distribution.
    """

    checkpoint_grid: tuple[float, ...]
    n_traj: int = 100_000
    master_seed: int = 0
    initial_level: int | None = None
    batch_size: int = 8192

    def __post_init__(self) -> None:
        grid = checked_grid(self.checkpoint_grid)
        object.__setattr__(self, "checkpoint_grid", grid)
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be positive, got {self.n_traj}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be non-negative, got {self.master_seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")


@dataclass(frozen=True)
class TrajectoryBatch:
    """n trajectories with ids ``first_id .. first_id + n - 1`` on the K
    checkpoint ``times``.

    ``levels[i]`` is trajectory i's initial level, ``W_p[k, i]`` and
    ``W_c[k, i]`` its projective and calorimetric work at ``times[k]`` (see
    work) and ``states[i]`` its final normalized state. Its jumps, in time
    order, are ``jumps[jump_offsets[i]:jump_offsets[i + 1]]`` with fields
    ``time`` and ``kind`` (0: emission by C0, 1: absorption by C1).

    ``W_p`` and ``W_c`` share the narrowest signed integer type that holds
    ``±(dim - 1 + J)``, J the most jumps of any row of the batch (int8 on
    every preset; int16 from dim 129 without jumps). So the batches of one
    ensemble may differ in type, and a reader widens before it squares or
    sums: an int8 square overflows once |W| is 12 or more.
    """

    times: np.ndarray
    first_id: int
    levels: np.ndarray
    W_p: np.ndarray
    W_c: np.ndarray
    states: np.ndarray
    jumps: np.ndarray
    jump_offsets: np.ndarray


def philox4x32(counter, key) -> np.ndarray:
    """Philox4x32-10 block function on 32-bit words held in uint64.

    ``counter`` is four words, each a scalar or an array (broadcast together),
    ``key`` two words; returns the four output words stacked, shape (4, ...).
    """
    words = np.array(np.broadcast_arrays(*counter), dtype=np.uint64)
    c0, c1, c2, c3 = words.reshape(4, -1)
    p0, p1 = np.empty_like(c0), np.empty_like(c0)
    k0, k1 = int(key[0]), int(key[1])
    for _ in range(10):
        np.multiply(c0, _PHILOX_M0, out=p0)
        np.multiply(c2, _PHILOX_M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= np.uint64(k0)
        np.bitwise_and(p1, _LOW32, out=c1)
        np.right_shift(p0, _SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= np.uint64(k1)
        np.bitwise_and(p0, _LOW32, out=c3)
        k0, k1 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF, (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return words


def uniforms(key, event, stream: int, traj_ids) -> np.ndarray:
    """Two uniforms in [0, 1) with 53 random bits per trajectory id, shape
    (n, 2): one Philox block at counter (event, stream, id low, id high).
    ``event`` is one index for all ids or one per id, or a column (b, 1) of
    indices, which gives (b, n, 2): the b single-event draws, event-major,
    in one call (see _BLOCK)."""
    ids = np.asarray(traj_ids, dtype=np.uint64)
    x = philox4x32((event, stream, ids & _LOW32, ids >> _SHIFT32), key)
    x >>= np.uint64(5)
    x[1::2] >>= np.uint64(1)
    bits = np.stack([x[0] << np.uint64(26) | x[1], x[2] << np.uint64(26) | x[3]], axis=-1)
    return bits * 2.0**-53


def _rows_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a stack of row vectors, rounded the same way for any
    number of rows, so that a trajectory does not depend on its batch. BLAS
    gemm rounds each row alike, but numpy hands a single row to gemv, which
    rounds differently; a single row therefore goes through gemm doubled.
    Real row sums use einsum, since gemv also rounds by row position."""
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def _norm2(states: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-contiguous complex array."""
    flat = states.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _normalized(states: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous complex array normalized in place; scaling
    the float view by the reciprocal rounds exactly as numpy's
    complex-by-real division, at about half the cost."""
    flat = states.view(np.float64)
    flat *= (1.0 / np.sqrt(_norm2(states)))[:, None]
    return states


def _populations(states: np.ndarray, out=None) -> np.ndarray:
    """|psi|^2 per level, ``states.real**2 + states.imag**2``. Squaring the
    float view gives the same bits, but on an AVX-512 x86-64 host it made
    the row sums that follow in the root solve about 5x slower."""
    return np.add(np.square(states.real), np.square(states.imag), out=out)


def _draw(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The engine's level draw (_outcomes repeats it off the no-jump table):
    per row i of the level probabilities ``probs`` (n, dim), the level m with
    ``cdf[m-1] <= u[i, 0] < cdf[m]``. The cumulative sums run level by level,
    as ``np.cumsum`` does; the draw is capped at the top level, where
    round-off can leave ``cdf[-1]`` below 1."""
    # contiguous, since the loop compares it with every column
    u0 = u[:, 0].copy()
    cdf = probs[:, 0].copy()
    m = (cdf <= u0).astype(np.int64)
    for column in probs.T[1:]:
        cdf += column
        m += cdf <= u0
    return np.minimum(m, probs.shape[1] - 1, out=m)


class _Ensemble:
    """What every batch of one ensemble shares, built and checked once: the
    Philox key, the grid, dim, the initial-level probabilities (thermal,
    or one at a fixed level), the guardian probabilities and the jump
    operators. ``K = V diag(k) V^-1`` once gives the closed-form no-jump
    evolution: ``steps`` per grid interval, ``whole`` over T, each distinct
    length checked against fock.matrix_exponential, a Pade ``expm`` that
    shares nothing with the eigendecomposition it checks."""

    def __init__(self, params: PhysicalParams, rates: Rates, config: EnsembleConfig) -> None:
        self.grid = grid = config.checkpoint_grid
        self.dim = dim = params.dim
        if grid[-1] > params.drive_time * (1 + 1e-12):
            raise ValueError(
                f"checkpoint grid extends to {grid[-1]} beyond drive_time = {params.drive_time}"
            )
        level = config.initial_level
        if level is None:
            self.level_probs = thermal_probabilities(params.beta, dim)
        elif not 0 <= level < dim:
            raise ValueError(f"initial_level {level} outside [0, {dim})")
        else:
            # every uniform in [0, 1) draws the fixed level
            self.level_probs = np.eye(dim)[level]
        self.key = np.random.SeedSequence(config.master_seed).generate_state(2)
        self.pi0, self.pf0, _ = guardian_probs(np.arange(dim), rates)
        k = nh_generator(params, rates)
        self.eigvals, v = np.linalg.eig(k)
        self._to_eig = np.ascontiguousarray(np.linalg.inv(v).T)
        self._from_eig = np.ascontiguousarray(v.T)
        c0, c1 = jump_operators(rates, dim)
        self.jump_t = (np.ascontiguousarray(c0.T), np.ascontiguousarray(c1.T))
        # C_i^+ C_i is diagonal, so ||C_i psi||^2 = |psi|^2 . w_i
        self.w0 = np.sum(np.abs(c0) ** 2, axis=0)
        self.w1 = np.sum(np.abs(c1) ** 2, axis=0)
        self.rate = self.w0 + self.w1
        self.can_jump = bool(self.rate.any())
        eye, u = np.eye(dim, dtype=complex), []
        lengths, index = interval_lengths(grid)
        # an empty interval takes the exact identity; the whole span T, over
        # parts of which the jump record propagates, shares the check of an
        # interval exactly as long or comes last
        spans = list(lengths) if grid[-1] in lengths else [*lengths, grid[-1]]
        for span in spans:
            u.append(self.propagate(eye, np.full(dim, span)) if span > 0 else eye)
            exact = matrix_exponential(-1j * span * k) if span > 0 else eye
            gap = float(np.max(np.abs(u[-1].T - exact)))
            if not gap <= _EIG_TOL:
                raise SimulationError(
                    f"no-jump eigen propagator is off by {gap:.2e} from expm over {span}"
                )
        self.steps = [u[i] for i in index]
        self.whole = u[spans.index(grid[-1])]

    def propagate(self, states: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Rows of ``states`` evolved by their own times ``tau``."""
        return self._from_eigen(_rows_times(states, self._to_eig), tau)

    def _from_eigen(self, c: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Rows of eigen coordinates ``c`` evolved by their own times ``tau``."""
        phase = np.exp(-1j * np.outer(tau, self.eigvals))
        # np.multiply keeps the order c * phase: a complex product rounds
        # differently in the other, which `*` may take when it reuses a temporary
        return _rows_times(np.multiply(c, phase), self._from_eig)

    def jump_states(self, states, log_r, span):
        """Per row, the time tau in (0, span] at which the squared norm of the
        normalized ``states`` has decayed to exp(log_r), and the state there.

        Newton on g(tau) = log ||psi(tau)||^2 - log_r, whose derivative is
        -<psi|sum C_i^+ C_i|psi>/||psi||^2; steps that leave the bracket
        [lo, hi] with g(lo) > 0 > g(hi) are replaced by bisection.
        """
        c = _rows_times(states, self._to_eig)
        lo = np.zeros(len(span))
        hi = span.copy()
        with np.errstate(divide="ignore"):
            tau = np.fmin(-log_r / np.einsum("ij,j->i", _populations(states), self.rate), 0.5 * span)
        out = np.empty_like(states)
        act = np.arange(len(span))
        for _ in range(_ROOT_MAX_ITER):
            psi = self._from_eigen(c[act], tau[act])
            p2 = _populations(psi)
            # a plain row sum: _norm2's einsum rounds differently, which moves the roots
            norm2 = p2.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.log(norm2) - log_r[act]
                t_new = tau[act] + g * norm2 / np.einsum("ij,j->i", p2, self.rate)
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


def _outcomes(table, pops, pos, u, spans, pf0):
    """Final levels and guardian emissions (n,) of n rows in group order,
    from their uniforms ``u`` (n, 2). The jumped rows ``pos``, populations
    ``pops``, are drawn by _draw and emit when ``u[:, 1]`` falls below
    ``pops . pf0`` (einsum, not gemv: a row's rounding must not depend on
    its batch). The rows s of each (l, s) in ``spans`` are measured off
    ``table[l]`` with the same sums and comparisons, first, so that the
    jumped rows among them take their own draws."""
    final, emitted = np.empty(len(u), dtype=np.int32), np.empty(len(u), dtype=bool)
    # np.cumsum adds level by level, as _draw does, capped at the top level
    cdf = np.cumsum(table[:, :-1], axis=1)[:, :, None]
    emission = np.einsum("ij,j->i", table, pf0)
    u0 = u[:, 0].copy()  # contiguous: each level compares it with dim - 1 sums
    for level, s in spans:
        np.add.reduce(cdf[level] <= u0[s], axis=0, out=final[s])
        np.less(u[s, 1], emission[level], out=emitted[s])
    u = u.take(pos, axis=0)
    final[pos] = _draw(pops, u)
    emitted[pos] = u[:, 1] < np.einsum("ij,j->i", pops, pf0)
    return final, emitted


class _Evolution:
    """One batch, trajectories ``first_id .. first_id + count - 1`` of the
    ensemble ``ens``: its jump record over the whole drive, then its
    checkpoints read off that record and measured."""

    def __init__(self, ens: _Ensemble, first_id: int, count: int) -> None:
        self.ens = ens
        self.n = count
        self.first_id = first_id
        self.ids = first_id + np.arange(count)
        u = uniforms(ens.key, 0, DYNAMICS, self.ids)
        self.levels = _draw(np.broadcast_to(ens.level_probs, (count, ens.dim)), u)
        # a threshold of 0 is never crossed: without any jump channel the
        # norm is conserved and no draw is needed
        self.thresholds = u[:, 1] if ens.can_jump else np.zeros(count)
        # event 0 of the measurement stream: the pre-drive guardian photon
        u = uniforms(ens.key, 0, MEASUREMENT, self.ids)
        self.ell_i = (u[:, 0] >= ens.pi0[self.levels]).astype(np.int64)
        # per checkpoint, the summed top-level population of the batch
        self.top = np.zeros(len(ens.grid))

    def run(self) -> TrajectoryBatch:
        """The batch: its jump record, then its checkpoints read out and
        measured, written in trajectory-id order (the leak sums summed in it
        too; across batch sizes the ensemble's leak agrees to rounding)."""
        grid = self.ens.grid
        (rows, times, kinds), last = self._jump_record()
        # rounds run forward in time, so a stable sort keeps each row's jumps in order
        by_row = np.argsort(rows, kind="stable")
        n_jumps = np.bincount(rows, minlength=self.n)
        offsets = np.concatenate([[0], np.cumsum(n_jumps)])
        jumps = np.empty(len(rows), dtype=JUMP_DTYPE)
        jumps["time"] = times[by_row]
        jumps["kind"] = kinds[by_row]
        # first-jump order: the rows that have jumped by checkpoint k are the
        # first active[k] rows of the readout's propagation
        first = np.full(self.n, np.inf)
        jumped = n_jumps > 0
        first[jumped] = jumps["time"][offsets[:-1][jumped]]
        order = np.argsort(first, kind="stable")
        active = np.searchsorted(first[order], grid, side="right")
        # group order, by initial level: the rows of level l are s for (l, s) in spans
        group = np.argsort(self.levels, kind="stable")
        at = np.argsort(group)
        ids, levels, ell = (x[group] for x in (self.ids, self.levels, self.ell_i))
        starts = np.searchsorted(levels, np.arange(self.ens.dim + 1)).tolist()
        spans = [(l, slice(a, b)) for l, (a, b) in enumerate(zip(starts, starts[1:])) if b > a]
        heats, top = np.zeros(self.n, dtype=np.int32), np.empty(self.n)
        # |W_p| <= dim - 1 + J and |W_c| <= 1 + J, J the most jumps of any
        # row: the narrowest signed type whose range -bound - 1 .. bound holds
        # both (int8 on every preset)
        bound = self.ens.dim - 1 + int(n_jumps.max(initial=0))
        w_p, w_c = np.empty((2, len(grid), self.n), dtype=np.min_scalar_type(-bound - 1))
        block = max(1, _BLOCK // self.n)
        for k, table, pops, rows, heat in self._readout(order, active, *last):
            np.take(table[:, -1], self.levels, out=top)
            top[rows] = pops[:, -1]
            self.top[k] = top.sum()
            if k % block == 0:
                events = np.arange(k + 1, min(k + block, len(grid)) + 1)[:, None]
                drawn = uniforms(self.ens.key, events, MEASUREMENT, ids)
            pos = at[rows]
            final, emitted = _outcomes(table, pops, pos, drawn[k % block], spans, self.ens.pf0)
            heats[pos] = heat
            w_p[k] = (final - levels + heats)[at]
            w_c[k] = calorimetric_value(emitted, ell, heats)[at]
        return TrajectoryBatch(
            times=np.array(grid),
            first_id=self.first_id,
            levels=self.levels,
            W_p=w_p,
            W_c=w_c,
            states=self.states,
            jumps=jumps,
            jump_offsets=offsets,
        )

    def _jump_record(self):
        """Every jump up to the last checkpoint T, in the order of the rounds
        that made them (rows, times, kinds), and the normalized post-jump
        state of each row's last jump in each checkpoint interval and its
        cumulative heat (rows, times, states, heats), all the readout reads.

        Round j makes jump j + 1 of the rows whose norm, propagated from
        their last post-jump state (the initial level for j = 0) to T, falls
        below their threshold; the others retire. So there are as many
        rounds as the most jumps of any row. Its uniforms, dynamics event
        j + 1, come from ``drawn``: events ``first ..`` of the rows active
        when it was drawn, row ``slot`` for each row still active (rows
        retire only between rounds, so the slots stay valid).
        """
        ens, grid = self.ens, self.ens.grid
        end_t = grid[-1]
        # from the initial level the state at T is a row of the T propagator
        rows = np.flatnonzero(_norm2(ens.whole[self.levels]) < self.thresholds)
        states = np.eye(ens.dim, dtype=complex)[self.levels[rows]]
        t_last = np.zeros(rows.size)
        r = self.thresholds[rows]
        q = np.zeros(rows.size, dtype=np.int64)
        # an empty first entry leaves round j's jumps at log[j + 1], which
        # spend dynamics event j + 1
        log = [(rows[:0], t_last[:0], rows[:0])]
        last = [(rows[:0], t_last[:0], states[:0], q[:0])]
        first, drawn = 0, ()
        while rows.size:
            tau, psi = ens.jump_states(states, np.log(r), end_t - t_last)
            t_jump = np.minimum(t_last + tau, end_t)
            if len(log) > 1:
                # a post-jump state is the last of its interval unless the
                # row's next jump falls in the same one
                moved = np.searchsorted(grid, t_jump) > np.searchsorted(grid, t_last)
                last.append((rows[moved], t_last[moved], states[moved], q[moved]))
            t_last = t_jump
            event = len(log)
            if event >= first + len(drawn):
                first, slot = event, np.arange(rows.size)
                events = np.arange(event, event + max(1, _BLOCK // rows.size))[:, None]
                drawn = uniforms(ens.key, events, DYNAMICS, self.ids[rows])
            kinds, states, r = self._jump(rows, psi, drawn[event - first, slot])
            q += 1 - 2 * kinds
            log.append((rows, t_last, kinds))
            go = _norm2(ens.propagate(states, end_t - t_last)) < r
            last.append((rows[~go], t_last[~go], states[~go], q[~go]))
            rows, states, t_last, r, q = rows[go], states[go], t_last[go], r[go], q[go]
            slot = slot[go]
        return (tuple(np.concatenate(col) for col in zip(*log)),
                tuple(np.concatenate(col) for col in zip(*last)))

    def _jump(self, rows: np.ndarray, psi: np.ndarray, draws: np.ndarray):
        """Kinds, normalized post-jump states and next thresholds of the rows
        whose pre-jump states are ``psi``, from ``draws`` (n, 2), each row's
        two uniforms of the dynamics event that is its jump number."""
        p2 = _populations(psi)
        w0 = np.einsum("ij,j->i", p2, self.ens.w0)
        total = w0 + np.einsum("ij,j->i", p2, self.ens.w1)
        if not np.all(total > 0):
            bad = self.first_id + int(rows[np.argmin(total)])
            raise SimulationError(f"jump without a jump rate in trajectory {bad}")
        kinds = (draws[:, 0] * total >= w0).astype(np.int64)
        post = np.where(
            (kinds == 0)[:, None],
            _rows_times(psi, self.ens.jump_t[0]),
            _rows_times(psi, self.ens.jump_t[1]),
        )
        return kinds, _normalized(post), draws[:, 1]

    def _readout(self, order, active, rows, times, posts, post_heats):
        """Yield ``(k, table, pops, jumped, heat)`` per checkpoint: at grid[k],
        the no-jump table's populations (dim, dim), row l for each row that
        has not jumped from level l, and the populations (m, dim) and heats
        (m,) of the rows ``jumped``, the first m = active[k] of the first-jump
        order ``order``, propagated in it and each restarting from its last
        post-jump state in an interval with its heat there (``rows``,
        ``times``, ``posts``, ``post_heats``). After the last checkpoint,
        ``self.states`` holds the final states, built only then so that they
        are not alive while the checkpoints are measured."""
        ens, grid = self.ens, self.ens.grid
        slot = np.empty_like(order)
        slot[order] = np.arange(self.n)
        slots = slot[rows]
        ck = np.searchsorted(grid, times)
        by_ck = np.argsort(ck, kind="stable")
        bounds = np.searchsorted(ck[by_ck], np.arange(len(grid) + 1))
        table = np.eye(ens.dim, dtype=complex)
        # the jumped prefix never outgrows the rows that have jumped by T
        states = np.empty((active[-1], ens.dim), dtype=complex)
        pops = np.empty(states.shape)
        heat = np.zeros(active[-1], dtype=np.int64)
        n_act = 0
        for k, (t, u_t) in enumerate(zip(grid, ens.steps)):
            table = _normalized(_rows_times(table, u_t))
            states[:n_act] = _rows_times(states[:n_act], u_t)
            sel = by_ck[bounds[k]:bounds[k + 1]]
            if sel.size:
                states[slots[sel]] = ens.propagate(posts[sel], t - times[sel])
                heat[slots[sel]] = post_heats[sel]
            n_act = active[k]
            jumped = _populations(_normalized(states[:n_act]), out=pops[:n_act])
            yield k, _populations(table), jumped, order[:n_act], heat[:n_act]
        self.states = table[self.levels]
        self.states[order[:n_act]] = states[:n_act]


def iter_ensemble(
    params: PhysicalParams, rates: Rates, config: EnsembleConfig
) -> Iterator[TrajectoryBatch]:
    """Yield the ensemble as consecutive batches of at most
    ``config.batch_size`` trajectories, in trajectory-id order, each evolved
    only when it is asked for. Every trajectory is identical for every batch
    size.
    """
    ensemble = _Ensemble(params, rates, config)
    top = np.zeros(len(config.checkpoint_grid))
    for start in range(0, config.n_traj, config.batch_size):
        evolution = _Evolution(ensemble, start, min(config.batch_size, config.n_traj - start))
        batch = evolution.run()
        top += evolution.top
        yield batch
        # let the consumer's release free this batch before the next is evolved
        del batch
    # the ensemble-mean top-level population is what biases the moments
    leak = top / config.n_traj
    k = int(np.argmax(leak))
    if leak[k] > _LEAK_FAIL:
        raise SimulationError(
            f"mean top-level population {leak[k]:.3e} exceeds {_LEAK_FAIL} at "
            f"t = {config.checkpoint_grid[k]}; increase dim"
        )
    if leak[k] > _LEAK_WARN:
        warnings.warn(
            f"mean top-level population {leak[k]:.2e} exceeds {_LEAK_WARN} at "
            f"t = {config.checkpoint_grid[k]}; moments may be truncation-limited",
            TruncationWarning,
            stacklevel=outside_stacklevel(),
        )

