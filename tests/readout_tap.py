"""Tests-side helpers that stand in for what the program does not offer.

``run_ensemble`` runs a whole ensemble as one batch, through the
truncation guard. ``inverse_cdf`` is the reference level draw that the
engine's own draw must equal, ``cumulative_heats`` the reference heats,
counted off a batch's jump log, and ``measure_all_rows`` the reference
measurement of every row from its own populations.

The program measures each checkpoint as the readout yields it and then
drops it, so no batch carries populations or heats. Tests that need them tap
the one readout loop, ``_Evolution._readout``, and see the populations and
cumulative heats of every row, exactly those the measurement reads. The
readout yields the no-jump table, whose row l every row that has not jumped
from level l shares with heat 0, and the populations and heats of the
jumped rows, reusing one buffer for each; the tap rebuilds each
checkpoint's (n, dim) populations and (n,) heats in trajectory-id order as
new arrays, each row its level's table row with the jumped rows written
over their own.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from qho_cal.model import calorimetric_value
from qho_cal.trajectories import _draw, _Evolution, iter_ensemble


def run_ensemble(params, rates, config):
    """The whole ensemble as one batch."""
    # unpacking, unlike next(), runs iter_ensemble to its end and so through
    # the truncation guard
    [batch] = iter_ensemble(params, rates, replace(config, batch_size=config.n_traj))
    return batch


def inverse_cdf(cdf, u):
    """Per uniform ``u[i]``, the level m with ``cdf[m-1] <= u[i] < cdf[m]``.

    ``cdf`` is one cumulative distribution (dim,) for every draw or one per
    draw (n, dim); the result is capped at the last level, where round-off
    can leave ``cdf[-1]`` just below 1.
    """
    return np.minimum(np.sum(cdf <= u[:, None], axis=-1), cdf.shape[-1] - 1)


def cumulative_heats(batch):
    """The (K, n) int64 cumulative heats of a batch from its jump log: the
    signed count (emission +1, absorption -1) of each trajectory's jumps in
    each checkpoint interval (t_{k-1}, t_k], summed over the intervals."""
    n = len(batch.levels)
    rows = np.repeat(np.arange(n), np.diff(batch.jump_offsets))
    counts = np.zeros((len(batch.times), n), dtype=np.int64)
    signed = 1 - 2 * batch.jumps["kind"].astype(np.int64)
    np.add.at(counts, (np.searchsorted(batch.times, batch.jumps["time"]), rows), signed)
    return np.cumsum(counts, axis=0)


def measure_all_rows(pops, u, levels, heats, ell_i, pf0):
    """Both work values (n,) of n trajectories at one checkpoint, from
    their populations ``pops`` (n, dim) and measurement uniforms ``u`` (n, 2),
    every row drawn from its own populations: the all-rows reference that
    the engine, which measures the rows that have not jumped off its no-jump
    table, must equal bit for bit.

    The final level m is _draw's (W_p = m - n + Q). The final guardian
    photon is an emission when ``u[:, 1]`` falls below ``pops . pf0`` (W_c
    as in model.calorimetric_value); einsum, not gemv, so that a row's
    rounding does not depend on its batch.
    """
    m = _draw(pops, u)
    emitted = u[:, 1] < np.einsum("ij,j->i", pops, pf0)
    return m - levels + heats, calorimetric_value(emitted, ell_i, heats)


@contextlib.contextmanager
def tapped_readout(tap):
    """While active, every checkpoint that an ``_Evolution`` reads out is
    first passed to ``tap(evolution, k, pops, heat)``, pops (n, dim) and
    heat (n,) in trajectory-id order, rebuilt from what the readout yields."""
    readout = _Evolution._readout

    def tapped(self, order, *args):
        for k, table, pops, jumped, heat in readout(self, order, *args):
            rows = table[self.levels]
            rows[jumped] = pops
            heats = np.zeros(self.n, dtype=heat.dtype)
            heats[jumped] = heat
            tap(self, k, rows, heats)
            yield k, table, pops, jumped, heat

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Evolution, "_readout", tapped)
        yield


def run_with_populations(params, rates, config):
    """``run_ensemble``'s batch, its (K, n, dim) checkpoint populations and
    its (K, n) cumulative heats, stacked from the rows of the same readout."""
    rows, heats = [], []

    def tap(evolution, k, pops, heat):
        rows.append(pops)
        heats.append(heat)

    with tapped_readout(tap):
        batch = run_ensemble(params, rates, config)
    return batch, np.stack(rows), np.stack(heats)
