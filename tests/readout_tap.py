"""Tests-side helpers that stand in for what the program does not offer.

``run_ensemble`` runs a whole ensemble as one batch, through the
truncation guard. ``inverse_cdf`` is the reference level draw that the
engine's own draw must equal, and ``cumulative_heats`` the reference heats,
counted off a batch's jump log.

The program measures each checkpoint row as the readout yields it and then
drops it, so no batch carries populations or heats. Tests that need them tap
the one readout loop, ``_Evolution._readout``, and see the populations and
cumulative heats of every row it yields, exactly those the measurement
reads. The readout yields its rows in trajectory-id order and reuses one
buffer for each; the tap hands each checkpoint's rows on as new arrays.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from qho_cal.trajectories import _Evolution, iter_ensemble


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


@contextlib.contextmanager
def tapped_readout(tap):
    """While active, every checkpoint row that an ``_Evolution`` reads out
    is first passed to ``tap(evolution, k, pops, heat)``, pops (n, dim) and
    heat (n,) in trajectory-id order."""
    readout = _Evolution._readout

    def tapped(self, order, *args):
        for k, pops, heat in readout(self, order, *args):
            tap(self, k, pops.copy(), heat.copy())
            yield k, pops, heat

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
