"""Checkpoint populations for the tests.

The program measures each checkpoint row as the readout yields it and then
drops it, so no batch carries populations. Tests that need them tap the one
readout loop, ``_Evolution._readout``, and see every row it yields, with the
populations computed exactly as the measurement computes them.
"""

import contextlib

import numpy as np
import pytest

from qho_cal.trajectories import _Evolution, run_ensemble


def populations(states):
    """|psi|^2 per level, rounded as the readout's measurement rounds it."""
    return states.real**2 + states.imag**2


@contextlib.contextmanager
def tapped_readout(tap):
    """While active, every checkpoint row that an ``_Evolution`` reads out
    is first passed to ``tap(evolution, k, pops)``, pops (n, dim)."""
    readout = _Evolution._readout

    def tapped(self, *args):
        for k, states in readout(self, *args):
            tap(self, k, populations(states))
            yield k, states

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Evolution, "_readout", tapped)
        yield


def run_with_populations(params, rates, config):
    """``run_ensemble``'s batch and its (K, n, dim) checkpoint populations,
    stacked from the rows of the same readout."""
    rows = []
    with tapped_readout(lambda evolution, k, pops: rows.append(pops)):
        batch = run_ensemble(params, rates, config)
    return batch, np.stack(rows)
