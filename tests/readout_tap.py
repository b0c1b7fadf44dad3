"""Checkpoint populations for the tests.

The program measures each checkpoint row as the readout yields it and then
drops it, so no batch carries populations. Tests that need them tap the one
readout loop, ``_Evolution._readout``, and see the populations of every row
it yields, exactly those the measurement reads. The readout yields its rows
in first-jump order and reuses one buffer; the tap hands each checkpoint's
rows on as a new array in trajectory-id order.
"""

import contextlib

import numpy as np
import pytest

from qho_cal.trajectories import _Evolution, run_ensemble


@contextlib.contextmanager
def tapped_readout(tap):
    """While active, every checkpoint row that an ``_Evolution`` reads out
    is first passed to ``tap(evolution, k, pops)``, pops (n, dim) in
    trajectory-id order."""
    readout = _Evolution._readout

    def tapped(self, order, *args):
        for k, pops in readout(self, order, *args):
            by_id = np.empty_like(pops)
            by_id[order] = pops
            tap(self, k, by_id)
            yield k, pops

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
