import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from qho_cal import trajectories
from qho_cal.errors import GridMismatchError, SimulationError, TruncationWarning
from qho_cal.fock import matrix_exponential
from qho_cal.lindblad import integrate
from qho_cal.model import PhysicalParams, make_rates, nh_generator, thermal_probabilities
from qho_cal.trajectories import (
    DYNAMICS,
    MEASUREMENT,
    EnsembleConfig,
    _draw,
    _Evolution,
    iter_ensemble,
    philox4x32,
    uniforms,
)
from qho_cal.work import measure_ensemble
from readout_tap import (
    cumulative_heats,
    inverse_cdf,
    measure_all_rows,
    run_ensemble,
    run_with_populations,
    tapped_readout,
)

pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.RegimeWarning")


def grid_to(horizon, n=11):
    return tuple(np.linspace(0.0, horizon, n))


def jumps_of(batch, i):
    """Trajectory i's (time, kind) records, in time order."""
    return batch.jumps[batch.jump_offsets[i]:batch.jump_offsets[i + 1]]


def first_jump_times(batch):
    """Each trajectory's first jump time, inf where it never jumps."""
    first = np.full(len(batch.levels), np.inf)
    has = np.diff(batch.jump_offsets) > 0
    first[has] = batch.jumps["time"][batch.jump_offsets[:-1][has]]
    return first


def signed_heat(jumps):
    """Emissions minus absorptions."""
    return int(np.sum(1 - 2 * jumps["kind"].astype(np.int64)))


class TestPhilox:
    def test_known_answers_and_uniforms(self):
        # the Random123 known-answer vectors of Philox4x32-10
        cases = [
            ([0, 0, 0, 0], [0, 0], [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]),
            ([0xFFFFFFFF] * 4, [0xFFFFFFFF] * 2, [0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD]),
            (
                [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344],
                [0xA4093822, 0x299F31D0],
                [0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1],
            ),
        ]
        for counter, key, expected in cases:
            assert philox4x32(counter, key).tolist() == expected
        # one block per id and event; the two streams differ at equal
        # (trajectory, event); ids beyond 32 bits use the high word
        key = np.random.SeedSequence(5).generate_state(2)
        ids = np.concatenate([np.arange(4096), [2**32, 2**32 + 1]])
        dyn = uniforms(key, 3, DYNAMICS, ids)
        meas = uniforms(key, 3, MEASUREMENT, ids)
        assert dyn.shape == (len(ids), 2)
        assert np.all((dyn >= 0) & (dyn < 1)) and np.all((meas >= 0) & (meas < 1))
        assert not np.any(dyn == meas)
        assert not np.any(dyn[:2] == dyn[-2:])
        assert abs(dyn.mean() - 0.5) < 0.01
        # per-id events give the same block as a shared event
        events = np.full(len(ids), 3)
        assert np.array_equal(uniforms(key, events, DYNAMICS, ids), dyn)
        # a column of events gives the per-event calls stacked event-major
        events = np.array([0, 3, 4, 9])
        column = uniforms(key, events[:, None], MEASUREMENT, ids)
        assert column.shape == (len(events), len(ids), 2)
        assert np.array_equal(
            column, np.stack([uniforms(key, e, MEASUREMENT, ids) for e in events])
        )


class TestSampleInitialLevel:
    def test_zero_temperature_always_ground(self):
        p = PhysicalParams(gamma=0.1, beta=600.0, lambda0=0.01, dim=10)
        cfg = EnsembleConfig(checkpoint_grid=(0.0,), n_traj=200, master_seed=0)
        assert not run_ensemble(p, make_rates(p), cfg).levels.any()

    def test_geometric_at_ln2(self):
        p = thermal_probabilities(math.log(2.0), 30)
        np.testing.assert_allclose(p[:6], [2.0 ** -(n + 1) for n in range(6)], rtol=1e-8)

    def test_multinomial_agreement(self):
        # empirical frequencies over 10^6 draws vs closed form, 4-sigma bands
        beta, dim, n_draws = 2.0, 10, 1_000_000
        rng = np.random.default_rng(123)
        p = thermal_probabilities(beta, dim)
        draws = inverse_cdf(np.cumsum(p), rng.random(n_draws))
        counts = np.bincount(draws, minlength=dim)
        for level in range(dim):
            se = math.sqrt(n_draws * p[level] * (1 - p[level]))
            assert abs(counts[level] - n_draws * p[level]) <= 4.0 * se

    def test_inverse_cdf_half_open_intervals(self):
        # the engine's one draw, with one row of probabilities per uniform;
        # the tests-side inverse_cdf agrees on every case
        cases = [
            # level m owns [cdf[m-1], cdf[m]): a uniform on a CDF step goes up
            ([0.25, 0.25, 0.5], [0.0, 0.25, 0.4999, 0.5, 0.9999], [0, 1, 1, 2, 2]),
            # so a level of zero weight is never drawn, leading ones included
            ([0.0, 0.0, 1.0], [0.0], [2]),
            # round-off below 1 in the CDF's last entry keeps the largest
            # uniform, 1 - 2**-53, at the top level
            ([0.5, 0.5 - 1e-16], [1.0 - 2.0**-53], [1]),
        ]
        for probs, u, levels in cases:
            probs, u = np.array(probs), np.array(u)
            rows = np.tile(probs, (len(u), 1))
            assert _draw(rows, np.stack([u, u], axis=1)).tolist() == levels
            assert inverse_cdf(np.cumsum(probs), u).tolist() == levels

    @pytest.mark.parametrize(
        "beta, initial_level",
        [(0.1, None), (2.0, None), (600.0, None), (2.0, 0), (2.0, 4), (2.0, 9)],
        ids=["thermal-0.1", "thermal-2", "thermal-600", "fixed-0", "fixed-4", "fixed-9"],
    )
    def test_initial_levels_match_reference(self, beta, initial_level):
        # the initial levels are the reference inverse-CDF draw of the
        # thermal CDF, or the fixed level, on dynamics event 0's first uniforms
        p = PhysicalParams(gamma=1e-3, beta=beta, dim=10)
        r = make_rates(p)
        cfg = EnsembleConfig((0.0,), n_traj=20_000, master_seed=11, initial_level=initial_level)
        first_id = 2**32 - 5_000
        levels = _Evolution(trajectories._Ensemble(p, r, cfg), first_id, cfg.n_traj).levels
        key = np.random.SeedSequence(11).generate_state(2)
        u = uniforms(key, 0, DYNAMICS, first_id + np.arange(cfg.n_traj))
        if initial_level is None:
            probs = thermal_probabilities(beta, p.dim)
        else:
            probs = np.eye(p.dim)[initial_level]
        assert np.array_equal(levels, inverse_cdf(np.cumsum(probs), u[:, 0]))
        if initial_level is not None:
            assert np.all(levels == initial_level)


class TestEnsembleConfig:
    def test_grid_validation(self):
        for empty in ((), np.linspace(0.0, 1.0, 0)):
            with pytest.raises(ValueError, match="grid must not be empty"):
                EnsembleConfig(checkpoint_grid=empty)
        with pytest.raises(ValueError):
            EnsembleConfig(checkpoint_grid=(0.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            EnsembleConfig(checkpoint_grid=(-1.0, 2.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                EnsembleConfig(checkpoint_grid=(0.0, bad))
            with pytest.raises(ValueError, match="finite"):
                EnsembleConfig(checkpoint_grid=(bad,))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            EnsembleConfig(checkpoint_grid=(0.0,), master_seed=-1)

    @pytest.mark.parametrize("field", ["n_traj", "batch_size"])
    def test_counts_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            EnsembleConfig(checkpoint_grid=(0.0,), **{field: 0})

    def test_grid_beyond_drive_time_rejected(self):
        p = PhysicalParams(gamma=1e-4, beta=2.0)
        cfg = EnsembleConfig(checkpoint_grid=(0.0, 2 * p.drive_time), n_traj=1)
        with pytest.raises(ValueError):
            run_ensemble(p, make_rates(p), cfg)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"checkpoint_grid": (0.0, 400.0)}, "beyond drive_time"),
            ({"initial_level": 10}, "initial_level 10 outside"),
            ({"initial_level": -1}, "initial_level -1 outside"),
        ],
        ids=["grid-past-drive", "level-too-high", "level-negative"],
    )
    def test_rejected_at_first_next_before_any_batch(self, monkeypatch, changes, message):
        # the ensemble is checked once, before its first batch is evolved
        runs = []
        monkeypatch.setattr(_Evolution, "run", lambda self: runs.append(self))
        p = PhysicalParams(gamma=1e-3, beta=2.0, dim=10)
        cfg = EnsembleConfig(checkpoint_grid=(0.0, p.drive_time), n_traj=20, batch_size=10)
        batches = iter_ensemble(p, make_rates(p), replace(cfg, **changes))
        with pytest.raises(ValueError, match=message):
            next(batches)
        assert runs == []


class TestJumpEvent:
    def test_validation(self):
        # the flat jump log: kinds 0 (emission) or 1 (absorption), times
        # inside (0, horizon], one slice per trajectory
        p = PhysicalParams(gamma=0.1, beta=0.8, lambda0=0.01, dim=12)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 3), n_traj=8, master_seed=3)
        batch = run_ensemble(p, make_rates(p), cfg)
        assert len(batch.jumps) > 20
        assert set(batch.jumps["kind"].tolist()) == {0, 1}
        assert np.all(batch.jumps["time"] > 0)
        assert np.all(batch.jumps["time"] <= p.drive_time)
        assert batch.jump_offsets[0] == 0 and batch.jump_offsets[-1] == len(batch.jumps)
        assert np.all(np.diff(batch.jump_offsets) >= 0)


class TestEvolveTrajectory:
    def test_ground_state_at_zero_temperature_never_jumps(self):
        p = PhysicalParams(gamma=0.5, beta=600.0, lambda0=0.0, drive_time=40.0, dim=6)
        r = make_rates(p)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(40.0), n_traj=5, master_seed=0)
        batch, pops, heats = run_with_populations(p, r, cfg)
        assert not batch.levels.any()
        assert len(batch.jumps) == 0
        assert not heats.any()
        np.testing.assert_allclose(pops[:, :, 0], 1.0, rtol=0, atol=1e-12)

    def test_no_coupling_never_jumps(self):
        # gamma = 0: no jump channel, unitary driven evolution
        p = PhysicalParams(gamma=0.0, beta=2.0, lambda0=0.01, dim=10)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time), n_traj=50, master_seed=4)
        batch, pops, heats = run_with_populations(p, make_rates(p), cfg)
        assert len(batch.jumps) == 0
        assert not heats.any()
        np.testing.assert_allclose(pops.sum(axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(batch.states, axis=1), 1.0, atol=1e-12)

    def test_excited_state_single_emission_waiting_time(self):
        # from |1> at zero temperature: exactly one emission, time ~ Exp(gamma0);
        # Kolmogorov-Smirnov at the 1% level over 10^4 trajectories
        gamma = 1.0
        p = PhysicalParams(gamma=gamma, beta=600.0, lambda0=0.0, drive_time=15.0, dim=4)
        r = make_rates(p)
        cfg = EnsembleConfig(
            checkpoint_grid=(15.0,), n_traj=10_000, master_seed=7, initial_level=1
        )
        batch = run_ensemble(p, r, cfg)
        assert np.all(np.diff(batch.jump_offsets) == 1)
        assert not batch.jumps["kind"].any()
        # censor at the horizon: P(T > 15) = 3e-7, irrelevant at this n
        stat = kstest(batch.jumps["time"], "expon", args=(0.0, 1.0 / r.gamma0)).pvalue
        assert stat > 0.01

    def test_checkpoint_states_normalized(self):
        p = PhysicalParams(gamma=0.02, beta=1.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time), n_traj=20, master_seed=3)
        batch, pops, _ = run_with_populations(p, r, cfg)
        np.testing.assert_allclose(pops.sum(axis=2), 1.0, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(batch.states, axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(np.abs(batch.states) ** 2, pops[-1], rtol=0, atol=1e-15)

    def test_heat_bookkeeping_is_integer_exact(self):
        p = PhysicalParams(gamma=0.05, beta=0.7, lambda0=0.01, dim=12)
        r = make_rates(p)
        grid = grid_to(p.drive_time, 7)
        cfg = EnsembleConfig(checkpoint_grid=grid, n_traj=10, master_seed=0)
        batch, _, heats = run_with_populations(p, r, cfg)
        assert heats.dtype == np.int64
        assert len(batch.jumps) > 10
        for i in range(10):
            jumps = jumps_of(batch, i)
            for k, tau in enumerate(grid):
                assert heats[k, i] == signed_heat(jumps[jumps["time"] <= tau])

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    def test_heats_are_cumulative_interval_counts(self):
        # fig4 on 101 checkpoints: each heat row the readout measures with is
        # the running sum over the checkpoint intervals (t_{k-1}, t_k] of the
        # signed jump counts in them
        p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
        grid = grid_to(p.drive_time, 101)
        cfg = EnsembleConfig(checkpoint_grid=grid, n_traj=2048, master_seed=3)
        heats = []
        with tapped_readout(lambda e, k, pops, heat: heats.append(heat)):
            batch = run_ensemble(p, make_rates(p), cfg)
        heats = np.stack(heats)
        reference = cumulative_heats(batch)
        # the grid opens with the empty interval at t = 0
        assert np.count_nonzero(np.diff(reference, axis=0)) > 100
        assert heats.dtype == np.int64
        assert np.array_equal(heats, reference)

    def test_jump_times_strictly_increasing(self):
        # dim 20 keeps eight hot trajectories clear of the leak guard
        p = PhysicalParams(gamma=0.08, beta=0.5, lambda0=0.01, dim=20)
        r = make_rates(p)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 5), n_traj=8, master_seed=11)
        batch = run_ensemble(p, r, cfg)
        assert len(batch.jumps) > 50
        for i in range(8):
            assert np.all(np.diff(jumps_of(batch, i)["time"]) > 0)

    def test_checkpoint_index_mismatch(self):
        # batches measured together must share one checkpoint grid
        p = PhysicalParams(gamma=1e-3, beta=2.0)
        r = make_rates(p)
        a, b = (
            run_ensemble(p, r, EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, n), n_traj=4))
            for n in (5, 6)
        )
        with pytest.raises(GridMismatchError):
            measure_ensemble([a, b])


class TestNoJumpConsistency:
    def test_no_jump_probability_matches_norm_decay(self):
        # empirical P(no jump by t) from |n> without drive vs
        # exp(-(gamma_sigma n + gamma1) t), 3-sigma binomial bands
        p = PhysicalParams(gamma=0.15, beta=1.2, lambda0=0.0, drive_time=6.0, dim=8)
        r = make_rates(p)
        n0, horizon, n_traj = 2, 6.0, 4000
        cfg = EnsembleConfig(
            checkpoint_grid=(horizon,), n_traj=n_traj, master_seed=21, initial_level=n0
        )
        first = first_jump_times(run_ensemble(p, r, cfg))
        for t in (2.0, 6.0):
            p_expected = math.exp(-(r.gamma_sigma * n0 + r.gamma1) * t)
            p_hat = np.mean(first > t)
            se = math.sqrt(p_expected * (1 - p_expected) / n_traj)
            assert abs(p_hat - p_expected) <= 3.0 * se

    def test_driven_no_jump_probability_matches_propagator(self):
        # with the drive on, P(no jump by t) from |n> is the squared norm of
        # the no-jump propagator applied to |n>; 3-sigma binomial bands. The
        # drive lifts the decay rate of |0> from gamma1 far enough that the
        # undriven law is rejected at the last time.
        p = PhysicalParams(gamma=0.02, beta=1.0, lambda0=0.1, drive_time=30.0, dim=10)
        r = make_rates(p)
        n0, n_traj = 0, 4000
        cfg = EnsembleConfig(
            checkpoint_grid=(30.0,), n_traj=n_traj, master_seed=23, initial_level=n0
        )
        first = first_jump_times(run_ensemble(p, r, cfg))
        for t in (5.0, 10.0, 20.0, 30.0):
            u = matrix_exponential(-1j * t * nh_generator(p, r))
            p_expected = float(np.linalg.norm(u[:, n0]) ** 2)
            p_hat = float(np.mean(first > t))
            se = math.sqrt(p_expected * (1 - p_expected) / n_traj)
            assert abs(p_hat - p_expected) <= 3.0 * se
        assert abs(p_hat - math.exp(-r.gamma1 * t)) > 10.0 * se


class TestGridIndependence:
    def test_refined_grid_gives_the_same_trajectories(self):
        # one seed on an 11-point grid and on every fifth of its points: the
        # jumps are solved over the whole drive before any checkpoint is
        # read, so with the same final time they are bit for bit the same,
        # and the populations at the shared checkpoints and the final states
        # agree to round-off
        p = PhysicalParams(gamma=0.1, beta=1.0, lambda0=0.01, dim=12)
        r = make_rates(p)
        fine = grid_to(p.drive_time, 11)
        cfgs = [
            EnsembleConfig(checkpoint_grid=g, n_traj=16, master_seed=41)
            for g in (fine, fine[::5])
        ]
        (a, pops_a, heats_a), (b, pops_b, heats_b) = (
            run_with_populations(p, r, cfg) for cfg in cfgs
        )
        assert len(a.jumps) > 100
        np.testing.assert_array_equal(a.levels, b.levels)
        np.testing.assert_array_equal(a.jump_offsets, b.jump_offsets)
        np.testing.assert_array_equal(a.jumps, b.jumps)
        np.testing.assert_array_equal(heats_a[::5], heats_b)
        np.testing.assert_allclose(pops_a[::5], pops_b, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.states, b.states, rtol=0, atol=1e-9)

    def test_shorter_grid_gives_the_same_early_trajectories(self):
        # the same seed on a grid that ends at T/2: its jump solves run over
        # (0, T/2] instead of (0, T], so the jumps up to T/2 agree to the
        # root tolerance and the heats at the shared checkpoints exactly
        p = PhysicalParams(gamma=0.1, beta=1.0, lambda0=0.01, dim=12)
        r = make_rates(p)
        fine = grid_to(p.drive_time, 11)
        cfgs = [
            EnsembleConfig(checkpoint_grid=g, n_traj=16, master_seed=41)
            for g in (fine, fine[:6])
        ]
        (a, pops_a, heats_a), (b, pops_b, heats_b) = (
            run_with_populations(p, r, cfg) for cfg in cfgs
        )
        assert b.times[-1] == pytest.approx(p.drive_time / 2)
        assert len(b.jumps) > 50
        early = [jumps_of(a, i)[jumps_of(a, i)["time"] <= b.times[-1]] for i in range(16)]
        np.testing.assert_array_equal([len(j) for j in early], np.diff(b.jump_offsets))
        early = np.concatenate(early)
        np.testing.assert_array_equal(early["kind"], b.jumps["kind"])
        np.testing.assert_allclose(early["time"], b.jumps["time"], rtol=1e-9)
        np.testing.assert_array_equal(heats_a[:6], heats_b)
        np.testing.assert_allclose(pops_a[:6], pops_b, rtol=0, atol=1e-9)


class TestJumpRecord:
    def test_keeps_only_each_rows_last_post_jump_state_per_interval(self):
        # the readout propagates from each row's last jump in each checkpoint
        # interval, so those are the only post-jump states the record keeps,
        # each with the row's cumulative heat after that jump
        p = PhysicalParams(gamma=0.1, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 21), master_seed=1)
        grid = cfg.checkpoint_grid
        evolution = _Evolution(trajectories._Ensemble(p, r, cfg), 0, 64)
        (rows, times, kinds), (kept_rows, kept_times, posts, kept_heats) = (
            evolution._jump_record()
        )

        def cells(rows, times):
            return zip(rows.tolist(), np.searchsorted(grid, times).tolist(), times.tolist())

        last = {}
        for row, ck, t in cells(rows, times):
            last[row, ck] = max(last.get((row, ck), 0.0), t)
        kept = sorted(cells(kept_rows, kept_times))
        assert kept == sorted((row, ck, t) for (row, ck), t in last.items())
        assert len(kept_rows) < len(rows)
        np.testing.assert_allclose(np.linalg.norm(posts, axis=1), 1.0, rtol=0, atol=1e-12)
        assert kept_heats.dtype == np.int64
        signed = 1 - 2 * kinds
        for row, t, q in zip(kept_rows.tolist(), kept_times.tolist(), kept_heats.tolist()):
            assert q == signed[(rows == row) & (times <= t)].sum()
        assert np.any(kept_heats < 0) and np.any(kept_heats > 1)


BATCH_FIELDS = ("levels", "W_p", "W_c", "states", "jumps", "jump_offsets")


class TestDrawBlocks:
    """Each stream draws the uniforms of a block of events per call; a
    Philox block is a pure function of its counter, so how the events are
    split into calls changes no draw."""

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    @pytest.mark.parametrize(
        "gamma, n_traj, grid, seed, batch_size",
        [(0.1, 512, 21, 1, 8192), (0.001, 300, 21, 7, 7), (0.1, 40, 11, 9, 1)],
        ids=["fig5c", "fig4-batch-7", "fig5c-batch-1"],
    )
    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_changes_no_draw(self, monkeypatch, gamma, n_traj, grid, seed,
                                        batch_size, block):
        # against the default blocks: a block of 1 is one event per call; a
        # block of 3 draws 3 events for a single row, so at batch size 1 it
        # splits the 11 checkpoints 3 + 3 + 3 + 2 and a row's jumps in threes
        p = PhysicalParams(gamma=gamma, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        cfg = EnsembleConfig(
            checkpoint_grid=grid_to(p.drive_time, grid), n_traj=n_traj, master_seed=seed,
            batch_size=batch_size,
        )
        default = list(iter_ensemble(p, r, cfg))
        monkeypatch.setattr(trajectories, "_BLOCK", block)
        blocked = list(iter_ensemble(p, r, cfg))
        assert len(blocked) == len(default)
        assert sum(len(b.jumps) for b in default) > 0
        for a, b in zip(default, blocked):
            for name in BATCH_FIELDS:
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_fig5c_philox_calls(self, monkeypatch):
        # 512 trajectories jumping about 12 times each on 21 checkpoints: one
        # call per event made 63 Philox calls; blocks of 4096 make 8 (two
        # initial, three for the checkpoints, three for the jumps)
        calls = []
        philox = trajectories.philox4x32

        def counted(counter, key):
            calls.append(1)
            return philox(counter, key)

        monkeypatch.setattr(trajectories, "philox4x32", counted)
        p = PhysicalParams(gamma=0.1, beta=2.0, lambda0=0.01, dim=10)
        cfg = EnsembleConfig(
            checkpoint_grid=grid_to(p.drive_time, 21), n_traj=512, master_seed=1
        )
        measure_ensemble(iter_ensemble(p, make_rates(p), cfg))
        assert len(calls) <= 10


def reference_readout(evolution):
    """The all-rows readout that first-jump order replaced: per interval the
    shared propagator for every row, then each row that jumped inside it
    re-propagated from its last post-jump state there, then every row
    normalized. The (K, n, dim) populations and the final states."""
    ens, grid = evolution.ens, evolution.ens.grid
    _, (rows, times, posts, _) = evolution._jump_record()
    ck = np.searchsorted(grid, times)
    states = np.eye(ens.dim, dtype=complex)[evolution.levels]
    pops = []
    for k, (t, u_t) in enumerate(zip(grid, ens.steps)):
        states = trajectories._rows_times(states, u_t)
        sel = ck == k
        states[rows[sel]] = ens.propagate(posts[sel], t - times[sel])
        states /= np.sqrt(trajectories._norm2(states))[:, None]
        pops.append(states.real**2 + states.imag**2)
    return np.stack(pops), states


class TestReadout:
    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    @pytest.mark.parametrize(
        "gamma, beta, dim, n, grid, level, jumped",
        [
            (0.001, 2.0, 10, 300, 21, None, None),
            (0.1, 2.0, 10, 64, 21, None, None),
            (0.0, 2.0, 10, 20, 6, None, 0),
            (0.02, 1.0, 10, 40, 1, None, None),
            (0.02, 1.0, 10, 40, (0.0, 0.5, 1.0), None, None),
            (0.02, 1.0, 10, 40, (0.25, 0.5, 1.0), None, None),
            (0.02, 1.0, 10, 40, 11, 3, None),
            (0.05, 5.0, 2, 40, 11, None, None),
            (0.1, 2.0, 10, 1, 21, None, None),
            (0.1, 2.0, 10, 2, 21, None, None),
            (0.3, 2.0, 10, 48, 11, None, 48),
        ],
        ids=[
            "fig4", "fig5c", "gamma0", "t0-only", "from-t0", "after-t0", "level3",
            "dim2", "batch1", "batch2", "all-jumped",
        ],
    )
    def test_matches_all_rows_reference(self, gamma, beta, dim, n, grid, level, jumped):
        # reading the rows that have not jumped off the no-jump table and
        # propagating only the jumped prefix gives the populations, work
        # values, leak sums and final states of propagating every row, bit
        # for bit; "gamma0" leaves the jumped rows' staging buffer empty and
        # "all-jumped" fills it
        p = PhysicalParams(gamma=gamma, beta=beta, lambda0=0.01, dim=dim)
        r = make_rates(p)
        grid = (0.0,) if grid == 1 else grid
        if isinstance(grid, int):
            grid = grid_to(p.drive_time, grid)
        else:
            grid = tuple(f * p.drive_time for f in grid)
        cfg = EnsembleConfig(checkpoint_grid=grid, master_seed=11, initial_level=level)
        ens = trajectories._Ensemble(p, r, cfg)
        evolution = _Evolution(ens, 5, n)
        rows, heats = [], []

        def tap(e, k, pops, heat):
            rows.append(pops)
            heats.append(heat)

        with tapped_readout(tap):
            batch = evolution.run()
        ref_pops, ref_states = reference_readout(_Evolution(ens, 5, n))
        if jumped is not None:
            # active[-1], the rows that have jumped by T
            assert np.count_nonzero(np.diff(batch.jump_offsets)) == jumped
        assert np.array_equal(np.stack(rows), ref_pops)
        assert np.array_equal(batch.states, ref_states)
        assert np.array_equal(evolution.top, ref_pops[:, :, -1].sum(axis=1))
        ref_heats = cumulative_heats(batch)
        assert np.array_equal(np.stack(heats), ref_heats)
        for k, pops in enumerate(ref_pops):
            u = uniforms(ens.key, k + 1, MEASUREMENT, evolution.ids)
            wp, wc = measure_all_rows(
                pops, u, batch.levels, ref_heats[k], evolution.ell_i, ens.pf0
            )
            assert np.array_equal(batch.W_p[k], wp)
            assert np.array_equal(batch.W_c[k], wc)

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    def test_propagates_only_the_jumped_rows(self, monkeypatch):
        # fig4 at 2048 trajectories x 101 checkpoints, where about one row in
        # nine has jumped by an average checkpoint: the readout propagates
        # the jumped rows, one dim-row table and each kept post-jump state
        # (into and out of the eigenbasis), not every row at every checkpoint
        p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 101), master_seed=1)
        n, n_ck = 2048, len(cfg.checkpoint_grid)
        counting, counted, kept = [True], [0], []
        rows_times = trajectories._rows_times
        jump_record = _Evolution._jump_record

        def counted_rows_times(a, b):
            counted[0] += len(a) if counting[0] else 0
            return rows_times(a, b)

        def uncounted_jump_record(self):
            counting[0] = False
            record = jump_record(self)
            counting[0] = True
            kept.append(len(record[1][0]))
            return record

        monkeypatch.setattr(trajectories, "_rows_times", counted_rows_times)
        monkeypatch.setattr(_Evolution, "_jump_record", uncounted_jump_record)
        batch = _Evolution(trajectories._Ensemble(p, r, cfg), 0, n).run()
        n_jumps = np.diff(batch.jump_offsets)
        first = np.full(n, np.inf)
        first[n_jumps > 0] = batch.jumps["time"][batch.jump_offsets[:-1][n_jumps > 0]]
        active = (first[None, :] <= np.array(cfg.checkpoint_grid)[:, None]).sum(axis=1)
        assert counted[0] <= active.sum() + n_ck * p.dim + 2 * kept[0]
        assert counted[0] < 0.35 * n * n_ck

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    def test_draws_only_the_jumped_rows(self, monkeypatch):
        # fig4 at 2048 trajectories x 101 checkpoints: the per-row level draw
        # sees each checkpoint's jumped rows and no other; the rows that have
        # not jumped are measured off the no-jump table, never gathered
        p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 101), master_seed=1)
        n = 2048
        evolution = _Evolution(trajectories._Ensemble(p, make_rates(p), cfg), 0, n)
        seen = []
        draw = trajectories._draw

        def counted_draw(probs, u):
            seen.append(len(probs))
            return draw(probs, u)

        monkeypatch.setattr(trajectories, "_draw", counted_draw)
        batch = evolution.run()
        first = first_jump_times(batch)
        active = (first[None, :] <= np.array(cfg.checkpoint_grid)[:, None]).sum(axis=1)
        assert len(seen) == len(cfg.checkpoint_grid)
        assert 0 < sum(seen) <= active.sum()
        assert active.sum() < 0.2 * n * len(seen)


def grouped_outcomes(table, pops, sizes, still, pos, u, pf0):
    """_outcomes on rows grouped by initial level, ``sizes[l]`` of level l,
    whose first ``still[l]`` the spans cover (they must cover every row not
    in ``pos``), and the reference: _draw and the per-row einsum on every
    row's own populations, the unjumped rows' gathered from ``table``. Both
    as (final, emitted)."""
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    spans = [(l, slice(a, a + c)) for l, (a, c) in enumerate(zip(starts, still)) if c]
    rows = table[np.repeat(np.arange(len(sizes)), sizes)]
    rows[pos] = pops
    reference = _draw(rows, u), u[:, 1] < np.einsum("ij,j->i", rows, pf0)
    return trajectories._outcomes(table, pops, pos, u, spans, pf0), reference


class TestTableMeasurement:
    """The rows that have not jumped are measured off their level's row of
    the no-jump table; each gets exactly the final level and guardian
    emission that _draw and the per-row einsum give its own populations."""

    @pytest.mark.parametrize(
        "case", ["on-a-sum", "short-row", "zeros", "dim2-one-row", "none-jumped", "all-jumped"]
    )
    def test_cases(self, case):
        table = np.array([[0.25, 0.25, 0.5], [0.0, 0.0, 1.0], [0.5, 0.5 - 1e-16, 0.0]])
        pf0 = np.array([0.0, 0.5, 1.0])
        sizes, still, pos, pops = [2, 1, 2], [1, 1, 2], [1], np.array([[0.0, 1.0, 0.0]])
        u0 = [0.25, 0.5, 0.9, 0.5, 1.0 - 2.0**-53]
        if case == "on-a-sum":
            # a uniform on a cumulative sum goes to the next level
            u0, want = [0.5, 0.25, 0.0, 0.5, 0.5], [2, 1, 2, 1, 1]
        elif case == "short-row":
            # the last cumulative sum below the uniform: capped at the top
            table[2] = [0.5, 0.25, 0.0]
            u0, want = [0.25, 0.5, 0.9, 0.8, 1.0 - 2.0**-53], [1, 1, 2, 2, 2]
        elif case == "zeros":
            # a level of zero weight is never drawn, leading ones included
            u0, want = [0.0, 0.5, 0.0, 0.75, 0.0], [0, 1, 2, 1, 0]
        elif case == "dim2-one-row":
            table, pf0 = np.array([[0.75, 0.25], [0.0, 1.0]]), np.array([0.2, 0.9])
            sizes, still, pos, pops = [1, 1], [1, 1], [], np.empty((0, 2))
            u0, want = [0.75, 0.74], [1, 1]
        elif case == "none-jumped":
            still, pos, pops, want = sizes, [], np.empty((0, 3)), [1, 2, 2, 1, 2]
        else:
            still, pos, want = [0, 0, 0], [3, 0, 4, 2, 1], [1, 2, 2, 1, 2]
            pops = table[[2, 0, 2, 1, 0]]
        n = len(u0)
        u = np.stack([u0, np.linspace(0.0, 1.0, n, endpoint=False)], axis=1)
        (final, emitted), (ref_final, ref_emitted) = grouped_outcomes(
            table, pops, sizes, still, np.array(pos, dtype=np.int64), u, pf0
        )
        assert final.tolist() == ref_final.tolist() == want
        assert np.array_equal(emitted, ref_emitted)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_per_row_draw(self, data):
        dim = data.draw(st.integers(2, 6), label="dim")
        weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([0.1, 0.2, 0.3]))
        row = st.lists(weight, min_size=dim, max_size=dim)
        # rows are not normalized, so a last cumulative sum may fall short
        table = np.array(data.draw(st.lists(row, min_size=dim, max_size=dim), label="table"))
        pf0 = np.array(data.draw(row, label="pf0"))
        sizes = data.draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim), label="sizes")
        assume(sum(sizes) > 0)
        still = [data.draw(st.integers(0, size)) for size in sizes]
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        unjumped = {i for a, c in zip(starts, still) for i in range(a, a + c)}
        # as the engine calls it: the spans cover every row of each level and
        # the jumped rows, anywhere in their group, are drawn over the table's
        if data.draw(st.booleans(), label="spans cover the jumped rows"):
            still = sizes
            unjumped = data.draw(st.sets(st.integers(0, sum(sizes) - 1)), label="unjumped")
        pos = data.draw(st.permutations(sorted(set(range(sum(sizes))) - unjumped)), label="pos")
        pops = np.array(data.draw(st.lists(row, min_size=len(pos), max_size=len(pos))),
                        dtype=float).reshape(len(pos), dim)
        rows = table[np.repeat(np.arange(dim), sizes)]
        rows[pos] = pops
        # uniforms anywhere, on a cumulative sum or on the emission threshold
        anywhere = st.floats(0.0, 1.0, exclude_max=True)
        u = np.array([
            [data.draw(st.one_of(anywhere, st.sampled_from(np.cumsum(r).tolist()))),
             data.draw(st.one_of(anywhere, st.just(float(e))))]
            for r, e in zip(rows, np.einsum("ij,j->i", rows, pf0))
        ])
        (final, emitted), (ref_final, ref_emitted) = grouped_outcomes(
            table, pops, sizes, still, np.array(pos, dtype=np.int64), u, pf0
        )
        assert np.array_equal(final, ref_final)
        assert np.array_equal(emitted, ref_emitted)


class TestPropagatorCheck:
    def test_whole_drive_span_is_checked_against_expm(self, monkeypatch):
        # the jump record propagates over spans up to the whole drive T, so
        # the eigen propagator is checked at T even where no grid interval
        # is that long; a wrong expm there must stop the run
        p = PhysicalParams(gamma=0.1, beta=1.0, lambda0=0.01, dim=8)
        r = make_rates(p)
        k = nh_generator(p, r)
        big = np.unravel_index(np.argmax(np.abs(k)), k.shape)
        spans = []
        expm = trajectories.matrix_exponential

        def span_of(m):
            # matrix_exponential is called with -i K span
            return float(np.real(m[big] / (-1j * k[big])))

        def recording(m):
            spans.append(span_of(m))
            return expm(m)

        monkeypatch.setattr(trajectories, "matrix_exponential", recording)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 5), n_traj=4, master_seed=1)
        run_ensemble(p, r, cfg)
        assert p.drive_time / 4 == pytest.approx(spans[0])
        assert any(s == pytest.approx(p.drive_time, rel=1e-12) for s in spans)

        def perturbed(m):
            return expm(m) + (1e-6 if span_of(m) == pytest.approx(p.drive_time) else 0.0)

        monkeypatch.setattr(trajectories, "matrix_exponential", perturbed)
        with pytest.raises(SimulationError, match="off by"):
            run_ensemble(p, r, cfg)


    @pytest.mark.parametrize("points", [11, 101, 1001, 2, 1])
    def test_one_check_per_distinct_interval_length(self, monkeypatch, points):
        # quadrature.interval_lengths merges the np.linspace spans, so a
        # uniform fig4 grid from 0 checks one interval length and the whole
        # span T; the empty first interval is the exact identity, unchecked.
        # T shares the check of an interval exactly as long: the 2-point
        # grid (0, T) and the 1-point grid (T,) make one check
        checks = 1 if points <= 2 else 2
        calls = []
        expm = trajectories.matrix_exponential
        monkeypatch.setattr(trajectories, "matrix_exponential", lambda m: calls.append(1) or expm(m))
        p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
        grid = grid_to(p.drive_time, points) if points > 1 else (p.drive_time,)
        ens = trajectories._Ensemble(p, make_rates(p), EnsembleConfig(checkpoint_grid=grid))
        assert len(calls) == checks
        assert len(ens.steps) == points
        if points > 1:
            assert np.array_equal(ens.steps[0], np.eye(p.dim))
        assert all(step is ens.steps[-1] for step in ens.steps[1:])
        assert (ens.whole is ens.steps[-1]) == (checks == 1)


class TestEngineErrors:
    def test_jump_without_a_rate_is_an_error(self):
        # at beta = 800 the bath occupation underflows to 0, so gamma1 = 0
        # and |0> can neither emit nor absorb
        p = PhysicalParams(gamma=0.1, beta=800.0, lambda0=0.01, dim=6)
        r = make_rates(p)
        assert r.gamma1 == 0.0
        ens = trajectories._Ensemble(p, r, EnsembleConfig(checkpoint_grid=(p.drive_time,)))
        ground = np.eye(p.dim, dtype=complex)[:1]
        with pytest.raises(SimulationError, match="jump without a jump rate in trajectory 9"):
            _Evolution(ens, 7, 4)._jump(np.array([2]), ground, np.full((1, 2), 0.5))

    def test_root_solve_that_does_not_converge_is_an_error(self, monkeypatch):
        monkeypatch.setattr(trajectories, "_ROOT_MAX_ITER", 1)
        p = PhysicalParams(gamma=0.1, beta=2.0, lambda0=0.01, dim=10)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 3), n_traj=16, master_seed=1)
        with pytest.raises(SimulationError, match="did not converge"):
            run_ensemble(p, make_rates(p), cfg)

class TestStationarity:
    def test_equilibrium_occupations_without_drive(self):
        # long-horizon time-averaged occupation vs p_eq, three standard errors
        p = PhysicalParams(gamma=0.2, beta=1.0, lambda0=0.0, drive_time=400.0, dim=10)
        r = make_rates(p)
        grid = tuple(np.linspace(50.0, 400.0, 8))
        cfg = EnsembleConfig(checkpoint_grid=grid, n_traj=600, master_seed=5)
        _, pops, _ = run_with_populations(p, r, cfg)
        peq = thermal_probabilities(p.beta, p.dim)
        time_avg = pops.mean(axis=0)  # (n, dim)
        for level in range(4):
            mean = time_avg[:, level].mean()
            se = time_avg[:, level].std(ddof=1) / math.sqrt(cfg.n_traj)
            assert abs(mean - peq[level]) <= 3.0 * se


class TestEnsemble:
    def test_bitwise_determinism(self):
        p = PhysicalParams(gamma=0.01, beta=1.5, lambda0=0.01, dim=8)
        r = make_rates(p)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 6), n_traj=2, master_seed=9)
        (a, pops_a, heats_a), (b, pops_b, heats_b) = (
            run_with_populations(p, r, cfg) for _ in range(2)
        )
        assert np.array_equal(pops_a, pops_b)
        assert np.array_equal(heats_a, heats_b)
        for name in ("levels", "W_p", "W_c", "states", "jumps", "jump_offsets"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("batch_size", [7, 16, 64])
    def test_batch_size_does_not_change_results(self, batch_size):
        # batches of 7, 16 or all 64 trajectories against one whole-ensemble
        # batch: each batch equals its slice, and the work histograms agree,
        # bit for bit
        p = PhysicalParams(gamma=0.02, beta=1.0, lambda0=0.01, dim=8)
        r = make_rates(p)
        grid = grid_to(p.drive_time, 4)
        cut = EnsembleConfig(
            checkpoint_grid=grid, n_traj=64, master_seed=13, batch_size=batch_size
        )
        whole, pops, heats = run_with_populations(p, r, cut)
        assert len(whole.levels) == 64 and len(whole.jumps) > 0
        # each batch's checkpoint rows and heat rows, by first id
        rows, heat_rows = {}, {}

        def tap(e, k, row, heat):
            rows.setdefault(e.first_id, []).append(row)
            heat_rows.setdefault(e.first_id, []).append(heat)

        with tapped_readout(tap):
            batches = list(iter_ensemble(p, r, cut))
        for b in batches:
            ids = slice(b.first_id, b.first_id + len(b.levels))
            assert np.array_equal(b.levels, whole.levels[ids])
            assert np.array_equal(np.stack(heat_rows[b.first_id]), heats[:, ids])
            assert np.array_equal(np.stack(rows[b.first_id]), pops[:, ids])
            assert np.array_equal(b.W_p, whole.W_p[:, ids])
            assert np.array_equal(b.W_c, whole.W_c[:, ids])
            assert np.array_equal(b.states, whole.states[ids])
            offsets = whole.jump_offsets[b.first_id:ids.stop + 1]
            assert np.array_equal(b.jumps, whole.jumps[offsets[0]:offsets[-1]])
            assert np.array_equal(b.jump_offsets, offsets - offsets[0])
        ma = measure_ensemble([whole])
        mb = measure_ensemble(iter_ensemble(p, r, cut))
        for sa, sb in ((ma.projective, mb.projective), (ma.calorimetric, mb.calorimetric)):
            assert sa.lowest == sb.lowest
            assert np.array_equal(sa.histograms, sb.histograms)

    def test_batches_are_evolved_on_demand(self, monkeypatch):
        # the sizes of the batches evolved so far
        runs = []
        run = _Evolution.run

        def counted_run(self):
            runs.append(self.n)
            return run(self)

        monkeypatch.setattr(_Evolution, "run", counted_run)
        p = PhysicalParams(gamma=0.02, beta=1.0, lambda0=0.01, dim=8)
        cfg = EnsembleConfig(
            checkpoint_grid=grid_to(p.drive_time, 3), n_traj=30, master_seed=5, batch_size=10
        )
        batches = iter_ensemble(p, make_rates(p), cfg)
        assert runs == []
        next(batches)
        assert runs == [10]
        assert len(list(batches)) == 2 and runs == [10, 10, 10]

    def test_one_batch_alive_at_a_time(self, monkeypatch):
        # measuring an ensemble batch by batch holds no earlier batch while
        # the next one is evolved
        refs, alive = [], []
        run = _Evolution.run

        def probed_run(self):
            alive.append(sum(ref() is not None for ref in refs))
            batch = run(self)
            refs.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(_Evolution, "run", probed_run)
        p = PhysicalParams(gamma=0.02, beta=1.0, lambda0=0.01, dim=8)
        r = make_rates(p)
        cfg = EnsembleConfig(
            checkpoint_grid=grid_to(p.drive_time, 5), n_traj=30, master_seed=5, batch_size=10
        )
        measure_ensemble(iter_ensemble(p, r, cfg))
        assert alive == [0, 0, 0]

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    def test_no_population_array_on_any_path(self):
        # fig4 at 2048 trajectories x 101 checkpoints: the (K, n, dim) float64
        # populations alone would take 15.8 MiB; each checkpoint row is
        # measured as it is read out, so measuring peaks below half of that
        p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        cfg = EnsembleConfig(
            checkpoint_grid=grid_to(p.drive_time, 101), n_traj=2048, master_seed=1
        )
        tracemalloc.start()
        try:
            measure_ensemble(iter_ensemble(p, r, cfg))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full = 101 * 2048 * p.dim * np.dtype(float).itemsize
        assert peak < full / 2, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    def test_no_heat_array_on_any_path(self):
        # fig4 at 8192 trajectories x 101 checkpoints: a (K, n) int64 heat
        # array takes 6.3 MiB, and measuring peaked at 17.4 MiB while each
        # batch kept one (numpy 2.4, x86-64). The readout keeps one heat row,
        # taken from the jump record, and measuring peaks near 6.2 MiB (10.9
        # MiB while the work values were int32, see the next test)
        p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
        cfg = EnsembleConfig(
            checkpoint_grid=grid_to(p.drive_time, 101), n_traj=8192, master_seed=5
        )
        tracemalloc.start()
        try:
            measure_ensemble(iter_ensemble(p, make_rates(p), cfg))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    def test_work_values_stored_narrow(self):
        # fig4 at 8192 trajectories x 101 checkpoints: |W| <= dim - 1 + J
        # fits int8, and measuring peaks near 6.2 MiB; stored as int32 the
        # work values alone took 6.3 MiB and measuring peaked at 10.9 MiB
        # (numpy 2.4, x86-64)
        p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
        cfg = EnsembleConfig(
            checkpoint_grid=grid_to(p.drive_time, 101), n_traj=8192, master_seed=5
        )
        dtypes = []

        def recorded(batches):
            for batch in batches:
                dtypes.append((batch.W_p.dtype, batch.W_c.dtype))
                yield batch

        tracemalloc.start()
        try:
            measure_ensemble(recorded(iter_ensemble(p, make_rates(p), cfg)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dtypes == [(np.dtype(np.int8), np.dtype(np.int8))]
        assert peak <= 7 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    @pytest.mark.parametrize("dim, dtype", [(128, np.int8), (129, np.int16)])
    def test_work_type_holds_its_bound(self, dim, dtype):
        # without coupling no row jumps (J = 0), so |W_p| <= dim - 1: int8
        # holds that up to dim 128, and dim 129 needs int16
        p = PhysicalParams(gamma=0.0, beta=0.02, lambda0=0.05, dim=dim)
        cfg = EnsembleConfig(
            checkpoint_grid=grid_to(p.drive_time, 3), n_traj=2000, master_seed=7
        )
        (batch,) = iter_ensemble(p, make_rates(p), cfg)
        assert batch.W_p.dtype == batch.W_c.dtype == dtype
        assert len(batch.jumps) == 0
        final = batch.W_p + batch.levels
        assert final.min() >= 0 and final.max() < dim
        assert set(np.unique(batch.W_c).tolist()) <= {-1, 0, 1}
        # the thermal levels reach high: a wrapped value would leave the range
        assert batch.levels.max() > 64

    def test_trajectory_count_and_ids(self):
        p = PhysicalParams(gamma=1e-3, beta=2.0)
        r = make_rates(p)
        cfg = EnsembleConfig(
            checkpoint_grid=(p.drive_time,), n_traj=37, master_seed=2, batch_size=10
        )
        batches = list(iter_ensemble(p, r, cfg))
        assert [b.first_id for b in batches] == [0, 10, 20, 30]
        assert [len(b.levels) for b in batches] == [10, 10, 10, 7]
        assert len(run_ensemble(p, r, cfg).levels) == 37

    def test_zero_temperature_decay_matches_closed_form(self):
        # <n(t)> from |1> decays as exp(-gamma t): damped-oscillator solution
        p = PhysicalParams(gamma=0.1, beta=600.0, lambda0=0.0, drive_time=30.0, dim=5)
        r = make_rates(p)
        grid = (5.0, 15.0, 30.0)
        cfg = EnsembleConfig(
            checkpoint_grid=grid, n_traj=10_000, master_seed=31, initial_level=1
        )
        nbar = run_with_populations(p, r, cfg)[1] @ np.arange(p.dim)  # (K, n_traj)
        for k, t in enumerate(grid):
            mean = nbar[k].mean()
            se = nbar[k].std(ddof=1) / math.sqrt(cfg.n_traj)
            assert abs(mean - math.exp(-p.gamma * t)) <= 3.0 * se

    def test_ensemble_matches_lindblad_oracle(self):
        # driven, damped: every level population within 3 SE of the
        # density-matrix integration at every checkpoint. The comparison is
        # paired per initial level (the master equation is linear and the
        # thermal initial draw is tested separately), which removes the
        # sampling noise of rarely drawn high initial levels.
        p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        grid = tuple(np.linspace(0.0, p.drive_time, 5))
        # seeds 17-24 give max|z| = 1.75, 2.42, 3.07, 3.33, 1.95, 3.73, 2.70,
        # 1.92, the large ones where a few trajectories carry a cell; pooled
        # over those 32000 trajectories the largest |z| of the 40 cells is
        # 2.69. 17 is the first seed of the declared list 17, 18, ...
        cfg = EnsembleConfig(checkpoint_grid=grid, n_traj=4000, master_seed=17)
        batch, pops, _ = run_with_populations(p, r, cfg)
        oracle = np.zeros((p.dim, len(grid) - 1, p.dim))
        for n in np.unique(batch.levels):
            rho0 = np.zeros((p.dim, p.dim), dtype=complex)
            rho0[n, n] = 1.0
            oracle[n] = [np.real(np.diag(rho)) for rho in integrate(rho0, p, r, grid[1:])]
        # (K-1, n_traj, dim)
        residuals = pops[1:] - oracle[batch.levels].transpose(1, 0, 2)
        mean = residuals.mean(axis=1)
        se = residuals.std(axis=1, ddof=1) / math.sqrt(cfg.n_traj)
        # SE floored at the deterministic integration tolerance for the far
        # tail, where both sides are ~1e-12 and purely systematic
        z = np.abs(mean) / np.maximum(se, 1e-9)
        assert z.max() <= 3.0, f"max z = {z.max()}"

    def test_exchangeability_under_seed_permutation(self):
        # moments shift within a few SE when the master seed changes
        p = PhysicalParams(gamma=0.01, beta=1.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        grid = (p.drive_time,)
        means = []
        for seed in (1, 2):
            cfg = EnsembleConfig(checkpoint_grid=grid, n_traj=3000, master_seed=seed)
            pops = run_with_populations(p, r, cfg)[1][-1]
            means.append((pops @ np.arange(p.dim)).mean())
        se = 2.0 / math.sqrt(3000)  # generous scale bound for <n> fluctuation
        assert abs(means[0] - means[1]) <= 3.0 * se


class TestTruncationGuard:
    def test_warning_on_leakage(self):
        # dim = 8 at full drive: top-level population ~0.014, inside the
        # warn band but below the failure threshold
        p = PhysicalParams(gamma=1e-4, beta=2.0, lambda0=0.01, dim=8)
        r = make_rates(p)
        cfg = EnsembleConfig(
            checkpoint_grid=(p.drive_time,), n_traj=1, initial_level=0
        )
        # the warning names the checkpoint time of the largest leak
        with pytest.warns(TruncationWarning, match=re.escape(f"at t = {p.drive_time};")):
            run_ensemble(p, r, cfg)
        # iter_ensemble is a generator, resumed by whoever asks for a batch,
        # here measure_ensemble (which needs two samples): its warning names
        # the first caller outside the package, this file
        with pytest.warns(TruncationWarning) as record:
            measure_ensemble(iter_ensemble(p, r, replace(cfg, n_traj=2)))
        assert [w.filename for w in record] == [__file__]

    def test_error_on_blowup(self):
        p = PhysicalParams(gamma=1e-4, beta=2.0, lambda0=0.01, dim=3)
        r = make_rates(p)
        cfg = EnsembleConfig(
            checkpoint_grid=(p.drive_time,), n_traj=1, initial_level=0
        )
        with pytest.raises(SimulationError):
            run_ensemble(p, r, cfg)

    def test_leak_agrees_across_batch_sizes(self, monkeypatch):
        # each batch sums its top-level populations in trajectory-id order,
        # but the ensemble adds one sum per batch, so the per-checkpoint leak
        # agrees across batch sizes to rounding, not bit for bit
        tops = []
        run = trajectories._Evolution.run

        def recording(self):
            batch = run(self)
            tops[-1] += self.top
            return batch

        monkeypatch.setattr(trajectories._Evolution, "run", recording)
        p = PhysicalParams(gamma=0.1, beta=2.0, lambda0=0.01, dim=10)
        cfg = EnsembleConfig(checkpoint_grid=grid_to(p.drive_time, 21), n_traj=300, master_seed=3)
        for size in (7, 64, cfg.n_traj):
            tops.append(np.zeros(21))
            for _ in iter_ensemble(p, make_rates(p), replace(cfg, batch_size=size)):
                pass
        leaks = np.array(tops) / cfg.n_traj
        assert leaks.max() > 0
        for leak in leaks[:2]:
            np.testing.assert_allclose(leak, leaks[2], rtol=1e-12, atol=0)
