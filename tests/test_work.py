import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qho_cal.errors import InsufficientDataError
from qho_cal.model import PhysicalParams, guardian_probs, make_rates
from qho_cal.trajectories import (
    JUMP_DTYPE,
    MEASUREMENT,
    EnsembleConfig,
    TrajectoryBatch,
    _outcomes,
    iter_ensemble,
    uniforms,
)
from qho_cal.work import MomentSummary, measure_ensemble, work_moments
from readout_tap import (
    cumulative_heats,
    inverse_cdf,
    measure_all_rows,
    run_ensemble,
    run_with_populations,
    tapped_readout,
)

pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.RegimeWarning")


def rates_for(beta, gamma=1.0):
    return make_rates(PhysicalParams(gamma=gamma, beta=beta, lambda0=0.01))


def initial_guardian(key, ids, levels, pi0):
    """ell_i per trajectory, from event 0 of its measurement stream."""
    return (uniforms(key, 0, MEASUREMENT, ids)[:, 0] >= pi0[levels]).astype(np.int64)


def sample_work(levels, heats, states, rates, seed=0):
    """W_p and W_c (K, n) that the all-rows reference measurement draws on
    hand-made checkpoint ``states``, (K, dim) shared by all trajectories or
    (K, n, dim), with initial ``levels`` (n,) and cumulative ``heats`` (K,)
    or (K, n), from the measurement streams of master seed ``seed``."""
    levels = np.asarray(levels, dtype=np.int64)
    n = len(levels)
    states = np.asarray(states, dtype=complex)
    if states.ndim == 2:
        states = np.repeat(states[:, None, :], n, axis=1)
    k_n, _, dim = states.shape
    heats = np.asarray(heats, dtype=np.int64).reshape(k_n, -1) + np.zeros((k_n, n), np.int64)
    key = np.random.SeedSequence(seed).generate_state(2)
    ids = np.arange(n)
    pi0, pf0, _ = guardian_probs(np.arange(dim), rates)
    ell_i = initial_guardian(key, ids, levels, pi0)
    rows = [
        measure_all_rows(
            np.abs(s) ** 2, uniforms(key, k + 1, MEASUREMENT, ids), levels, q, ell_i, pf0
        )
        for k, (s, q) in enumerate(zip(states, heats))
    ]
    return np.array([wp for wp, _ in rows]), np.array([wc for _, wc in rows])


def make_batch(levels, heats, states, rates, times=None, seed=0):
    """A hand-made batch with an empty jump log, measured by sample_work."""
    levels = np.asarray(levels, dtype=np.int64)
    n = len(levels)
    wp, wc = sample_work(levels, heats, states, rates, seed)
    k_n = len(wp)
    return TrajectoryBatch(
        times=np.arange(float(k_n)) if times is None else np.asarray(times, dtype=float),
        first_id=0,
        levels=levels,
        W_p=wp,
        W_c=wc,
        states=np.asarray(states, dtype=complex)[-1],
        jumps=np.empty(0, dtype=JUMP_DTYPE),
        jump_offsets=np.zeros(n + 1, dtype=np.int64),
    )


def basis_state(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


class TestHeat:
    # the cumulative heat of each checkpoint row enters both work values
    # additively; the heat rows the readout measures with are checked
    # against the jump log here and in test_trajectories

    def test_partial_sums(self):
        # emissions at 1 and 2, an absorption at 3: heats 0, 1, 2, 1 at the
        # checkpoints 0, 1.5, 2.5, 4, with the state parked in |0>
        r = rates_for(2.0)
        batch = make_batch(
            [0] * 5, [0, 1, 2, 1], [basis_state(0, 4)] * 4, r, times=[0.0, 1.5, 2.5, 4.0]
        )
        p = measure_ensemble([batch]).projective
        expected = np.zeros_like(p.histograms)
        expected[np.arange(4), np.array([0, 1, 2, 1]) - p.lowest] = 5
        assert np.array_equal(p.histograms, expected)

    def test_outside_horizon(self):
        # no jump beyond the last checkpoint is logged or counted, and the
        # last heat row is the signed count of the whole log
        p = PhysicalParams(gamma=0.1, beta=0.8, lambda0=0.01, dim=12)
        horizon = 0.5 * p.drive_time
        cfg = EnsembleConfig(checkpoint_grid=(0.0, 0.25 * horizon, horizon), n_traj=6)
        batch, _, heats = run_with_populations(p, make_rates(p), cfg)
        assert len(batch.jumps) > 0
        assert batch.jumps["time"].max() <= horizon
        kinds = batch.jumps["kind"].astype(np.int64)
        assert heats[-1].sum() == np.sum(1 - 2 * kinds)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(511438367)
    def test_matches_signed_count(self, seed):
        # the heat bookkeeping holds on any truncation, so next() reads the
        # batch without run_ensemble's truncation guard, which some seeds trip
        # (511438367: mean top-level population 0.33 at t = 20); the guard
        # has its own tests in TestTruncationGuard
        p = PhysicalParams(gamma=0.2, beta=0.5, lambda0=0.01, drive_time=60.0, dim=20)
        cfg = EnsembleConfig(checkpoint_grid=(20.0, 60.0), n_traj=3, master_seed=seed)
        heats = []
        with tapped_readout(lambda e, k, pops, heat: heats.append(heat)):
            batch = next(iter_ensemble(p, make_rates(p), cfg))
        signed = 1 - 2 * batch.jumps["kind"].astype(np.int64)
        for i in range(3):
            lo, hi = batch.jump_offsets[i], batch.jump_offsets[i + 1]
            early = batch.jumps["time"][lo:hi] <= 20.0
            assert heats[0][i] == signed[lo:hi][early].sum()
            assert heats[1][i] == signed[lo:hi].sum()


class TestProjectiveWork:
    def test_tau_zero_is_exactly_zero(self):
        levels = [0, 1, 2, 3]
        wp, _ = sample_work(levels, [0], [[basis_state(n, 6) for n in levels]], rates_for(2.0))
        assert wp.tolist() == [[0, 0, 0, 0]]

    def test_known_outcome(self):
        # deterministic state |2>, one absorbed quantum: W = (2-0) - 1 = 1
        states = [basis_state(0, 5), basis_state(2, 5)]
        wp, _ = sample_work([0] * 3, [0, -1], states, rates_for(2.0))
        assert wp.tolist() == [[0, 0, 0], [1, 1, 1]]

    def test_sampling_distribution(self):
        state = np.array([np.sqrt(0.25), np.sqrt(0.75), 0.0], dtype=complex)
        n = 20000
        wp, _ = sample_work([0] * n, [0, 0], [basis_state(0, 3), state], rates_for(2.0), seed=2)
        assert set(wp[1].tolist()) == {0, 1}
        frac1 = np.mean(wp[1] == 1)
        assert abs(frac1 - 0.75) <= 3.0 * math.sqrt(0.75 * 0.25 / n)

    def test_draw_capped_at_top_level(self):
        # round-off can leave the last cumulative sum below the uniform;
        # the draw stays at the top level, as inverse_cdf's does, both for a
        # jumped row and for one measured off the no-jump table
        pops = np.array([[0.5, 0.5 - 1e-16]])
        zero = np.zeros(1, dtype=np.int64)
        u = np.array([[1.0 - 1e-17, 0.5]])
        wp, _ = measure_all_rows(pops, u, zero, zero, zero, np.zeros(2))
        assert wp.tolist() == [1]
        table = np.array([[1.0, 0.0], pops[0]])
        for pos, spans in (([0], []), ([], [(1, slice(0, 1))])):
            final, _ = _outcomes(table, pops[pos], np.array(pos, dtype=np.int64), u, spans,
                                 np.zeros(2))
            assert final.tolist() == [1]

    def test_first_law_identity(self):
        # W_p - Q = m - n with m a populated level: from |1>, one emission
        # and two absorptions (Q = -1), ending in (|0> + |3>)/sqrt 2
        final = (basis_state(0, 6) + basis_state(3, 6)) / np.sqrt(2)
        wp, _ = sample_work([1] * 200, [0, -1], [basis_state(1, 6), final], rates_for(1.0), seed=3)
        assert set((wp[1] + 1 + 1).tolist()) == {0, 3}


class TestGuardianProbs:
    # guardian_probs returns (pi0, pf0, pf1): initial emission, final
    # emission and final absorption; the initial absorption is 1 - pi0 and
    # the no-photon remainder 1 - pf0 - pf1

    def test_initial_ground_state(self):
        pi0, _, _ = guardian_probs([0], rates_for(2.0))
        assert (pi0[0], 1.0 - pi0[0]) == (1.0, 0.0)

    def test_initial_level_one_beta_two(self):
        pi0, _, _ = guardian_probs([0, 1], rates_for(2.0))
        assert pi0[1] == pytest.approx(0.21301, abs=5e-6)
        # absorption: n / (x(n+1) + n)
        x = math.exp(-2.0)
        assert 1.0 - pi0[1] == pytest.approx(1.0 / (2 * x + 1), rel=1e-14)

    def test_initial_degenerate_zero_temperature(self):
        pi0, _, _ = guardian_probs([0], rates_for(800.0))
        assert pi0[0] == 1.0

    def test_initial_high_temperature_half(self):
        pi0, _, _ = guardian_probs(np.arange(401), rates_for(1e-3))
        assert pi0[400] == pytest.approx(0.5, abs=2e-3)
        assert 1.0 - pi0[400] == pytest.approx(0.5, abs=2e-3)

    def test_final_ground_state(self):
        _, pf0, pf1 = guardian_probs([0], rates_for(2.0))
        assert (pf0[0], pf1[0]) == (0.0, 1.0)

    def test_final_level_one_beta_two(self):
        _, pf0, pf1 = guardian_probs([1], rates_for(2.0))
        assert pf0[0] == pytest.approx(0.78699, abs=5e-6)
        assert pf0[0] + pf1[0] == pytest.approx(1.0, rel=1e-14)

    def test_final_zero_temperature_emission_certain(self):
        _, pf0, pf1 = guardian_probs([1, 2, 7], rates_for(800.0))
        assert pf0.tolist() == [1.0] * 3
        assert pf1.tolist() == [0.0] * 3

    def test_final_degenerate_no_photon(self):
        _, pf0, pf1 = guardian_probs([0], rates_for(800.0))
        assert (pf0[0], pf1[0]) == (0.0, 0.0)
        assert 1.0 - pf0[0] - pf1[0] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 60), st.floats(0.05, 20.0))
    def test_distributions_normalize(self, n, beta):
        r = rates_for(beta, gamma=0.3)
        pi0, pf0, pf1 = (v[0] for v in guardian_probs([n], r))
        for p in (pi0, pf0, pf1):
            assert -1e-12 <= p <= 1 + 1e-12
        # the initial pair is (pi0, n / (x(n+1) + n))
        x = r.boltzmann_ratio
        assert pi0 + n / (x * (n + 1) + n) == pytest.approx(1.0, abs=1e-12)
        assert pf0 + pf1 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            guardian_probs([0, -1], rates_for(1.0))

    def test_state_mixture_reduces_to_level(self):
        # a basis state picks out its own level's final probabilities
        r = rates_for(1.3)
        _, pf0, pf1 = guardian_probs(np.arange(6), r)
        for m in range(4):
            p = np.abs(basis_state(m, 6)) ** 2
            assert (p @ pf0, p @ pf1) == pytest.approx((pf0[m], pf1[m]), abs=1e-14)
            assert 1.0 - p @ pf0 - p @ pf1 == pytest.approx(0.0, abs=1e-14)

    def test_state_mixture_random_states_normalize(self):
        rng = np.random.default_rng(5)
        _, pf0, pf1 = guardian_probs(np.arange(8), rates_for(0.8))
        for _ in range(100):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            p = np.abs(psi) ** 2
            assert p @ pf0 + p @ pf1 == pytest.approx(1.0, abs=1e-12)

    def test_no_photon_weight_is_ground_population(self):
        # zero temperature: the no-photon branch carries the ground-state weight
        from qho_cal.fock import displacement_matrix

        alpha = 0.9
        p = np.abs(np.asarray(displacement_matrix(alpha, 30))[:, 0]) ** 2
        _, pf0, pf1 = guardian_probs(np.arange(30), rates_for(800.0))
        assert 1.0 - p @ pf0 - p @ pf1 == pytest.approx(math.exp(-alpha**2), rel=1e-10)
        assert p @ pf1 == 0.0
        assert p @ pf0 == pytest.approx(1.0 - math.exp(-alpha**2), rel=1e-10)


class TestWorkMoments:
    def test_matches_enumeration(self):
        # every (n, m, Q, ell_i, ell_f) branch written out, with
        # W_c = (ell_f - ell_i) + Q + (-1)^ell_f and the no-photon branch
        # folded into ell_f = 1 (both carry -ell_i + Q)
        rng = np.random.default_rng(11)
        table = rng.random((3, 6, 5))
        weights = rng.random(3)
        r = rates_for(0.9)
        x = r.boltzmann_ratio
        expected = np.zeros(4)
        for n, m, j in np.ndindex(table.shape):
            w = weights[n] * table[n, m, j]
            q = j - 2
            expected[:2] += w * np.array([m - n + q, (m - n + q) ** 2])
            p_i = {0: x * (n + 1) / (x * (n + 1) + n), 1: n / (x * (n + 1) + n)}
            p_f = {0: m / (m + x * (m + 1)), 1: x * (m + 1) / (m + x * (m + 1))}
            for ell_i, ell_f in np.ndindex(2, 2):
                v = ell_f - ell_i + q + (-1) ** ell_f
                expected[2:] += w * p_i[ell_i] * p_f[ell_f] * np.array([v, v * v])
        np.testing.assert_allclose(work_moments(table, weights, r), expected, rtol=1e-13)

    def test_heat_axis_centred(self):
        # one heat column is Q = 0: W_p = m - n exactly
        r = rates_for(2.0)
        table = np.zeros((1, 3, 1))
        table[0, 2, 0] = 1.0
        assert work_moments(table, [1.0], r)[:2].tolist() == [2.0, 4.0]

    def test_stacked_tables_give_one_row_each(self):
        # a (2, 3, n, m, q) stack gives (2, 3, 4), each row bitwise the
        # moments of its table alone
        rng = np.random.default_rng(12)
        tables = rng.random((2, 3, 2, 7, 5))
        weights = rng.random(2)
        r = rates_for(0.9)
        stacked = work_moments(tables, weights, r)
        assert stacked.shape == (2, 3, 4)
        for k, b in np.ndindex(2, 3):
            np.testing.assert_array_equal(stacked[k, b], work_moments(tables[k, b], weights, r))


class TestCalorimetricWork:
    def test_unitary_bracket_values(self):
        # no jumps, ell_i = 0 from the ground state: W_c = l_f - l_i + (-1)^l_f
        # final state |1> at beta=2: l_f = 0 with p 0.787, else 1
        _, wc = sample_work([0] * 200, [0], [basis_state(1, 5)], rates_for(2.0))
        # l_f=0: inferred drop 0, guardian heat +1 -> W_c = +1
        # l_f=1: inferred rise 1, guardian heat -1 -> W_c = 0
        assert set(wc[0].tolist()) == {0, 1}

    def test_ground_final_state_forces_absorption(self):
        _, wc = sample_work([0] * 50, [0], [basis_state(0, 5)], rates_for(2.0), seed=1)
        assert not wc.any()  # inferred rise 1, guardian heat -1

    def test_no_photon_branch_zero_temperature(self):
        _, wc = sample_work([0] * 50, [0], [basis_state(0, 5)], rates_for(800.0), seed=2)
        assert not wc.any()  # no final photon: no rise, no guardian heat

    def test_no_photon_with_excited_inference(self):
        # l_i = 1 (level 1 at zero temperature was entered from above) and no
        # final photon: inferred delta_u = -1, no guardian heat
        _, wc = sample_work([1] * 50, [0], [basis_state(0, 5)], rates_for(800.0), seed=3)
        assert wc.tolist() == [[-1] * 50]

    def test_first_law_with_jumps(self):
        # two emissions (Q = 2) from |2>: W_c - Q = [l_f = 0] - l_i
        final = (basis_state(0, 6) - basis_state(1, 6)) / np.sqrt(2)
        _, wc = sample_work([2] * 400, [0, 2], [basis_state(2, 6), final], rates_for(1.0), seed=4)
        assert set((wc[1] - 2).tolist()) == {-1, 0, 1}


def count_table(*estimators):
    """Reference counts of integer work values: ``table[e, k, j]`` is how
    often estimator e's (K, n) values took ``lowest + j`` in row k, from
    np.unique per row, with ``lowest`` and B from the smallest and largest
    value of all the estimators."""
    lowest = min(int(np.min(w)) for w in estimators)
    width = max(int(np.max(w)) for w in estimators) - lowest + 1
    table = np.zeros((len(estimators), len(estimators[0]), width), dtype=np.int64)
    for e, w in enumerate(estimators):
        for k, row in enumerate(w):
            vals, cs = np.unique(row, return_counts=True)
            table[e, k, vals - lowest] = cs
    return lowest, table


def summary_of(*columns):
    """MomentSummary of integer work values, one column per checkpoint."""
    lowest, table = count_table(np.array(columns))
    return MomentSummary.from_counts(np.arange(float(len(columns))), lowest, table[0])


def variance_se_jackknife(values):
    """Leave-one-out jackknife standard error of the sample variance of
    integer values: an independent reference for the moment estimate
    MomentSummary reports."""
    vals, cs = np.unique(values, return_counts=True)
    vals, cs = vals.astype(float), cs.astype(float)
    n = cs.sum()
    s1 = float((vals * cs).sum())
    s2 = float((vals**2 * cs).sum())
    loo = ((s2 - vals**2) - (s1 - vals) ** 2 / (n - 1)) / (n - 2)
    loo_mean = float((cs * loo).sum() / n)
    ss = float((cs * (loo - loo_mean) ** 2).sum())
    return float(np.sqrt((n - 1) / n * ss))


def valued_batch(w_p, w_c, first_id=0):
    """A batch that carries the given (K, n) work values, on times 0..K-1."""
    k_n, n = np.shape(w_p)
    return TrajectoryBatch(
        times=np.arange(float(k_n)),
        first_id=first_id,
        levels=np.zeros(n, dtype=np.int64),
        W_p=np.asarray(w_p),
        W_c=np.asarray(w_c),
        states=np.zeros((n, 2), dtype=complex),
        jumps=np.empty(0, dtype=JUMP_DTYPE),
        jump_offsets=np.zeros(n + 1, dtype=np.int64),
    )


class TestSummarize:
    def test_constant_samples(self):
        s = summary_of([2] * 50)
        assert s.mean[0] == 2.0
        assert s.variance[0] == 0.0
        assert s.stderr_mean[0] == 0.0
        assert s.lowest == 2
        assert np.array_equal(s.histograms, [[50]])

    def test_symmetric_pair(self):
        n = 40
        s = summary_of([1] * (n // 2) + [-1] * (n // 2))
        assert s.mean[0] == 0.0
        assert s.variance[0] == pytest.approx(n / (n - 1))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            summary_of([0])
        with pytest.raises(InsufficientDataError):
            measure_ensemble([])

    def test_groups_by_time(self):
        s = summary_of([0, 1, 0, 1], [1, 1, 2, 2])
        assert list(s.times) == [0.0, 1.0]
        assert s.mean[0] == 0.5 and s.mean[1] == 1.5

    def test_variance_se_against_jackknife(self):
        rng = np.random.default_rng(9)
        vals = rng.integers(-3, 4, size=5000)
        assert summary_of(vals).stderr_variance[0] == pytest.approx(
            variance_se_jackknife(vals), rel=0.05
        )

    def test_row_with_one_sample_names_its_time(self):
        with pytest.raises(InsufficientDataError, match=r"got 1 at t = 0\.5"):
            MomentSummary.from_counts([0.0, 0.5], -1, np.array([[2, 0, 1], [0, 1, 0]]))
        with pytest.raises(InsufficientDataError, match=r"got 1 at t = 0\.0"):
            measure_ensemble([valued_batch([[3]], [[3]])])

    def test_rows_with_different_totals(self):
        with pytest.raises(ValueError, match="different sample counts"):
            MomentSummary.from_counts([0.0, 1.0], 0, np.array([[2, 1], [1, 1]]))


def reference_work(batch, pops, rates, seed):
    """The batch-wide sampling that the readout's measurement replaced, over
    a stacked (K, n, dim) population array: per checkpoint row, np.cumsum
    over the levels, inverse_cdf of the first uniform and the guardian
    comparison of the second."""
    k_n, n, dim = pops.shape
    pi0, pf0, _ = guardian_probs(np.arange(dim), rates)
    key = np.random.SeedSequence(seed).generate_state(2)
    ids = batch.first_id + np.arange(len(batch.levels))
    ell_i = initial_guardian(key, ids, batch.levels, pi0)
    heats = cumulative_heats(batch)
    wp = np.empty((k_n, n), dtype=np.int64)
    wc = np.empty((k_n, n), dtype=np.int64)
    for k, row in enumerate(pops):
        u = uniforms(key, k + 1, MEASUREMENT, ids)
        m = inverse_cdf(np.cumsum(row, axis=1), u[:, 0])
        wp[k] = m - batch.levels + heats[k]
        final_emission = (u[:, 1] < np.einsum("ij,j->i", row, pf0)).astype(np.int64)
        wc[k] = final_emission - ell_i + heats[k]
    return wp, wc


class TestStreamedMeasurement:
    @pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")
    @pytest.mark.parametrize(
        "gamma, n_traj, points, seed",
        [(0.001, 600, 21, 3), (0.1, 300, 11, 4)],
        ids=["fig4", "fig5c"],
    )
    def test_matches_batch_wide_reference(self, gamma, n_traj, points, seed):
        # each checkpoint row measured as it is read out gives the values of
        # the batch-wide pass over all populations, bit for bit, and so the
        # same histograms, also when the ensemble is cut into batches
        p = PhysicalParams(gamma=gamma, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        grid = tuple(np.linspace(0.0, p.drive_time, points))
        cfg = EnsembleConfig(checkpoint_grid=grid, n_traj=n_traj, master_seed=seed)
        batch, pops, _ = run_with_populations(p, r, cfg)
        wp, wc = reference_work(batch, pops, r, seed)
        assert np.array_equal(batch.W_p, wp)
        assert np.array_equal(batch.W_c, wc)
        streamed = measure_ensemble(iter_ensemble(p, r, replace(cfg, batch_size=128)))
        lowest, table = count_table(wp, wc)
        for e, s in enumerate((streamed.projective, streamed.calorimetric)):
            assert s.lowest == lowest
            assert np.array_equal(s.histograms, table[e])


class TestMeasureEnsemble:
    def _small_run(self, beta=0.5, gamma=0.02, n_traj=400, seed=23, grid=None):
        p = PhysicalParams(gamma=gamma, beta=beta, lambda0=0.01, dim=10)
        r = make_rates(p)
        grid = grid or (0.0, 0.5 * p.drive_time, p.drive_time)
        cfg = EnsembleConfig(checkpoint_grid=grid, n_traj=n_traj, master_seed=seed)
        return p, r, run_ensemble(p, r, cfg)

    def test_projective_zero_at_t0_calorimetric_artifact(self):
        # two-measurement work vanishes identically at tau = 0, while the
        # two-level inference scatters as soon as level 1 is populated
        p, r, batch = self._small_run(beta=0.5)
        result = measure_ensemble([batch])
        assert result.projective.variance[0] == 0.0
        assert result.projective.mean[0] == 0.0
        assert result.calorimetric.variance[0] > 0.1

    def test_t0_artifact_statistics_match_enumeration(self):
        # beta = 0.1: exact t=0 calorimetric moments by direct summation
        # over levels vs the sampled ensemble, three standard errors
        beta, dim = 0.1, 200
        p = PhysicalParams(gamma=0.05, beta=beta, lambda0=0.01, dim=dim)
        r = make_rates(p)
        cfg = EnsembleConfig(checkpoint_grid=(0.0,), n_traj=20_000, master_seed=77)
        result = measure_ensemble([run_ensemble(p, r, cfg)])
        x = math.exp(-beta)
        ns = np.arange(dim)
        peq = (1 - x) * x**ns
        peq /= peq.sum()
        f = 2 * x * ns * (ns + 1) / (ns + x * (ns + 1)) ** 2
        exact_second = float(peq @ f)  # exact mean is zero by symmetry
        c = result.calorimetric
        assert abs(c.mean[0]) <= 3.0 * c.stderr_mean[0]
        assert abs(c.variance[0] - exact_second) <= 3.0 * c.stderr_variance[0]

    def test_deterministic_given_seeds(self):
        p, r, batch = self._small_run()
        a = measure_ensemble([batch])
        b = measure_ensemble([batch])
        for sa, sb in ((a.projective, b.projective), (a.calorimetric, b.calorimetric)):
            assert sa.lowest == sb.lowest
            assert np.array_equal(sa.histograms, sb.histograms)


def shifted_values(k_n):
    """(2, K, n) int32 work values of a few trajectories, moved by an offset
    drawn per batch, so that the range grows downward or upward from one
    batch to the next."""
    return st.tuples(st.integers(-40, 40), st.integers(1, 6)).flatmap(
        lambda s: arrays(np.int32, (2, k_n, s[1]), elements=st.integers(-3, 3)).map(
            lambda a: a + np.int32(s[0])
        )
    )


class TestCountTable:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_unique_counts_over_batch_cuts(self, data):
        # every cut of the ensemble gives the np.unique counts of all its
        # values per checkpoint, with the same lowest value and bin count
        k_n = data.draw(st.integers(1, 4), label="K")
        parts = data.draw(st.lists(shifted_values(k_n), min_size=1, max_size=5), label="batches")
        whole = np.concatenate(parts, axis=2)
        assume(whole.shape[2] >= 2)
        starts = np.cumsum([0] + [a.shape[2] for a in parts])
        result = measure_ensemble(valued_batch(*a, first_id=i) for a, i in zip(parts, starts))
        lowest, table = count_table(*whole)
        for e, s in enumerate((result.projective, result.calorimetric)):
            assert s.lowest == lowest
            assert s.histograms.dtype == np.int64
            assert np.array_equal(s.histograms, table[e])
            assert s.n_traj == whole.shape[2]

    def test_widens_down_and_up(self):
        # values 0..2, then -5..-3 below them, then 7..9 above: one table
        # from -5 to 9, the same as one batch of all of them
        parts = [np.full((2, 1, 2), v, dtype=np.int32) + [[[0, 2]]] for v in (0, -5, 7)]
        result = measure_ensemble(valued_batch(*a) for a in parts)
        p = result.projective
        assert p.lowest == -5
        assert p.histograms.shape == (1, 15)
        assert np.flatnonzero(p.histograms[0]).tolist() == [0, 2, 5, 7, 12, 14]
        whole = measure_ensemble([valued_batch(*np.concatenate(parts, axis=2))]).projective
        assert whole.lowest == p.lowest
        assert np.array_equal(whole.histograms, p.histograms)
        assert whole.mean[0] == p.mean[0] and whole.variance[0] == p.variance[0]
