import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qho_cal.errors import InsufficientDataError
from qho_cal.model import PhysicalParams, make_rates
from qho_cal.trajectories import EnsembleConfig, JumpEvent, TrajectoryRecord, run_ensemble
from qho_cal.work import (
    WorkSample,
    calorimetric_work,
    draw_guardian_outcome,
    guardian_probs,
    heat_up_to,
    measure_ensemble,
    projective_work,
    summarize,
    work_moments,
)

pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.RegimeWarning")


def rates_for(beta, gamma=1.0):
    return make_rates(PhysicalParams(gamma=gamma, beta=beta, lambda0=0.01))


def make_record(initial_level, jumps, times, states, measure_seed=0):
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    heats = np.array(
        [
            sum(1 if j.index == 0 else -1 for j in jumps if j.time <= t)
            for t in times
        ],
        dtype=np.int64,
    )
    return TrajectoryRecord(
        initial_level=initial_level,
        jumps=tuple(jumps),
        times=times,
        states=states,
        heats=heats,
        traj_id=0,
        measure_seed=np.random.SeedSequence(measure_seed),
    )


def basis_state(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


class TestHeat:
    def test_partial_sums(self):
        jumps = [JumpEvent(1.0, 0), JumpEvent(2.0, 0), JumpEvent(3.0, 1)]
        rec = make_record(0, jumps, [0.0, 1.5, 2.5, 4.0], [basis_state(0, 4)] * 4)
        assert heat_up_to(rec, 4.0) == 1  # 1 + 1 - 1
        assert heat_up_to(rec, 0.0) == 0
        assert heat_up_to(rec, 2.5) == 2
        assert heat_up_to(rec, 1.5) == 1

    def test_outside_horizon(self):
        rec = make_record(0, [], [0.0, 1.0], [basis_state(0, 3)] * 2)
        with pytest.raises(ValueError):
            heat_up_to(rec, 2.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([0, 1]), max_size=12))
    def test_matches_signed_count(self, indices):
        jumps = [JumpEvent(0.5 * (i + 1), ix) for i, ix in enumerate(indices)]
        horizon = 0.5 * (len(indices) + 1)
        rec = make_record(
            0, jumps, [0.0, horizon], [basis_state(0, 3)] * 2
        )
        expected = sum(1 if ix == 0 else -1 for ix in indices)
        assert heat_up_to(rec, horizon) == expected


class TestProjectiveWork:
    def test_tau_zero_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        for n in range(4):
            rec = make_record(n, [], [0.0], [basis_state(n, 6)])
            s = projective_work(rec, 0.0, rng)
            assert s.value == 0 and s.delta_u == 0 and s.heat == 0

    def test_known_outcome(self):
        # deterministic state |2>, one absorbed quantum: W = (2-0) - 1 = 1
        rec = make_record(
            0, [JumpEvent(0.5, 1)], [0.0, 1.0], [basis_state(0, 5), basis_state(2, 5)]
        )
        s = projective_work(rec, 1.0, np.random.default_rng(1))
        assert (s.delta_u, s.heat, s.value) == (2, -1, 1)

    def test_sampling_distribution(self):
        state = np.array([np.sqrt(0.25), np.sqrt(0.75), 0.0], dtype=complex)
        rec = make_record(0, [], [0.0, 1.0], [basis_state(0, 3), state])
        rng = np.random.default_rng(2)
        vals = [projective_work(rec, 1.0, rng).value for _ in range(20000)]
        frac1 = np.mean([v == 1 for v in vals])
        assert abs(frac1 - 0.75) <= 3.0 * math.sqrt(0.75 * 0.25 / 20000)

    def test_first_law_identity(self):
        rng = np.random.default_rng(3)
        rec = make_record(
            1,
            [JumpEvent(0.2, 0), JumpEvent(0.7, 1), JumpEvent(0.9, 1)],
            [0.0, 1.0],
            [basis_state(1, 6), (basis_state(0, 6) + basis_state(3, 6)) / np.sqrt(2)],
        )
        for _ in range(50):
            s = projective_work(rec, 1.0, rng)
            assert s.value == s.delta_u + s.heat


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


class TestCalorimetricWork:
    def test_unitary_bracket_values(self):
        # no jumps: W_c = l_f - l_i + (-1)^l_f
        r = rates_for(2.0)
        rec_excited = make_record(0, [], [0.0], [basis_state(1, 5)])
        rng = np.random.default_rng(0)
        # final state |1> at beta=2: l_f = 0 with p 0.787, else 1
        seen = set()
        for _ in range(200):
            s = calorimetric_work(rec_excited, 0.0, r, rng, ell_i=0)
            seen.add((s.delta_u, s.heat, s.value))
        # l_f=0: inferred drop 0, guardian heat +1 -> W_c = +1
        # l_f=1: inferred rise 1, guardian heat -1 -> W_c = 0
        assert seen == {(0, 1, 1), (1, -1, 0)}

    def test_ground_final_state_forces_absorption(self):
        r = rates_for(2.0)
        rec = make_record(0, [], [0.0], [basis_state(0, 5)])
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = calorimetric_work(rec, 0.0, r, rng, ell_i=0)
            assert (s.delta_u, s.heat, s.value) == (1, -1, 0)

    def test_no_photon_branch_zero_temperature(self):
        r = rates_for(800.0)
        rec = make_record(0, [], [0.0], [basis_state(0, 5)])
        rng = np.random.default_rng(2)
        s = calorimetric_work(rec, 0.0, r, rng)
        assert (s.delta_u, s.heat, s.value) == (0, 0, 0)
        out = draw_guardian_outcome(rec, 0.0, r, rng)
        assert out.ell_i == 0 and out.ell_f is None

    def test_no_photon_with_excited_inference(self):
        # l_i = 1 and no final photon: inferred delta_u = -1, no guardian heat
        r = rates_for(800.0)
        rec = make_record(1, [], [0.0], [basis_state(0, 5)])
        rng = np.random.default_rng(3)
        s = calorimetric_work(rec, 0.0, r, rng, ell_i=1)
        assert (s.delta_u, s.heat, s.value) == (-1, 0, -1)

    def test_first_law_with_jumps(self):
        r = rates_for(1.0)
        rec = make_record(
            2,
            [JumpEvent(0.3, 0), JumpEvent(0.8, 0)],
            [0.0, 1.0],
            [basis_state(2, 6), (basis_state(0, 6) - basis_state(1, 6)) / np.sqrt(2)],
        )
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = calorimetric_work(rec, 1.0, r, rng)
            assert s.value == s.delta_u + s.heat
            assert s.heat in (1, 3)  # two emissions +- final guardian photon


class TestSummarize:
    def test_constant_samples(self):
        samples = [WorkSample("projective", 1.0, 2, 0, 2) for _ in range(50)]
        s = summarize(samples)
        assert s.mean[0] == 2.0
        assert s.variance[0] == 0.0
        assert s.stderr_mean[0] == 0.0
        assert s.histograms[0] == {2: 50}

    def test_symmetric_pair(self):
        n = 40
        samples = [
            WorkSample("projective", 0.5, v, 0, v)
            for v in [1] * (n // 2) + [-1] * (n // 2)
        ]
        s = summarize(samples)
        assert s.mean[0] == 0.0
        assert s.variance[0] == pytest.approx(n / (n - 1))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            summarize([WorkSample("projective", 0.0, 0, 0, 0)])
        with pytest.raises(InsufficientDataError):
            summarize([])

    def test_groups_by_time(self):
        samples = [
            WorkSample("projective", t, v, 0, v)
            for t in (0.0, 1.0)
            for v in (0, 1, 0, 1)
        ]
        s = summarize(samples)
        assert list(s.times) == [0.0, 1.0]
        assert s.mean[0] == 0.5 and s.mean[1] == 0.5

    def test_variance_se_against_jackknife(self):
        rng = np.random.default_rng(9)
        vals = rng.integers(-3, 4, size=5000)
        samples = [WorkSample("projective", 0.0, int(v), 0, int(v)) for v in vals]
        moments = summarize(samples, variance_se="moments")
        jack = summarize(samples, variance_se="jackknife")
        assert moments.stderr_variance[0] == pytest.approx(
            jack.stderr_variance[0], rel=0.05
        )

    def test_merge_is_exact_and_commutative(self):
        rng = np.random.default_rng(10)

        def block(seed):
            r = np.random.default_rng(seed)
            return [
                WorkSample("projective", 0.0, int(v), 0, int(v))
                for v in r.integers(-2, 3, size=300)
            ]

        a, b = summarize(block(1)), summarize(block(2))
        ab = a.merge(b)
        ba = b.merge(a)
        assert ab.histograms == ba.histograms
        assert ab.n_traj == 600
        combined = summarize(block(1) + block(2))
        assert ab.histograms == combined.histograms
        np.testing.assert_allclose(ab.mean, combined.mean, rtol=1e-14)
        np.testing.assert_allclose(ab.variance, combined.variance, rtol=1e-14)


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
        p, r, records = self._small_run(beta=0.5)
        result = measure_ensemble(records, r)
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
        records = run_ensemble(p, r, cfg)
        result = measure_ensemble(records, r)
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
        p, r, records = self._small_run()
        a = measure_ensemble(records, r)
        b = measure_ensemble(records, r)
        assert a.projective.histograms == b.projective.histograms
        assert a.calorimetric.histograms == b.calorimetric.histograms

    def test_population_summary_shapes(self):
        p, r, records = self._small_run(n_traj=100)
        result = measure_ensemble(records, r)
        pop = result.populations
        assert pop.mean.shape == (3, p.dim)
        assert pop.nbar_mean.shape == (3,)
        assert pop.n_traj == 100
        np.testing.assert_allclose(pop.mean.sum(axis=1), 1.0, atol=1e-10)

    def test_missing_measure_seed_rejected(self):
        p, r, records = self._small_run(n_traj=4)
        records[0].measure_seed = None
        with pytest.raises(ValueError):
            measure_ensemble(records, r)
