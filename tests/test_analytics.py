import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import poisson

from qho_cal import analytics, fock
from qho_cal.analytics import (
    TruncationPolicy,
    _pert_matrix_raw,
    mu,
    perturbative_matrix,
    perturbative_moments,
    transfer_table,
    transmission_TN,
    truncated_calorimetric_moment,
    truncated_projective_moment,
    unitary_calorimetric_moment,
    unitary_projective_moments,
    unitary_table,
)
from qho_cal.cli import parse_config, run_analytic
from qho_cal.errors import PrecisionLossWarning, RegimeWarning, SimulationError
from qho_cal.fock import (
    displacement_elements,
    displacement_matrix,
    ladder_operators,
    matrix_exponential,
    quadratures,
)
from qho_cal.model import (
    PhysicalParams,
    bath_occupation,
    make_rates,
    nh_generator,
    thermal_probabilities,
)
from qho_cal.quadrature import gauss_legendre
from qho_cal.work import work_moments

pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.RegimeWarning")

PI2_4 = np.pi**2 / 4.0


def fig4():
    p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=10)
    return p, make_rates(p)


def unitary_column(n, t, lam):
    """|<m|D(alpha(t))|n>|^2 over the final levels m of the unitary table."""
    return unitary_table(t, lam, n_max=n)[n, :, 0]


def unitary_wc(t, p, r, n_max=1):
    """(<W_c>, <W_c^2>) from the unitary table, thermally weighted over the
    initial levels n <= n_max, as the analytic CSV's unitary rows."""
    table = unitary_table(t, p.lambda0, n_max)
    return work_moments(table, thermal_probabilities(p.beta, n_max + 1), r)[2:]


def w_nk(n, k, t, p, r):
    """Guardian-weighted unitary coefficient of initial level n: the work
    kernel on the unitary table with all initial weight on n."""
    table = unitary_table(t, p.lambda0, n_max=n)
    return work_moments(table, np.eye(n + 1)[n], r)[1 + k]


class TestMu:
    def test_zero(self):
        assert mu(0.0, 0.01) == 0.0

    def test_full_drive(self):
        p = PhysicalParams(gamma=1e-4, beta=2.0, lambda0=0.01)
        assert mu(p.drive_time, p.lambda0) == pytest.approx(PI2_4, rel=1e-12)
        assert mu(p.drive_time, p.lambda0) == pytest.approx(2.4674, abs=1e-4)

    def test_quadratic_scaling(self):
        times = np.array([3.0, 17.0, 120.0])
        for t in times:
            assert mu(2 * t, 0.01) == pytest.approx(4 * mu(t, 0.01), rel=1e-12)
        np.testing.assert_allclose(mu(2 * times, 0.01), 4 * mu(times, 0.01), rtol=1e-12)
        np.testing.assert_allclose(mu(times, 0.01), [mu(t, 0.01) for t in times], rtol=1e-15)

    def test_negative_time_rejected(self):
        p = PhysicalParams(gamma=1e-4, beta=2.0, lambda0=0.01)
        with pytest.raises(ValueError):
            mu(-1.0, 0.01)
        with pytest.raises(ValueError):
            mu(np.array([0.0, 1.0, -1.0]), 0.01)
        with pytest.raises(ValueError):
            unitary_projective_moments(np.array([2.0, -0.5]), p)


class TestUnitaryProjectiveMoments:
    def test_zero_temperature_variance_equals_mean_scale(self):
        p = PhysicalParams(gamma=1e-4, beta=50.0, lambda0=0.01)
        mean, var = unitary_projective_moments(0.4 * p.drive_time, p)
        assert var == pytest.approx(mean, rel=1e-10)

    def test_beta_two_full_drive(self):
        p = PhysicalParams(gamma=1e-4, beta=2.0, lambda0=0.01)
        mean, var = unitary_projective_moments(p.drive_time, p)
        assert mean == pytest.approx(PI2_4, rel=1e-12)
        assert var == pytest.approx(2.0 * (bath_occupation(2.0) + 0.5) * PI2_4, rel=1e-12)
        assert var == pytest.approx(3.2399, abs=2e-4)

    def test_variance_mean_ratio_time_independent(self):
        p = PhysicalParams(gamma=1e-4, beta=1.3, lambda0=0.01)
        expected = 2.0 * (bath_occupation(1.3) + 0.5)
        times = np.array([10.0, 80.0, 250.0])
        for t in times:
            mean, var = unitary_projective_moments(t, p)
            assert var / mean == pytest.approx(expected, rel=1e-12)
        means, variances = unitary_projective_moments(times, p)
        assert means.shape == variances.shape == times.shape
        np.testing.assert_allclose(variances / means, expected, rtol=1e-12)


class TestUnitaryT0:
    def test_vacuum_survival(self):
        t, lam = 120.0, 0.01
        assert unitary_column(0, t, lam)[0] == pytest.approx(
            math.exp(-mu(t, lam)), rel=1e-12
        )

    def test_t_zero_identity(self):
        table = unitary_table(0.0, 0.01, n_max=3)
        for m in range(4):
            for n in range(4):
                assert table[n, m, 0] == (1.0 if m == n else 0.0)

    def test_grid_shares_the_depth_of_its_largest_time(self):
        # one call over a grid sizes the final levels from its largest time;
        # every entry equals that of the time alone, whose table is shorter,
        # and t = 0 is the exact identity padded with zeros
        times, lam = np.array([0.0, 40.0, 120.0, 250.0]), 0.01
        table = unitary_table(times, lam, n_max=3)
        assert table.shape == (len(times),) + unitary_table(times[-1], lam, 3).shape
        for t, row in zip(times, table):
            alone = unitary_table(t, lam, 3)
            np.testing.assert_array_equal(row[:, : alone.shape[1]], alone)
            assert row[:, alone.shape[1] :].max(initial=0.0) < 1e-30
        np.testing.assert_array_equal(table[0, :, :4, 0], np.eye(4))
        assert not table[0, :, 4:].any()

    def test_vacuum_column_is_poisson(self):
        t, lam = 200.0, 0.01
        lam_mu = mu(t, lam)
        column = unitary_column(0, t, lam)
        for m in range(8):
            assert column[m] == pytest.approx(poisson.pmf(m, lam_mu), rel=1e-9)

    def test_column_normalization(self):
        t, lam = 150.0, 0.01
        assert unitary_column(2, t, lam).sum() == pytest.approx(1.0, abs=1e-12)


class TestWnk:
    """w_nk = sum_m sum_{guardians} p_i(l_i|n) p_f(l_f|m) T0(m,t|n) [...]^k,
    read per initial level from the unitary table."""

    def test_zero_temperature_mean(self):
        p = PhysicalParams(gamma=1e-6, beta=50.0, lambda0=0.01)
        r = make_rates(p)
        for t in (0.3 * p.drive_time, p.drive_time):
            expected = 1.0 - math.exp(-mu(t, p.lambda0))
            assert w_nk(0, 1, t, p, r) == pytest.approx(expected, abs=1e-9)

    def test_t0_reduces_to_guardian_algebra(self):
        p = PhysicalParams(gamma=1.0, beta=2.0, lambda0=0.01)
        r = make_rates(p)
        x = math.exp(-2.0)
        assert w_nk(0, 1, 0.0, p, r) == 0.0
        assert w_nk(0, 2, 0.0, p, r) == 0.0
        assert w_nk(1, 2, 0.0, p, r) == pytest.approx(4 * x / (1 + 2 * x) ** 2, rel=1e-12)

    def test_high_temperature_limits(self):
        # p_i ~ p_f ~ 1/2 at high occupation: first moment -> 0, second -> 1/2
        p = PhysicalParams(gamma=0.3, beta=1e-3, lambda0=0.01, drive_time=200.0)
        r = make_rates(p)
        t = 200.0  # mu = 1
        assert abs(w_nk(50, 1, t, p, r)) <= 2e-3
        assert w_nk(50, 2, t, p, r) == pytest.approx(0.5, abs=2e-3)

    def test_explicit_m_max_converges(self):
        # the final-level range sized from mu(t) (m <= 40 here) gives the
        # converged sum that an explicit cut at m = 30 already reaches
        p = PhysicalParams(gamma=1e-4, beta=2.0, lambda0=0.01)
        r = make_rates(p)
        t = 0.7 * p.drive_time
        full = work_moments(unitary_table(t, p.lambda0, n_max=0), [1.0], r)
        capped = unitary_column(0, t, p.lambda0)[:31][None, :, None]
        assert work_moments(capped, [1.0], r) == pytest.approx(full, abs=1e-10)

    def test_invalid_arguments(self):
        p, r = fig4()
        with pytest.raises(ValueError):
            unitary_table(1.0, p.lambda0, n_max=-1)
        for k in (0, 3):
            with pytest.raises(ValueError):
                unitary_calorimetric_moment(k, 1.0, p, r)


class TestUnitaryCalorimetricMoment:
    def test_zero_temperature_block(self):
        p = PhysicalParams(gamma=1e-6, beta=50.0, lambda0=0.01)
        r = make_rates(p)
        t = p.drive_time  # mu = pi^2/4
        m1, m2 = unitary_wc(t, p, r)
        assert m1 == pytest.approx(1.0 - math.exp(-PI2_4), rel=1e-9)
        assert m1 == pytest.approx(0.9152, abs=1e-4)
        var = m2 - m1 * m1
        assert var == pytest.approx(math.exp(-2 * PI2_4) * (math.exp(PI2_4) - 1), rel=1e-7)
        assert var == pytest.approx(0.0776, abs=1e-4)

    def test_zero_temperature_closed_forms_to_1e6(self):
        p = PhysicalParams(gamma=1e-6, beta=20.0, lambda0=0.01)
        r = make_rates(p)
        for frac in (0.1, 0.5, 1.0):
            t = frac * p.drive_time
            mu_t = mu(t, p.lambda0)
            m1, m2 = unitary_wc(t, p, r)
            assert abs(m1 - (1 - math.exp(-mu_t))) < 1e-6
            assert abs((m2 - m1 * m1) - math.exp(-2 * mu_t) * (math.exp(mu_t) - 1)) < 1e-6

    def test_exact_zero_mean_at_t0_any_temperature(self):
        # the two-level inference is unbiased without driving
        for beta in (0.1, 0.7, 3.0):
            p = PhysicalParams(gamma=0.05, beta=beta, lambda0=0.01)
            r = make_rates(p)
            assert abs(unitary_wc(0.0, p, r, n_max=60)[0]) < 1e-14

    def test_long_drive_asymptotics_zero_temperature(self):
        # mean -> 1 and variance -> 0 as mu grows
        p = PhysicalParams(gamma=1e-6, beta=50.0, lambda0=0.01, drive_time=2000.0)
        r = make_rates(p)
        t = 2.0 * math.sqrt(20.0) / p.lambda0  # mu = 20
        m1, m2 = unitary_wc(t, p, r)
        assert m1 == pytest.approx(1.0, abs=1e-8)
        assert m2 - m1 * m1 == pytest.approx(0.0, abs=1e-8)


def nested_loop_matrix(t, p, r, dim, nodes):
    """The expansion integrals summed node by node with the generator
    D(s) = n + gamma1/gamma_sigma + mu(s) + (lambda0 s/sqrt2) X built at
    every node of ``nodes``-point nested Gauss-Legendre rules, as a
    reference for the scalar weight sums."""
    nmat = np.diag(np.arange(dim, dtype=float))
    xmat = np.asarray(quadratures(dim)[0]).real

    def gen(s):
        return nmat + (r.gamma1 / r.gamma_sigma + mu(s, p.lambda0)) * np.eye(dim) + (
            p.lambda0 * s / np.sqrt(2)
        ) * xmat

    t1s, w1s = gauss_legendre(nodes, 0.0, t)
    s1 = sum(w * gen(s) for s, w in zip(t1s, w1s))
    s2 = np.zeros((dim, dim))
    for s_outer, w_outer in zip(t1s, w1s):
        t2s, w2s = gauss_legendre(nodes, 0.0, s_outer)
        s2 += w_outer * (gen(s_outer) @ sum(w * gen(s) for s, w in zip(t2s, w2s)))
    core = np.eye(dim) - (r.gamma_sigma / 2.0) * s1 + (r.gamma_sigma**2 / 4.0) * s2
    return np.asarray(displacement_matrix(p.lambda0 * t / 2.0, dim)) @ core


class TestPerturbativeU:
    def test_collapses_to_displacement_without_coupling(self):
        p = PhysicalParams(gamma=0.0, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        t = 0.4 * p.drive_time
        u = perturbative_matrix(t, p, r, dim=12)
        disp = displacement_matrix(p.lambda0 * t / 2.0, 12)
        np.testing.assert_allclose(u, disp, atol=1e-14)
        assert transmission_TN(3, 1, (), (), t, p, r) == pytest.approx(
            abs(disp[3, 1]) ** 2, rel=1e-12
        )

    def test_matches_nested_loop_reference(self):
        p = PhysicalParams(gamma=0.01, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        t, dim = 0.3 * p.drive_time, 12
        np.testing.assert_allclose(
            perturbative_matrix(t, p, r, dim=dim),
            nested_loop_matrix(t, p, r, dim, 64),
            rtol=0,
            atol=1e-13,
        )

    @pytest.mark.parametrize("preset", ["fig4", "fig5a", "fig5c"])
    def test_three_node_rule_is_exact(self, preset):
        # the expansion integrands are polynomials of degree <= 5, so the
        # fixed 3-node rule agrees with 32 and 64 nested nodes to rounding,
        # in and far out of the expansion's regime
        p = parse_config(f"preset={preset}", {}).params
        r = make_rates(p)
        times = np.array([0.0, p.drive_time / 20, p.drive_time / 2, p.drive_time])
        stacked = perturbative_matrix(times, p, r, dim=12)
        assert stacked.shape == (len(times), 12, 12)
        # one call over the times gives each time the bits of its own call,
        # and t = 0 the exact displacement block
        np.testing.assert_array_equal(stacked[0], displacement_matrix(0.0, 12))
        for t, got in zip(times, stacked):
            np.testing.assert_array_equal(got, perturbative_matrix(t, p, r, dim=12))
            if t == 0.0:
                continue
            for nodes in (32, 64):
                want = nested_loop_matrix(t, p, r, 12, nodes)
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-13 * np.abs(want).max(),
                    err_msg=f"t={t} nodes={nodes}",
                )

    def test_identity_at_t_zero(self):
        p, r = fig4()
        u = perturbative_matrix(0.0, p, r, dim=8)
        np.testing.assert_allclose(u, np.eye(8), atol=1e-14)

    def test_against_full_propagator(self):
        # transfer probabilities from the lowest starting levels match the
        # full matrix exponential to better than 1e-3 relative
        p, r = fig4()
        t = 0.2 * p.drive_time
        dim = 40
        k = nh_generator(PhysicalParams(gamma=p.gamma, beta=p.beta, lambda0=p.lambda0, dim=dim), r)
        exact = matrix_exponential(-1j * t * np.asarray(k))
        u = perturbative_matrix(t, p, r, dim=dim)
        t0_exact = np.abs(exact) ** 2
        t0_pert = np.abs(u) ** 2
        for n in (0, 1):
            mask = t0_exact[:11, n] > 1e-6
            rel = np.abs(t0_pert[:11, n] - t0_exact[:11, n]) / t0_exact[:11, n]
            assert rel[mask].max() < 1e-3

    def test_validity_warning(self):
        p = PhysicalParams(gamma=0.05, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        with pytest.warns(RegimeWarning):
            perturbative_matrix(100.0, p, r, dim=6)


class TestCommutationIdentity:
    def test_jump_operator_through_propagator(self):
        # U_nh(-s) a U_nh(s) = a0(s) a + (lambda0/gamma_sigma)(1 - a0(s)):
        # fixes the sign of the constant term in the one-jump amplitude
        p = PhysicalParams(gamma=8e-4, beta=2.0, lambda0=0.01, dim=40)
        r = make_rates(p)
        k = np.asarray(nh_generator(p, r))
        s = 25.0
        u = matrix_exponential(-1j * s * k)
        uinv = matrix_exponential(1j * s * k)
        lowering, raising = ladder_operators(40)
        a0 = math.exp(-r.gamma_sigma * s / 2.0)
        const = p.lambda0 / r.gamma_sigma * (1.0 - a0)
        lhs = uinv @ lowering @ u
        rhs = a0 * np.asarray(lowering) + const * np.eye(40)
        sub = np.s_[:20, :20]
        assert np.abs(lhs[sub] - rhs[sub]).max() < 1e-10
        a1 = math.exp(r.gamma_sigma * s / 2.0)
        const1 = p.lambda0 / r.gamma_sigma * (a1 - 1.0)
        lhs1 = uinv @ raising @ u
        rhs1 = a1 * np.asarray(raising) + const1 * np.eye(40)
        assert np.abs(lhs1[sub] - rhs1[sub]).max() < 1e-10


class TestTransmissionT0:
    def test_matches_unitary_without_coupling(self):
        p = PhysicalParams(gamma=0.0, beta=2.0, lambda0=0.01)
        r = make_rates(p)
        t = 0.6 * p.drive_time
        for m, n in [(0, 0), (3, 0), (2, 1)]:
            assert transmission_TN(m, n, (), (), t, p, r) == pytest.approx(
                unitary_column(n, t, p.lambda0)[m], rel=1e-12
            )

    def test_diagonal_decay_without_drive(self):
        # matches exp(-(gamma_sigma n + gamma1) t) to expansion order
        p = PhysicalParams(gamma=0.01, beta=1.0, lambda0=0.0, drive_time=40.0)
        r = make_rates(p)
        t = 8.0
        for n in (0, 1, 2):
            s = (r.gamma_sigma * n + r.gamma1) * t / 2.0
            exact = math.exp(-2 * s)
            got = transmission_TN(n, n, (), (), t, p, r)
            assert abs(got - exact) <= 2.2 * s**3 / 6.0 + 1e-12

    def test_subnormalized(self):
        p, r = fig4()
        for frac in (0.2, 0.5):
            t = frac * p.drive_time
            u = perturbative_matrix(t, p, r, dim=30)
            for n in (0, 1):
                total = float(np.sum(np.abs(u[:, n]) ** 2))
                assert total <= 1.0 + 1e-9


class TestTransmissionT1:
    def test_early_jump_limit(self):
        # t1 -> 0: a = 1, b = 0, so T1 = gamma_i (n + d_i1) |u(m,t|n+-1)|^2
        p, r = fig4()
        t = 0.2 * p.drive_time
        n = 1
        u = perturbative_matrix(t, p, r, dim=10)
        for i1, shift, fac in ((0, -1, 1.0), (1, +1, 2.0)):
            rate = r.gamma0 if i1 == 0 else r.gamma1
            for m in range(5):
                got = transmission_TN(m, n, (i1,), (0.0,), t, p, r)
                expected = rate * fac * abs(u[m, n + shift]) ** 2
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-18)

    def test_absorption_vanishes_at_zero_temperature(self):
        p = PhysicalParams(gamma=1e-4, beta=800.0, lambda0=0.01)
        r = make_rates(p)
        t = 0.3 * p.drive_time
        assert transmission_TN(2, 0, (1,), (0.1 * t,), t, p, r) == 0.0

    def test_time_integrated_decay_without_drive(self):
        # lambda0 = 0, start |1>, emission: integral over t1 gives 1 - exp(-gamma0 t)
        p = PhysicalParams(gamma=0.02, beta=800.0, lambda0=0.0, drive_time=60.0)
        r = make_rates(p)
        t = 45.0
        nodes, weights = gauss_legendre(64, 0.0, t)
        total = sum(
            w * transmission_TN(0, 1, (0,), (t1,), t, p, r) for t1, w in zip(nodes, weights)
        )
        assert total == pytest.approx(1.0 - math.exp(-r.gamma0 * t), abs=1e-10)

    def test_against_full_propagator(self):
        # one-jump density vs exact expm(U) C expm(U) composition
        p = PhysicalParams(gamma=8e-4, beta=2.0, lambda0=0.01, dim=40)
        r = make_rates(p)
        t = 0.2 * p.drive_time
        t1 = 0.4 * t
        k = np.asarray(nh_generator(p, r))
        lowering, raising = ladder_operators(40)
        u_after = matrix_exponential(-1j * (t - t1) * k)
        u_before = matrix_exponential(-1j * t1 * k)
        for i1, c in ((0, np.sqrt(r.gamma0) * lowering), (1, np.sqrt(r.gamma1) * raising)):
            exact_amp = u_after @ np.asarray(c) @ u_before
            for n in (0, 1, 2):
                for m in range(6):
                    exact = abs(exact_amp[m, n]) ** 2
                    got = transmission_TN(m, n, (i1,), (t1,), t, p, r)
                    assert got == pytest.approx(exact, rel=2e-2, abs=1e-10)

    def test_no_coupling_gives_zero_without_warning(self):
        # gamma = 0: every jump rate vanishes, so any jump density is 0.0
        p = PhysicalParams(gamma=0.0, beta=2.0, lambda0=0.01)
        r = make_rates(p)
        t = 0.5 * p.drive_time
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seq, times in (((0,), (0.3 * t,)), ((1,), (0.0,)), ((0, 1), (0.2 * t, 0.6 * t))):
                assert transmission_TN(1, 1, seq, times, t, p, r) == 0.0

    def test_invalid_jump_time(self):
        p, r = fig4()
        with pytest.raises(ValueError):
            transmission_TN(0, 0, (0,), (5.0,), 1.0, p, r)


class TestTransmissionTN:
    def test_reduces_to_t0_and_t1(self):
        # no jumps: |u(m,t|n)|^2; one emission at t1: the closed formula
        # gamma0 |b0(t1) u(m,t|n) + a0(t1) sqrt(n) u(m,t|n-1)|^2
        p, r = fig4()
        t = 0.15 * p.drive_time
        u = perturbative_matrix(t, p, r, dim=7)
        assert transmission_TN(2, 0, (), (), t, p, r) == pytest.approx(
            abs(u[2, 0]) ** 2, rel=1e-12
        )
        t1 = 0.3 * t
        a0 = math.exp(-r.gamma_sigma * t1 / 2.0)
        b0 = p.lambda0 * (1.0 - a0) / r.gamma_sigma
        got = transmission_TN(2, 1, (0,), (t1,), t, p, r)
        assert got == pytest.approx(
            r.gamma0 * abs(b0 * u[2, 1] + a0 * u[2, 0]) ** 2, rel=1e-12
        )

    def test_two_jumps_against_full_propagator(self):
        p = PhysicalParams(gamma=8e-4, beta=2.0, lambda0=0.01, dim=40)
        r = make_rates(p)
        t = 0.2 * p.drive_time
        t1, t2 = 0.3 * t, 0.7 * t
        k = np.asarray(nh_generator(p, r))
        lowering, raising = ladder_operators(40)
        cs = {0: np.sqrt(r.gamma0) * np.asarray(lowering), 1: np.sqrt(r.gamma1) * np.asarray(raising)}
        for seq in ((0, 0), (0, 1), (1, 0), (1, 1)):
            exact_amp = (
                matrix_exponential(-1j * (t - t2) * k)
                @ cs[seq[1]]
                @ matrix_exponential(-1j * (t2 - t1) * k)
                @ cs[seq[0]]
                @ matrix_exponential(-1j * t1 * k)
            )
            for n in (0, 1):
                for m in range(5):
                    exact = abs(exact_amp[m, n]) ** 2
                    got = transmission_TN(m, n, seq, (t1, t2), t, p, r)
                    assert got == pytest.approx(exact, rel=3e-2, abs=1e-12)

    def test_probability_bookkeeping(self):
        # total probability of 0, <=1 and <=2 jump histories approaches one
        # from below, with the deficit shrinking at each order; each order
        # fills only the heat slices its jumps can reach
        p, r = fig4()
        t = 0.35 * p.drive_time
        n = 1
        tables = [
            transfer_table(t, p, r, TruncationPolicy(n_max=1, m_max=24, jumps_max=j), nodes=48)[n]
            for j in (0, 1, 2)
        ]
        # columns are Q = -2..2
        assert not tables[0][:, [0, 1, 3, 4]].any()
        assert not tables[1][:, [0, 4]].any()
        np.testing.assert_array_equal(tables[1][:, 2], tables[0][:, 2])
        np.testing.assert_array_equal(tables[2][:, [1, 3]], tables[1][:, [1, 3]])
        p0, p01, p012 = (float(tab.sum()) for tab in tables)
        assert p0 <= 1.0 + 1e-9
        assert p01 <= 1.0 + 1e-6
        deficit1 = 1.0 - p0
        deficit2 = 1.0 - p01
        deficit3 = 1.0 - p012
        assert abs(deficit2) < abs(deficit1)
        assert abs(deficit3) < abs(deficit2)

    def test_internal_kernels_match_public_density(self):
        # the table's heat slices agree with the public per-time transfer
        # densities integrated on the same Gauss-Legendre rules
        p, r = fig4()
        t = 0.2 * p.drive_time
        n = 1
        policy = TruncationPolicy(n_max=1, m_max=19, jumps_max=1)
        table = transfer_table(t, p, r, policy, nodes=48)
        nodes, weights = gauss_legendre(48, 0.0, t)
        for i1, q in ((0, 1), (1, -1)):
            for m in (0, 2):
                direct = sum(
                    w * transmission_TN(m, n, (i1,), (t1,), t, p, r)
                    for t1, w in zip(nodes, weights)
                )
                assert table[n, m, q + 2] == pytest.approx(direct, rel=1e-6, abs=1e-15)
        # two emissions (Q = +2) on a nested 8-point rule
        table = transfer_table(t, p, r, TruncationPolicy(n_max=1, m_max=6), nodes=8)
        outer, w_outer = gauss_legendre(8, 0.0, t)
        for m in (0, 1):
            direct = 0.0
            for t2, w2 in zip(outer, w_outer):
                inner, w_inner = gauss_legendre(8, 0.0, t2)
                direct += w2 * sum(
                    w1 * transmission_TN(m, n, (0, 0), (t1, t2), t, p, r)
                    for t1, w1 in zip(inner, w_inner)
                )
            assert table[n, m, 4] == pytest.approx(direct, rel=1e-6, abs=1e-18)

    def test_validation(self):
        p, r = fig4()
        with pytest.raises(ValueError):
            transmission_TN(0, 0, (0, 1), (2.0, 1.0), 3.0, p, r)
        with pytest.raises(ValueError):
            transmission_TN(0, 0, (0,), (), 3.0, p, r)
        with pytest.raises(ValueError, match="jump index must be 0 or 1, got 2"):
            transmission_TN(0, 0, (2,), (1.0,), 3.0, p, r)
        with pytest.raises(ValueError, match="levels must be non-negative, got m=-1, n=0"):
            transmission_TN(-1, 0, (), (), 3.0, p, r)


def per_node_transfer_table(t, params, rates, policy, nodes):
    """The transfer table summed node by node: every jump sequence's vector
    C_iL ... C_i1 |n> (commuted jump factors a_i(s) A_i + b_i(s)) is built at
    each Gauss-Legendre node (pair), then its squared amplitude is weighted
    and summed. A reference for the Gram-weight reduction."""
    dim = policy.m_max + 7
    u = _pert_matrix_raw(t, params, rates, dim)[: policy.m_max + 1]
    gs, lam = rates.gamma_sigma, params.lambda0
    jumps_max = policy.jumps_max if gs > 0 else 0
    s2, w2 = gauss_legendre(nodes, 0.0, t)
    s1, w1 = gauss_legendre(nodes, 0.0, s2[:, None])
    rules = {0: ((), 1.0), 1: ((s2,), w2), 2: ((s1, s2[:, None]), w2[:, None] * w1)}
    root = np.sqrt(np.arange(1.0, dim))
    table = np.zeros((policy.n_max + 1, policy.m_max + 1, 5))
    for seq in ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)):
        if len(seq) > jumps_max:
            continue
        times, weights = rules[len(seq)]
        for n in range(policy.n_max + 1):
            vec = np.eye(dim)[n]
            rate = 1.0
            for i, s in zip(seq, times):
                if i == 0:  # emission: a
                    a = np.exp(-gs * s / 2.0)
                    b = lam * (1.0 - a) / gs
                    rate *= rates.gamma0
                    moved = np.zeros(vec.shape)
                    moved[..., :-1] = root * vec[..., 1:]
                else:  # absorption: a^+
                    a = np.exp(gs * s / 2.0)
                    b = lam * (a - 1.0) / gs
                    rate *= rates.gamma1
                    moved = np.zeros(vec.shape)
                    moved[..., 1:] = root * vec[..., :-1]
                vec = a[..., None] * moved + b[..., None] * vec
            amp = vec @ u.T
            density = rate * (amp.real**2 + amp.imag**2)
            heat = seq.count(0) - seq.count(1)
            table[n, :, heat + 2] += np.tensordot(weights, density, np.ndim(weights))
    return table


class TestTransferTableGramWeights:
    @pytest.mark.parametrize("preset", ["fig4", "fig5a", "fig5c"])
    def test_matches_per_node_reference(self, preset):
        # entrywise to 1e-13 relative, with an absolute floor of 1e-13 times
        # the largest entry: far out of regime (fig5a at T) single entries
        # sit 3e3 below the table's scale and carry its rounding
        p = parse_config(f"preset={preset}", {}).params
        r = make_rates(p)
        T = p.drive_time
        for t, n_max, jumps_max in itertools.product(
            (0.0, T / 20, T / 2, T), (0, 1, 3), (0, 1, 2)
        ):
            policy = TruncationPolicy(n_max=n_max, m_max=10, jumps_max=jumps_max)
            for nodes in (32, 64):
                got = transfer_table(t, p, r, policy, nodes)
                want = per_node_transfer_table(t, p, r, policy, nodes)
                np.testing.assert_array_equal(got == 0, want == 0)
                np.testing.assert_allclose(
                    got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max(),
                    err_msg=f"t={t} n_max={n_max} jumps_max={jumps_max} nodes={nodes}",
                )

    def test_node_doubling_check_still_raises(self, monkeypatch):
        # fig4 at T: 4 against 8 nodes moves a moment beyond 1e-8, 6 against
        # 12 does not (the same split as the per-node table)
        p, r = fig4()
        monkeypatch.setattr(analytics, "_JUMP_NODES", 4)
        with pytest.raises(SimulationError, match="not converged at 4 nodes"):
            perturbative_moments(p.drive_time, p, r)
        monkeypatch.setattr(analytics, "_JUMP_NODES", 6)
        assert np.isfinite(perturbative_moments(p.drive_time, p, r)).all()

    @pytest.mark.parametrize("preset", ["fig4", "fig5a", "fig5c"])
    def test_block_matches_per_node_reference(self, preset):
        # one block of several times, both node counts of the doubling check
        p = parse_config(f"preset={preset}", {}).params
        r = make_rates(p)
        times = p.drive_time * np.array([0.0, 0.05, 0.3, 0.5, 1.0])
        policy = TruncationPolicy(n_max=1, m_max=10, jumps_max=2)
        tables = transfer_table(times, p, r, policy, (32, 64))
        assert tables.shape == (2, len(times), 2, 11, 5)
        for (k, nodes), (b, t) in itertools.product(enumerate((32, 64)), enumerate(times)):
            want = per_node_transfer_table(t, p, r, policy, nodes)
            np.testing.assert_allclose(
                tables[k, b], want, rtol=1e-13, atol=1e-13 * np.abs(want).max(),
                err_msg=f"t={t} nodes={nodes}",
            )

    def test_node_doubling_check_raises_inside_a_block(self, monkeypatch, tmp_path):
        # T is the last of three times in one block: the block still fails
        p, r = fig4()
        monkeypatch.setattr(analytics, "_JUMP_NODES", 4)
        grid = (0.25 * p.drive_time, 0.5 * p.drive_time, p.drive_time)
        with pytest.raises(SimulationError, match="not converged at 4 nodes"):
            analytics.write_analytic_csv(tmp_path / "ana.csv", grid, p, r)
        assert not (tmp_path / "ana.csv").exists()

    def test_no_coupling_fills_only_zero_heat(self):
        p = PhysicalParams(gamma=0.0, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        policy = TruncationPolicy(n_max=3, m_max=10, jumps_max=2)
        for t in (0.0, 0.5 * p.drive_time, p.drive_time):
            got = transfer_table(t, p, r, policy)
            np.testing.assert_allclose(
                got, per_node_transfer_table(t, p, r, policy, 32), rtol=1e-13, atol=0
            )
            assert not got[:, :, [0, 1, 3, 4]].any()
            assert got[:, :, 2].any()


@pytest.mark.parametrize("preset", ["fig4", "fig5a", "fig5c"])
def test_rows_do_not_depend_on_the_block(preset):
    # each perturbative row is bitwise the same computed alone, in a grid
    # shorter than one block, and in a grid that crosses a block boundary
    p = parse_config(f"preset={preset}", {}).params
    r = make_rates(p)
    long_grid = np.linspace(0.0, p.drive_time, analytics._BLOCK + 5)
    short_grid = long_grid[analytics._BLOCK - 2 : analytics._BLOCK + 1]
    crossing = perturbative_moments(long_grid, p, r)
    short = perturbative_moments(short_grid, p, r)
    assert crossing.shape == (len(long_grid), 4) and short.shape == (len(short_grid), 4)
    rows = dict(zip(short_grid.tolist(), short))
    for t, row in zip(long_grid.tolist(), crossing):
        alone = perturbative_moments(t, p, r)
        assert alone.shape == (4,)
        np.testing.assert_array_equal(row, alone, err_msg=f"t={t}")
        if t in rows:
            np.testing.assert_array_equal(rows[t], alone, err_msg=f"t={t}")


def test_negative_time_is_rejected():
    p, r = fig4()
    with pytest.raises(ValueError, match="time must be non-negative, got -1.0"):
        perturbative_moments(-1.0, p, r)
    with pytest.raises(ValueError, match="time must be non-negative, got -1.0"):
        transfer_table(-1.0, p, r)


@pytest.mark.parametrize("kernel", [transfer_table, perturbative_moments])
def test_one_regime_warning_per_call_over_blocks(kernel):
    # a 40-point fig5c grid spans three blocks and leaves the second-order
    # regime in its first block: one warning per call, not one per block
    p = parse_config("preset=fig5c", {}).params
    r = make_rates(p)
    grid = np.linspace(0.0, p.drive_time, 40)
    assert math.ceil(grid.size / analytics._BLOCK) == 3
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kernel(grid, p, r)
        assert [w.category for w in caught] == [RegimeWarning]


@pytest.mark.parametrize("preset", ["fig4", "fig5c"])
def test_transfer_table_grid_matches_one_time_calls(preset):
    # a grid that crosses a block boundary, at one node count and at two
    p = parse_config(f"preset={preset}", {}).params
    r = make_rates(p)
    grid = np.linspace(0.0, p.drive_time, analytics._BLOCK + 3)
    single, pair = transfer_table(grid, p, r), transfer_table(grid, p, r, nodes=(32, 64))
    assert single.shape == (grid.size, 2, 11, 5) and pair.shape == (2,) + single.shape
    for b, t in enumerate(grid):
        alone = transfer_table(t, p, r)
        assert alone.shape == (2, 11, 5)
        np.testing.assert_array_equal(single[b], alone, err_msg=f"t={t}")
        np.testing.assert_array_equal(pair[0, b], alone, err_msg=f"t={t}")
        np.testing.assert_array_equal(pair[1, b], transfer_table(t, p, r, nodes=64))


def test_regime_warning_names_the_caller(tmp_path):
    # one warning per call, attributed to the first frame outside the
    # package (this file), not to a line of the library
    p = parse_config("preset=fig5c", {}).params
    r = make_rates(p)
    with pytest.warns(RegimeWarning) as record:
        analytics.write_analytic_csv(tmp_path / "ana.csv", (0.0, 10.0, 20.0), p, r)
        perturbative_moments(20.0, p, r)
    assert [w.filename for w in record] == [__file__, __file__]


def test_precision_loss_warning_names_the_caller(tmp_path):
    # a drive of 2000 reaches mu = 100, so the unitary table runs past the
    # Laguerre precision limit: one warning for the whole grid, attributed
    # to the first frame outside the package (this file)
    p = PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, drive_time=2000.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        analytics.write_analytic_csv(tmp_path / "ana.csv", np.linspace(0.0, 2000.0, 5), p,
                                     make_rates(p))
    caught = [w for w in caught if w.category is PrecisionLossWarning]
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("points", [11, 101])
def test_analytic_csv_builds_displacements_once_per_block(points, tmp_path, monkeypatch):
    # the unitary table takes one displacement call for the whole grid and
    # the no-jump amplitudes one per block of perturbative times
    calls = []

    def spy(*args):
        calls.append(args)
        return displacement_elements(*args)

    monkeypatch.setattr(analytics, "displacement_elements", spy)
    monkeypatch.setattr(fock, "displacement_elements", spy)
    p = parse_config("preset=fig5a", {}).params
    grid = np.linspace(0.0, p.drive_time, points)
    analytics.write_analytic_csv(tmp_path / "ana.csv", grid, p, make_rates(p))
    assert len(calls) == 1 + math.ceil(points / analytics._BLOCK)


class TestTruncatedMoments:
    def test_no_jump_no_coupling_matches_unitary(self):
        p = PhysicalParams(gamma=0.0, beta=2.0, lambda0=0.01)
        r = make_rates(p)
        policy = TruncationPolicy(n_max=1, m_max=30, jumps_max=0)
        for frac in (0.2, 0.8):
            t = frac * p.drive_time
            trunc = perturbative_moments(t, p, r, policy)[2:]
            np.testing.assert_allclose(trunc, unitary_wc(t, p, r), rtol=0, atol=1e-8)

    def test_zero_temperature_identities(self):
        # coupling small enough that the genuine one-jump correction
        # (~gamma T scale) stays below the closed-form tolerance
        p = PhysicalParams(gamma=1e-8, beta=20.0, lambda0=0.01)
        r = make_rates(p)
        policy = TruncationPolicy(n_max=1, m_max=30, jumps_max=2)
        t = 0.5 * p.drive_time
        mu_t = mu(t, p.lambda0)
        _, _, m1, m2 = perturbative_moments(t, p, r, policy)
        assert abs(m1 - (1 - math.exp(-mu_t))) < 1e-6
        assert abs((m2 - m1 * m1) - math.exp(-2 * mu_t) * (math.exp(mu_t) - 1)) < 1e-6

    def test_short_time_agreement_with_projective(self):
        # |calorimetric mean - projective mean| vanishes faster than mu(t)
        # in the low-temperature regime; at finite temperature the two-level
        # inference biases the mean already at first order in mu.
        p = PhysicalParams(gamma=1e-4, beta=20.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        policy = TruncationPolicy()
        ratios = []
        for t in (0.08 * p.drive_time, 0.04 * p.drive_time, 0.02 * p.drive_time):
            wp, _, wc, _ = perturbative_moments(t, p, r, policy)
            ratios.append(abs(wc - wp) / mu(t, p.lambda0))
        assert ratios[1] < ratios[0] and ratios[2] < ratios[1]
        assert ratios[2] < 0.01

    def test_perturbative_projective_tracks_unitary(self):
        # weak coupling: dissipative corrections stay small at early times
        p, r = fig4()
        t = 0.2 * p.drive_time
        wp = perturbative_moments(t, p, r)[0]
        assert wp == pytest.approx(mu(t, p.lambda0), rel=0.05)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(n_max=5, m_max=2)
        with pytest.raises(ValueError):
            TruncationPolicy(jumps_max=-1)
        with pytest.raises(ValueError, match="jumps_max"):
            TruncationPolicy(jumps_max=3)
        p, r = fig4()
        with pytest.raises(ValueError):
            truncated_projective_moment(3, 1.0, p, r)

    def test_per_moment_readers_match_kernels(self):
        # the single-moment readers return entries of the kernels' output
        p, r = fig4()
        policy = TruncationPolicy(n_max=2, m_max=10, jumps_max=2)
        t = 0.3 * p.drive_time
        pert = perturbative_moments(t, p, r, policy)
        for k in (1, 2):
            assert truncated_projective_moment(k, t, p, r, policy) == pert[k - 1]
            assert truncated_calorimetric_moment(k, t, p, r, policy) == pert[k + 1]
            assert unitary_calorimetric_moment(k, t, p, r, n_max=2) == unitary_wc(t, p, r, 2)[k - 1]


# `qho-cal analytic --preset fig5a --grid 11` as written by the per-moment
# sums the transfer table replaced, frozen to pin both row types. Columns:
# t, mean_Wp, var_Wp, mean_Wc, var_Wc. The unitary sums there stopped at the
# first displacement tail term below 1e-10, which moves the calorimetric
# columns by up to 1.1e-11 relative. Past gamma_sigma*t = 1 the perturbative
# rows leave their regime; they are pinned anyway, as numbers.
FIG5A_UNITARY = [
    (0, 0, 0, 0, 0.0399661200563),
    (31.4159265359, 0.0246740110027, 0.0323978470814, 0.0149017417997, 0.0578001907027),
    (62.8318530718, 0.0986960440109, 0.129591388325, 0.0578835697872, 0.106213201928),
    (94.2477796077, 0.222066099025, 0.291580623732, 0.124099257135, 0.171944467744),
    (125.663706144, 0.394784176044, 0.518365553302, 0.206470265335, 0.238566019622),
    (157.079632679, 0.616850275068, 0.809946177034, 0.296923102909, 0.292060974379),
    (188.495559215, 0.888264396098, 1.16632249493, 0.38768085895, 0.324574557658),
    (219.911485751, 1.20902653913, 1.58749450699, 0.47232819876, 0.335201940987),
    (251.327412287, 1.57913670417, 2.07346221321, 0.546457275975, 0.328255854142),
    (282.743338823, 1.99859489122, 2.62422561359, 0.607832754216, 0.310415558515),
    (314.159265359, 2.46740110027, 3.23978470814, 0.656142045591, 0.288164756419),
]
FIG5A_PERTURBATIVE = [
    (0, 0, 0, -3.30854571579e-18, 0.0399661200563),
    (31.4159265359, 0.023432012631, 0.0291843799113, 0.00656755650035, 0.0710107493233),
    (62.8318530718, 0.0935809456494, 0.117674111568, 0.036865122023, 0.147127826835),
    (94.2477796077, 0.329458482839, 0.448306647708, -0.0269561494187, 0.475839491466),
    (125.663706144, 3.09786407166, -1.77473778754, -1.70091642965, 0.990884457874),
    (157.079632679, 40.0063371865, -1469.53147234, -20.337874045, -374.618005377),
    (188.495559215, 422.246317633, -176617.000959, -176.501353568, -30823.5611135),
    (219.911485751, 3577.35100281, -12780849.0199, -1251.03962731, -1562794.4967),
    (251.327412287, 24993.3478063, -624536018.108, -7513.34952295, -56436746.6141),
    (282.743338823, 145583.030502, -21193574436.3, -38480.4984365, -1480679953.11),
    (314.159265359, 707122.484228, -500017783495, -166776.422755, -27814084689.9),
]


# `qho-cal analytic --preset fig5c --grid 11` as written by the per-node
# transfer table, frozen before the Gram-weight reduction to pin the
# perturbative rows at a second damping strength. At gamma = 0.1 they leave
# their regime after the first grid time; they are pinned anyway.
FIG5C_UNITARY = [
    (0, 0, 0, -3.46944695195e-18, 0.0399661200563),
    (31.4159265359, 0.0246740110027, 0.0323978470814, 0.0149017417997, 0.0578001907027),
    (62.8318530718, 0.0986960440109, 0.129591388325, 0.0578835697872, 0.106213201928),
    (94.2477796077, 0.222066099025, 0.291580623732, 0.124099257135, 0.171944467744),
    (125.663706144, 0.394784176044, 0.518365553302, 0.206470265335, 0.238566019622),
    (157.079632679, 0.616850275068, 0.809946177034, 0.296923102912, 0.29206097438),
    (188.495559215, 0.888264396098, 1.16632249493, 0.387680858951, 0.324574557658),
    (219.911485751, 1.20902653913, 1.58749450699, 0.472328198764, 0.335201940987),
    (251.327412287, 1.57913670417, 2.07346221321, 0.546457275976, 0.328255854142),
    (282.743338823, 1.99859489122, 2.62422561359, 0.607832754222, 0.310415558513),
    (314.159265359, 2.46740110027, 3.23978470814, 0.656142045593, 0.288164756419),
]
FIG5C_PERTURBATIVE = [
    (0, 0, 0, -3.46944695195e-18, 0.0399661200563),
    (31.4159265359, 1165.5298045, -1356910.17872, -11401.6107056, -129974773.424),
    (62.8318530718, 407119137.157, -1.65745991164e+17, -1149001943.37, -1.32020546367e+18),
    (94.2477796077, 2.16231921859e+13, -4.67562440308e+26, -3.0431005048e+13, -9.26046068231e+26),
    (125.663706144, 5.58431729901e+17, -3.1184599696e+35, -4.9247634019e+17, -2.42532945647e+35),
    (157.079632679, 9.84283826992e+21, -9.68814652078e+43, -6.14378625054e+21, -3.77461094924e+43),
    (188.495559215, 1.3636688265e+26, -1.85959266836e+52, -6.49110198443e+25, -4.21344049723e+51),
    (219.911485751, 1.58122194694e+30, -2.5002628455e+60, -6.04983372193e+29, -3.6600488063e+59),
    (251.327412287, 1.56526388255e+34, -2.45005102202e+68, -5.01711158056e+33, -2.51714086118e+67),
    (282.743338823, 1.31705322421e+38, -1.7346291954e+76, -3.65131277323e+37, -1.33320849679e+75),
    (314.159265359, 9.29271027316e+41, -8.63544642209e+83, -2.27644312843e+41, -5.18219331695e+82),
]


def read_analytic_rows(preset, grid, tmp_path):
    out = tmp_path / "ana.csv"
    run_analytic(parse_config(f"preset={preset}", {"grid": grid, "out": str(out)}))
    rows = {"unitary": [], "perturbative": []}
    for line in out.read_text().splitlines():
        if not line.startswith(("#", "t,")):
            *values, method = line.split(",")
            rows[method].append([float(v) for v in values])
    return rows


def assert_matches_golden(rows, goldens):
    for method, golden in goldens.items():
        got, want = np.array(rows[method]), np.array(golden)
        assert got.shape == want.shape
        small = np.abs(want) < 1e-12
        assert np.all(np.abs(got - want)[small] <= 1e-15), method
        np.testing.assert_allclose(got[~small], want[~small], rtol=1e-10, atol=0, err_msg=method)


def test_fig5a_analytic_csv_golden(tmp_path):
    assert_matches_golden(
        read_analytic_rows("fig5a", 11, tmp_path),
        {"unitary": FIG5A_UNITARY, "perturbative": FIG5A_PERTURBATIVE},
    )


def test_unitary_and_perturbative_rows_share_n_max(tmp_path):
    # both row types weight the initial levels n <= n_max, so they agree at
    # t = 0 for any policy; at n_max = 3 the t = 0 var_Wc is 0.04425
    out = tmp_path / "ana.csv"
    run_analytic(parse_config("preset=fig4\nn_max=3", {"grid": 3, "out": str(out)}))
    rows = {}
    for line in out.read_text().splitlines():
        if line.startswith("0,"):
            *values, method = line.split(",")
            rows[method] = np.array([float(v) for v in values])
    np.testing.assert_allclose(rows["unitary"], rows["perturbative"], rtol=1e-12, atol=1e-15)
    assert rows["unitary"][4] == pytest.approx(0.0442469760666, rel=1e-10)


def test_fig5c_analytic_csv_golden(tmp_path):
    assert_matches_golden(
        read_analytic_rows("fig5c", 11, tmp_path),
        {"unitary": FIG5C_UNITARY, "perturbative": FIG5C_PERTURBATIVE},
    )
