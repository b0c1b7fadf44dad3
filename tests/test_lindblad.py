import math

import numpy as np
import pytest
from scipy.stats import poisson

from qho_cal.fock import displacement_matrix, quadratures
from qho_cal.lindblad import (
    expectation,
    integrate,
    mean_occupation,
    thermal_state,
    truncation_convergence_check,
)
from qho_cal.model import PhysicalParams, bath_occupation, jump_operators, make_rates

pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.RegimeWarning")


def fig4_params(dim=10):
    return PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=dim)


class TestThermalState:
    def test_zero_temperature(self):
        rho = thermal_state(600.0, 5)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-200)

    def test_ln2_powers_of_two(self):
        rho = thermal_state(math.log(2.0), 40)
        diag = np.real(np.diag(rho))
        np.testing.assert_allclose(
            diag[:5], [2.0 ** -(n + 1) for n in range(5)], rtol=1e-9
        )

    def test_unit_trace(self):
        for beta in (0.1, 1.0, 7.0):
            assert np.trace(thermal_state(beta, 10)).real == pytest.approx(1.0, abs=1e-14)


class TestExpectation:
    def test_identity(self):
        rho = thermal_state(1.0, 8)
        assert expectation(rho, np.eye(8)) == pytest.approx(1.0, abs=1e-14)

    def test_thermal_occupation(self):
        # geometric series tail below 1e-6 for dim = 10 at beta = 2
        rho = thermal_state(2.0, 10)
        got = mean_occupation(rho)
        assert got == pytest.approx(bath_occupation(2.0), abs=1e-6)

    def test_fock_state_occupation(self):
        rho = np.zeros((6, 6), dtype=complex)
        rho[1, 1] = 1.0
        assert mean_occupation(rho) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(thermal_state(1.0, 4), np.eye(5))


class TestIntegrate:
    def test_thermal_is_stationary(self):
        p = PhysicalParams(gamma=0.01, beta=1.0, lambda0=0.0, drive_time=60.0, dim=10)
        r = make_rates(p)
        rho0 = thermal_state(p.beta, p.dim)
        rhos = integrate(rho0, p, r, [20.0, 60.0])
        for rho in rhos:
            assert np.abs(rho - rho0).max() < 1e-8

    def test_zero_temperature_decay(self):
        # closed form: population of |1> decays as exp(-gamma t)
        p = PhysicalParams(gamma=0.05, beta=600.0, lambda0=0.0, drive_time=80.0, dim=6)
        r = make_rates(p)
        rho0 = np.zeros((6, 6), dtype=complex)
        rho0[1, 1] = 1.0
        grid = [5.0, 20.0, 80.0]
        rhos = integrate(rho0, p, r, grid)
        for t, rho in zip(grid, rhos):
            assert rho[1, 1].real == pytest.approx(math.exp(-p.gamma * t), abs=1e-9)

    def test_unitary_drive_gives_coherent_poisson(self):
        # gamma = 0: populations from vacuum are Poisson with mean mu(t),
        # cross-checked against the closed-form displacement operator
        p = PhysicalParams(gamma=0.0, beta=600.0, lambda0=0.01, dim=24)
        r = make_rates(p)
        rho0 = np.zeros((24, 24), dtype=complex)
        rho0[0, 0] = 1.0
        t = 0.4 * p.drive_time
        rhos = integrate(rho0, p, r, [t])
        mu_t = (p.lambda0 * t / 2.0) ** 2
        pops = np.real(np.diag(rhos[0]))
        np.testing.assert_allclose(
            pops[:12], poisson.pmf(np.arange(12), mu_t), atol=1e-7
        )
        disp = displacement_matrix(p.lambda0 * t / 2.0, 24)
        np.testing.assert_allclose(pops[:12], np.abs(disp[:12, 0]) ** 2, atol=1e-7)

    @pytest.mark.parametrize(
        "gamma, grid_frac",
        [(0.001, [0.3]), (0.01, [0.025, 0.05])],
        ids=["fig4", "fig5a-short"],
    )
    def test_matches_rk4_reference(self, gamma, grid_frac):
        p = PhysicalParams(gamma=gamma, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        rho0 = thermal_state(p.beta, p.dim)
        grid = [f * p.drive_time for f in grid_frac]
        dt = 0.001 / max(r.gamma_sigma * p.dim, p.lambda0)
        for got, ref in zip(integrate(rho0, p, r, grid), rk4_reference(rho0, p, r, grid, dt)):
            assert np.abs(np.diag(got - ref)).max() < 1e-8

    def test_independent_of_grid_cuts(self):
        # exact propagation: one interval or sixteen give the same state
        p = PhysicalParams(gamma=0.01, beta=2.0, lambda0=0.01, dim=10)
        r = make_rates(p)
        rho0 = thermal_state(p.beta, p.dim)
        t = 0.7 * p.drive_time
        whole = integrate(rho0, p, r, [t])[0]
        cut = integrate(rho0, p, r, np.linspace(0.0, t, 17)[1:])[-1]
        assert np.abs(whole - cut).max() < 1e-12

    def test_trace_and_hermiticity_preserved(self):
        p = fig4_params()
        r = make_rates(p)
        rhos = integrate(thermal_state(p.beta, p.dim), p, r, [p.drive_time])
        rho = rhos[0]
        assert abs(np.trace(rho).real - 1.0) < 1e-8 * p.drive_time
        assert np.abs(rho - rho.conj().T).max() < 1e-10 * p.drive_time
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_rejects_bad_initial_state(self):
        p = fig4_params()
        r = make_rates(p)
        with pytest.raises(ValueError):
            integrate(np.eye(10, dtype=complex), p, r, [1.0])  # trace 10
        skew = thermal_state(2.0, 10).astype(complex)
        skew[0, 1] = 0.5  # not hermitian
        with pytest.raises(ValueError):
            integrate(skew, p, r, [1.0])

    def test_rejects_bad_grid(self):
        p = fig4_params()
        r = make_rates(p)
        rho0 = thermal_state(p.beta, p.dim)
        with pytest.raises(ValueError):
            integrate(rho0, p, r, [2.0, 1.0])


def rk4_reference(rho0, params, rates, grid, dt):
    """Classical RK4 on the master equation with a fixed step of at most dt:
    an independent time-stepping reference for the exact propagator."""
    _, p = quadratures(params.dim)
    h = params.lambda0 / np.sqrt(2) * p
    cs = jump_operators(rates, params.dim)
    cdc = [c.conj().T @ c for c in cs]

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for c, d in zip(cs, cdc):
            out += c @ rho @ c.conj().T - 0.5 * (d @ rho + rho @ d)
        return out

    out = []
    rho = rho0.astype(complex).copy()
    t_prev = 0.0
    for t_next in grid:
        n_steps = max(1, int(np.ceil((t_next - t_prev) / dt - 1e-12)))
        h_step = (t_next - t_prev) / n_steps
        for _ in range(n_steps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * h_step * k1)
            k3 = rhs(rho + 0.5 * h_step * k2)
            k4 = rhs(rho + h_step * k3)
            rho = rho + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(rho.copy())
        t_prev = t_next
    return out


def test_truncation_convergence_fig4():
    p = fig4_params()
    r = make_rates(p)
    grid = np.linspace(0.0, p.drive_time, 5)[1:]
    converged, worst = truncation_convergence_check(p, r, grid, rtol=1e-3)
    assert converged, f"relative drift {worst}"


def test_truncation_convergence_detects_small_dim():
    p = fig4_params(dim=3)  # far too small for mu(T) = pi^2/4
    r = make_rates(p)
    grid = [p.drive_time]
    converged, worst = truncation_convergence_check(p, r, grid, rtol=1e-3)
    assert not converged
    assert worst > 0.01
