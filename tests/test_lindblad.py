import math

import numpy as np
import pytest
from scipy.stats import poisson

from qho_cal import lindblad
from qho_cal.errors import SimulationError
from qho_cal.fock import displacement_matrix, matrix_exponential, quadratures
from qho_cal.lindblad import integrate, thermal_state, write_populations_csv
from qho_cal.model import PhysicalParams, bath_occupation, jump_operators, make_rates

pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.RegimeWarning")


def fig4_params(dim=10):
    return PhysicalParams(gamma=0.001, beta=2.0, lambda0=0.01, dim=dim)


def broken_propagator(monkeypatch, delta):
    """Make every lindblad propagator add ``delta`` times the trace to the
    state it maps (row-major vec, as in integrate)."""
    expm = lindblad.matrix_exponential
    dim = delta.shape[0]
    add = np.outer(delta.ravel(), np.eye(dim).ravel())
    monkeypatch.setattr(lindblad, "matrix_exponential", lambda m: expm(m) + add)


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
    def test_thermal_occupation(self):
        # geometric series tail below 1e-6 for dim = 10 at beta = 2
        rho = thermal_state(2.0, 10)
        got = np.real(np.diag(rho)) @ np.arange(10)
        assert got == pytest.approx(bath_occupation(2.0), abs=1e-6)


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

    def test_uniform_grid_costs_one_expm(self, monkeypatch):
        # np.linspace spacings differ in the last bits (6 distinct lengths on
        # this grid); the propagator cache treats them as one length
        calls = []

        def counting(m):
            calls.append(m.shape)
            return matrix_exponential(m)

        monkeypatch.setattr(lindblad, "matrix_exponential", counting)
        p = PhysicalParams(gamma=0.01, beta=2.0, lambda0=0.01, dim=10)
        grid = np.linspace(0.0, p.drive_time, 101)
        assert len(set(np.diff(grid))) > 1
        integrate(thermal_state(p.beta, p.dim), p, make_rates(p), grid)
        assert len(calls) == 1

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
        # a trace 1e-7 high is beyond the monitor's 1e-8 at t = 0
        with pytest.raises(ValueError, match="trace drift 1.00e-07 at t = 0.0"):
            integrate(thermal_state(2.0, 10) + np.diag([1e-7] + [0.0] * 9), p, r, [0.0])

    def test_positivity_violation_is_an_error(self, monkeypatch):
        # hermitian with unit trace but a negative population: the input
        # check applies the monitor's rule, so the input fails as a ValueError
        p, r = fig4_params(), make_rates(fig4_params())
        delta = np.diag([0.2, -0.2] + [0.0] * (p.dim - 2))
        with pytest.raises(ValueError, match="positivity violation"):
            integrate(thermal_state(p.beta, p.dim) + delta, p, r, [1.0])
        # a propagator that adds the same traceless, hermitian delta times
        # the trace reaches the monitor after the interval
        broken_propagator(monkeypatch, delta)
        with pytest.raises(SimulationError, match="positivity violation .* at t = 1.0"):
            integrate(thermal_state(p.beta, p.dim), p, r, [1.0])

    @pytest.mark.parametrize("broken", ["jumps", "damping"])
    def test_generator_that_loses_trace_is_an_error(self, monkeypatch, broken):
        # the jump terms without the damping they cause, or the damping
        # without them: the trace drifts
        p = fig4_params()
        r = make_rates(p)
        if broken == "jumps":
            monkeypatch.setattr(lindblad, "jump_operators", lambda rates, dim: ())
        else:
            k = lindblad.nh_generator(p, r)
            monkeypatch.setattr(lindblad, "nh_generator", lambda params, rates: (k + k.conj().T) / 2)
        with pytest.raises(SimulationError, match="trace drift"):
            integrate(thermal_state(p.beta, p.dim), p, r, [0.3 * p.drive_time])

    def test_hermiticity_loss_is_an_error(self, monkeypatch):
        # a Liouvillian built from any K and C_i maps hermitian matrices to
        # hermitian ones, so no generator breaks hermiticity. A 1e-9 skew
        # is beyond the monitor's 1e-10: as input it fails as a ValueError,
        # and added by the propagator it reaches the monitor
        p, r = fig4_params(), make_rates(fig4_params())
        skew = np.zeros((p.dim, p.dim))
        skew[0, 1] = 1e-9
        with pytest.raises(ValueError, match="hermiticity loss"):
            integrate(thermal_state(p.beta, p.dim) + skew, p, r, [0.0])
        broken_propagator(monkeypatch, skew)
        with pytest.raises(SimulationError, match="hermiticity loss at t = 1.0"):
            integrate(thermal_state(p.beta, p.dim), p, r, [1.0])

    def test_rejects_bad_grid(self):
        p = fig4_params()
        r = make_rates(p)
        rho0 = thermal_state(p.beta, p.dim)
        with pytest.raises(ValueError):
            integrate(rho0, p, r, [2.0, 1.0])
        with pytest.raises(ValueError):
            integrate(rho0, p, r, [-1.0, 1.0])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                integrate(rho0, p, r, [0.0, bad])
            with pytest.raises(ValueError, match="finite"):
                integrate(rho0, p, r, [bad])
        with pytest.raises(ValueError, match="empty"):
            integrate(rho0, p, r, [])

    def test_csv_rejects_no_rows(self, tmp_path):
        path = tmp_path / "pops.csv"
        with pytest.raises(ValueError, match="no density matrices"):
            write_populations_csv(path, [], [])
        assert not path.exists()


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


@pytest.mark.parametrize("dim", [10, 3], ids=["fig4-dim10", "fig4-dim3"])
def test_truncation_convergence(dim):
    # mean occupations from thermal states at dim and 2 dim agree to 1e-3
    # relative at dim = 10; dim = 3 is far too small for mu(T) = pi^2/4
    p = fig4_params(dim)
    grid = np.linspace(0.0, p.drive_time, 5)[1:]
    occupations = []
    for q in (p, fig4_params(2 * dim)):
        rhos = integrate(thermal_state(q.beta, q.dim), q, make_rates(q), grid)
        occupations.append([np.real(np.diag(rho)) @ np.arange(q.dim) for rho in rhos])
    small, big = np.array(occupations)
    drift = np.max(np.abs(small - big) / big)
    if dim == 10:
        assert drift <= 1e-3, f"relative drift {drift}"
    else:
        assert drift > 1e-2
