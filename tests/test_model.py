import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qho_cal.errors import RegimeWarning
from qho_cal.fock import matrix_exponential

# several oracle checks deliberately use strong coupling
pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.RegimeWarning")
from qho_cal.model import (
    PhysicalParams,
    bath_occupation,
    jump_operators,
    make_rates,
    nh_generator,
    thermal_probabilities,
)


def params_for(gamma=1e-3, beta=2.0, lambda0=0.01, dim=10, drive_time=None):
    return PhysicalParams(
        gamma=gamma, beta=beta, lambda0=lambda0, dim=dim, drive_time=drive_time
    )


class TestBathOccupation:
    def test_ln2(self):
        assert bath_occupation(math.log(2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_temperature_limit(self):
        assert bath_occupation(800.0) == 0.0
        assert bath_occupation(50.0) < 2e-22

    def test_beta_two(self):
        # direct evaluation 1/(e^2 - 1)
        assert bath_occupation(2.0) == pytest.approx(1.0 / (math.e**2 - 1.0), rel=1e-14)
        assert bath_occupation(2.0) == pytest.approx(0.156518, abs=5e-7)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_invalid_temperature(self, beta):
        with pytest.raises(ValueError):
            bath_occupation(beta)
        with pytest.raises(ValueError, match="beta must be positive"):
            thermal_probabilities(beta, 3)


class TestPhysicalParams:
    def test_default_drive_time(self):
        p = params_for(lambda0=0.01)
        assert p.drive_time == pytest.approx(math.pi / 0.01)

    def test_zero_drive_needs_explicit_time(self):
        with pytest.raises(ValueError):
            PhysicalParams(gamma=0.1, beta=1.0, lambda0=0.0)
        p = PhysicalParams(gamma=0.1, beta=1.0, lambda0=0.0, drive_time=50.0)
        assert p.drive_time == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            params_for(beta=-2.0)
        with pytest.raises(ValueError):
            params_for(dim=1)
        with pytest.raises(ValueError):
            params_for(gamma=-1e-3)
        with pytest.raises(ValueError):
            PhysicalParams(gamma=0.0, beta=1.0, drive_time=-1.0)
        with pytest.raises(ValueError, match="lambda0 must be non-negative, got -0.01"):
            PhysicalParams(gamma=0.0, beta=1.0, lambda0=-0.01)

    def test_strong_drive_warns_but_runs(self):
        with pytest.warns(RegimeWarning):
            p = params_for(lambda0=0.5)
        assert p.lambda0 == 0.5

    def test_strong_coupling_warns_but_runs(self):
        with pytest.warns(RegimeWarning):
            params_for(gamma=0.2)

    def test_regime_warnings_name_the_callers_line(self):
        # both warnings name the line that built the parameters, not a line
        # of the package or of the dataclass-generated __init__
        for changes in ({"lambda0": 0.5}, {"gamma": 0.2}):
            with pytest.warns(RegimeWarning) as caught:
                PhysicalParams(beta=1.0, **{"gamma": 0.01, **changes})
            assert [w.filename for w in caught] == [__file__]

    def test_overdamped_fig5_regime_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params_for(gamma=0.1)  # strongest coupling used by the presets


class TestRates:
    def test_zero_temperature(self):
        r = make_rates(params_for(gamma=1.0, beta=600.0))
        assert r.gamma0 == pytest.approx(1.0)
        assert r.gamma1 == pytest.approx(0.0, abs=1e-200)

    def test_occupation_one(self):
        r = make_rates(params_for(gamma=1.0, beta=math.log(2.0)))
        assert r.gamma0 == pytest.approx(2.0, rel=1e-12)
        assert r.gamma1 == pytest.approx(1.0, rel=1e-12)
        assert r.gamma_sigma == pytest.approx(3.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.05, max_value=30.0))
    def test_detailed_balance(self, beta):
        r = make_rates(params_for(gamma=0.37, beta=beta))
        assert r.gamma1 / r.gamma0 == pytest.approx(math.exp(-beta), rel=1e-13)
        assert r.boltzmann_ratio == pytest.approx(math.exp(-beta), rel=1e-13)

    def test_ratio_survives_zero_coupling(self):
        r = make_rates(params_for(gamma=0.0, beta=2.0))
        assert r.gamma0 == 0.0 and r.gamma1 == 0.0
        assert r.boltzmann_ratio == pytest.approx(math.exp(-2.0), rel=1e-13)


class TestJumpOperators:
    def test_zero_temperature_absorption_vanishes(self):
        r = make_rates(params_for(gamma=1.0, beta=800.0))
        c0, c1 = jump_operators(r, 6)
        assert np.abs(c1).max() == 0.0

    def test_dim2_emission(self):
        r = make_rates(params_for(gamma=1.0, beta=600.0))
        c0, _ = jump_operators(r, 2)
        np.testing.assert_allclose(c0, [[0, 1], [0, 0]], atol=1e-12)

    def test_rate_diagonal(self):
        # C0+C0 + C1+C1 = diag(gamma0 n + gamma1 (n+1)): the per-level click
        # rate, except at the top level where raising leaves the truncation
        r = make_rates(params_for(gamma=0.8, beta=1.3))
        dim = 9
        c0, c1 = jump_operators(r, dim)
        total = c0.conj().T @ c0 + c1.conj().T @ c1
        ns = np.arange(dim)
        expected = np.diag(r.gamma0 * ns + r.gamma1 * (ns + 1))
        expected[-1, -1] = r.gamma0 * (dim - 1)
        np.testing.assert_allclose(total, expected, rtol=1e-12, atol=1e-14)


class TestNhGenerator:
    def test_pure_decay_is_diagonal(self):
        p = params_for(gamma=0.5, beta=600.0, lambda0=0.0, drive_time=10.0)
        r = make_rates(p)
        u = matrix_exponential(-2j * nh_generator(p, r))
        ns = np.arange(p.dim)
        np.testing.assert_allclose(
            u, np.diag(np.exp(-r.gamma0 * ns * 2.0 / 2.0)), atol=1e-12
        )

    def test_no_coupling_is_unitary(self):
        p = params_for(gamma=0.0)
        r = make_rates(p)
        u = matrix_exponential(-40j * nh_generator(p, r))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(p.dim), atol=1e-10)

    def test_free_hamiltonian_absent(self):
        # hermitian part of the generator is the drive alone (interaction picture)
        from qho_cal.fock import quadratures

        p = params_for(gamma=2e-3, beta=1.5)
        r = make_rates(p)
        k = nh_generator(p, r)
        herm = (k + k.conj().T) / 2
        _, pquad = quadratures(p.dim)
        np.testing.assert_allclose(herm, p.lambda0 / np.sqrt(2) * pquad, atol=1e-14)

    def test_no_jump_norm_decay_without_drive(self):
        # squared norm of |n> decays exactly as exp(-(gamma_sigma n + gamma1) t)
        # below the top level and as exp(-gamma0 (dim-1) t) at it, where the
        # truncated raising operator has no absorption channel
        p = params_for(gamma=0.3, beta=1.0, lambda0=0.0, drive_time=5.0)
        r = make_rates(p)
        t = 1.7
        u = matrix_exponential(-1j * t * nh_generator(p, r))
        for n in range(p.dim):
            state = np.zeros(p.dim, dtype=complex)
            state[n] = 1.0
            norm2 = np.linalg.norm(u @ state) ** 2
            if n == p.dim - 1:
                expected = math.exp(-r.gamma0 * n * t)
            else:
                expected = math.exp(-(r.gamma_sigma * n + r.gamma1) * t)
            assert norm2 == pytest.approx(expected, abs=1e-10)

    def test_norm_monotone_after_constant_shift(self):
        # exp(+gamma1 t) ||U_nh(t) psi||^2 never increases in t
        p = params_for(gamma=5e-3, beta=1.0)
        r = make_rates(p)
        k = nh_generator(p, r)
        rng = np.random.default_rng(42)
        ts = np.linspace(0.0, 80.0, 9)
        props = [matrix_exponential(-1j * t * k) for t in ts]
        for _ in range(100):
            psi = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
            psi /= np.linalg.norm(psi)
            vals = [
                math.exp(r.gamma1 * t) * np.linalg.norm(u @ psi) ** 2
                for t, u in zip(ts, props)
            ]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
