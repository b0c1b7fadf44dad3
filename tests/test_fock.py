import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from qho_cal import fock, lindblad
from qho_cal.cli import PRESETS, parse_config
from qho_cal.errors import PrecisionLossWarning
from qho_cal.fock import (
    displacement_elements,
    displacement_matrix,
    ladder_operators,
    matrix_exponential,
    quadratures,
)
from qho_cal.model import make_rates, nh_generator


def top_defect_identity(dim):
    """Identity with the truncation defect 1-dim in the corner."""
    eye = np.eye(dim, dtype=complex)
    eye[-1, -1] = 1 - dim
    return eye


class TestLadderOperators:
    def test_dim2_lowering(self):
        lowering, raising = ladder_operators(2)
        np.testing.assert_array_equal(lowering, [[0, 1], [0, 0]])
        np.testing.assert_array_equal(raising, [[0, 0], [1, 0]])

    def test_raising_is_adjoint(self):
        for dim in (2, 3, 10, 31):
            lowering, raising = ladder_operators(dim)
            np.testing.assert_array_equal(raising, lowering.conj().T)

    def test_number_operator_product(self):
        for dim in (2, 5, 10):
            lowering, raising = ladder_operators(dim)
            np.testing.assert_allclose(
                raising @ lowering, np.diag(np.arange(dim)), atol=1e-14
            )

    def test_truncated_commutator(self):
        # direct matrix product on the truncated basis
        for dim in (2, 4, 10, 16):
            lowering, raising = ladder_operators(dim)
            comm = lowering @ raising - raising @ lowering
            np.testing.assert_allclose(comm, top_defect_identity(dim), atol=1e-12)

    def test_band_structure(self):
        lowering, _ = ladder_operators(12)
        nonzero_per_row = (np.abs(lowering) > 0).sum(axis=1)
        assert nonzero_per_row[:-1].tolist() == [1] * 11
        assert nonzero_per_row[-1] == 0

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_invalid_dimension(self, dim):
        with pytest.raises(ValueError):
            ladder_operators(dim)
        with pytest.raises(ValueError, match="dim >= 2"):
            displacement_matrix(0.1, dim)

    def test_immutable(self):
        lowering, _ = ladder_operators(4)
        with pytest.raises(ValueError):
            lowering[0, 0] = 5.0


class TestQuadratures:
    def test_dim2_momentum(self):
        _, p = quadratures(2)
        expected = np.array([[0, -1j / np.sqrt(2)], [1j / np.sqrt(2), 0]])
        np.testing.assert_allclose(p, expected, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 10, 25])
    def test_hermitian(self, dim):
        x, p = quadratures(dim)
        assert np.abs(x - x.conj().T).max() <= 1e-14
        assert np.abs(p - p.conj().T).max() <= 1e-14

    def test_canonical_commutator_dim10(self):
        x, p = quadratures(10)
        np.testing.assert_allclose(
            x @ p - p @ x, 1j * top_defect_identity(10), atol=1e-13
        )


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_diagonal(self):
        d = np.diag([0.3, -1.2, 2.0 + 0.5j])
        np.testing.assert_allclose(
            matrix_exponential(d), np.diag(np.exp(np.diag(d))), rtol=1e-12
        )

    def test_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dim = rng.integers(2, 12)
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            anti = m - m.conj().T
            u = matrix_exponential(anti)
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(dim), atol=1e-10
            )

    def test_rejects_nonfinite(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            matrix_exponential(bad)
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[np.nan]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_scipy_on_model_generators(self, preset, monkeypatch):
        # the package's one expm against scipy's on what it is called with:
        # the trajectory guard's -i s K, s from T/100 to T, and the oracle's
        # Liouvillian s L at the interval spans of 5- to 101-point grids; the
        # longest spans exceed theta_13, so the scaling-and-squaring branch runs
        text = f"preset={preset}" + ("\nbeta=1" if "beta_choices" in PRESETS[preset] else "")
        p = parse_config(text).params
        r = make_rates(p)
        k = nh_generator(p, r)
        generators = [-1j * s * k for s in np.geomspace(p.drive_time / 100, p.drive_time, 9)]
        n_guard = len(generators)

        def recording(m):
            generators.append(m)
            return matrix_exponential(m)

        monkeypatch.setattr(lindblad, "matrix_exponential", recording)
        rho0 = lindblad.thermal_state(p.beta, p.dim)
        for n_points in (5, 11, 21, 101):
            lindblad.integrate(rho0, p, r, np.linspace(0.0, p.drive_time, n_points))
        assert len(generators) > n_guard
        for m in generators:
            gap = np.abs(matrix_exponential(m) - scipy.linalg.expm(m)).max()
            assert gap <= 1e-13, (m.shape, gap)
        assert max(np.linalg.norm(m, 1) for m in generators) > fock._THETA13


class TestDisplacementElement:
    def test_vacuum_overlap(self):
        for alpha in (0.3, 1.0 + 0.7j, -2.2):
            got = complex(displacement_elements(0, 0, alpha))
            assert got == pytest.approx(np.exp(-abs(alpha) ** 2 / 2), rel=1e-12)

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_zero_displacement_is_identity(self, m, n):
        assert complex(displacement_elements(m, n, 0.0)) == (1.0 if m == n else 0.0)

    def test_matches_matrix_exponential(self):
        # alpha chosen so |alpha|^2 = pi^2/4, the largest value the default
        # drive reaches; truncation at dim = 40 >= 2(|alpha|^2 + 5)
        dim = 40
        alpha = np.pi / 2
        lowering, raising = ladder_operators(dim)
        exact = matrix_exponential(alpha * (raising - lowering))
        closed = displacement_matrix(alpha, dim)
        sub = np.s_[: dim // 2, : dim // 2]
        assert np.abs(exact[sub] - closed[sub]).max() <= 1e-8

    def test_matches_matrix_exponential_complex_alpha(self):
        dim = 36
        alpha = 0.9 - 1.1j
        lowering, raising = ladder_operators(dim)
        gen = alpha * raising - np.conj(alpha) * lowering
        exact = matrix_exponential(gen)
        closed = displacement_matrix(alpha, dim)
        sub = np.s_[: dim // 2, : dim // 2]
        assert np.abs(exact[sub] - closed[sub]).max() <= 1e-8

    def test_unitary_columns_poisson(self):
        # populations from vacuum follow a Poisson law with mean |alpha|^2
        alpha = 1.3
        probs = np.abs(displacement_elements(np.arange(25), 0, alpha)) ** 2
        np.testing.assert_allclose(
            probs, poisson.pmf(np.arange(25), alpha**2), atol=1e-12
        )

    def test_amplitude_array_matches_each_amplitude(self):
        # one call over an array of amplitudes gives each amplitude the bits
        # of its own call, and the general formula is the exact identity at 0
        alphas = np.array([0.0, 0.3, 1.0 + 0.7j, -2.2, 0.9 - 1.1j])
        m, n = np.arange(12)[:, None], np.arange(12)
        stacked = displacement_elements(m, n, alphas[:, None, None])
        assert stacked.shape == (len(alphas), 12, 12)
        for alpha, got in zip(alphas, stacked):
            np.testing.assert_array_equal(got, displacement_elements(m, n, alpha))
        np.testing.assert_array_equal(stacked[0], np.eye(12))
        np.testing.assert_array_equal(displacement_matrix(alphas, 12), stacked)

    def test_adjoint_symmetry(self):
        alpha = 0.6 + 0.2j
        for m, n in [(3, 1), (0, 4), (5, 5), (2, 7)]:
            lhs = complex(displacement_elements(m, n, alpha))
            rhs = np.conj(complex(displacement_elements(n, m, -alpha)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_precision_warning_far_out(self):
        with pytest.warns(PrecisionLossWarning):
            displacement_elements(100, 80, 0.5)

    @pytest.mark.parametrize(
        "alpha, dim", [(0.0, 9), (1.3, 9), (0.9 - 1.1j, 9), (0.4 + 0.2j, 2)]
    )
    def test_matrix_matches_elements(self, alpha, dim):
        # the matrix and single elements read one closed-form kernel
        closed = displacement_matrix(alpha, dim)
        for m in range(dim):
            for n in range(dim):
                assert abs(closed[m, n] - complex(displacement_elements(m, n, alpha))) <= 1e-15

    def test_matrix_warns_once_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            displacement_matrix(0.5, 86)  # m + n <= 170
            assert not caught
            displacement_matrix(0.5, 90)  # m + n up to 178 on 20 entries
        assert [w.category for w in caught] == [PrecisionLossWarning]

    def test_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            displacement_elements(-1, 0, 0.1)

    def test_rejects_nonfinite_alpha(self):
        with pytest.raises(ValueError):
            displacement_elements(0, 0, np.inf)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9))
def test_antihermitian_property(dim):
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    anti = 0.5 * (m - m.conj().T)
    u = matrix_exponential(anti)
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10
