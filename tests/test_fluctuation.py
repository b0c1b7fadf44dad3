"""The detailed fluctuation theorem of the projective work, sampled.

Claim under test: on the engine's own truncated model the moment generating
function of W_p obeys M_t(s) = M_t(-beta - s) at every time t, so

    P_t(W_p = w) = e^{beta w} P_t(W_p = -w),

a Crooks-type relation of the driven process with itself (Jarzynski,
<e^{-beta W_p}> = 1, is its case s = 0). Untruncated it follows from the
Skellam law of W_p, since (nbar + 1)/nbar = e^beta. That it survives the
truncation is plausibly because the emission and absorption operators obey
C1 = e^{-beta/2} C0^+ exactly on the truncated space, the rotating-frame
generator does not depend on time, and the parity (-1)^n maps the
time-reversed drive -P onto P.

The exact half: the real-tilt Liouvillian, the master equation with each
emission weighted by e^s and each absorption by e^-s, gives M_t(s) without
sampling; the tests hold the symmetry and M_t(-beta) = 1 to 1e-12 on fig4,
fig5c and fig3 at beta 1.

The sampled half checks the ensemble against the symmetry and needs no
exact distribution.

Given N = c(w) + c(-w) samples at +-w, the relation makes c(w) binomial
with N trials and success probability 1 / (1 + e^{-beta w}). One G-test
pools every checkpoint and every w >= 1 whose two expected counts are both
at least 5, one degree of freedom per pair. Family-wise level 1e-3 over the
two presets (Bonferroni): each p must exceed 5e-4. Seed 3, fixed before
measuring. fig3 is left out: its few jumps let a mutant that counts
absorptions as heat +1 pass (p = 0.035 at 50,000 trajectories).
"""

import numpy as np
import pytest
from scipy.stats import chi2

from qho_cal.cli import parse_config
from qho_cal.fock import matrix_exponential
from qho_cal.model import (
    jump_operators,
    make_rates,
    nh_generator,
    thermal_probabilities,
)
from qho_cal.trajectories import EnsembleConfig, iter_ensemble
from qho_cal.work import MomentSummary, measure_ensemble

pytestmark = pytest.mark.filterwarnings("ignore::qho_cal.errors.TruncationWarning")

_ALPHA = 1e-3 / 2
# the exact MGF relations hold to rounding: a bound fixed before measuring,
# 13x the largest deviation seen (7.4e-14)
_EXACT_TOL = 1e-12


def tilted_mgf(params, rates, t: float, s: float) -> complex:
    """M_t(s) = <e^{s W_p}> = sum_n p_n e^{-sn} sum_m e^{sm} <m|exp(L_s t)(|n><n|)|m>
    on the truncated model, with L_s the Liouvillian of lindblad.integrate
    (row-major vec) whose emission term is weighted by e^s and absorption
    term by e^-s, so each jump adds its heat to the exponent."""
    dim = params.dim
    k, eye = nh_generator(params, rates), np.eye(dim)
    c0, c1 = jump_operators(rates, dim)
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    generator = -1j * (np.kron(k, eye) - np.kron(eye, k.conj()))
    generator += np.exp(s) * np.kron(c0, c0.conj()) + np.exp(-s) * np.kron(c1, c1.conj())
    levels = np.arange(dim)
    rho = np.diag(thermal_probabilities(params.beta, dim) * np.exp(-s * levels))
    final = (matrix_exponential(t * generator) @ rho.ravel()).reshape(dim, dim)
    return np.exp(s * levels) @ np.diag(final)


@pytest.mark.parametrize("dim", [6, 10])
@pytest.mark.parametrize(
    "config", ["preset=fig4", "preset=fig5c", "preset=fig3\nbeta=1"],
    ids=["fig4", "fig5c", "fig3-beta1"],
)
def test_exact_projective_mgf_symmetry_and_jarzynski(config, dim):
    # M_t(s) = M_t(-beta - s) and its case s = 0, <e^{-beta W_p}> = 1: at
    # most 7.4e-14 and 3.7e-14 (fig5c, dim 10). With gamma1 raised by 1%,
    # off detailed balance, the symmetry at T and s = 0.6 misses by 4.7e-3
    # on fig4 and 5.7e-3 on fig5c, and Jarzynski by 2.3e-3 and 2.9e-3
    p = parse_config(f"{config}\ndim={dim}", {}).params
    r = make_rates(p)
    for t in (p.drive_time / 7, p.drive_time / 2, p.drive_time):
        jarzynski = tilted_mgf(p, r, t, -p.beta)
        assert abs(jarzynski - 1) <= _EXACT_TOL, f"t = {t}: <e^(-beta W_p)> = {jarzynski}"
        for s in (-0.3, 0.2, 0.6, 1.1):
            ratio = tilted_mgf(p, r, t, s) / tilted_mgf(p, r, t, -p.beta - s)
            assert abs(ratio - 1) <= _EXACT_TOL, f"t = {t}, s = {s}: ratio - 1 = {ratio - 1}"


def fluctuation_g_test(summary: MomentSummary, beta: float) -> tuple[float, int]:
    """G statistic and degrees of freedom of the conditional binomial test of
    P(w) = e^{beta w} P(-w), pooled over every checkpoint row of the count
    table and every w >= 1 whose expected counts are both at least 5."""
    g, dof = 0.0, 0
    for row in summary.histograms:
        for w in range(1, row.size):
            plus, minus = w - summary.lowest, -w - summary.lowest
            if minus < 0 or plus >= row.size:
                continue
            observed = np.array([row[plus], row[minus]], dtype=float)
            share = 1.0 / (1.0 + np.exp(-beta * w))
            expected = observed.sum() * np.array([share, 1.0 - share])
            if expected.min() < 5:
                continue
            seen = observed > 0
            g += 2.0 * (observed[seen] * np.log(observed[seen] / expected[seen])).sum()
            dof += 1
    return g, dof


@pytest.mark.parametrize("preset, n_traj", [("fig5c", 20_000), ("fig4", 100_000)])
def test_projective_work_fluctuation_symmetry(preset, n_traj):
    # correct engine: G = 4.4 on 8 dof (fig5c), 6.6 on 13 (fig4). An engine
    # that counts absorptions as heat +1 gives p = 4.6e-16 and 5.6e-22, one
    # that reads W_p without its final level p ~ 0; 20,000 fig4 trajectories
    # missed the first (p = 0.008), 50,000 gave p = 1.4e-7
    p = parse_config(f"preset={preset}", {}).params
    grid = tuple(np.linspace(0.0, p.drive_time, 6)[1:])  # T/5 .. T
    cfg = EnsembleConfig(checkpoint_grid=grid, n_traj=n_traj, master_seed=3)
    projective = measure_ensemble(iter_ensemble(p, make_rates(p), cfg)).projective
    g, dof = fluctuation_g_test(projective, p.beta)
    assert dof >= 5, f"only {dof} testable pairs"
    p_value = chi2.sf(g, dof)
    assert p_value > _ALPHA, f"G = {g:.1f} on {dof} dof, p = {p_value:.2e}"


def test_g_test_rejects_a_broken_symmetry():
    # equal counts at +-w break P(w) = e^{beta w} P(-w); at beta = 2 only
    # w = 1, 2 expect 5 or more at -w from 1,000 samples, w = 3, 4 do not
    counts = np.array([[500, 500, 500, 500, 1000, 500, 500, 500, 500]])
    g, dof = fluctuation_g_test(MomentSummary.from_counts([1.0], -4, counts), beta=2.0)
    assert dof == 2 and chi2.sf(g, dof) < 1e-100
