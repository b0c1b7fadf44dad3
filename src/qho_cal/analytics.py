"""Closed-form and semi-analytic work moments.

Every moment here is read from one transfer table per time point,
P[n, m, Q]: the weight of starting in level n, ending in level m and
exchanging the integer jump heat Q with the bath. work.work_moments turns a
table into the mean and second moment of both work values (projective
W_p = m - n + Q, calorimetric W_c = [ell_f = 0] - ell_i + Q), so the
guardian-photon algebra lives in one kernel.

Unitary limit: for drive times short against the relaxation time the
no-jump propagator is a pure displacement by alpha(t) = lambda0*t/2 and no
jump occurs, so the table is the Q = 0 slice |<m|D(alpha)|n>|^2 of exact
displacement matrix elements.

Dissipative corrections: the no-jump propagator is expanded to second order
in gamma_sigma/2 around the displacement (the decay generator, commuted
through the drive, becomes D(s) = n + gamma1/gamma_sigma + mu(s) +
sqrt(2 mu(s)) X up to the -i gamma_sigma/2 prefactor; it is linear in n, 1
and X, so its nested time integrals reduce to scalar weight sums). Jump
operators are commuted through the propagator exactly, giving the one-jump
transfer coefficient

    T1 = gamma_i |b_i(t1) u(m,t|n) + a_i(t1) sqrt(n+d_i1) u(m,t|n+-1)|^2,

with a_i(s) = exp(+-gamma_sigma s/2) and b_i(s) = lambda0|a_i(s)-1|/gamma_sigma,
and analogously for two jumps. The relative sign between the two amplitude
terms is fixed by the exact operator identity
U_nh(-s) a U_nh(s) = a0(s) a + (lambda0/gamma_sigma)(1 - a0(s)), which the
tests verify against full matrix exponentials.

The table truncates at n_max initial levels (thermal weights renormalized),
m_max final levels and jumps_max <= 2 jumps, so Q runs over -2..2. The
jump-time integrals reduce to scalar weight sums: the commuted factors
a_k A_k + b_k of L jumps expand into 2^L branches with fixed vectors
V_p = A^{p_L}...A^{p_1}|n> and scalar weights C_p (products of a_k and
b_k), so a density integrates to rate Re sum G[p, p'] (u V_p)(u V_p')^*
with the Gram weights G[p, p'] = int C_p C_p' (2x2 for one jump, 4x4 for
two) summed over Gauss-Legendre rules. A two-jump weight factors into its
jumps, C_p(s1, s2) = c_1(s1)[p_1] c_2(s2)[p_2] with c_k = (b_k, a_k), so
its Gram is a sum over the outer nodes s2 of the Kronecker product of a
2x2 inner Gram H(s2) = sum_s1 w1 c_1 c_1^T with w2 c_2 c_2^T; each jump
factor is evaluated once per jump kind and node set, not once per sequence.

transfer_table takes a time or a whole grid, like every kernel on the CSV
path; it checks the times once and builds the tables a block of up to
_BLOCK times at a time, stacked on a leading axis: u, the Gauss-Legendre
rules, the jump factors and the Grams take one pass per block, and each
jump sequence's density is one einsum over its own branch amplitudes u V_p,
which every jump-time rule shares. A table comes out bitwise the same alone
or in a grid. perturbative_moments reads the moments from one such call at
two node counts and checks the four moments of every time against node
doubling; it concerns only the jump-time rules, since the no-jump expansion
integrands are polynomials that a fixed 3-node rule integrates exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RegimeWarning, SimulationError, outside_stacklevel
from .fock import displacement_elements, displacement_matrix, quadratures
from .model import PhysicalParams, Rates, bath_occupation, thermal_probabilities
from .quadrature import gauss_legendre, write_csv
from .work import work_moments

__all__ = [
    "TruncationPolicy",
    "mu",
    "drive_displacement",
    "unitary_projective_moments",
    "unitary_table",
    "perturbative_matrix",
    "transmission_TN",
    "transfer_table",
    "perturbative_moments",
    "write_analytic_csv",
]

_QUAD_TOL = 1e-8
# jump-time Gauss-Legendre nodes, checked against twice as many
_JUMP_NODES = 32
_MAX_JUMPS = 2
# grid times per pass of transfer_table's block loop: fig5a at 11 points
# (one pass) takes about 6 ms against 22-25 ms one time at a time, and a
# 1001-point run peaks near 61 MiB against 297 MiB in a single pass (one
# BLAS thread, shared 2-core x86-64 host)
_BLOCK = 16
# jump sequences, earliest jump first: index 0 emits a quantum into the bath
# (heat +1), index 1 absorbs one (heat -1)
_SEQUENCES = ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class TruncationPolicy:
    """How far the semi-analytic moment sums reach: initial levels n <= n_max
    (thermal weights renormalized on that set), final levels m <= m_max and
    at most jumps_max <= 2 jumps per trajectory."""

    n_max: int = 1
    m_max: int = 10
    jumps_max: int = 2

    def __post_init__(self) -> None:
        if self.n_max < 0 or self.m_max < 0 or self.jumps_max < 0:
            raise ValueError("truncation policy fields must be non-negative")
        if self.n_max > self.m_max:
            raise ValueError(
                f"n_max = {self.n_max} must not exceed m_max = {self.m_max}"
            )
        if self.jumps_max > _MAX_JUMPS:
            raise ValueError(
                f"jumps_max = {self.jumps_max} exceeds the {_MAX_JUMPS} jumps "
                "the transfer table holds"
            )


def mu(t, lambda0: float):
    """Dimensionless drive strength (lambda0 t / 2)^2, elementwise over a time
    or an array of times: the mean number of quanta the bare drive injects."""
    if (np.asarray(t) < 0).any():
        raise ValueError(f"time must be non-negative, got {np.min(t)}")
    return drive_displacement(t, lambda0) ** 2


def drive_displacement(t, lambda0: float):
    """Displacement amplitude alpha(t) = lambda0 t / 2 accumulated by the
    drive, at a time or elementwise over an array of times."""
    return lambda0 * t / 2.0


def unitary_projective_moments(t, params: PhysicalParams) -> tuple:
    """Unitary-limit projective work mean mu(t) and variance 2(N+1/2) mu(t) at
    a time or over an array of times, in units of hbar*omega0 and its square."""
    m = mu(t, params.lambda0)
    return m, 2.0 * (bath_occupation(params.beta) + 0.5) * m


def unitary_table(t, lambda0: float, n_max: int) -> np.ndarray:
    """No-jump transfer table |<m|D(alpha(t))|n>|^2 for initial levels
    n <= n_max at times of shape (...), shape (..., n_max + 1, M + 1, 1); the
    single heat column is Q = 0. Final levels reach M = ceil(mu + 12 sqrt(mu)
    + 25) + n_max at the largest time of the call, deep enough into the tail
    that the moments do not see the cut; as work_moments sums that tail too,
    a time's moments alone and in a grid may differ in the last ulp."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    mu_top = float(np.max(mu(t, lambda0)))
    m_top = int(math.ceil(mu_top + 12.0 * math.sqrt(mu_top) + 25.0)) + n_max
    alpha = np.asarray(drive_displacement(t, lambda0))[..., None, None]
    amp = displacement_elements(np.arange(m_top + 1), np.arange(n_max + 1)[:, None], alpha)
    return (np.abs(amp) ** 2)[..., None]


# The per-moment readers (unitary_calorimetric_moment here, the truncated_*
# ones after perturbative_moments) serve no command: the trace hooks of
# benchmark/tracing.py time the analytic layer through their names.


def _moment_index(k: int, offset: int) -> int:
    """Position of the k-th moment in work_moments' output; offset 0 picks
    the projective pair, 2 the calorimetric one."""
    if k not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {k}")
    return offset + k - 1


def unitary_calorimetric_moment(
    k: int,
    t: float,
    params: PhysicalParams,
    rates: Rates,
    n_max: int = TruncationPolicy.n_max,
) -> float:
    """k-th (k = 1, 2) calorimetric work moment in the unitary limit, thermally
    averaged over the initial levels n <= n_max (weights renormalized), in
    units of (hbar*omega0)^k. n_max defaults to TruncationPolicy.n_max."""
    i = _moment_index(k, 2)
    table = unitary_table(t, params.lambda0, n_max)
    weights = thermal_probabilities(params.beta, n_max + 1)
    return float(work_moments(table, weights, rates)[i])


# ---------------------------------------------------------------------------
# second-order no-jump amplitude


def _pert_matrix_raw(t, params: PhysicalParams, rates: Rates, dim: int) -> np.ndarray:
    lam, t = params.lambda0, np.asarray(t, dtype=float)
    u0 = np.asarray(displacement_matrix(drive_displacement(t, lam), dim))
    gs = rates.gamma_sigma
    if gs == 0.0:
        return u0.copy()
    # gen(s) = sum_k f_k(s) G_k with G = (n, 1, X), so the first- and
    # second-order integrals of gen reduce to the scalar sums
    # single[k] = int_0^t f_k and double[k, j] = int_0^t f_k(s) int_0^s f_j
    basis = (np.diag(np.arange(dim, dtype=float)), np.eye(dim), quadratures(dim)[0].real)

    def coeffs(s: np.ndarray) -> np.ndarray:
        mu_s = drive_displacement(s, lam) ** 2
        return np.stack([np.ones_like(s), rates.gamma1 / gs + mu_s, lam * s / np.sqrt(2)], axis=-2)

    # the f_k have degree <= 2 in s, so the inner integrals have degree <= 3
    # and the outer integrands degree <= 5: 3 Gauss-Legendre nodes are exact
    # (zero weights at t = 0); stacked matmuls give each time its bits alone
    s2, w2 = gauss_legendre(3, 0.0, t[..., None])
    s1, w1 = gauss_legendre(3, 0.0, s2[..., None])  # one inner rule per outer node
    f2 = coeffs(s2)
    single = (f2 @ w2[..., None])[..., 0]
    double = (f2 * w2[..., None, :]) @ (coeffs(s1) * w1[..., None, :]).sum(axis=-1)
    core = basis[1] - (gs / 2.0) * sum(single[..., k, None, None] * g for k, g in enumerate(basis))
    for k, gk in enumerate(basis):
        for j, gj in enumerate(basis):
            core += (gs**2 / 4.0) * double[..., k, j, None, None] * (gk @ gj)
    return u0 @ core.astype(complex)


def _check_regime(times, rates: Rates) -> None:
    """Reject negative times; warn once, on behalf of the first caller
    outside the package, if any time leaves the regime of the second-order
    expansion."""
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise ValueError(f"time must be non-negative, got {times.min()}")
    if (rates.gamma_sigma * times > 1.0).any():
        warnings.warn(
            "second-order dissipative expansion pushed beyond gamma_sigma*t = 1",
            RegimeWarning,
            stacklevel=outside_stacklevel(),
        )


def perturbative_matrix(
    t,
    params: PhysicalParams,
    rates: Rates,
    dim: int,
) -> np.ndarray:
    """Amplitudes u(m, t | n) on a ``dim``-level truncation, shape
    (..., dim, dim) at a time or an array of times of shape (...). The
    expansion integrals are polynomials in the integration times, which a
    fixed 3-node Gauss-Legendre rule integrates exactly: no quadrature error."""
    _check_regime(t, rates)
    return _pert_matrix_raw(t, params, rates, dim)


# ---------------------------------------------------------------------------
# transfer coefficients with jumps


def _jump_factor(i: int, s, params: PhysicalParams, rates: Rates) -> tuple[np.ndarray, np.ndarray]:
    """(b_i(s), a_i(s)): the scalar weights of the commuted jump factor
    a_i(s) A_i + b_i(s), where C_i U_nh(s) = U_nh(s) sqrt(gamma_i)
    [a_i(s) A_i + b_i(s)] with A_0 = a, A_1 = a^+."""
    if i not in (0, 1):
        raise ValueError(f"jump index must be 0 or 1, got {i}")
    sign = -1.0 if i == 0 else 1.0
    gs, s = rates.gamma_sigma, np.asarray(s, dtype=float)
    a = np.exp(sign * gs * s / 2.0)
    # b -> alpha(s) without coupling, where the rate product is zero
    b = sign * params.lambda0 * (a - 1.0) / gs if gs > 0 else drive_displacement(s, params.lambda0)
    return b, a


def _branch_coeffs(
    indices: Sequence[int], times: Sequence, params: PhysicalParams, rates: Rates
) -> tuple[float, np.ndarray]:
    """Expand the commuted jump factors (earliest first) into 2^L branches p,
    one per choice of A_k (p_k = 1) or 1 (p_k = 0) at each jump. Returns the
    rate product and the scalar weights C_p = prod_k (a_k or b_k) on the last
    axis, first jump most significant; jump times may be arrays that
    broadcast against each other."""
    rate_product, coeff = 1.0, np.ones(1)
    for i, s in zip(indices, times):
        factor = np.stack(_jump_factor(i, s, params, rates), axis=-1)
        rate_product *= rates.gamma0 if i == 0 else rates.gamma1
        coeff = coeff[..., :, None] * factor[..., None, :]
        coeff = coeff.reshape(coeff.shape[:-2] + (-1,))
    return rate_product, coeff


def _branch_vectors(levels: Sequence[int], indices: Sequence[int], dim: int) -> np.ndarray:
    """Branch vectors A^{p_L} ... A^{p_1}|n>, shape (len(levels), 2^L, dim),
    in the branch order of _branch_coeffs (A_0 = a, A_1 = a^+)."""
    vecs = np.eye(dim)[list(levels)]
    lowering = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    for i in indices:
        vecs = np.stack([vecs, vecs @ (lowering.T if i == 0 else lowering)], axis=-2)
    return vecs.reshape(len(levels), -1, dim)


def transmission_TN(
    m: int,
    n: int,
    indices: Sequence[int],
    times: Sequence[float],
    t: float,
    params: PhysicalParams,
    rates: Rates,
) -> float:
    """Transfer density for an ordered jump sequence at the given times:
    squared amplitude of U_nh(t - t_N) C_{i_N} ... C_{i_1} U_nh(t_1) between
    |n> and <m|, with every jump operator commuted through the propagator
    exactly and the remaining full-interval amplitude taken from the
    second-order expansion. With no jumps this is the no-jump transfer
    probability |u(m,t|n)|^2 and with one jump the closed one-jump formula,
    identically."""
    if len(indices) != len(times):
        raise ValueError("one time per jump index required")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("jump times must be strictly increasing")
    if times and not (0 <= times[0] and times[-1] <= t):
        raise ValueError("jump times must lie within [0, t]")
    if m < 0 or n < 0:
        raise ValueError(f"levels must be non-negative, got m={m}, n={n}")
    dim = max(m, n + len(indices)) + 5
    rate_product, coeff = _branch_coeffs(indices, times, params, rates)
    u = perturbative_matrix(t, params, rates, dim=dim)
    return rate_product * float(abs(coeff @ _branch_vectors([n], indices, dim)[0] @ u[m]) ** 2)


# ---------------------------------------------------------------------------
# transfer table and the moments read from it


def _gram_weights(
    times: np.ndarray, nodes: int, params: PhysicalParams, rates: Rates, jumps_max: int
) -> dict[tuple[int, ...], np.ndarray]:
    """Gram weights G[p, p'] of each jump sequence with at most ``jumps_max``
    jumps, shape (len(times), 2^L, 2^L), from ``nodes``-point rules: one on
    [0, t] for the last jump and, for two jumps, one on [0, s2] for the
    first jump below each outer node s2."""
    grams = {(): np.ones((len(times), 1, 1))}
    if jumps_max == 0:
        return grams
    s2, w2 = gauss_legendre(nodes, 0.0, times[:, None])
    outer = {i: np.stack(_jump_factor(i, s2, params, rates), axis=-1) for i in (0, 1)}
    for i, c in outer.items():
        grams[(i,)] = c.swapaxes(-1, -2) @ (w2[..., None] * c)
    if jumps_max == 1:
        return grams
    s1, w1 = gauss_legendre(nodes, 0.0, s2[..., None])
    # per outer node: the symmetric inner Gram of the first jump,
    # H = [[sum w1 b b, sum w1 b a], [sum w1 a b, sum w1 a a]], and the
    # weighted outer factor w2 c c^T of the second jump, each as 4 entries.
    # H is built in place on the (times, nodes, nodes) arrays, about 0.5 MiB
    # each for 16 times: plain products give the same bits, no faster, and
    # raised a 1001-point fig5a run's peak by about 0.5 MiB
    inner, last = {}, {}
    for i, c in outer.items():
        b, a = _jump_factor(i, s1, params, rates)
        wx = w1 * b
        b *= wx
        bb = b.sum(axis=-1)
        wx *= a
        ab = wx.sum(axis=-1)
        np.multiply(w1, a, out=wx)
        wx *= a
        inner[i] = np.stack([bb, ab, ab, wx.sum(axis=-1)], axis=-2)
        del a, b, wx
        last[i] = (w2[..., None, None] * c[..., :, None] * c[..., None, :]).reshape(*s2.shape, 4)
    for i1, i2 in _SEQUENCES[3:]:  # the two-jump sequences
        # [(p1, q1), (p2, q2)] -> [(p1, p2), (q1, q2)]
        g = (inner[i1] @ last[i2]).reshape(-1, 2, 2, 2, 2)
        grams[(i1, i2)] = g.transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    return grams


def transfer_table(
    t,
    params: PhysicalParams,
    rates: Rates,
    policy: TruncationPolicy = TruncationPolicy(),
    nodes: int | Sequence[int] = _JUMP_NODES,
) -> np.ndarray:
    """Transfer weights P[n, m, Q + 2] for n <= n_max, m <= m_max and jump
    heat Q in -2..2 at a time or an array of times of shape (...), shape
    (..., n, m, 5): the no-jump |u(m,t|n)|^2 plus the one- and two-jump
    densities integrated over ordered jump times, with one ``nodes``-point
    Gauss-Legendre rule per time axis (the inner rule of the two-jump
    integral spans [0, t2] for each outer node t2), reduced to the Gram
    weights G[p, p'] = sum_nodes w C_p C_p' of the branch expansion.
    ``nodes`` sets only these jump-time rules; the no-jump amplitude is
    exact. A sequence of node counts stacks one table per count on a leading
    axis; every count shares the block's no-jump and branch amplitudes."""
    _check_regime(t, rates)
    times, counts = np.asarray(t, dtype=float), np.atleast_1d(nodes)
    dim, n_lv, m_lv = policy.m_max + 7, policy.n_max + 1, policy.m_max + 1
    jumps_max = policy.jumps_max if rates.gamma_sigma > 0 else 0
    table = np.zeros((len(counts), times.size, n_lv, m_lv, 2 * _MAX_JUMPS + 1))
    for lo in range(0, times.size, _BLOCK):
        block, out = times.reshape(-1)[lo : lo + _BLOCK], table[:, lo : lo + _BLOCK]
        u = _pert_matrix_raw(block, params, rates, dim)[:, :m_lv]
        grams = [_gram_weights(block, q, params, rates, jumps_max) for q in counts]
        for seq in grams[0]:
            amp = _branch_vectors(range(n_lv), seq, dim) @ u.swapaxes(-1, -2)[:, None]
            gram = np.stack([g[seq] for g in grams])
            density = np.einsum("ctpq,tnpm,tnqm->ctnm", gram, amp, amp.conj()).real
            rate = math.prod(rates.gamma0 if i == 0 else rates.gamma1 for i in seq)
            out[..., seq.count(0) - seq.count(1) + _MAX_JUMPS] += rate * density
    table = table.reshape(counts.shape + times.shape + table.shape[2:])
    return table if np.ndim(nodes) else table[0]


def perturbative_moments(
    t,
    params: PhysicalParams,
    rates: Rates,
    policy: TruncationPolicy = TruncationPolicy(),
) -> np.ndarray:
    """[<W_p>, <W_p^2>, <W_c>, <W_c^2>] with dissipative corrections at a
    time t or at each of an array of times, shape (..., 4), from the
    transfer tables truncated per ``policy``.

    Every table is built at _JUMP_NODES and twice as many jump-time nodes; a
    moment that moves by more than 1e-8 max(1, |moment|) raises.
    """
    tables = transfer_table(t, params, rates, policy, (_JUMP_NODES, 2 * _JUMP_NODES))
    tables = tables.reshape(2, -1, *tables.shape[-3:])
    weights = thermal_probabilities(params.beta, policy.n_max + 1)
    # one _BLOCK of tables at a time: work_moments over the whole stack took
    # a 1001-point fig5a run's peak from 61.1-61.6 to 63.0-63.7 MiB
    moments = np.empty(tables.shape[:2] + (4,))
    for i in range(0, tables.shape[1], _BLOCK):
        moments[:, i : i + _BLOCK] = work_moments(tables[:, i : i + _BLOCK], weights, rates)
    coarse, fine = moments
    delta = np.abs(fine - coarse)
    failed = (delta > _QUAD_TOL * np.maximum(1.0, np.abs(fine))).any(axis=-1)
    if failed.any():
        raise SimulationError(
            f"jump-time quadrature not converged at {_JUMP_NODES} nodes "
            f"(delta = {delta[failed.argmax()].max():.2e})"
        )
    return fine.reshape(np.shape(t) + (4,))


def truncated_calorimetric_moment(
    k: int,
    t: float,
    params: PhysicalParams,
    rates: Rates,
    policy: TruncationPolicy = TruncationPolicy(),
) -> float:
    """k-th (k = 1, 2) calorimetric work moment with dissipative corrections,
    truncated per ``policy``; in units of (hbar*omega0)^k."""
    i = _moment_index(k, 2)
    return float(perturbative_moments(t, params, rates, policy)[i])


def truncated_projective_moment(
    k: int,
    t: float,
    params: PhysicalParams,
    rates: Rates,
    policy: TruncationPolicy = TruncationPolicy(),
) -> float:
    """Projective counterpart of truncated_calorimetric_moment (same transfer
    table, two-measurement energy bookkeeping)."""
    i = _moment_index(k, 0)
    return float(perturbative_moments(t, params, rates, policy)[i])


# ---------------------------------------------------------------------------
# CSV emission

_ANALYTIC_COLUMNS = "t,mean_Wp,var_Wp,mean_Wc,var_Wc,method"


def write_analytic_csv(
    path,
    grid: Sequence[float],
    params: PhysicalParams,
    rates: Rates,
    policy: TruncationPolicy = TruncationPolicy(),
    header_lines: Sequence[str] = (),
) -> None:
    """Analytic curves on the grid: unitary rows always, perturbative rows
    when there is any dissipation. The unitary projective columns are the
    closed forms over the untruncated thermal distribution; every other
    column averages over the initial levels n <= policy.n_max (weights
    renormalized) and is read from one table per time."""
    times = np.asarray(grid, dtype=float)
    weights = thermal_probabilities(params.beta, policy.n_max + 1)
    means, variances = unitary_projective_moments(times, params)
    unitary = work_moments(unitary_table(times, params.lambda0, policy.n_max), weights, rates)
    rows = [(t, mean_p, var_p, m1, m2 - m1 * m1, "unitary")
            for t, mean_p, var_p, (_, _, m1, m2) in zip(grid, means, variances, unitary)]
    if rates.gamma_sigma > 0:
        moments = perturbative_moments(grid, params, rates, policy)
        for t, (m1p, m2p, m1c, m2c) in zip(grid, moments):
            rows.append((t, m1p, m2p - m1p**2, m1c, m2c - m1c**2, "perturbative"))
    write_csv(path, _ANALYTIC_COLUMNS, rows, header_lines)
