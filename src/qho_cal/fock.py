"""Dense complex linear algebra on a truncated Fock basis.

Conventions: natural units (hbar = 1, oscillator frequency = 1), zero-point
energy dropped, so level n carries energy n. States are complex vectors of
length ``dim``; operators are dense ``dim x dim`` complex matrices. A
normalized state has unit squared norm; conditional (no-jump) evolution
produces subnormalized states whose squared norm is a trajectory probability.

scipy is loaded only in ``displacement_elements``, on its first call, not with
this module: importing it takes most of a process's start-up, and neither
the trajectory engine nor the master-equation oracle needs that function.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import PrecisionLossWarning, outside_stacklevel

__all__ = [
    "ladder_operators",
    "quadratures",
    "matrix_exponential",
    "displacement_elements",
    "displacement_matrix",
]

# eval_genlaguerre and the log-domain prefactor stay accurate well past this,
# but the alternating Laguerre sums start shedding digits for large m + n.
_PRECISION_LEVEL_LIMIT = 170

# [13/13] Pade numerator coefficients divided by b_0, so that exp(0) is the
# exact identity, and the 1-norm up to which the approximant is accurate to
# double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005),
# table 2.3)
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
_THETA13 = 5.371920351148152


def _readonly(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def ladder_operators(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (lowering, raising) operators on a ``dim``-level truncation.

    lowering[n-1, n] = sqrt(n); raising is the conjugate transpose. On the
    truncated basis [lowering, raising] equals the identity except for the
    bottom-right entry, which is 1 - dim.
    """
    if dim < 2:
        raise ValueError(f"Fock truncation needs dim >= 2, got {dim}")
    lowering = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    lowering[ns - 1, ns] = np.sqrt(ns)
    raising = lowering.conj().T.copy()
    return _readonly(lowering), _readonly(raising)


def quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dimensionless position and momentum: X = (a^+ + a)/sqrt(2),
    P = i(a^+ - a)/sqrt(2). Both are hermitian."""
    lowering, raising = ladder_operators(dim)
    x = (raising + lowering) / np.sqrt(2)
    p = 1j * (raising - lowering) / np.sqrt(2)
    return _readonly(x), _readonly(p)


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) for a dense complex square matrix by numpy scaling and
    squaring of the [13/13] Pade approximant (Higham 2005): m is scaled by
    2^-s to a 1-norm of at most theta_13 and the approximant squared s
    times. It shares nothing with an eigendecomposition, so it also serves
    as the trajectory engine's independent propagator check. Rejects
    non-finite input instead of propagating NaNs.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix exponential of non-finite entries")
    s = int(np.ceil(np.log2(max(np.linalg.norm(m, 1) / _THETA13, 1.0))))
    a = m / 2.0**s
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # free the powers before the solve: on a 1600 x 1600 Liouvillian they
    # would add about 160 MB to the peak
    del a, a2, a4, a6
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def displacement_elements(m, n, alpha) -> np.ndarray:
    """Exact matrix elements <m|exp(alpha a^+ - alpha* a)|n> of the
    displacement operator on the untruncated Fock basis, for integer level
    arrays ``m``, ``n`` and an amplitude or amplitude array ``alpha`` that
    broadcast together.

    Closed form for m >= n:
        sqrt(n!/m!) alpha^(m-n) exp(-|alpha|^2/2) L_n^(m-n)(|alpha|^2),
    with the m < n case from the adjoint relation; exactly the identity at
    alpha = 0. Factorial ratios are evaluated in the log domain, so the only
    practical limit is Laguerre-polynomial precision at extreme quantum
    numbers; one PrecisionLossWarning per call flags any m + n beyond it.
    """
    from scipy.special import eval_genlaguerre, gammaln

    m, n = np.asarray(m), np.asarray(n)
    if (m < 0).any() or (n < 0).any():
        raise ValueError(f"Fock labels must be non-negative, got m={m}, n={n}")
    alpha = np.asarray(alpha, dtype=complex)
    x = np.abs(alpha) ** 2
    if not np.isfinite(x).all():
        raise ValueError("displacement amplitude must be finite")
    if (m + n).max(initial=0) > _PRECISION_LEVEL_LIMIT:
        warnings.warn(
            f"displacement element at m+n={(m + n).max()} > {_PRECISION_LEVEL_LIMIT}: "
            "possible loss of precision",
            PrecisionLossWarning,
            stacklevel=outside_stacklevel(),
        )
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    log_pref = 0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - x / 2
    base = np.where(m >= n, alpha, -alpha.conjugate())
    return np.exp(log_pref) * base ** (hi - lo) * eval_genlaguerre(lo, hi - lo, x)


def displacement_matrix(alpha, dim: int) -> np.ndarray:
    """Top-left ``dim x dim`` block of the displacement operator, shape
    (..., dim, dim) for amplitudes of shape (...), every entry evaluated from
    the closed form over the index grid in one call, so each is free of
    truncation error (the block as a whole is not unitary)."""
    if dim < 2:
        raise ValueError(f"Fock truncation needs dim >= 2, got {dim}")
    alpha, levels = np.asarray(alpha)[..., None, None], np.arange(dim)
    return _readonly(displacement_elements(levels[:, None], levels, alpha))
