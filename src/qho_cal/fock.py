"""Dense complex linear algebra on a truncated Fock basis.

Conventions: natural units (hbar = 1, oscillator frequency = 1), zero-point
energy dropped, so level n carries energy n. States are complex vectors of
length ``dim``; operators are dense ``dim x dim`` complex matrices. A
normalized state has unit squared norm; conditional (no-jump) evolution
produces subnormalized states whose squared norm is a trajectory probability.

scipy is imported inside ``matrix_exponential`` and ``displacement_elements``,
on their first call, not with this module: importing it takes most of a
process's start-up, and the trajectory engine needs neither function.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import PrecisionLossWarning

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
    """exp(m) for a dense complex square matrix.

    Backed by scipy's scaling-and-squaring Pade implementation, which stays
    accurate for the non-normal generators used here; ``scipy.linalg`` is
    imported here, on the first call. Rejects non-finite input instead of
    propagating NaNs.
    """
    import scipy.linalg

    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix exponential of non-finite entries")
    return scipy.linalg.expm(m)


def displacement_elements(m, n, alpha: complex) -> np.ndarray:
    """Exact matrix elements <m|exp(alpha a^+ - alpha* a)|n> of the
    displacement operator on the untruncated Fock basis, for integer level
    arrays ``m`` and ``n`` that broadcast against each other.

    Closed form for m >= n:
        sqrt(n!/m!) alpha^(m-n) exp(-|alpha|^2/2) L_n^(m-n)(|alpha|^2),
    with the m < n case obtained from the adjoint relation. Factorial
    ratios are evaluated in the log domain, so the only practical limit
    is Laguerre-polynomial precision at extreme quantum numbers; one
    PrecisionLossWarning per call flags any m + n beyond it.
    """
    from scipy.special import eval_genlaguerre, gammaln

    m, n = np.asarray(m), np.asarray(n)
    if (m < 0).any() or (n < 0).any():
        raise ValueError(f"Fock labels must be non-negative, got m={m}, n={n}")
    alpha = complex(alpha)
    if not np.isfinite(abs(alpha) ** 2):
        raise ValueError("displacement amplitude must be finite")
    if (m + n).max(initial=0) > _PRECISION_LEVEL_LIMIT:
        warnings.warn(
            f"displacement element at m+n={(m + n).max()} > {_PRECISION_LEVEL_LIMIT}: "
            "possible loss of precision",
            PrecisionLossWarning,
            stacklevel=2,
        )
    if alpha == 0:
        return (m == n).astype(complex)
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    x = abs(alpha) ** 2
    log_pref = 0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - x / 2
    base = np.where(m >= n, alpha, -alpha.conjugate())
    return np.exp(log_pref) * base ** (hi - lo) * eval_genlaguerre(lo, hi - lo, x)


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """Top-left ``dim x dim`` block of the displacement operator, every entry
    evaluated from the closed form over the index grid in one call, so each
    is free of truncation error (the block as a whole is not unitary)."""
    if dim < 2:
        raise ValueError(f"Fock truncation needs dim >= 2, got {dim}")
    return _readonly(displacement_elements(np.arange(dim)[:, None], np.arange(dim), alpha))
