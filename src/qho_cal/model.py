"""Physical parameters, bath rates, the truncated thermal distribution, jump
operators, the no-jump generator and the guardian-photon measurement model.

Everything lives in the interaction picture at resonance with the rotating
wave approximation already applied: the free Hamiltonian never enters the
generator, only the drive term (lambda0/sqrt(2)) P and the anti-hermitian
decay part. Energy bookkeeping uses the bare level energies n (in units of
hbar*omega0) separately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import RegimeWarning, outside_stacklevel
# matrix_exponential is unused here; benchmark/tracing.py hooks it (ROADMAP item 3)
from .fock import ladder_operators, matrix_exponential, quadratures  # noqa: F401

__all__ = [
    "PhysicalParams",
    "Rates",
    "bath_occupation",
    "thermal_probabilities",
    "make_rates",
    "jump_operators",
    "nh_generator",
    "guardian_probs",
    "calorimetric_value",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Model parameters in units of the oscillator frequency (hbar = omega0 = 1).

    gamma: system-bath coupling rate; beta: inverse temperature in units of
    1/(hbar*omega0); lambda0: drive amplitude; drive_time: length of the
    driving window (defaults to pi/lambda0); dim: Fock truncation.
    """

    gamma: float
    beta: float
    lambda0: float = 0.01
    drive_time: float | None = None
    dim: int = 10

    def __post_init__(self) -> None:
        for name in ("gamma", "beta", "lambda0", "drive_time"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.lambda0 < 0:
            raise ValueError(f"lambda0 must be non-negative, got {self.lambda0}")
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if self.drive_time is None:
            if self.lambda0 == 0:
                raise ValueError("drive_time must be given explicitly when lambda0 = 0")
            object.__setattr__(self, "drive_time", math.pi / self.lambda0)
        if self.drive_time < 0:
            raise ValueError(f"drive_time must be non-negative, got {self.drive_time}")
        if self.lambda0 > 0.1:
            warnings.warn(
                f"lambda0 = {self.lambda0} is not small against omega0 = 1; "
                "the weak-driving (rotating wave) assumption degrades",
                RegimeWarning,
                stacklevel=outside_stacklevel(),
            )
        if self.gamma > 0.1:
            warnings.warn(
                f"gamma = {self.gamma} is not small against omega0 = 1; "
                "the weak-coupling (Lindblad) assumption degrades",
                RegimeWarning,
                stacklevel=outside_stacklevel(),
            )


@dataclass(frozen=True)
class Rates:
    """Absorption/emission rates derived from gamma and the bath occupation.

    gamma0 = gamma (N+1) governs quanta emitted into the bath, gamma1 =
    gamma N quanta absorbed from it; detailed balance gamma1/gamma0 =
    exp(-beta) holds by construction.
    """

    gamma0: float
    gamma1: float
    gamma_sigma: float
    occupation: float

    @property
    def boltzmann_ratio(self) -> float:
        """gamma1/gamma0, valid even at gamma = 0 where both rates vanish."""
        return self.occupation / (self.occupation + 1.0)


def bath_occupation(beta: float) -> float:
    """Mean thermal occupation 1/(exp(beta) - 1), beta in units of 1/(hbar*omega0)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    try:
        return 1.0 / math.expm1(beta)
    except OverflowError:
        return 0.0


def thermal_probabilities(beta: float, dim: int) -> np.ndarray:
    """Thermal occupation probabilities renormalized on the truncation."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    logp = -beta * np.arange(dim)
    p = np.exp(logp - logp.max())
    return p / p.sum()


def make_rates(params: PhysicalParams) -> Rates:
    occ = bath_occupation(params.beta)
    gamma0 = params.gamma * (occ + 1.0)
    gamma1 = params.gamma * occ
    return Rates(gamma0=gamma0, gamma1=gamma1, gamma_sigma=gamma0 + gamma1, occupation=occ)


def jump_operators(rates: Rates, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """C0 = sqrt(gamma0) a (photon emitted into the bath, heat +1) and
    C1 = sqrt(gamma1) a^+ (photon absorbed from the bath, heat -1)."""
    lowering, raising = ladder_operators(dim)
    c0 = np.sqrt(rates.gamma0) * lowering
    c1 = np.sqrt(rates.gamma1) * raising
    c0.flags.writeable = False
    c1.flags.writeable = False
    return c0, c1


def nh_generator(params: PhysicalParams, rates: Rates) -> np.ndarray:
    """Generator K of the conditional no-jump evolution U_nh(t) = exp(-i K t).

    K = (lambda0/sqrt(2)) P - (i/2) sum_i C_i^+ C_i with the truncated jump
    operators: decay gamma0 n + gamma1 (n+1), and gamma0 (dim-1) on the top
    level, where raising leaves the space. Its hermitian part is the drive
    alone; the anti-hermitian part encodes the norm decay whose squared
    magnitude is the no-jump probability.
    """
    _, p = quadratures(params.dim)
    decay = sum(c.conj().T @ c for c in jump_operators(rates, params.dim))
    k = params.lambda0 / np.sqrt(2) * p - 0.5j * decay
    k.flags.writeable = False
    return k


def guardian_probs(
    levels, rates: Rates
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guardian-photon probabilities per level, x = gamma1/gamma0.

    Returns (pi0, pf0, pf1). pi0 = x(n+1) / (x(n+1) + n) is the probability
    that the last pre-drive photon was an emission (index 0) given initial
    level n: a level-n equilibrium state was entered from above or from
    below. pf0 = m / (m + x(m+1)) and pf1 = x(m+1) / (m + x(m+1)) are the
    probabilities that the first post-drive photon given final level m is an
    emission or an absorption; the remainder 1 - pf0 - pf1 is the no-photon
    branch. It is nonzero only at m = 0 and zero temperature, where no photon
    is ever observed; the same degenerate point resolves pi0 = 1, the system
    having sat in the ground state.
    """
    lv = np.asarray(levels, dtype=float)
    if (lv < 0).any():
        raise ValueError(f"levels must be non-negative, got {levels}")
    up = rates.boltzmann_ratio * (lv + 1)
    den = up + lv
    ok = den > 0
    den = np.where(ok, den, 1.0)
    return np.where(ok, up / den, 1.0), np.where(ok, lv / den, 0.0), np.where(ok, up / den, 0.0)


def calorimetric_value(final_emission, ell_i, heat):
    """W_c = [ell_f = 0] - ell_i + Q. An emitted final guardian adds its own
    quantum to the inferred rise; an absorbed one cancels its own energy and
    a missing one carries none, so only P(ell_f = 0 | m) matters."""
    return final_emission - ell_i + heat
