"""Work statistics for a weakly driven, damped quantum harmonic oscillator.

Stochastic quantum-jump trajectories with two work estimators per
trajectory: the projective two-measurement value and the calorimetric
(two-level inference, guardian photon) value. A deterministic Lindblad
integrator and closed-form/perturbative moment formulas serve as
independent cross-checks. Each name is imported from the module that
defines it (``qho_cal.trajectories``, ``qho_cal.analytics``, ...).
"""

__version__ = "0.1.0"
