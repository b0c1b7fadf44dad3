"""Command-line front end.

Subcommands: ``simulate`` (trajectory ensemble -> estimator CSV),
``analytic`` (closed-form/perturbative curves -> CSV), ``oracle``
(density-matrix populations -> CSV) and ``compare`` (z-scores between a
simulated and an analytic CSV).

Configuration comes from a key=value file plus overriding flags; presets pin
parameters to the standard experiments (see PRESETS). Every CSV starts with
a provenance header ('# key=value' comment lines) and output is
byte-identical for identical configuration and seed.

Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 comparison failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analytics import TruncationPolicy, write_analytic_csv
from .errors import ConfigError, GridMismatchError, QhoCalError
from .lindblad import integrate, thermal_state, write_populations_csv
from .model import PhysicalParams, make_rates
from .quadrature import checked_grid
from .trajectories import EnsembleConfig, iter_ensemble
from .work import measure_ensemble, write_moments_csv

__all__ = [
    "PRESETS",
    "ExperimentConfig",
    "parse_config",
    "run_simulate",
    "run_analytic",
    "run_oracle",
    "run_compare",
    "main",
]

# Preset parameter sets, on the PhysicalParams defaults lambda0 = 0.01,
# T = pi/lambda0, dim = 10. fig3 needs beta from {1, 2, 5}; the others pin 2.
PRESETS: dict[str, dict] = {
    "fig3": {"gamma": 0.01 * 0.01, "beta_choices": (1.0, 2.0, 5.0)},
    "fig4": {"gamma": 0.1 * 0.01, "beta": 2.0},
    "fig5a": {"gamma": 0.01, "beta": 2.0},
    "fig5b": {"gamma": 0.05, "beta": 2.0},
    "fig5c": {"gamma": 0.1, "beta": 2.0},
}

_DEFAULT_GRID_POINTS = 101
# compare passes a column when every |z| in its window is at most this
_Z_MAX = 3.0

_FILE_KEYS = {
    "preset": str,
    "lambda0": float,
    "gamma": float,
    "beta": float,
    "drive_time": float,
    "dim": int,
    "ntraj": int,
    "seed": int,
    "grid": int,
    "n_max": int,
    "m_max": int,
    "jumps_max": int,
    "out": str,
}
# the keys whose dataclass field has another name
_FIELD_NAMES = {"ntraj": "n_traj", "seed": "master_seed"}


def _build(cls, values: dict, *args):
    """``cls`` from the values that name its fields; every field not set
    keeps its dataclass default."""
    fields = {f.name for f in dataclasses.fields(cls)}
    named = {_FIELD_NAMES.get(k, k): v for k, v in values.items()}
    return cls(*args, **{k: v for k, v in named.items() if k in fields})


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    params: PhysicalParams
    ensemble: EnsembleConfig
    policy: TruncationPolicy
    out: str | None = None
    preset: str | None = None

    def provenance(self) -> list[str]:
        p, e = self.params, self.ensemble
        return [
            f"qho-cal {__version__}",
            f"preset={self.preset or ''}",
            f"lambda0={p.lambda0!r} gamma={p.gamma!r} beta={p.beta!r} "
            f"drive_time={p.drive_time!r} dim={p.dim}",
            f"ntraj={e.n_traj} seed={e.master_seed} grid_points={len(e.checkpoint_grid)}",
            f"policy n_max={self.policy.n_max} m_max={self.policy.m_max} "
            f"jumps_max={self.policy.jumps_max}",
        ]


def _parse_file(text: str) -> dict:
    values: dict = {}
    line_of: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # "#" opens a comment only at a line's start or after whitespace: out=a#1.csv keeps it
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"line {lineno}: {key} is already set on line {line_of[key]}")
        line_of[key] = lineno
        try:
            values[key] = _FILE_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return values


def parse_config(text: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated ExperimentConfig from key=value text plus overrides
    (flag values win over file values)."""
    values = _parse_file(text) if text else {}
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FILE_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        values[key] = val

    preset = values.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        preset_values = dict(PRESETS[preset])
        choices = preset_values.pop("beta_choices", None)
        for key, val in preset_values.items():
            values.setdefault(key, val)
        if choices is not None:
            if "beta" not in values:
                raise ConfigError(
                    f"preset {preset!r} needs beta set to one of {choices}"
                )
            if values["beta"] not in choices:
                raise ConfigError(
                    f"preset {preset!r} uses beta in {choices}, got {values['beta']}"
                )
    for key in ("gamma", "beta"):
        if key not in values:
            raise ConfigError(f"{key} is required (set it or pick a preset)")

    n_points = values.get("grid", _DEFAULT_GRID_POINTS)
    try:
        params = _build(PhysicalParams, values)
        grid = tuple(np.linspace(0.0, params.drive_time, n_points))
        ensemble = _build(EnsembleConfig, values, grid)
        policy = _build(TruncationPolicy, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        params=params,
        ensemble=ensemble,
        policy=policy,
        out=values.get("out"),
        preset=preset,
    )


def _require_out(cfg: ExperimentConfig) -> str:
    """The output path, refused before any computation when it names a
    directory or its parent directory does not exist. Other failures to
    write still surface as a ConfigError from quadrature.write_csv."""
    if not cfg.out:
        raise ConfigError("an output path is required (--out or out=...)")
    out = Path(cfg.out)
    if out.is_dir():
        raise ConfigError(f"cannot write CSV {cfg.out}: it is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"cannot write CSV {cfg.out}: no directory {out.parent}")
    return cfg.out


def run_simulate(cfg: ExperimentConfig) -> str:
    """Run the trajectory ensemble, measure both work estimators, write the
    estimator CSV; prints a one-line summary."""
    out = _require_out(cfg)
    if cfg.ensemble.n_traj < 2:
        raise ConfigError(f"simulate needs at least 2 trajectories, got {cfg.ensemble.n_traj}")
    rates = make_rates(cfg.params)
    started = time.monotonic()
    result = measure_ensemble(iter_ensemble(cfg.params, rates, cfg.ensemble))
    elapsed = time.monotonic() - started
    write_moments_csv(out, result, header_lines=cfg.provenance())
    print(
        f"simulate: {cfg.ensemble.n_traj} trajectories, "
        f"{len(cfg.ensemble.checkpoint_grid)} checkpoints, {elapsed:.1f} s -> {out}"
    )
    return out


def run_analytic(cfg: ExperimentConfig) -> str:
    out = _require_out(cfg)
    rates = make_rates(cfg.params)
    grid = cfg.ensemble.checkpoint_grid
    started = time.monotonic()
    write_analytic_csv(
        out, grid, cfg.params, rates, policy=cfg.policy, header_lines=cfg.provenance()
    )
    print(f"analytic: {len(grid)} grid points, {time.monotonic() - started:.2f} s -> {out}")
    return out


def run_oracle(cfg: ExperimentConfig) -> str:
    out = _require_out(cfg)
    rates = make_rates(cfg.params)
    grid = cfg.ensemble.checkpoint_grid
    started = time.monotonic()
    rho0 = thermal_state(cfg.params.beta, cfg.params.dim)
    rhos = integrate(rho0, cfg.params, rates, grid)
    write_populations_csv(out, grid, rhos, header_lines=cfg.provenance())
    print(f"oracle: {len(grid)} grid points, {time.monotonic() - started:.2f} s -> {out}")
    return out


def _read_csv(path: str, columns: Sequence[str]) -> dict[str, np.ndarray]:
    """The columns of a CSV by header name: floats, except a trailing
    ``method`` column, which stays strings. A file without the named
    columns, a row whose field count differs from the header or a field
    that is not a finite number is a configuration error."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}") from exc
    with fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    if len(lines) < 2:
        raise ConfigError(f"{path}: needs a header row and at least one data row")
    header = lines[0].split(",")
    numeric = len(header) - (header[-1] == "method")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{path}: {len(parts)} fields, header has {len(header)}")
        try:
            values = [float(x) for x in parts[:numeric]]
        except ValueError as exc:
            raise ConfigError(f"{path}: non-numeric field in {line!r}") from exc
        if not np.isfinite(values).all():
            raise ConfigError(f"{path}: non-finite field in data row {len(rows) + 1}: {line!r}")
        rows.append(values + parts[numeric:])
    missing = [name for name in columns if name not in header]
    if missing:
        raise ConfigError(f"{path}: missing columns {', '.join(missing)}")
    return {name: np.array(column) for name, column in zip(header, zip(*rows))}


_COMPARED = (("mean_Wp", "se_mean_Wp"), ("var_Wp", "se_var_Wp"),
             ("mean_Wc", "se_mean_Wc"), ("var_Wc", "se_var_Wc"))


def run_compare(sim_path: str, analytic_path: str) -> int:
    """Per-time z = |MC - analytic| / SE for each moment column and method.

    Pass/fail at z <= 3 over each method's validity window: the whole
    grid for the unitary curves, t <= half the final grid time for the
    perturbative ones (beyond that, discarded higher jump numbers bite).
    Returns 0 on pass, 4 on failure. Before anything is printed, the
    simulated times must pass quadrature.checked_grid, or ConfigError is
    raised, and the two CSVs must share their time grid to 1e-9 absolute,
    or GridMismatchError is raised.
    """
    sim = _read_csv(sim_path, ["t", *(c for pair in _COMPARED for c in pair)])
    ana = _read_csv(analytic_path, ["t", *(v for v, _ in _COMPARED), "method"])
    t = sim["t"]
    try:
        checked_grid(t)
    except ValueError as exc:
        raise ConfigError(f"{sim_path}: {exc}") from exc
    scored = []  # (method, column, worst |z| in the method's window)
    for method in dict.fromkeys(ana["method"]):
        rows = ana["method"] == method
        if rows.sum() != t.size or not np.allclose(ana["t"][rows], t, rtol=0, atol=1e-9):
            raise GridMismatchError(
                f"time grids differ between {sim_path} and {analytic_path}"
            )
        window = (t <= 0.5 * t[-1] + 1e-9) if method == "perturbative" else np.full(t.size, True)
        for value_col, se_col in _COMPARED:
            diff = np.abs(sim[value_col] - ana[value_col][rows])
            se = sim[se_col]
            # a real difference against an SE of 0 cannot be scored: z = inf
            scaled = np.divide(diff, se, out=np.full_like(diff, np.inf), where=se > 0)
            z = np.where(diff <= 1e-12, 0.0, scaled)[window]
            scored.append((method, value_col, float(z.max()) if z.size else 0.0))
    for method, col, worst in scored:
        status = "pass" if worst <= _Z_MAX else "FAIL"
        print(f"compare [{method:12s}] {col:8s} max|z| = {worst:7.3f}  {status}")
    passed = all(worst <= _Z_MAX for _, _, worst in scored)
    print(f"compare: {'pass' if passed else 'FAIL'} (z threshold {_Z_MAX})")
    return 0 if passed else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qho-cal",
        description="Work statistics of a driven, damped quantum oscillator "
        "via quantum-jump trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--ntraj", type=int, help="number of trajectories")
        p.add_argument("--dim", type=int, help="Fock truncation dimension")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--grid", type=int, help="number of checkpoint times")

    for name, doc in (
        ("simulate", "run the trajectory ensemble and write the estimator CSV"),
        ("analytic", "write closed-form/perturbative moment curves"),
        ("oracle", "integrate the master equation and write populations"),
    ):
        p = sub.add_parser(name, help=doc)
        add_config_flags(p)

    p = sub.add_parser("compare", help="z-score a simulated CSV against an analytic one")
    p.add_argument("simulated", help="CSV from the simulate subcommand")
    p.add_argument("analytic", help="CSV from the analytic subcommand")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    text = None
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    overrides = {k: v for k, v in vars(args).items() if k in _FILE_KEYS}
    return parse_config(text, overrides)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return run_compare(args.simulated, args.analytic)
        run = {"simulate": run_simulate, "analytic": run_analytic, "oracle": run_oracle}
        run[args.command](_config_from_args(args))
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QhoCalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
