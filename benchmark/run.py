"""qho-cal benchmark: drive the program from outside, as a user does.

    python3 benchmark/run.py --workload fig4-ensemble --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each run

1. times set-up (import of ``qho_cal``, ``parse_config`` and ``make_rates``)
   in several fresh interpreters and reports the median as ``setup_s``;
2. builds the exact reference of ``reference.py`` (untimed);
3. repeats the workload's commands through ``qho_cal.cli.main(argv)`` until
   ``--seconds`` is used up. Sampling workloads give repetition r the master
   seed ``--seed`` for r = 0 and a seed derived from it otherwise, so the
   repetitions are independent ensembles;
4. checks every CSV written against the reference and counts the checks;
5. prints each metric with its unit, then, as the last line, one JSON object
   with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
repetitions. With ``--trace 1`` repetitions alternate untraced and traced
(``tracing.py``) at the same seed, and the metrics are the per-layer ones.

Times are scaled to a nominal host speed measured by a probe run around
every repetition (see PROBE_NOMINAL_S); set-up time is reported as measured.
Everything runs in one process with one batch worker (``QHO_CAL_THREADS``
unset) and one BLAS thread. Provenance, health counters, CSV
hashes and checks go to ``benchmark/out/results/``, spans of traced runs to
``benchmark/out/spans/``. CSV hashes and count metrics are kept per source
tree and seed in ``benchmark/out/history/``; a later run at the same seed
that disagrees fails a check.

Exit status: 0 with a result; 2, without a result, when the program source
is missing or cannot be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_SAMPLES = 7
SE_TARGET = 0.01

# The speed of a shared virtual CPU drifts by up to a quarter over tens of
# seconds, far more than the changes the benchmark has to resolve. A fixed
# probe runs before the first command and after every command; each command's
# time is scaled to the nominal speed at which the probe takes
# PROBE_NOMINAL_S, using the mean of the two probes around it. Raw times and
# probe times are saved with the results.
PROBE_NOMINAL_S = 0.3
TIME_UNITS = frozenset({"s", "ms", "us", "ns"})


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    commands: tuple[str, ...]
    grid: int
    ntraj: int | None = None

    @property
    def samples(self) -> bool:
        return "simulate" in self.commands


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4-ensemble", "fig4", ("simulate",), grid=101, ntraj=8192),
        Workload("fig5c-jumps", "fig5c", ("simulate",), grid=21, ntraj=512),
        Workload("fig5a-crosscheck", "fig5a", ("analytic", "oracle"), grid=11),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "s_to_se_0.01": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metric -> (unit, span names it needs). A metric whose spans have
# a missing hook is left out of the result; a layer the workload does not run
# reads 0. Times are medians over the traced repetitions, scaled like the
# end-to-end ones; "_s" of a span is its inclusive time where nothing below
# it is hooked and its self time otherwise (work.measure without the record
# stream, analytics.perturbative without displacement_matrix). evolve_s is
# the time blocked in next() on the record stream; ckpt_mb is computed from
# the yielded state arrays, not measured; max_leak is the largest
# ensemble-mean top-level population over the checkpoints; cli.* come from
# the untraced repetitions; trace.accounted_frac is the share of traced wall
# covered by the self times of the hooked layers.
LAYER_METRICS = {
    "trajectories.evolve_s": ("s", ("trajectories.next",)),
    "trajectories.us_per_traj": ("us", ("trajectories.next",)),
    "trajectories.jumps_per_traj": ("count", ("trajectories.next",)),
    "trajectories.max_leak": ("frac", ("trajectories.next",)),
    "trajectories.ckpt_mb": ("MiB", ("trajectories.next",)),
    "trajectories.truncation_warnings": ("count", ()),
    "fock.expm_calls": ("count", ("fock.expm",)),
    "fock.expm_s": ("s", ("fock.expm",)),
    "fock.displacement_s": ("s", ("fock.displacement",)),
    "work.measure_s": ("s", ("work.measure", "trajectories.next")),
    "work.ns_per_sample": ("ns", ("work.measure", "trajectories.next")),
    "work.hist_bins": ("count", ("work.measure",)),
    "work.csv_s": ("s", ("work.csv",)),
    "analytics.unitary_s": ("s", ("analytics.unitary",)),
    "analytics.perturbative_s": ("s", ("analytics.perturbative", "fock.displacement")),
    "analytics.csv_s": ("s", ("analytics.csv", "analytics.unitary", "analytics.perturbative")),
    "analytics.moment_calls": ("count", ("analytics.perturbative",)),
    "analytics.gl_calls": ("count", ("analytics.gl",)),
    "analytics.displacement_calls": ("count", ("fock.displacement",)),
    "analytics.regime_warnings": ("count", ()),
    "lindblad.integrate_s": ("s", ("lindblad.integrate",)),
    "lindblad.ms_per_point": ("ms", ("lindblad.integrate",)),
    "lindblad.csv_s": ("s", ("lindblad.csv",)),
    "lindblad.max_pop_err": ("abs", ()),
    "cli.self_s": ("s", ("work.measure", "work.csv", "analytics.csv",
                         "lindblad.integrate", "lindblad.csv")),
    "cli.traj_per_s": ("1/s", ()),
    "cli.analytic_s": ("s", ()),
    "cli.oracle_s": ("s", ()),
    "trace.overhead_frac": ("frac", ()),
    "trace.accounted_frac": ("frac", ()),
    "checks.fail_frac": ("frac", ()),
}

# Counts that must repeat exactly at one seed.
EXACT_COUNTS = (
    "trajectories.jumps_per_traj",
    "work.hist_bins",
    "fock.expm_calls",
    "analytics.moment_calls",
    "analytics.gl_calls",
    "analytics.displacement_calls",
)


class SetupError(RuntimeError):
    """The program cannot be imported or configured from this checkout."""


# ---------------------------------------------------------------------------
# environment and provenance


def limit_threads() -> int:
    """One batch worker and one BLAS thread: the plain single-threaded run.
    The matrices are dim x dim with dim = 10, too small for BLAS threads to
    help, and idle BLAS threads spinning on two shared cores only add noise.
    Must run before numpy is imported. Returns nproc."""
    os.environ.pop("QHO_CAL_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def speed_probe() -> float:
    """Seconds for a fixed mix of small complex matrix products and
    element-wise updates, the operations the program spends its time in."""
    import numpy as np

    rng = np.random.default_rng(0)
    states = rng.random((512, 10)) + 1j * rng.random((512, 10))
    prop = rng.random((10, 10)) + 0j
    t0 = time.perf_counter()
    for _ in range(5500):
        nxt = states @ prop
        p2 = nxt.real**2 + nxt.imag**2
        p2.sum(axis=1)
    return time.perf_counter() - t0


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    """sha256 over the program's source tree: the identity of the code run."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qho_cal").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(workload: Workload, samples: int) -> list[float]:
    """Set-up time in fresh interpreters: import qho_cal, parse the workload's
    configuration and build its rates."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import qho_cal\n"
        "from qho_cal.cli import parse_config\n"
        "from qho_cal.model import make_rates\n"
        f"cfg = parse_config(None, {{'preset': {workload.preset!r}, 'grid': {workload.grid}}})\n"
        "make_rates(cfg.params)\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed:\n{proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def import_program():
    if not (SRC / "qho_cal" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import qho_cal
        import qho_cal.cli
    except Exception as exc:  # any import failure means there is nothing to measure
        raise SetupError(f"cannot import qho_cal: {exc!r}") from exc
    if Path(qho_cal.__file__).resolve().parent != (SRC / "qho_cal").resolve():
        raise SetupError(f"qho_cal imported from {qho_cal.__file__}, not from {SRC}")
    return qho_cal


# ---------------------------------------------------------------------------
# repetitions


@dataclass
class Rep:
    seed: int
    traced: bool
    walls: dict[str, float] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    warnings: Counter = field(default_factory=Counter)
    table: dict | None = None       # parsed simulate CSV
    tracer: object | None = None
    missing: list[str] = field(default_factory=list)
    probes: dict[str, float] = field(default_factory=dict)   # mean probe around each command

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    def scaled(self, cmd: str) -> float:
        """A command's time at nominal speed."""
        return self.walls[cmd] * PROBE_NOMINAL_S / self.probes[cmd]

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled(cmd) for cmd in self.walls)

    @property
    def speed(self) -> float:
        """Factor that scales this repetition's times to nominal speed."""
        return self.scaled_wall / self.wall


def rep_seed(workload: Workload, seed: int, index: int) -> int:
    """Master seed of a repetition: the workload seed first, then seeds
    derived from it, so that repetitions are independent ensembles."""
    if index == 0 or not workload.samples:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_rep(ctx, rep: Rep, tag: str, hooks, probe: float) -> float:
    """Run the workload's commands once, each followed by a speed probe, then
    hash and check what they wrote. ``probe`` is the probe time before the
    first command; returns the one after the last."""
    import tracing
    from reference import check_analytic, check_oracle, sha256, simulate_table

    cli = ctx.program.cli
    wl = ctx.workload
    tracer = tracing.Tracer(f"{ctx.run_id}/{tag}") if rep.traced else None
    for cmd in wl.commands:
        out = ctx.workdir / f"{cmd}-{tag}.csv"
        argv = [cmd, "--preset", wl.preset, "--grid", str(wl.grid),
                "--seed", str(rep.seed), "--out", str(out)]
        if wl.ntraj is not None:
            argv += ["--ntraj", str(wl.ntraj)]
        with contextlib.ExitStack() as stack:
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if tracer is not None:
                hooked = stack.enter_context(tracing.installed(tracer, hooks))
                rep.missing = hooked.missing
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    rc = tracer.call(tracing.ROOT, cli.main, argv)
                else:
                    rc = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a dead benchmark
                traceback.print_exc(file=sys.stderr)
                rc = -1
            rep.walls[cmd] = time.perf_counter() - t0
        after = speed_probe()
        rep.probes[cmd] = 0.5 * (probe + after)
        probe = after
        rep.warnings.update(w.category.__name__ for w in caught)
        ok = ctx.checks.record(rc == 0 and out.is_file(), f"{cmd} {tag}: exit code {rc}")
        if not ok:
            continue
        rep.hashes[cmd] = sha256(out)
        if cmd == "simulate":
            rep.table = simulate_table(out, ctx.grid, wl.ntraj, ctx.checks)
        elif cmd == "analytic":
            check_analytic(out, ctx.grid, ctx.unitary, ctx.rates.gamma_sigma > 0, ctx.checks)
        elif cmd == "oracle":
            err = check_oracle(out, ctx.ref, ctx.checks)
            ctx.max_pop_err = max(ctx.max_pop_err, err)
        out.unlink()
    rep.tracer = tracer
    return probe


@dataclass
class Context:
    workload: Workload
    seed: int
    program: object
    rates: object
    grid: tuple
    ref: object
    unitary: object
    checks: object
    workdir: Path
    run_id: str
    max_pop_err: float = 0.0


def prepare(workload: Workload, seed: int, program, reference_shift: float = 0.0) -> Context:
    """Configuration and exact reference for the workload; untimed.
    ``reference_shift`` perturbs the reference (used by the self-test)."""
    from reference import Checks, Reference, exact_reference, unitary_rows

    from qho_cal.cli import parse_config
    from qho_cal.fock import quadratures
    from qho_cal.model import jump_operators, make_rates

    cfg = parse_config(None, {"preset": workload.preset, "grid": workload.grid})
    rates = make_rates(cfg.params)
    grid = cfg.ensemble.checkpoint_grid
    ref = exact_reference(cfg.params, rates, grid, jump_operators, quadratures)
    unitary = unitary_rows(cfg.params, rates, grid) if "analytic" in workload.commands else None
    if reference_shift:
        ref = Reference(ref.times, ref.populations + reference_shift,
                        ref.mean_wp + reference_shift, ref.mean_wc + reference_shift)
        if unitary is not None:
            unitary = unitary.copy()
            unitary[:, 1:] += reference_shift
    run_id = f"{workload.name}-s{seed}-{uuid.uuid4().hex[:8]}"
    workdir = OUT / "work" / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    return Context(workload, seed, program, rates, grid, ref, unitary, Checks(), workdir, run_id)


def repeat(ctx: Context, seconds: float, trace: bool, hooks) -> list[Rep]:
    """Repetitions until ``seconds`` is used up; a unit (one repetition, or an
    untraced and traced pair when tracing) starts only if the previous one
    would still fit."""
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    index = 0
    probe = speed_probe()
    while True:
        started = time.perf_counter()
        seed = rep_seed(ctx.workload, ctx.seed, index)
        for traced in (False, True) if trace else (False,):
            rep = Rep(seed, traced=traced)
            probe = run_rep(ctx, rep, f"r{index}{'t' if traced else ''}", hooks, probe)
            reps.append(rep)
        index += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return reps


# ---------------------------------------------------------------------------
# checks that span repetitions and runs


def check_repeats(ctx: Context, reps: list[Rep]) -> None:
    """Equal seeds must give byte-identical CSVs within the run."""
    first: dict[int, Rep] = {}
    for rep in reps:
        if rep.seed in first and rep.hashes and first[rep.seed].hashes:
            ctx.checks.record(rep.hashes == first[rep.seed].hashes,
                              f"CSV hashes differ between repetitions at seed {rep.seed}")
        first.setdefault(rep.seed, rep)


def check_history(ctx: Context, reps: list[Rep], counts: dict | None, provenance: dict) -> None:
    """Compare CSV hashes and exact counts with earlier runs of the same source
    tree, package versions and seed, then add this run's."""
    key = hashlib.sha256(json.dumps(
        [provenance[k] for k in ("src_sha256", "python", "numpy", "scipy")]
        + [ctx.workload.__dict__], sort_keys=True, default=str).encode()).hexdigest()[:16]
    path = OUT / "history" / f"{ctx.workload.name}-{key}.json"
    try:
        history = json.loads(path.read_text())
    except (OSError, ValueError):
        history = {"hashes": {}, "counts": {}}
    for rep in reps:
        if not rep.hashes:
            continue
        seen = history["hashes"].setdefault(str(rep.seed), rep.hashes)
        ctx.checks.record(seen == rep.hashes,
                          f"CSV hashes at seed {rep.seed} differ from an earlier run")
    if counts:
        seen = history["counts"].setdefault(str(ctx.seed), counts)
        for name, value in counts.items():
            if name in seen:
                ctx.checks.record(seen[name] == value,
                                  f"count {name} = {value} at seed {ctx.seed}, earlier {seen[name]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    tmp.replace(path)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(ctx: Context, reps: list[Rep], setup: list[float]) -> dict[str, float]:
    wall = statistics.median(r.scaled_wall for r in reps)
    metrics = {"setup_s": statistics.median(setup), "wall_s": wall}
    if ctx.workload.samples:
        # time for one repetition times the number of repetitions that would
        # bring the worst standard error down to SE_TARGET, with the squared
        # standard errors averaged over the run's independent ensembles
        import numpy as np

        tables = [r.table for r in reps if r.table is not None]
        sim = statistics.median(r.scaled("simulate") for r in reps)
        if tables:
            se2 = np.mean([np.maximum(t["se_mean_Wp"], t["se_mean_Wc"]) ** 2 for t in tables],
                          axis=0)
            metrics["s_to_se_0.01"] = sim * float(se2.max()) / SE_TARGET**2
        else:  # no readable output; the failed checks already say so
            metrics["s_to_se_0.01"] = sim
    else:
        # deterministic commands reach their accuracy in one pass
        metrics["s_to_se_0.01"] = wall
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(ctx: Context, reps: list[Rep], hooks) -> tuple[dict[str, float], list[str], dict]:
    """Per-layer metrics: times are medians over the traced repetitions,
    counts come from the first traced one (the workload seed)."""
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    import tracing

    missing_hooks = sorted({m for r in traced for m in r.missing})
    gone = set(missing_hooks)
    missing_spans = {h.span for h in hooks if f"{h.module}.{h.attr}" in gone}

    def layer_values(rep: Rep) -> dict[str, float | None]:
        t = rep.tracer
        tot = t.totals()

        def incl(name):
            return tot.get(name, {}).get("incl_s", 0.0)

        def self_time(name):
            return tot.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return tot.get(name, {}).get("calls", 0)

        def per(value, count, scale=1.0):
            """value/count, 0 for a layer that did no work, None if unknown."""
            if value is None or count is None:
                return None
            return value * scale / count if count else 0.0

        n_traj = t.records
        evolve = incl("trajectories.next")
        measure = self_time("work.measure")
        samples = None if t.samples_per_traj is None else t.samples_per_traj * n_traj
        batches = -(-n_traj // t.batch_size) if t.batch_size else None
        leak = None
        if t.state_bytes is not None:
            leak = float((t.leak_sum / n_traj).max()) if n_traj else 0.0
        values = {
            "trajectories.evolve_s": evolve,
            "trajectories.us_per_traj": per(evolve, n_traj, 1e6),
            "trajectories.jumps_per_traj": per(t.jumps, n_traj),
            "trajectories.max_leak": leak,
            "trajectories.ckpt_mb": per(t.state_bytes, batches if n_traj else 0, 2.0**-20),
            "trajectories.truncation_warnings": rep.warnings["TruncationWarning"],
            "fock.expm_calls": calls("fock.expm"),
            "fock.expm_s": incl("fock.expm"),
            "fock.displacement_s": incl("fock.displacement"),
            "work.measure_s": measure,
            "work.ns_per_sample": per(measure, samples if n_traj else 0, 1e9),
            "work.hist_bins": t.hist_bins if calls("work.measure") else 0,
            "work.csv_s": incl("work.csv"),
            "analytics.unitary_s": self_time("analytics.unitary"),
            "analytics.perturbative_s": self_time("analytics.perturbative"),
            "analytics.csv_s": self_time("analytics.csv"),
            "analytics.moment_calls": calls("analytics.perturbative"),
            "analytics.gl_calls": calls("analytics.gl"),
            "analytics.displacement_calls": calls("fock.displacement"),
            "analytics.regime_warnings": rep.warnings["RegimeWarning"],
            "lindblad.integrate_s": incl("lindblad.integrate"),
            "lindblad.ms_per_point": per(incl("lindblad.integrate"), t.integrate_points, 1e3),
            "lindblad.csv_s": incl("lindblad.csv"),
            "cli.self_s": self_time(tracing.ROOT),
            "trace.accounted_frac": per(sum(v["self_s"] for k, v in tot.items()
                                            if k not in (tracing.ROOT, tracing.BOOKKEEPING)),
                                        rep.wall),
        }
        return {k: v * rep.speed if v is not None and LAYER_METRICS[k][0] in TIME_UNITS else v
                for k, v in values.items()}

    per_rep = [layer_values(r) for r in traced]
    first = per_rep[0]
    metrics: dict[str, float] = {}
    for name, value in first.items():
        if value is None or any(s in missing_spans for s in LAYER_METRICS[name][1]):
            continue
        if LAYER_METRICS[name][0] == "count":
            metrics[name] = value
        else:
            metrics[name] = statistics.median(v[name] for v in per_rep)
    # repetitions alternate untraced and traced at the same seed
    overheads = [t.scaled_wall / p.scaled_wall - 1.0 for p, t in zip(plain, traced)]
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    if "simulate" in ctx.workload.commands:
        metrics["cli.traj_per_s"] = ctx.workload.ntraj / statistics.median(
            r.scaled("simulate") for r in plain)
    else:
        metrics["cli.traj_per_s"] = 0.0
    for cmd in ("analytic", "oracle"):
        metrics[f"cli.{cmd}_s"] = (statistics.median(r.scaled(cmd) for r in plain)
                                   if cmd in ctx.workload.commands else 0.0)
    metrics["lindblad.max_pop_err"] = ctx.max_pop_err
    spans = {r.tracer.run_id: r.tracer.totals() for r in traced}
    return metrics, missing_hooks, spans


# ---------------------------------------------------------------------------
# one run


def execute(workload: Workload, seed: int, seconds: float, trace: bool, *,
            setup_samples: int = SETUP_SAMPLES, hooks=None, reference_shift: float = 0.0) -> dict:
    """One benchmark run; returns the result and the details saved with it."""
    nproc = limit_threads()
    setup = measure_setup(workload, setup_samples)
    program = import_program()
    import numpy
    import scipy
    import tracing
    from reference import check_simulate_means

    hooks = tracing.HOOKS if hooks is None else hooks
    ctx = prepare(workload, seed, program, reference_shift)
    provenance = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": nproc, "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "qho_cal": getattr(program, "__version__", None),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "machine": platform.machine(), "run_id": ctx.run_id,
    }
    try:
        reps = repeat(ctx, seconds, trace, hooks)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    max_z = None
    if workload.samples:
        tables = [r.table for r in reps if not r.traced and r.table is not None]
        max_z = check_simulate_means(tables, ctx.ref, ctx.checks)
    check_repeats(ctx, reps)
    if trace:
        metrics, missing, spans = per_layer(ctx, reps, hooks)
        counts = {k: metrics[k] for k in EXACT_COUNTS if k in metrics}
    else:
        metrics, missing, spans = end_to_end(ctx, reps, setup), [], {}
        counts = None
    check_history(ctx, reps, counts, provenance)
    checks = ctx.checks
    if trace:
        metrics["checks.fail_frac"] = checks.failed / checks.attempted
        units = {k: LAYER_METRICS[k][0] for k in metrics}
    else:
        units = dict(E2E_UNITS)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "provenance": provenance,
        "setup_samples_s": setup,
        "repetitions": [{"seed": r.seed, "traced": r.traced, "walls_s": r.walls,
                         "probe_s": r.probes,
                         "csv_sha256": r.hashes, "warnings": dict(r.warnings)} for r in reps],
        "health": {"TruncationWarning": sum(r.warnings["TruncationWarning"] for r in reps),
                   "RegimeWarning": sum(r.warnings["RegimeWarning"] for r in reps)},
        "max_z": max_z,
        "max_pop_err": ctx.max_pop_err,
        "missing_hooks": missing,
        "span_totals": spans,
        "check_failures": checks.notes[:50],
        "ckpt_mb_note": "computed from array sizes, not measured",
    }
    save(ctx, result, details, reps)
    return {"result": result, "details": details}


def save(ctx: Context, result: dict, details: dict, reps: list[Rep]) -> None:
    name = ctx.run_id + ("-trace" if details["provenance"]["trace"] else "")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(
        json.dumps({"result": result, **details}, indent=1, default=str))
    traced = [r for r in reps if r.tracer is not None]
    if traced:
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        with open(spans / f"{name}.jsonl", "w") as fh:
            for rep in traced:
                rep.tracer.dump(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    result, details = out["result"], out["details"]
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for hook in details["missing_hooks"]:
        print(f"missing hook {hook}: its metrics are left out")
    for note in details["check_failures"]:
        print(f"FAILED CHECK: {note}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
