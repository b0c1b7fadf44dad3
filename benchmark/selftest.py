"""Self-test of the benchmark on reduced sizes (about a minute).

    python3 benchmark/selftest.py

Checks that

1. every metric named in BENCHMARK.json is emitted with its unit, untraced
   (end-to-end) and traced (per-layer), on a sampling and a deterministic
   smoke workload;
2. a deliberately perturbed reference is counted as failed checks, in
   ``failed`` and in ``checks.fail_frac``;
3. a missing trace hook leaves out the metrics that need it, reports the
   hook, and the run still completes;
4. in a directory holding only BENCHMARK.json and the benchmark's files the
   benchmark exits non-zero without printing a result.

Exit status 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from run import BENCH_DIR, OUT, ROOT, Workload, execute

SMOKE = (
    Workload("smoke-simulate", "fig4", ("simulate",), grid=6, ntraj=64),
    Workload("smoke-crosscheck", "fig4", ("analytic", "oracle"), grid=3),
)


def smoke(workload: Workload, trace: bool, **kwargs) -> dict:
    return execute(workload, seed=3, seconds=0.1, trace=trace, setup_samples=1, **kwargs)


def expected_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_names_and_units() -> list[str]:
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = expected_units(section)
        for workload in SMOKE:
            out = smoke(workload, trace)["result"]
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{workload.name} trace={trace}: metrics {got} != {want}")
            if not out["correct"] or out["attempted"] < 1:
                problems.append(f"{workload.name} trace={trace}: checks failed {out}")
    return problems


def check_perturbed_reference() -> list[str]:
    problems = []
    for workload in SMOKE:
        for trace in (False, True):
            out = smoke(workload, trace, reference_shift=0.5)["result"]
            if out["correct"] or out["failed"] < 1:
                problems.append(f"{workload.name} trace={trace}: perturbed reference not caught")
            if trace and not out["metrics"]["checks.fail_frac"]["value"] > 0:
                problems.append(f"{workload.name}: checks.fail_frac stays 0")
    return problems


def check_missing_hook() -> list[str]:
    import tracing

    hooks = tuple(
        dataclasses.replace(h, attr="measure_ensemble_renamed")
        if h.attr == "measure_ensemble" else h
        for h in tracing.HOOKS
    )
    out = smoke(SMOKE[0], True, hooks=hooks)
    metrics = out["result"]["metrics"]
    problems = []
    gone = {k for k, (_, spans) in run.LAYER_METRICS.items() if "work.measure" in spans}
    if gone & set(metrics):
        problems.append(f"metrics of a missing hook still emitted: {sorted(gone & set(metrics))}")
    if set(run.LAYER_METRICS) - gone - set(metrics):
        problems.append(f"other metrics lost: {sorted(set(run.LAYER_METRICS) - gone - set(metrics))}")
    if out["details"]["missing_hooks"] != ["qho_cal.cli.measure_ensemble_renamed"]:
        problems.append(f"missing hook not reported: {out['details']['missing_hooks']}")
    if not out["result"]["correct"]:
        problems.append("run with a missing hook failed its checks")
    return problems


def check_bare_directory() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fig5c-jumps",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    failed = 0
    for name, test in (
        ("every metric emitted with its unit", check_names_and_units),
        ("perturbed reference counted as failures", check_perturbed_reference),
        ("missing hook degrades to missing metrics", check_missing_hook),
        ("bare directory exits non-zero without a result", check_bare_directory),
    ):
        problems = test()
        failed += bool(problems)
        print(f"{'PASS' if not problems else 'FAIL'}: {name}")
        for p in problems:
            print(f"    {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
