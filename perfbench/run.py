#!/usr/bin/env python3
"""voicepd benchmark: the `extract` and `evaluate` CLI commands on seeded
synthetic workloads, with every output checked against `reference.json`.

One process, one command at a time (a closed loop with one client).  The
commands run in this process through `voicepd.cli.main`, on files
generated from the seed.  Runs whole passes over the workload's commands
for about `--seconds` seconds.

    python3 perfbench/run.py --workload extract --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics (see README.md).  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import bootstrap

bootstrap.pin_environment()  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from voicepd import cli  # noqa: E402

WORK_ROOT = bootstrap.ROOT / ".perfbench_work"
BENCHMARK_JSON = bootstrap.ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
_IMPORT = [sys.executable, "-c", "import voicepd.cli"]


class Ledger:
    """Attempted and failed operations: each CLI command and each output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:3]:
                print(f"FAILED {what}: {p}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_command(command: workloads.Command, ledger: Ledger,
                tracer: tracing.Tracer | None = None) -> float:
    """Run one CLI command in this process; return its wall time in seconds."""
    command.output.unlink(missing_ok=True)
    span = tracer.span(f"cli.{command.argv[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        with span:
            code = cli.main(command.argv)
        seconds = time.perf_counter() - start
    ledger.record(command.label, [f"exit code {code}"] if code else [])
    return seconds


def run_pass(inputs: workloads.Inputs, ref: dict, header: list[str], ledger: Ledger,
             traced: bool = False) -> dict:
    """Run every command of the workload once and check each output.

    Returns {"seconds": pass wall time, "commands": {label: seconds},
    "spans": spans or None}.
    """
    tracer = tracing.Tracer() if traced else None
    times = {}
    with tracer.installed() if tracer else contextlib.nullcontext():
        for command in inputs.commands:
            times[command.label] = run_command(command, ledger, tracer)
            if command.label == "extract":
                ledger.record("features", checks.check_features(command.output, header, ref))
                sidecar = Path(str(command.output) + ".rejects.csv")
                ledger.record("rejects", checks.check_rejects(sidecar, ref))
            else:
                algorithm = command.label.split("_", 1)[1]
                ledger.record(command.label, checks.check_report(
                    command.output, algorithm, ref["reports"][algorithm]))
    if tracer and "extract" in times:
        classes = {os.path.basename(p): e for p, _, e in tracing.recordings(tracer.spans) if e}
        ledger.record("reject classes", checks.check_reject_classes(classes, ref))
    return {"seconds": sum(times.values()), "commands": times,
            "spans": tracer.spans if tracer else None}


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing voicepd.cli.

    This process has already imported voicepd, so the bytecode caches that
    users have after their first command exist.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(_IMPORT, check=True)
        times.append(time.perf_counter() - start)
    return times


def _blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(p for p in libs if p.startswith("/")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    threads = _blas_threads()
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": threads if threads is not None else bootstrap.BLAS_THREADS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = checks.load_reference()
    ref = reference[name][str(workloads.data_seed(seed))]
    header = reference["extract"]["header"]
    ledger = Ledger()
    setup = measure_setup()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        start = time.perf_counter()
        inputs = workloads.generate(name, work / "inputs", seed)
        gen_s = time.perf_counter() - start
        ledger.record("inputs", checks.check_inputs(inputs.sha256(), ref))
        for command in workloads.generate(name, work / "warm", seed, warm=True).commands:
            run_command(command, ledger)
        passes = []
        start = time.perf_counter()
        while True:  # whole passes, overrunning `seconds` by at most about half a pass
            passes.append(run_pass(inputs, ref, header, ledger, traced=trace and len(passes) % 2 == 1))
            elapsed = time.perf_counter() - start
            if len(passes) >= (2 if trace else 1) and elapsed + passes[-1]["seconds"] / 2 > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if p["spans"] is None]
    traced = [p for p in passes if p["spans"] is not None]
    pass_s = statistics.median(p["seconds"] for p in untraced)
    commands = {label: statistics.median(p["commands"][label] for p in untraced)
                for label in untraced[0]["commands"]}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        per_pass = [tracing.summarize(p["spans"]) for p in traced]
        metrics = {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
        metrics.update(tracing.recording_metrics(
            [s for p in traced for _, s, _ in tracing.recordings(p["spans"])]))
        for algorithm in workloads.ALGORITHMS:
            metrics[f"cli.evaluate_{algorithm}_s"] = commands.get(f"evaluate_{algorithm}", 0.0)
        metrics["synth.gen_s"] = gen_s
        metrics["trace.overhead_s"] = statistics.median(p["seconds"] for p in traced) - pass_s
    return {"ledger": ledger, "metrics": metrics, "passes": len(passes),
            "commands": commands, "recordings": len(inputs.files)}


def _print_table(name: str, result: dict, declared: dict) -> None:
    """Human-readable lines; the figures named in the issue are derived here."""
    ledger, commands = result["ledger"], result["commands"]
    rows = [(k, v, *declared.get(k, ("", ""))) for k, v in result["metrics"].items()]
    if "extract" in commands:
        rows.append(("extract_recordings_per_s", result["recordings"] / commands["extract"],
                     "1/s", "higher"))
    else:
        rows.append(("evaluate_s", sum(commands.values()), "s", "lower"))
        rows += [(f"{k}_s", v, "s", "lower") for k, v in commands.items()]
    rows.append(("error_rate", ledger.error_rate, "ratio", "lower"))
    print(f"# workload {name}: {result['passes']} passes, {ledger.attempted} operations, "
          f"{ledger.failed} failed")
    for metric, value, unit, better in rows:
        print(f"#   {metric:<34} {value:>14.6g} {unit:<6} {better} is better")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: (m["unit"], m["better"])
                for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("# machine " + json.dumps(machine(), sort_keys=True))
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_table(name, result, declared)
        ledger = result["ledger"]
        print(json.dumps({
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": declared[k][0]}
                        for k, v in result["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
