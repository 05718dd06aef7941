"""qpartial benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root; the program is imported from ./src:

    python3 perfbench/run.py --workload run-d64 --seed 42 --seconds 15 --trace 0

Workloads: run-d64, expect-d64, verify-gleason, verify-dcpo,
verify-interval, verify-qlang (see perfbench/README.md). The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced for ``--seconds`` and given in
reference seconds (see hostspeed.py). With ``--trace 1`` they are the
per-layer ones: ops alternate between untraced and traced, and the ratio
of their median op times is the tracing overhead.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and the ones it starts, set before
# numpy loads. At d = 64 on a 2-core machine one thread was no slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import machine
import workloads
from hostspeed import HostSpeed
from tracer import EIGENSOLVERS, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
# Set-up is measured in groups of process starts, each followed by as
# long a run of host-speed slices; setup_s is the median over the groups.
SETUP_GROUPS = 5
STARTS_PER_GROUP = 2

# Per-layer metrics, by traced name. Every traced run reports all of them;
# a layer a workload does not reach reports 0.
SELF_MS = (
    "cli.main",
    "qlang.parser.parse",
    "qlang.gates.denote_unitary",
    "qlang.interpreter.interpret",
    "density.PartialDensityOperator",
    "density.chain_supremum",
    "observables.BoundedObservable",
    "observables.expectation_summary",
    "observables.expected_interval",
    "logic.ClosedSubspace",
    "logic.state_leq",
    "logic.join",
    "logic.subspace_from_vectors",
    "intervals.directed_intersection",
)
# Modules whose public functions are reported together, as one self time.
MODULE_SELF_MS = ("sampling", "verify")
CALLS = (
    "density.PartialDensityOperator",
    "density.loewner_leq",
    "qlang.gates.denote_unitary",
    "qlang.gates.ket_guard_projection",
    "logic.ClosedSubspace",
    "logic.gleason_measure",
)


@dataclass
class Phase:
    """Op times and checked outcomes of the untraced, or the traced, ops."""

    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    consistent: bool = True
    steps: int = 0

    def add(self, seconds: float, outcome) -> None:
        self.op_s.append(seconds)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.consistent = self.consistent and outcome.consistent
        self.steps += outcome.steps


def run_window(workload, seconds: float, tracer: Tracer | None = None, speed: HostSpeed | None = None) -> list[Phase]:
    """Closed loop: prepare, time the call, check; until ``seconds`` pass.

    The window closes at the op boundary nearest its deadline, so that a
    workload of long ops (a dcpo suite call takes about six seconds)
    measures about ``seconds`` rather than up to one op more. With
    ``speed``, host-speed slices run during each op and are taken out of
    its time. With a tracer, even ops run untraced and odd ops traced, so
    that both halves see the same machine state; the result is then
    ``[untraced, traced]``.
    """
    phases = [Phase(), Phase()] if tracer is not None else [Phase()]
    min_ops = len(phases)
    deadline = perf_counter() + seconds
    index, elapsed = 0, 0.0
    while index < min_ops or perf_counter() + elapsed / 2 < deadline:
        traced = tracer is not None and index % 2 == 1
        inp = workload.prepare(index)
        if traced:
            tracer.op = index
            tracer.install()
        with speed.sampling() if speed is not None else nullcontext(lambda: 0.0) as sampled:
            start = perf_counter()
            try:
                out = workload.call(inp)
            finally:
                elapsed = perf_counter() - start
                if traced:
                    tracer.uninstall()
            op_s = elapsed - sampled()
        phases[index % len(phases)].add(op_s, workload.check(index, inp, out))
        index += 1
    return phases


def measure_setup() -> tuple[float, list[float]]:
    """Set-up every command-line invocation pays before its work: the wall
    time of a fresh interpreter importing ``qpartial.cli``, in reference
    seconds. Returns the median over the groups and the groups' host-speed
    factors."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    per_group, factors = [], []
    for _ in range(SETUP_GROUPS):
        speed = HostSpeed()
        total = 0.0
        for _ in range(STARTS_PER_GROUP):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import qpartial.cli"], cwd=ROOT, env=env, check=True, timeout=120)
            taken = perf_counter() - start
            total += taken
            speed.run_for(taken)
        factors.append(speed.factor())
        per_group.append(total / STARTS_PER_GROUP / factors[-1])
    return statistics.median(per_group), factors


def end_to_end_metrics(phase: Phase, setup_s: float, factor: float) -> dict:
    reference_busy = sum(phase.op_s) / factor
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (1.0 - phase.failed / phase.attempted, "share"),
        "ops_per_s": (len(phase.op_s) / reference_busy, "1/s"),
    }


def per_layer_metrics(totals: dict, traced: Phase, untraced: Phase) -> tuple[dict, list[str]]:
    ops = len(traced.op_s)
    absent = sorted(n for n in set(SELF_MS + CALLS) if n not in totals)
    zero = (0, 0.0, 0.0)
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (1000.0 * totals.get(name, zero)[1] / ops, "ms")
    for name in CALLS:
        metrics[f"{name}.calls"] = (totals.get(name, zero)[0] / ops, "count")
    for module in MODULE_SELF_MS:
        module_s = sum(t[1] for n, t in totals.items() if n.startswith(module + "."))
        metrics[f"{module}.self_ms"] = (1000.0 * module_s / ops, "ms")
    eig_calls = sum(totals.get(n, zero)[0] for n in EIGENSOLVERS)
    eig_s = sum(totals.get(n, zero)[2] for n in EIGENSOLVERS)
    metrics["linalg.eigensolves"] = (eig_calls / ops, "count")
    metrics["linalg.eigensolve_ms"] = (1000.0 * eig_s / ops, "ms")
    metrics["linalg.eigensolves_per_step"] = (eig_calls / traced.steps if traced.steps else 0.0, "count")
    metrics["qlang.kleene_steps"] = (traced.steps / ops, "count")
    metrics["trace.overhead"] = (statistics.median(traced.op_s) / statistics.median(untraced.op_s), "ratio")
    metrics["trace.absent_names"] = (len(absent), "count")
    return metrics, absent


def silent_layers(totals: dict, layers) -> list[str]:
    calls: dict[str, int] = {}
    for name, (n, _, _) in totals.items():
        for layer in layers:
            if name.startswith(layer + "."):
                calls[layer] = calls.get(layer, 0) + n
    return [layer for layer in layers if not calls.get(layer)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qpartial" / "cli.py").is_file():
        print(f"error: no qpartial sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qpartial.cli

    if not Path(qpartial.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: qpartial was imported from {qpartial.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"environment": machine.describe()}, sort_keys=True))
    setup_s, setup_factors = measure_setup()
    scratch_root = ROOT / ".bench_build"
    scratch_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        workload.warm_up()
        if args.trace:
            tracer = Tracer()
            untraced, traced = run_window(workload, args.seconds, tracer=tracer)
            totals = tracer.totals()
            silent = silent_layers(totals, workload.layers)
            if silent:
                print(f"error: layers predicted to work recorded no calls: {silent}", file=sys.stderr)
                return 1
            metrics, absent = per_layer_metrics(totals, traced, untraced)
            phases = (untraced, traced)
            summary = {"untraced_ops": len(untraced.op_s), "traced_ops": len(traced.op_s),
                       "spans": len(tracer.span_start), "absent_names": absent}
        else:
            speed = HostSpeed()
            (phase,) = run_window(workload, args.seconds, speed=speed)
            factor = speed.factor()
            metrics = end_to_end_metrics(phase, setup_s, factor)
            phases = (phase,)
            ms = [1000.0 * s / factor for s in phase.op_s]
            summary = {
                "ops": len(ms),
                "host_speed_factor": factor,
                "setup_host_speed_factors": setup_factors,
                "raw_ops_per_s": len(ms) / sum(phase.op_s),
                "op_ms": {"p50": statistics.median(ms)},
            }
            if len(ms) >= 100:  # ten samples beyond the p90
                summary["op_ms"]["p90"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    summary.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"summary": summary}, sort_keys=True))
    result = {
        "correct": all(p.consistent for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
