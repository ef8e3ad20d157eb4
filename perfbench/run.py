"""ucrsynth benchmark: one workload as a closed loop with one client.

    python3 perfbench/run.py --workload map-verify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``ucrsynth`` from its
``src`` directory; it exits with code 2 when there is none. Everything runs
in this one process, without extra threads. Set-up (importing the package,
building the seeded inputs, writing input files, one untimed warm-up op) is
repeated ``SETUP_ROUNDS`` times and timed each time. Then ops run back to
back for ``--seconds`` and every output is checked.

Op times are reported in two units: seconds, and ``kref``, the work of a
thousand passes of a fixed probe whose speed is sampled throughout the run
(``speed.py``). On a shared machine the second stays steady while the
first drifts with the machine's speed, so the bounded metrics use ``kref``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops, reports the per-layer metrics of the traced ones
(per op) and the tracing overhead, and writes the spans to ``perfbench/out``.
Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A JSON record of the run, with the machine it ran on, goes to
``perfbench/out`` as well.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, instrument, self_times  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, import_ucrsynth  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_ROUNDS = 3
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_kref.p50": "kref",
    "ops_per_kref": "1/kref",
    "peak_rss_mb": "MB",
    "cnots_per_circuit": "count",
    "rots_per_circuit": "count",
}

# Span names whose summed duration per op is reported as "<name>.s".
TIMED_SPANS = (
    "sim.apply_circuit",
    "circuit.lower_ucr",
    "circuit.dagger",
    "circuit.simplify",
    "circuit.Circuit.post_init",
    "gray.alpha_to_theta",
    "angles.angle_schedule",
    "synth.prepare",
    "synth.prepare_from_basis",
    "state.make_state",
    "formats.load_state",
    "formats.dump_circuit",
    "formats.load_circuit",
    "formats.export_qasm",
    "cli.synth",
    "cli.verify",
)
CALLED_SPANS = ("circuit.lower_ucr", "circuit.Circuit.post_init", "gray.alpha_to_theta")
SELF_SPANS = ("synth.prepare", "synth.prepare_from_basis")
COUNTERS = {
    "sim.gates_in": "count",
    "circuit.simplify.gates_in": "count",
    "circuit.simplify.gates_out": "count",
    "circuit.simplify.cnots_cancelled": "count",
    "circuit.simplify.rots_removed": "count",
    "formats.circuit_json_bytes": "bytes",
    "formats.qasm_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in TIMED_SPANS}
    units.update({f"{name}.calls": "count" for name in CALLED_SPANS})
    units.update({f"{name}.self_s": "s" for name in SELF_SPANS})
    units.update(COUNTERS)
    units.update({
        "sim.ns_per_gate_amp": "ns",
        "op.s": "s",
        "sim.apply_circuit.share": "ratio",
        "formats.share": "ratio",
        "trace.overhead": "ratio",
    })
    return units


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(m) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(ROOT),
        "backend": getattr(m.package, "BACKEND", None),
    }


class Tally:
    """Outcome of every op of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[int, list[dict]] = {}  # pool slot -> counts of its circuits
        self.ops: list[tuple[float, float]] = []  # untraced (seconds, kref) of ops that returned
        self.traced: list[tuple[float, float]] = []
        self.busy_s = 0.0  # untraced loop time, checks included
        self.busy_kref = 0.0
        self.probe_s: list[float] = []

    def record(self, k: int, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += [f"op {k}: {msg}" for msg in failures]


def attempt(workload, k: int, tally: Tally, tracer: Tracer | None = None):
    """Run and check op k; return the (start, end) of its run, or None if it raised."""
    gc.collect()  # every op starts from the same heap, untimed
    try:
        start = perf_counter()
        with tracer.op(k) if tracer else nullcontext():
            out = workload.run(k)
        end = perf_counter()
        failures, counts = workload.check(k, out)
    except Exception as e:  # one broken op is a failure, not the end of the run
        tally.record(k, [f"{type(e).__name__}: {e}"])
        return None
    if not failures:
        tally.counts.setdefault(k % workload.POOL, counts)
    tally.record(k, failures)
    return start, end


def measure(workload, seconds: float, tally: Tally, m=None, tracer: Tracer | None = None) -> None:
    """Closed loop for ``seconds``, one op after another, under a speed probe.

    With a tracer, every other pass over the input pool is traced, so
    traced and untraced ops see the same inputs.
    """
    runs = []
    with SpeedProbe() as probe:
        start = perf_counter()
        k = 1  # op 0 was the warm-up
        while perf_counter() - start < seconds:
            traced = tracer is not None and (k // workload.POOL) % 2 == 1
            begin = perf_counter()
            with instrument(tracer, m) if traced else nullcontext():
                span = attempt(workload, k, tally, tracer if traced else None)
            runs.append((traced, begin, perf_counter(), span))
            k += 1
    tally.probe_s = [took for _, took in probe.samples]
    for traced, begin, end, span in runs:
        if not traced:
            tally.busy_s += end - begin
            tally.busy_kref += probe.work(begin, end) / 1000.0
        if span is not None:
            (tally.traced if traced else tally.ops).append(
                (span[1] - span[0], probe.work(*span) / 1000.0)
            )


def quality(tally: Tally) -> tuple[float, float]:
    circuits = [c for counts in tally.counts.values() for c in counts]
    if not circuits:
        return 0.0, 0.0
    return (
        statistics.fmean(c["cnot"] for c in circuits),
        statistics.fmean(c["rot"] for c in circuits),
    )


def layer_metrics(tracer: Tracer, tally: Tally) -> dict[str, float]:
    spans = tracer.spans
    ops = sum(1 for s in spans if s[0] == "op") or 1
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_total: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + own
    values = {f"{name}.s": total.get(name, 0.0) / ops for name in TIMED_SPANS}
    values.update({f"{name}.calls": calls.get(name, 0) / ops for name in CALLED_SPANS})
    values.update({f"{name}.self_s": self_total.get(name, 0.0) / ops for name in SELF_SPANS})
    values.update({name: tracer.counters.get(name, 0.0) / ops for name in COUNTERS})
    gate_amps = tracer.counters.get("sim.gate_amps", 0.0)
    sim_s = total.get("sim.apply_circuit", 0.0)
    op_s = total.get("op", 0.0)
    formats_s = sum(t for name, t in total.items() if name.startswith("formats."))
    values["sim.ns_per_gate_amp"] = 1e9 * sim_s / gate_amps if gate_amps else 0.0
    values["op.s"] = op_s / ops
    values["sim.apply_circuit.share"] = sim_s / op_s if op_s else 0.0
    values["formats.share"] = formats_s / op_s if op_s else 0.0
    if tally.ops and tally.traced:
        values["trace.overhead"] = (
            statistics.median(r for _, r in tally.traced) / statistics.median(r for _, r in tally.ops)
        )
    else:
        values["trace.overhead"] = 0.0
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()  # workload start: set-up round 1 begins here
    if not (SRC / "ucrsynth" / "__init__.py").is_file():
        print(f"error: no ucrsynth sources under {SRC}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    tally = Tally()
    setup_times = []
    try:
        for _ in range(SETUP_ROUNDS):
            m = import_ucrsynth(SRC)
            workload = cls(m, args.seed, workdir)
            warm = Tally()
            attempt(workload, 0, warm)
            setup_times.append(perf_counter() - start)
            tally.failures += ["warm-up " + msg for msg in warm.failures]
            start = perf_counter()
        warm_failed = bool(tally.failures)
        tracer = Tracer() if args.trace else None
        measure(workload, args.seconds, tally, m, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cnots, rots = quality(tally)
    ok = tally.attempted - tally.failed
    seconds = [s for s, _ in tally.ops]
    extras = {
        "fail_ratio": (tally.failed / tally.attempted if tally.attempted else 1.0, "ratio"),
        "probe_s.p50": (statistics.median(tally.probe_s), "s"),
    }
    if args.trace:
        units = per_layer_units()
        values = layer_metrics(tracer, tally)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setup_times),
            "op_kref.p50": statistics.median(r for _, r in tally.ops) if tally.ops else 0.0,
            "ops_per_kref": ok / tally.busy_kref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cnots_per_circuit": cnots,
            "rots_per_circuit": rots,
        }
        extras["ops_per_s"] = (ok / tally.busy_s, "1/s")
        extras["op_s.p50"] = (statistics.median(seconds) if seconds else 0.0, "s")
        if len(seconds) >= P90_MIN_SAMPLES:
            extras["op_s.p90"] = (statistics.quantiles(seconds, n=10)[8], "s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    info = machine(m)
    print(f"workload {cls.name} n={workload.n} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(tally.ops)} traced_ops={len(tally.traced)}")
    print("machine " + json.dumps(info))
    for name, spec in metrics.items():
        print(f"{name} {spec['value']!r} {spec['unit']}")
    for name, (value, unit) in extras.items():
        print(f"{name} {value!r} {unit}")
    print(f"setup_rounds {[round(t, 4) for t in setup_times]} s")
    for msg in tally.failures[:5]:
        print(f"failure {msg}")
    result = {
        "correct": tally.failed == 0 and not warm_failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=cls.name, n=workload.n, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=info,
                  extras={k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
                  setup_rounds=setup_times, failures=tally.failures[:50],
                  op_s=seconds, op_kref=[r for _, r in tally.ops])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
