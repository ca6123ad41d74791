"""spintail benchmark: generated experiment configs through the CLI entry path.

Run from the root of a checkout (one that holds ``src/spintail``)::

    python3 bench/run.py --workload norm_dense --seed 1 --seconds 20 --trace 0

Each config goes in as JSON text and comes out as report bytes through
``parse_config -> run -> emit``, the path ``spintail run`` takes.  The loop is
closed: one process, one caller, configs back to back.  The BLAS pool is
held to one thread through this process's own environment, so the process
runs one thread.

``--trace 0`` measures the end-to-end metrics: set-up in fresh processes,
then a warm-up pass and timed passes until ``--seconds`` have elapsed.
``setup_s`` and ``run_s`` are scaled to the baseline machine's speed by a
calibration kernel timed in the gaps between the pieces of work (see
``hostspeed.py``); the wall-clock figures are in the ``info`` line.
``--trace 1`` is a separate run for the per-layer metrics: untraced passes,
then traced passes with spans at spintail's module boundaries (see
``tracing.py``), their difference being ``trace.overhead_s``.  Every pass of
either mode is checked (see ``check.py``).

The last stdout line is the result ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment, sample counts and
any check failures.  Without ``src/spintail`` under the working directory the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: a second one spin-waits between calls, on a 2-vCPU VM
BLAS_THREADS = 1
SETUP_REPEATS = 11
MIN_PASSES = 3
SPAN_DIR = ".bench_out"

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_pass_frac", "ratio"),
]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the requested count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
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
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def _environment(numpy, nproc) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def _tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": int(100 * (n - 10) / n), "value": ordered[n - 11]}


def _measure_setup(cases, root, speed) -> tuple[list[float], list[float]]:
    """Scaled and wall seconds of SETUP_REPEATS fresh set-up processes."""
    payload = json.dumps([c.text for c in cases]).encode()
    probe = os.path.join(HERE, "setup_probe.py")
    # bytecode caching on, as for an installed CLI; the first probe compiles
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    scaled, wall = [], []
    before = speed.gap()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, probe], input=payload, cwd=root, env=env,
                              capture_output=True, timeout=120)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()}")
        after = speed.gap()
        scaled.append(speed.scaled(wall[-1], before + after))
        before = after
    return scaled, wall


class Program:
    """The CLI entry path, called the way ``spintail run`` calls it."""

    def __init__(self, cli, report, errors):
        self.cli, self.report = cli, report
        self.errors = (errors.ConfigError, errors.ContractViolation, errors.CapacityError)
        self.tracer = None

    def _call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)[0]

    def execute(self, text: str) -> tuple[int, bytes]:
        """Exit status and report bytes, with the 0/1/2 contract of ``spintail run``."""
        try:
            config = self._call("cli.parse_config", self.cli.parse_config, text)
            rep, failures = self._call("cli.run", self.cli.run, config)
        except self.errors:
            return 1, b""
        payload = self._call("report.emit", self.report.emit, rep, config.out_format)
        if self.tracer is not None:
            self.tracer.counts["report_bytes"] += len(payload)
        return (2 if failures else 0), payload


def _passes(program, cases, seconds, after_pass, speed):
    """Timed passes filling ``seconds`` (at least MIN_PASSES).

    A pass starts only if one more pass of the last pass's length still ends
    within ``seconds``.  The calibration kernel runs in the gap after every
    config, untimed.  Returns the scaled seconds of each pass (its wall time
    scaled by the kernel timings from the gap before its first config to the
    gap after its last), its wall seconds, and per case its wall seconds in
    each pass.
    """
    scaled, times, case_times = [], [], [[] for _ in cases]
    deadline = time.perf_counter() + seconds
    gap, last = speed.gap(), 0.0
    while len(times) < MIN_PASSES or time.perf_counter() + last <= deadline:
        outs, kernel, start = [], list(gap), time.perf_counter()
        for per_case, case in zip(case_times, cases):
            t0 = time.perf_counter()
            outs.append(program.execute(case.text))
            per_case.append(time.perf_counter() - t0)
            gap = speed.gap()
            kernel += gap
        times.append(sum(t[-1] for t in case_times))
        scaled.append(speed.scaled(times[-1], kernel))
        last = time.perf_counter() - start
        after_pass(outs, times[-1])
    return scaled, times, case_times


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spintail", "__init__.py")):
        print(f"error: no spintail source tree at {src}/spintail", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # numpy loads only now, after the BLAS pool size is in the environment
    import numpy

    import check
    import hostspeed
    import tracing
    import workloads

    wanted_e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    wanted_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    if wanted_e2e != END_TO_END or wanted_layer != tracing.LAYER_METRICS:
        print("error: BENCHMARK.json metrics differ from what bench/ reports", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    cases = workloads.generate(args.workload, args.seed)
    speed = hostspeed.HostSpeed()
    setup, setup_wall = ([], []) if args.trace else _measure_setup(cases, root, speed)

    sys.path.insert(0, src)
    import spintail
    from spintail import (asymptotics, classical, cli, errors, localops, report,
                          sequences, shifts, states)

    if not os.path.abspath(spintail.__file__).startswith(os.path.abspath(src)):
        print(f"error: spintail imported from {spintail.__file__}, not {src}", file=sys.stderr)
        return 2

    program = Program(cli, report, errors)
    tally = check.Tally()
    first = [program.execute(c.text) for c in cases]  # warm-up pass

    def compare(outs, _seconds):
        for case, a, b in zip(cases, first, outs):
            check.check_rerun(tally, case, a, b)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": _environment(numpy, nproc), "cases": [c.label for c in cases]}
    if not args.trace:
        scaled, times, case_times = _passes(program, cases, args.seconds, compare, speed)
        # the calibration buffer is resident from start to end; it is not the program's
        peak_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                   - speed.buffer.nbytes) / 2**20
        metrics = {"setup_s": statistics.median(setup),
                   "run_s": statistics.median(scaled),
                   "peak_rss_mb": peak_mb}
        info.update(run_s_samples=scaled, run_s_tail=_tail_percentile(scaled),
                    run_wall_s=statistics.median(times), run_wall_s_samples=times,
                    case_wall_s_medians=[statistics.median(t) for t in case_times],
                    setup_s_samples=setup, setup_wall_s=statistics.median(setup_wall),
                    setup_wall_s_samples=setup_wall,
                    kernel_s_quartiles=statistics.quantiles(speed.samples, n=4))
    else:
        plain, plain_wall, _ = _passes(program, cases, args.seconds / 2, compare, speed)
        tracer = tracing.Tracer()
        tracer.install(cli=cli, asymptotics=asymptotics, sequences=sequences,
                       shifts=shifts, localops=localops, states=states, classical=classical)
        program.tracer = tracer
        per_pass, spans = [], []

        def collect(outs, seconds):
            compare(outs, seconds)
            per_pass.append(tracing.layer_metrics(tracer.spans, tracer.counts, seconds))
            spans.append(tracer.spans)
            tracer.reset()

        try:
            traced, traced_wall, _ = _passes(program, cases, args.seconds / 2, collect, speed)
        finally:
            tracer.uninstall()
            program.tracer = None
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        os.makedirs(os.path.join(root, SPAN_DIR), exist_ok=True)
        span_file = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracing.write_spans(os.path.join(root, span_file), spans)
        info.update(run_s_untraced_samples=plain, run_s_traced_samples=traced,
                    run_wall_s_untraced_samples=plain_wall,
                    run_wall_s_traced_samples=traced_wall, span_file=span_file)

    for case, out in zip(cases, first):
        check.check_report(tally, case, *out)
    units = dict(END_TO_END if not args.trace else tracing.LAYER_METRICS)
    if not args.trace:
        metrics["check_pass_frac"] = tally.pass_frac
    info["check_failures"] = tally.failures[:50]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
