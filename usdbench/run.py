"""Closed-loop benchmark of usd_kit: one workload, one seed, one client.

Usage (from the root of a checkout):

    python3 usdbench/run.py --workload dense-n64 --seed 1 --seconds 20 --trace 0

The client builds a fixed pool of inputs from ``--seed``, then cycles through
it in order for ``--seconds``: each op starts only after the previous one has
returned and its outputs have been checked (checks are outside the timer).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
interleaves untraced and traced ops over whole pool cycles and prints the
per-layer metrics.  A run record (provenance, host-speed readings, failures,
the latency tail) goes to stdout before the last line, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
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
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7  # fresh-process set-ups per untraced run, spread over the run
CALIBRATION_REPS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: a host-speed reading, folded into no metric."""
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "usd_kit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with open("/proc/cpuinfo") as info:
        cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
    }


def tail(latencies_s) -> dict:
    """The highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(latencies_s)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return {"percentile": p, "value_ms": float(np.percentile(latencies_s, p)) * 1e3, "samples": n}
    return {"percentile": None, "value_ms": None, "samples": n}


class Client:
    """Runs ops in a closed loop, checks each one and keeps the tallies."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import workloads

        self.wl = workloads
        self.name = workload
        self.work = workloads.WORKLOAD[workload]
        self.seed = seed
        self.workdir = workdir
        self.items = workloads.build_inputs(workload, seed, workdir / "inputs")
        self.attempted = 0
        self.failures: list[str] = []
        self.child_rss_mb = 0.0

    def timed(self, fn, item, tracer=None):
        """Run one op (traced when a tracer is given), then check it outside the
        timer and the trace; returns (output, seconds).  Failures are tallied."""
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out, reason = fn(item), None
        except Exception:  # an op that raises is a failed op, not a failed run
            out, reason = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if reason is None:
            try:
                reason = self.work.check(item, out)
            except Exception:
                reason = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)
        if fn is self.wl.cli_session_subprocess and out is not None:
            self.child_rss_mb = max([self.child_rss_mb] + [r[5] for r in out])
        return out, seconds

    def setup_probe(self, index: int) -> float:
        probe_dir = self.workdir / f"probe{index}"
        code, out, err, _, _ = self.wl.run_child(
            [sys.executable, str(HERE / "setup_probe.py"), self.name, str(self.seed), str(probe_dir)],
            self.workdir,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {err.strip()[-500:]}")
        return float(out.strip())

    def warm_up(self) -> None:
        """One unchecked, untimed op: lazy library set-up and caches fill first."""
        try:
            self.work.op(self.items[0])
        except Exception:
            pass  # the timed loop reruns this item and records the failure

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        """End-to-end metrics and run-record fields of one untraced timed run."""
        latencies, setups = [], []
        start = time.perf_counter()
        probe_at = [start + seconds * j / SETUP_PROBES for j in range(SETUP_PROBES)]
        i = 0
        while True:
            now = time.perf_counter()
            if probe_at and now >= probe_at[0]:
                probe_at.pop(0)
                setups.append(self.setup_probe(len(setups)))
                continue
            if i and now >= start + seconds:
                break
            _, dt = self.timed(self.work.op, self.items[i % len(self.items)])
            latencies.append(dt)
            i += 1
        if self.work.op is self.wl.cli_session_subprocess:
            rss = self.child_rss_mb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        record = {
            "failed_ops_frac": {"value": len(self.failures) / self.attempted, "unit": "fraction"},
            "latency_tail_ms": tail(latencies),
            "setup_samples_s": setups,
        }
        return metrics, record

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """Per-layer metrics and run-record fields of one traced run."""
        from tracer import LAYERS, Tracer, io_kind

        tracer = Tracer()
        work = self.work
        subprocess_cli = work.op is not work.traced_op
        untraced_s = traced_s = 0.0
        command_s, startup_s = defaultdict(list), []
        traced_ops = cycles = 0
        deadline = time.perf_counter() + seconds
        while not cycles or time.perf_counter() < deadline:
            for item in self.items:
                if subprocess_cli:
                    out, _ = self.timed(work.op, item)
                    for command, *_, wall, _ in out or ():
                        command_s[command].append(wall)
                    startup_s.append(
                        self.wl.run_child([sys.executable, "-c", "import usd_kit.cli"], self.workdir)[3]
                    )
                untraced_s += self.timed(work.traced_op, item)[1]
                tracer.op_id = traced_ops
                traced_s += self.timed(work.traced_op, item, tracer)[1]
                traced_ops += 1
            cycles += 1
        tracer.save(self.workdir.parent / f"trace-{self.name}.npz")

        totals = tracer.totals()
        ms = 1e-6

        def per_op(ns):
            return ns * ms / traced_ops

        def ms_per_call(qualname):
            calls, inclusive, _ = totals.get(qualname, (0, 0.0, 0.0))
            return inclusive * ms / calls if calls else 0.0

        def self_ns(pred):
            return sum(own for name, (_, _, own) in totals.items() if pred(name))

        layer_self = {layer: per_op(self_ns(lambda n, l=layer: n.startswith(l + "."))) for layer in LAYERS}
        points = cycles * sum(len(item) for item in self.items) if self.name == "sweep-fig" else 0
        spans = sum(calls for calls, _, _ in totals.values())
        sampled_ns = totals.get("discrimination.sample_outcomes", (0, 0.0, 0.0))[1]
        m = {
            "linalg.lapack_calls_per_op": (tracer.lapack_calls / traced_ops, "count"),
            "linalg.self_ms_per_op": (layer_self["linalg"], "ms"),
            "duality.build_usd_povm.ms_per_call": (ms_per_call("duality.build_usd_povm"), "ms"),
            "duality.validate_povm.ms_per_call": (ms_per_call("duality.validate_povm"), "ms"),
            "duality.self_ms_per_op": (layer_self["duality"], "ms"),
            "duality.povm_bytes": (float(tracer.povm_bytes or 0), "bytes"),
            "equivalence.lossy_from_povm.ms_per_call": (ms_per_call("equivalence.lossy_from_povm"), "ms"),
            "equivalence.povm_from_lossy.ms_per_call": (ms_per_call("equivalence.povm_from_lossy"), "ms"),
            "equivalence.dilate_unitary.ms_per_call": (ms_per_call("equivalence.dilate_unitary"), "ms"),
            "equivalence.self_ms_per_op": (layer_self["equivalence"], "ms"),
            "discrimination.usd_report.ms_per_call": (ms_per_call("discrimination.usd_report"), "ms"),
            "discrimination.sample_outcomes.ms_per_call": (
                ms_per_call("discrimination.sample_outcomes"), "ms"),
            "discrimination.sample_outcomes.ns_per_trial": (
                sampled_ns / tracer.trials_drawn if tracer.trials_drawn else 0.0, "ns"),
            "discrimination.self_ms_per_op": (layer_self["discrimination"], "ms"),
            "scenarios.build_scenario.ms_per_call": (ms_per_call("scenarios.build_scenario"), "ms"),
            "scenarios.calls_per_point": (spans / points if points else 0.0, "count"),
            "scenarios.self_ms_per_op": (layer_self["scenarios"], "ms"),
            "io.parse_ms_per_op": (
                per_op(self_ns(lambda n: n.startswith("io.") and io_kind(n) == "parse")), "ms"),
            "io.render_ms_per_op": (
                per_op(self_ns(lambda n: n.startswith("io.") and io_kind(n) == "render")), "ms"),
            "io.bytes_read_per_op": (tracer.bytes_read / traced_ops, "bytes"),
            "io.bytes_written_per_op": (tracer.bytes_written / traced_ops, "bytes"),
            "cli.startup_ms": (statistics.median(startup_s) * 1e3 if startup_s else 0.0, "ms"),
            "cli.main_ms_per_call": (ms_per_call("cli.main"), "ms"),
        }
        for command in self.wl.CLI_SUBCOMMANDS:
            walls = command_s.get(command)
            m[f"cli.{command}.ms"] = (statistics.median(walls) * 1e3 if walls else 0.0, "ms")
        m["trace.overhead_frac"] = (1.0 - untraced_s / traced_s, "fraction")
        record = {"traced_ops": traced_ops, "pool_cycles": cycles, "spans": spans}
        return m, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "usd_kit" / "__init__.py").is_file():
        print(f"usdbench: no usd_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import usd_kit

    if Path(usd_kit.__file__).resolve().parent != (SRC / "usd_kit").resolve():
        print(f"usdbench: imported usd_kit from {usd_kit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOAD:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOAD)}")

    workdir = HERE / "_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        host_before = calibrate()
        client = Client(args.workload, args.seed, workdir)
        client.warm_up()
        if args.trace:
            metrics, extra = client.traced(args.seconds)
        else:
            metrics, extra = client.untraced(args.seconds)
        host_after = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "host_speed_ms": {"start": host_before, "end": host_after, "loop": "200k-iteration Python loop"},
        "pool_size": len(client.items),
        "failures": client.failures[:20],
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"run_record": record}))
    for reason in client.failures[:20]:
        print(f"usdbench: check failed: {reason}", file=sys.stderr)
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if not client.failures else 1


if __name__ == "__main__":
    sys.exit(main())
