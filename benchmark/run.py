"""Closed-loop benchmark of combcube, one workload per process.

    python3 benchmark/run.py --workload teleport --seed 1 --seconds 30 --trace 0

One client sends a request only after the previous one completes.  Each
request gets fresh inputs drawn from the seeded stream before its clock
starts, and its outputs are checked after the clock stops.  A request
fails if it raises or its check fails; failures are counted and the run
goes on.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; set-up time is
the median of several fresh processes, spread over the run, that each
import combcube and serve one warm-up request.  With ``--trace 1`` requests alternate
between untraced and traced, and the metrics are the per-layer ones
derived from the traced requests' spans (see tracing.py).

Each run writes a record (versions, machine, revision, seed, sample
counts) and, when traced, its spans under ``.bench_out/`` in the
checkout.  ``--workload all`` runs every workload in both modes, each in
a fresh process, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

# One client and no threads: keep numpy's thread pools at one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("teleport", "lattice-frame", "wide-crosscheck")
END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "success_rate": "ratio",
}
SETUP_PROBES = 9
WARMUP_REQUESTS = 3
MAX_REPORTED_FAILURES = 5


def import_combcube():
    """Import combcube from this checkout's src/, and from nowhere else."""
    if not (SRC / "combcube" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'combcube'} is missing; "
                         "run the benchmark from the root of a combcube checkout")
    sys.path.insert(0, str(SRC))
    import combcube
    if Path(combcube.__file__).resolve().parent != SRC / "combcube":
        raise SystemExit(f"error: imported combcube from {combcube.__file__}, not {SRC}")
    return combcube


def _setup_probe(workload: str, seed: int, probe: int) -> None:
    """Time ``import combcube`` plus one warm-up request in this fresh process."""
    start = perf_counter()
    cc = import_combcube()
    imported = perf_counter()
    import numpy as np
    import workloads
    wl = workloads.build(OUT_DIR)[workload]
    inp = next(wl.inputs(np.random.default_rng([seed, probe])))
    begin = perf_counter()
    try:
        wl.request(cc, inp)
    except Exception:
        pass  # the timed loop counts and reports failing requests
    done = perf_counter()
    print(json.dumps({"setup_s": (imported - start) + (done - begin)}))


def measure_setup(workload: str, seed: int, probe: int) -> float:
    """Set-up time of one fresh process, in seconds."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", str(probe),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Loop:
    """Closed-loop client: attempts requests and keeps latencies and failures."""

    def __init__(self, wl, cc):
        self.wl, self.cc = wl, cc
        self.attempted = 0
        self.failed = 0

    def attempt(self, inp) -> tuple[float, bool]:
        """One timed request followed by its untimed check."""
        start = perf_counter()
        try:
            out = self.wl.request(self.cc, inp)
        except Exception:
            latency = perf_counter() - start
            return latency, self._failure("request raised")
        latency = perf_counter() - start
        try:
            self.wl.check(inp, out)
        except Exception:
            return latency, self._failure("check failed")
        return latency, True

    def _failure(self, what: str) -> bool:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"{self.wl.name}: {what}:\n{traceback.format_exc()}", file=sys.stderr)
        return False

    def run(self, stream, seconds: float, tracer=None):
        """Attempt requests for ``seconds`` of wall time, at least two.

        Untraced, every request counts; traced, even-numbered requests run
        untraced and odd-numbered ones traced.  Returns the latencies of
        the untraced and the traced requests, in seconds.
        """
        untraced, traced = array("d"), array("d")
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(untraced) + len(traced) < 2:
            inp = next(stream)
            request_id = self.attempted
            self.attempted += 1
            if tracer is None or request_id % 2 == 0:
                untraced.append(self.attempt(inp)[0])
                continue
            tracer.install()
            tracer.begin()
            try:
                latency, _ = self.attempt(inp)
            finally:
                tracer.uninstall()
            tracer.end(request_id, latency)
            traced.append(latency)
        return untraced, traced


def end_to_end(latencies, setup, loop) -> tuple[dict, dict]:
    """End-to-end metrics and the sample counts behind them."""
    import numpy as np

    # read before the statistics below allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = np.frombuffer(latencies)
    p90 = float(np.percentile(lat, 90))
    metrics = {
        # successful requests per second of time spent inside requests
        "throughput_rps": (lat.size - loop.failed) / float(lat.sum()),
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
        "success_rate": 1.0 - loop.failed / loop.attempted,
    }
    samples = {
        "latency_p90_ms": {"samples": lat.size, "beyond": int((lat > p90).sum())},
        # recorded, not gated: see README.md on the bimodal median
        "latency_p50_ms": {"samples": lat.size, "value": 1e3 * float(np.median(lat))},
        "setup_s": {"samples": len(setup), "values": setup},
    }
    return metrics, samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    """Output of a git command on this checkout, or None outside a git checkout."""
    # the ceiling keeps git from taking up a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def git_revision() -> dict:
    """The checkout's commit, and whether its files differ from that commit."""
    head = _git("rev-parse", "HEAD")
    if head is None:
        return {"git_revision": "unknown", "git_dirty": None}
    return {"git_revision": head.strip(), "git_dirty": bool(_git("status", "--porcelain"))}


def run_workload(args) -> int:
    cc = import_combcube()
    import numpy as np
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.build(OUT_DIR)[args.workload]
    stream = wl.inputs(np.random.default_rng(args.seed))
    warmup = Loop(wl, cc)
    for _ in range(WARMUP_REQUESTS):
        warmup.attempt(next(stream))
    loop = Loop(wl, cc)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), **git_revision(),
    }
    if args.trace:
        tracer = tracing.Tracer(cc)
        untraced, traced = loop.run(stream, args.seconds, tracer)
        metrics = tracer.metrics(untraced)
        units = tracing.PER_LAYER_UNITS
        record["samples"] = {"untraced_requests": len(untraced), "traced_requests": len(traced)}
        record["spans_file"] = str((OUT_DIR / f"{tag}-spans.jsonl").relative_to(ROOT))
        record["spans_written"] = tracer.write_spans(OUT_DIR / f"{tag}-spans.jsonl")
    else:
        # Set-up probes are spread over the run, one before each slice of
        # requests, so their median samples the host at several moments.
        latencies, setup = array("d"), []
        for probe in range(SETUP_PROBES):
            setup.append(measure_setup(args.workload, args.seed, probe))
            latencies += loop.run(stream, args.seconds / SETUP_PROBES)[0]
        metrics, record["samples"] = end_to_end(latencies, setup, loop)
        units = END_TO_END_UNITS
        if record["samples"]["latency_p90_ms"]["beyond"] < 10:
            print("warning: fewer than 10 samples beyond p90; run longer", file=sys.stderr)
    record.update(attempted=loop.attempted, failed=loop.failed,
                  warmup_failed=warmup.failed, error_rate=loop.failed / loop.attempted)
    result = {
        "correct": loop.failed == 0 and warmup.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["metrics"] = result["metrics"]
    record_path = OUT_DIR / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    for name, unit in units.items():
        print(f"{args.workload:16s} {name:36s} {metrics[name]:14.6g} {unit}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit code {proc.returncode}")
                ok = False
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            print("\n".join(lines[:-2]))
            ok = ok and result["correct"]
            print(f"{name:16s} {'attempted':36s} {result['attempted']:14d} count")
            print(f"{name:16s} {'failed':36s} {result['failed']:14d} count")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall time of the request loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        _setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
