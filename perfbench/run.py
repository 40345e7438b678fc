"""Benchmark runner for normed-forms; standard library only.

    python3 perfbench/run.py --workload catalog-neg --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout: the package is imported from
./src, nowhere else, and fails fast when it is missing.  One invocation is
one fresh interpreter running one workload (see workloads.py):

1. Set-up: import every module of the package afresh and generate the
   seeded inputs and the reference digests.
2. Passes over the inputs until --seconds is used up.  Every request is
   timed on its own.  The first pass is checked request by request; every
   later pass must reproduce its outputs byte for byte.  Set-ups are
   repeated between passes, outside the pass timings; `setup_s` is the
   median of all of them.
3. One JSON object on the last line of stdout.  With --trace 0 it holds the
   end-to-end metrics.  With --trace 1 the first third of the time runs
   untraced passes and the rest traced ones (tracing.py), and it holds the
   per-layer metrics.

Throughout, the run's thread moves round the CPUs it may use every half
second (CpuRotation), so each core's slow spells weigh equally.  A line
before the result records the interpreter, commit, source digest and CPU
count.  Exit status 0 when every output was correct, 1 when one was not,
2 when the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from types import ModuleType

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
MODULES = ("forms", "pairings", "trigroup", "matembed", "lattices", "classify", "cli")
SETUP_REPEATS = 3
# Least time between two set-ups repeated between passes.  The machine's
# speed drifts over seconds, so set-ups taken across the whole run give a
# median as steady as the passes', where a burst at the start would not.
SETUP_SPACING_S = 2.0
# Seed whose per-request outputs are pinned in reference.json.
REFERENCE_SEED = 0
# Seconds the run stays on one CPU before CpuRotation moves it on.
ROTATION_PERIOD_S = 0.5


class CpuRotation:
    """Moves the calling thread round the CPUs it may use, one at a time.

    On a shared host each CPU has its own slow and fast spells (other
    tenants on its sibling).  A run that visits every CPU equally averages
    them: timed over 28 s windows on a 2-vCPU guest, a CPU loop spread 0.20
    of its median when left to the scheduler and 0.13 when rotated.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.thread_id = threading.get_native_id()
        self._stop = threading.Event()
        self._rotor = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self) -> None:
        turn = 0
        while not self._stop.wait(ROTATION_PERIOD_S):
            turn += 1
            os.sched_setaffinity(self.thread_id, {self.cpus[turn % len(self.cpus)]})

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            os.sched_setaffinity(self.thread_id, {self.cpus[0]})
            self._rotor.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._rotor.is_alive():
            self._stop.set()
            self._rotor.join()
        os.sched_setaffinity(self.thread_id, set(self.cpus))


class Package:
    """The modules of one fresh import of normed_forms."""

    def __init__(self) -> None:
        for name in [key for key in sys.modules
                     if key == "normed_forms" or key.startswith("normed_forms.")]:
            del sys.modules[name]
        self.root = importlib.import_module("normed_forms")
        if Path(self.root.__file__).resolve().parent != SRC / "normed_forms":
            raise ImportError(f"normed_forms resolved to {self.root.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"normed_forms.{name}"))

    def namespaces(self) -> list[ModuleType]:
        return [self.root, *(getattr(self, name) for name in MODULES)]


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def load_reference(workload: str, size: str, seed: int) -> list[str] | None:
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle).get(f"{workload}/{size}")


class Setups:
    """Timed set-ups of one workload: a fresh import plus its inputs."""

    def __init__(self, workload, seed: int, size: str) -> None:
        self.workload, self.seed, self.size = workload, seed, size
        self.times: list[float] = []
        self.last = 0.0

    def __call__(self):
        start = time.perf_counter()
        package = Package()
        inputs = self.workload.make_inputs(package, self.seed, self.size)
        reference = load_reference(self.workload.name, self.size, self.seed)
        self.last = time.perf_counter()
        self.times.append(self.last - start)
        return package, inputs, reference

    def between_passes(self) -> None:
        if time.perf_counter() - self.last >= SETUP_SPACING_S:
            self()


class Run:
    """Timings and correctness tallies of the passes of one invocation."""

    def __init__(self, workload, package, inputs, reference) -> None:
        self.workload = workload
        self.package = package
        self.inputs = inputs
        self.reference = reference
        self.expected: list[str] | None = None  # digests of the first pass
        self.attempted = 0
        self.failed = 0
        self.ops_per_pass = 0

    def one_pass(self) -> tuple[float, list[float], list[float]]:
        """Run every request once; returns wall, latencies and first-output
        delays, all in seconds."""
        latencies, first_outputs, texts, values = [], [], [], []
        clock = time.perf_counter
        pass_start = clock()
        for request in self.inputs:
            start = clock()
            try:
                text, first, value = self.workload.run(self.package, request)
            except Exception:
                traceback.print_exc()
                text, first, value = "error", None, None
            end = clock()
            latencies.append(end - start)
            first_outputs.append((end if first is None else first) - start)
            texts.append(text)
            values.append(value)
        wall = clock() - pass_start
        self._verify(texts, values)
        return wall, latencies, first_outputs

    def _verify(self, texts: list[str], values: list) -> None:
        digests = [digest(text) for text in texts]
        self.attempted += len(texts)
        if self.expected is None:
            # First pass: check each output, then hold every later pass to it.
            self.ops_per_pass = sum(self.workload.ops(text) for text in texts)
            ok = [value is not None and self._check(request, value)
                  for request, value in zip(self.inputs, values)]
            if self.reference is not None:
                ok = [good and got == want
                      for good, got, want in zip(ok, digests, self.reference)]
                if len(self.reference) != len(digests):
                    ok = [False] * len(digests)
            self.failed += ok.count(False)
            self.expected = digests
        else:
            self.failed += sum(got != want for got, want in zip(digests, self.expected))

    def _check(self, request, value) -> bool:
        try:
            return self.workload.check(self.package, request, value)
        except Exception:
            traceback.print_exc()
            return False

    def passes_until(self, deadline: float, between=None):
        """Passes while another one fits before the deadline (at least one),
        calling `between` after each.

        Returns the pass walls, and for each request the median over the
        passes of its latency and of its first-output delay: repeating a
        request and keeping its median filters out slow spells of a shared
        machine, which would otherwise set the tail percentiles.
        """
        walls, latencies, first_outputs = [], [], []
        while True:
            wall, lat, first = self.one_pass()
            walls.append(wall)
            latencies.append(lat)
            first_outputs.append(first)
            if between is not None:
                between()
            if time.perf_counter() + wall > deadline:
                return (walls, [statistics.median(col) for col in zip(*latencies)],
                        [statistics.median(col) for col in zip(*first_outputs)])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float, walls, latencies, first_outputs) -> dict:
    wall = statistics.median(walls)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(run.ops_per_pass / wall, "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": metric(1000 * percentile(latencies, 90), "ms"),
        "first_output_s": metric(statistics.median(first_outputs), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def environment(args, walls) -> dict:
    sources = sorted((SRC / "normed_forms").glob("*.py"))
    tree = hashlib.sha1()
    for path in sources:
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": "tiny" if args.tiny else "full",
        "trace": args.trace,
        "passes": len(walls),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha1": tree.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("NORMED_FORMS_THREADS", None)
    if not (SRC / "normed_forms" / "__init__.py").is_file():
        sys.stderr.write(f"error: no normed_forms package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"

    with CpuRotation():
        setups = Setups(workload, args.seed, size)
        for _ in range(SETUP_REPEATS):
            package, inputs, reference = setups()

        run = Run(workload, package, inputs, reference)
        begin = time.perf_counter()
        if args.trace == 0:
            walls, latencies, first_outputs = run.passes_until(
                begin + args.seconds, setups.between_passes)
            metrics = end_to_end(run, statistics.median(setups.times), walls, latencies,
                                 first_outputs)
        else:
            walls, _, _ = run.passes_until(begin + args.seconds / 3)
            tracer = Tracer()
            tracer.install(package)
            try:
                traced, _, _ = run.passes_until(begin + args.seconds)
            finally:
                tracer.uninstall()
            overhead = statistics.median(traced) - statistics.median(walls)
            metrics = layer_metrics(tracer, len(traced), sum(traced), overhead)
            walls = walls + traced

    print(json.dumps({"environment": environment(args, walls)}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
