#!/usr/bin/env python3
"""End-to-end benchmark of `rexspeed campaign` over the scenario registry.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--smoke]

Run from the repository root. Builds the CLI and the traced replay from
source into .bench_build/, works in .bench_out/, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 times the real CLI, one invocation at a time, with tracing off,
and reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
perfbench_trace (trace_replay.cpp), which replays the workload in-process
with a span around every layer call and probes each layer, and reports
the per-layer metrics; its Chrome trace-event JSON lands in
.bench_out/<workload>/trace.json. --all runs every workload both ways and
prints every metric; --smoke shrinks the grids so that takes seconds.

Every timed invocation's output is checked: the sorted stdout table and
the exported figure tree must match the digests pinned in pins.json, and
a warm rerun must print exactly what its cold fill printed. The traced
replay's results must match the pinned result fingerprint. README.md
describes the workloads, the metrics and the baseline.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
CLI = BUILD / "rexspeed" / "rexspeed"
TRACER = BUILD / "perfbench_trace"

# The whole registry: figures 2-14 plus the four extension scenarios.
# Each seed draws the permutations of the order they are passed in;
# outputs are compared without regard to order.
SCENARIOS = [
    "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "exact_rho",
    "interleaved_rho", "interleaved_segments", "recall_rho",
]
THREADS = 4
SETUP_POINTS = 2
SMOKE_POINTS = 11
MIN_INVOCATIONS = 5
SETUPS_PER_MAIN = 4
INVOCATION_TIMEOUT_S = 120

# points: grid size; store: None, "cold" (fresh cache every invocation)
# or "warm" (filled once, untimed); export: fresh --out-dir every time.
WORKLOADS = {
    "compute": {"points": 10001, "store": None, "export": False},
    "figures-cold": {"points": 2001, "store": "cold", "export": True},
    "rerun-warm": {"points": 10001, "store": "warm", "export": False},
}
FOOTER = re.compile(
    r"^\d+ scenarios (through one pool \(\d+ threads\)|across \d+ worker "
    r"processes .*)$")
MB = 1e6


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def newest_mtime(paths):
    newest = 0.0
    for path in paths:
        files = path.rglob("*") if path.is_dir() else [path]
        for file in files:
            if file.is_file():
                newest = max(newest, file.stat().st_mtime)
    return newest


def sources():
    return [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "tools", BENCH]


def cli_sources():
    """What the rexspeed_cli target compiles: the library under src/ and
    the CLI's own source file."""
    return [ROOT / "src", ROOT / "tools" / "rexspeed_cli.cpp"]


def build():
    """Configures (once) and builds the CLI and the tracer, Release."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no rexspeed sources to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=600)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
         "--target", "rexspeed_cli", "perfbench_trace"],
        stdout=sys.stderr, check=True, timeout=840)
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    if build_type is None or build_type.group(1) != "Release":
        fail("refusing to time a CLI that is not a Release build")
    if CLI.stat().st_mtime < newest_mtime(cli_sources()):
        fail("refusing to time a CLI older than its sources")
    return cache


def source_digest():
    digest = hashlib.sha256()
    for root in sources():
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for file in files:
            if file.is_file() and "__pycache__" not in file.parts:
                digest.update(str(file.relative_to(ROOT)).encode() + b"\0")
                digest.update(file.read_bytes())
    return digest.hexdigest()


def run_context(cache):
    """What the numbers were measured on, recorded next to them."""
    compiler = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    version = subprocess.run([compiler.group(1), "--version"],
                             capture_output=True, text=True).stdout
    kernels = subprocess.run([str(CLI), "kernels"], capture_output=True,
                             text=True, check=True).stdout
    tier = re.search(r"active tier:\s*(\S+)", kernels)
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        git_sha = git.stdout.strip() if git.returncode == 0 else "none"
    except FileNotFoundError:
        git_sha = "none"
    return {
        "nproc": os.cpu_count(),
        "kernel_tier": tier.group(1) if tier else "unknown",
        "compiler": version.splitlines()[0] if version else "unknown",
        "build_type": "Release",
        "git_sha": git_sha,
        "source_sha256": source_digest(),
    }


class Invocation:
    def __init__(self, argv, cwd):
        stdout_path = cwd / "stdout.txt"
        with open(stdout_path, "wb") as out, \
                open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss * 1024 / MB
        self.stdout = stdout_path.read_bytes()


def table_digest(stdout):
    """SHA-256 of the stdout lines, sorted, without the footer line (which
    names the thread or worker count). None when there is no footer."""
    lines = stdout.decode(errors="replace").rstrip("\n").split("\n")
    if not lines or not FOOTER.match(lines[-1]):
        return None
    body = "\n".join(sorted(lines[:-1]))
    return hashlib.sha256(body.encode()).hexdigest()


def tree_digest(root):
    digest = hashlib.sha256()
    for file in sorted(root.rglob("*")):
        if file.is_file():
            digest.update(file.relative_to(root).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(file.read_bytes()).digest())
    return digest.hexdigest()


def tree_bytes(root):
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


class Checker:
    """Counts invocations and the ones that fail their output check."""

    def __init__(self):
        self.pins = json.loads((BENCH / "pins.json").read_text())
        self.attempted = 0
        self.failed = 0

    def pinned(self, kind, points):
        pin = self.pins[kind].get(str(points))
        if pin is None:
            fail(f"no pinned {kind} digest for --points={points}")
        return pin

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: output check failed: {what}", file=sys.stderr)
        return ok

    def invocation(self, run, points, export_dir=None, expect=None):
        """Exit code, pinned table digest, pinned export tree digest and,
        for a warm rerun, byte equality with the cold fill's stdout."""
        kind = "export_table" if export_dir is not None else "table"
        ok = (run.returncode == 0
              and table_digest(run.stdout) == self.pinned(kind, points)
              and (export_dir is None
                   or tree_digest(export_dir) == self.pinned("export_tree",
                                                             points))
              and (expect is None or run.stdout == expect))
        return self.check(ok, f"campaign --points={points} exited "
                              f"{run.returncode}")


def scenario_orders(seed):
    """Endless permutations of the registry, drawn from `seed`. Every
    main invocation of a run takes the next one: a campaign's wall time
    depends on where its largest panels fall in the order (by up to a
    sixth on compute), and a run that averages over a fresh order per
    invocation keeps that out of the spread from one seed to the next."""
    rng = random.Random(seed)
    while True:
        order = list(SCENARIOS)
        rng.shuffle(order)
        yield order


def in_order(stdout, order):
    """A campaign's stdout with its table rows (one per scenario, each
    starting with the scenario's name, after a two-line header) put in
    `order`."""
    lines = stdout.split(b"\n")
    rows = {row.split(maxsplit=1)[0].decode(errors="replace"): row
            for row in lines[2:2 + len(order)] if row.strip()}
    return b"\n".join(lines[:2] + [rows.get(name, b"") for name in order]
                      + lines[2 + len(order):])


def count_points(points, order):
    result = subprocess.run([str(TRACER), "--count-points",
                             f"--points={points}",
                             "--scenarios=" + ",".join(order)],
                            capture_output=True, text=True, check=True)
    return int(result.stdout)


class Leg:
    """One CLI invocation shape (points, store, export, and --threads or
    --workers) in its own directory. A cold store or an export starts
    every invocation from empty directories, unless the leg keeps them
    (`keep`), in which case its later invocations hit the store that the
    first one filled."""

    def __init__(self, work, name, workload, points, order, flag="threads",
                 keep=False):
        self.dir = work / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.order = order
        self.points = points
        self.store = workload["store"]
        self.export = workload["export"]
        self.argv = [str(CLI), "campaign", f"--{flag}={THREADS}",
                     f"--points={points}", "--scenarios=" + ",".join(order)]
        if self.store:
            self.argv.append("--cache-dir=cache")
        if self.export:
            self.argv.append("--out-dir=out")
        self.writes = self.store == "cold" or self.export
        self.fresh = self.writes and not keep
        self.expect = None

    def fill(self, checker, same_bytes=True):
        """One untimed invocation: it warms up, and fills the store of a
        warm leg. A warm leg's later invocations must print what this cold
        fill printed, unless `same_bytes` is off (a sharded run's footer
        counts how its tasks were served)."""
        run = self.run(checker)
        if self.store == "warm" and same_bytes:
            self.expect = run.stdout

    def run(self, checker):
        if self.fresh:
            shutil.rmtree(self.dir / "cache", ignore_errors=True)
            shutil.rmtree(self.dir / "out", ignore_errors=True)
        if self.writes:
            # Flushing what the previous invocation wrote and deleted keeps
            # its writeback out of this invocation's time.
            os.sync()
        run = Invocation(self.argv, self.dir)
        checker.invocation(run, self.points,
                           self.dir / "out" if self.export else None,
                           self.expect)
        run.disk_mb = (len(run.stdout) + tree_bytes(self.dir / "cache")
                       + tree_bytes(self.dir / "out")) / MB
        return run


def fresh_work_dir(workload):
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.sync()
    return work


def measure(workload, seed, seconds, smoke, checker):
    """Times the CLI: after an untimed warm-up (or the cache fill), main
    invocations, each in the seed's next scenario order, alternate with
    --points=2 set-up invocations until `seconds` have passed and the
    main ones have run MIN_INVOCATIONS times.

    The set-up invocations keep their --cache-dir and do not export.
    Set-up is the fixed cost of an invocation: exec, registry, backends,
    pool and store open. Writing figures-cold's 156 small figure files
    made its setup_s follow the shared disk instead: 0.015 s to 0.1 s,
    and up to 3x within one set of runs. The first set-up invocation
    after a main one still pays for the main one's writeback and freed
    memory (5.2 ms against 3.6 ms on figures-cold), so it is checked but
    not timed; SETUPS_PER_MAIN timed ones follow it."""
    spec = WORKLOADS[workload]
    points = SMOKE_POINTS if smoke else spec["points"]
    orders = scenario_orders(seed)
    work = fresh_work_dir(workload)
    # The main legs share one directory, so one cold fill serves them all.
    first = Leg(work, "main", spec, points, next(orders))
    setup = Leg(work, "setup", dict(spec, export=False), SETUP_POINTS,
                first.order, keep=True)
    for leg in (first, setup):
        leg.fill(checker)
    delivered = count_points(points, first.order)

    def main_leg():
        leg = Leg(work, "main", spec, points, next(orders))
        if first.expect is not None:
            leg.expect = in_order(first.expect, leg.order)
        return leg

    mains, setups = [], []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(mains) < MIN_INVOCATIONS):
        mains.append(main_leg().run(checker))
        setup.run(checker)
        setups.extend(setup.run(checker) for _ in range(SETUPS_PER_MAIN))
    campaign_s = median(r.wall_s for r in mains)
    return {
        "campaign_s": campaign_s,
        "points_per_s": delivered / campaign_s,
        "cpu_s": median(r.cpu_s for r in mains),
        "peak_rss_mb": median(r.peak_rss_mb for r in mains),
        "disk_mb": median(r.disk_mb for r in mains),
        "setup_s": median(r.wall_s for r in setups),
    }


def measure_shard(work, spec, points, order, pairs, checker):
    """The workload's invocation through the CLI with --workers=4 in place
    of --threads=4, in alternating pairs with the --threads=4 one."""
    pool = Leg(work, "pool", spec, points, order)
    shard = Leg(work, "shard", spec, points, order, flag="workers")
    pool.fill(checker)
    shard.fill(checker, same_bytes=False)
    pools, shards = [], []
    for i in range(pairs):
        pair = (pool, shard) if i % 2 == 0 else (shard, pool)
        for leg in pair:
            (pools if leg is pool else shards).append(leg.run(checker))
    shard_s = median(r.wall_s for r in shards)
    return {"shard.campaign_s": shard_s,
            "shard.vs_pool": shard_s / median(r.wall_s for r in pools)}


def measure_trace(workload, seed, seconds, smoke, checker):
    """The shard comparison through the CLI, then the traced in-process
    replay for the rest of `seconds`."""
    spec = WORKLOADS[workload]
    points = SMOKE_POINTS if smoke else spec["points"]
    order = next(scenario_orders(seed))
    work = fresh_work_dir(workload)
    start = time.perf_counter()
    shard = measure_shard(work, spec, points, order, 1 if smoke else 3,
                          checker)
    left = max(0.0, seconds - (time.perf_counter() - start))
    result = subprocess.run(
        [str(TRACER), f"--workload={workload}", f"--points={points}",
         "--scenarios=" + ",".join(order), f"--seconds={left}",
         f"--work-dir={work / 'replay'}",
         f"--trace-out={work / 'trace.json'}"],
        stdout=subprocess.PIPE, text=True, timeout=INVOCATION_TIMEOUT_S)
    ok = result.returncode == 0
    traced = json.loads(result.stdout.splitlines()[-1]) if ok else {}
    metrics = dict(traced.get("metrics", {}), **shard)
    checker.check(ok and traced["mismatches"] == 0,
                  "in-process results differ between replays and probes")
    checker.check(ok and traced["fingerprint"]
                  == checker.pinned("fingerprint", points),
                  "replay results differ from the pinned fingerprint")
    if spec["store"] == "warm":
        checker.check(traced.get("replay_hit_ratio") == 1,
                      "warm replay missed the store")
    if spec["export"]:
        checker.check(tree_digest(work / "replay" / "replay_out")
                      == checker.pinned("export_tree", points),
                      "replay export tree differs from the pinned one")
    return metrics


def report(benchmark, workload, trace, metrics, checker, context):
    names = benchmark["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        fail(f"{workload}: not measured: {', '.join(missing)}")
    error_rate = checker.failed / max(checker.attempted, 1)
    print(f"== {workload} ({'traced' if trace else 'untraced'}) ==")
    for m in names:
        print(f"  {m['name']:<26} {metrics[m['name']]:>16.6g} {m['unit']}")
    if not trace:
        print(f"  {'error_rate':<26} {error_rate:>16.6g} ratio")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in names},
    }
    saved = dict(result, context=context, workload=workload, trace=trace)
    (OUT / workload / f"result_trace{int(trace)}.json").write_text(
        json.dumps(saved, indent=1) + "\n")
    return result


def run_one(benchmark, workload, seed, seconds, trace, smoke, context):
    checker = Checker()
    measure_fn = measure_trace if trace else measure
    metrics = measure_fn(workload, seed, seconds, smoke, checker)
    return report(benchmark, workload, trace, metrics, checker, context)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--smoke", action="store_true",
                        help=f"--points={SMOKE_POINTS} grids, for tests")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")

    benchmark_file = ROOT / "BENCHMARK.json"
    if not benchmark_file.is_file():
        fail(f"{benchmark_file} is missing")
    benchmark = json.loads(benchmark_file.read_text())
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.smoke else benchmark["run_seconds"]
    context = run_context(build())
    print("context: " + json.dumps(context))

    if not args.all:
        result = run_one(benchmark, args.workload, args.seed, seconds,
                         bool(args.trace), args.smoke, context)
        print(json.dumps(result))
        return 0
    results = {}
    for workload in WORKLOADS:
        results[workload] = [
            run_one(benchmark, workload, args.seed, seconds, trace,
                    args.smoke, context) for trace in (False, True)]
    print(json.dumps(results))
    return 0 if all(r["correct"] for rs in results.values() for r in rs) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
