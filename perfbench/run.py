"""cavitypairing benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times whole cycles of the workload's operations, with tracing
off, for at least S seconds and reports the end-to-end metrics.
``--trace 1`` runs a fixed, seeded list of operations once with the span
tracer installed and once without, repeating the pair while it fits in S
seconds, and reports the per-layer metrics.  Every operation's output is
checked against an independent reference either way.

The last line of standard output is the result: a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record (versions, load, warm-up policy, failures).  Spans and
records are also written under ``.bench_out/``.  README.md beside this file
describes the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads
from tracer import CLI_COMMANDS, LAYERS, Tracer, merge_stats

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5     # timed fresh-interpreter set-ups; their median is setup_s
IMPORT_PROBES = 3    # ``-X importtime`` runs in a traced run
RECHECK_OPS = 3      # operations re-run after the timed loop to compare bytes
# Sparse on purpose: a run's sample count varies a little with machine speed,
# and each workload's count sits well inside one step of this ladder.
TAIL_PERCENTILES = (99.9, 95.0, 75.0, 50.0)
WARMUP_POLICY = {
    True: "3 operations, untimed, before the timed loop (tc-sweep: from its own seeded points)",
    False: "none: every operation is a fresh interpreter, as a user pays it",
}

# (span name, metrics reported for it) in the traced run.
SPAN_METRICS = (
    ("critical.find_tc", ("calls", "self_s", "unique_ratio")),
    ("critical.kernel_mass", ("calls",)),
    ("critical.mass_slope", ("calls", "unique_ratio")),
    ("critical.fit_gamma", ("self_s",)),
    ("critical.correlation_function", ("calls", "self_s")),
    ("critical.fit_nu", ("self_s",)),
    ("critical.quad", ("calls", "neval", "self_s")),
    ("ladder.KernelScalars.from_model", ("calls", "self_s")),
    ("model.tau_inv", ("calls",)),
    ("ladder.solve_fock_hierarchy", ("calls", "self_s")),
    ("ladder.oracle_check", ("self_s",)),
    ("useries.taylor", ("calls", "self_s")),
    ("useries.rf_arith", ("calls", "self_s")),
    ("sectors.solve_sector_system", ("self_s",)),
    ("sectors.bcs_kernel_quadrature", ("self_s",)),
    ("sectors.quad", ("neval",)),
    ("cli.emit", ("self_s",)),
    ("cli.parse", ("self_s",)),
)
UNITS = {"calls": "count", "neval": "count", "self_s": "s", "unique_ratio": "ratio"}
IMPORT_PACKAGES = ("numpy", "scipy", "cavitypairing")


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(cfg_paths, env) -> float:
    """Wall time of a fresh interpreter importing the CLI and parsing configs."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), *map(str, cfg_paths)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    origin = Path(proc.stdout.strip()).resolve()
    if ROOT / "src" not in origin.parents:
        raise SetupError(f"cavitypairing imported from {origin}, not from this checkout")
    return elapsed


def import_profile(env) -> dict:
    """Median self import time per top-level package, from ``-X importtime``."""
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cavitypairing.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        per = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = int(parts[0].split(":", 1)[1])
            except ValueError:  # the header line
                continue
            top = parts[2].strip().split(".", 1)[0]
            if top in per:
                per[top] += self_us
        runs.append(per)
    return {k: statistics.median(r[k] for r in runs) / 1e6 for k in IMPORT_PACKAGES}


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import cavitypairing.cli as cli

    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"cavitypairing imported from {cli.__file__}, not from this checkout")
    return cli


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs operations, times them, checks their outputs and counts failures.

    With ``cpus``, operation i runs pinned to ``cpus[i % len(cpus)]``.  On a
    shared machine the CPUs' speeds drift apart, and a process otherwise
    stays on one CPU for a whole run, so runs would come out fast or slow by
    placement; alternating gives every run the same mix.
    """

    def __init__(self, cpus=()):
        self.cpus = list(cpus)
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[float] = []
        self.kinds: dict[str, list[float]] = {}
        self.children: list[workloads.CliResult] = []  # cli-cold: one per timed op
        self.last = None
        self._digests: dict[str, str] = {}

    def run(self, op, timed=True, tracer: Tracer | None = None) -> float:
        self.attempted += 1
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[self.attempted % len(self.cpus)]})
        err = None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("bench.op"):
                    result = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            err = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if err is None:
            try:
                digest = hashlib.sha256(op.check(result)).hexdigest()
                if self._digests.setdefault(op.key, digest) != digest:
                    err = "output bytes differ from an earlier run of the same input"
            except workloads.CheckFailed as exc:
                err = str(exc)
            except Exception as exc:  # malformed output the checks could not read
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append(f"{op.key}: {err}")
        elif timed:
            self.times.append(elapsed)
            self.kinds.setdefault(op.kind, []).append(elapsed)
            if isinstance(result, workloads.CliResult):
                self.children.append(result)
        self.last = result if err is None else None
        return elapsed

    def timed_cycles(self, wl, seconds: float) -> int:
        """Whole cycles until ``seconds`` have passed; returns the cycle count."""
        start, k = perf_counter(), 0
        while k == 0 or perf_counter() - start < seconds:
            for op in wl.cycle(k):
                self.run(op)
            k += 1
        return k

    def recheck(self, wl) -> None:
        """Re-run a few operations, untimed: their bytes must not change."""
        for op in wl.cycle(0)[:RECHECK_OPS]:
            self.run(op, timed=False)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile with >= 10 beyond."""
    xs = sorted(times)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = -(-q * n // 100)  # nearest rank, ceil(q n / 100)
        if n - rank >= 10:
            return q, xs[int(rank) - 1], int(n - rank)
    return 100.0, xs[-1], 0


def peak_rss_mb(wl, runner: Runner) -> float:
    if wl.warm:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(r.maxrss_kb for r in runner.children) / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, runner: Runner, setup_s: float, record: dict) -> dict:
    times = runner.times
    if not times:
        raise SetupError("no operation succeeded")
    q, tail_s, beyond = tail(times)
    record.update(tail_percentile=q, tail_samples_beyond=beyond, samples=len(times))
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(wl, runner), "MB"),
        "ok_rate": metric(1.0 - len(runner.failures) / runner.attempted, "ratio"),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced_pass(wl, runner: Runner, ops) -> tuple[float, dict, Tracer, list]:
    """One pass over ``ops`` with spans recorded; returns (op seconds, stats, tracer, child dumps)."""
    tracer = Tracer()
    dumps, parts = [], []
    busy = 0.0
    if wl.warm:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.current_op = i
            if wl.warm:
                busy += runner.run(op, timed=False, tracer=tracer)
                continue
            op.traced = True
            busy += runner.run(op, timed=False, tracer=tracer)
            op.traced = False
            if runner.last is not None:
                child = json.loads(runner.last.stats_path.read_text(encoding="utf-8"))
                parts.append(child["stats"])
                dumps.append(child["dump"])
    finally:
        tracer.uninstall()
    return busy, merge_stats([tracer.stats(), *parts]), tracer, dumps


def per_layer(wl, runner: Runner, seconds: float, imports: dict, record: dict) -> dict:
    ops = wl.trace_ops()
    untraced, traced, stats = [], [], []
    start = perf_counter()
    first = None
    while True:
        t0 = perf_counter()
        untraced.append(sum(runner.run(op) for op in ops))
        busy, st, tracer, dumps = traced_pass(wl, runner, ops)
        traced.append(busy)
        stats.append(st)
        if first is None:
            first = st
            tracer.write(wl.out / "spans.tsv.gz", dumps)
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    record.update(trace_ops=len(ops), trace_passes=len(traced),
                  spans_file=str((wl.out / "spans.tsv.gz").relative_to(ROOT)))

    spans = first["spans"]

    def self_s(name):
        return statistics.median(s["spans"].get(name, {}).get("self_s", 0.0) for s in stats)

    out = {}
    for name, kinds in SPAN_METRICS:
        calls = spans.get(name, {}).get("calls", 0)
        for kind in kinds:
            if kind == "calls":
                value = calls
            elif kind == "self_s":
                value = self_s(name)
            elif kind == "neval":
                value = first["neval"].get(name, 0)
            else:
                value = first["distinct"].get(name, 0) / calls if calls else 0.0
            out[f"{name}.{kind}"] = metric(value, UNITS[kind])
    out["cli.self_s"] = metric(sum(self_s(n) for n in CLI_COMMANDS), "s")
    names = {n for s in stats for n in s["spans"]}
    for layer in LAYERS[1:]:  # the cli layer is split as cli.self_s/emit/parse
        total = sum(self_s(n) for n in names if n.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = metric(total, "s")
    for pkg in IMPORT_PACKAGES:
        out[f"import.{pkg}_s"] = metric(imports[pkg], "s")
    cpu = [r.cpu_s for r in runner.children] or [0.0]
    out["cli_cold.child_cpu_s"] = metric(statistics.median(cpu), "s")
    rate_u = len(ops) / statistics.median(untraced)
    rate_t = len(ops) / statistics.median(traced)
    out["trace.spans"] = metric(first["n_spans"], "count")
    out["trace.ops_per_s_untraced"] = metric(rate_u, "1/s")
    out["trace.ops_per_s_traced"] = metric(rate_t, "1/s")
    out["trace.overhead_pct"] = metric(100.0 * (rate_u - rate_t) / rate_u, "%")
    return out


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cavitypairing" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"perfbench: no cavitypairing sources under {ROOT}", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_identity(), **versions(),
        "nproc": os.cpu_count(), "loadavg_before": os.getloadavg(),
    }
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, out)
    record["warmup"] = WARMUP_POLICY[wl.warm]
    env = workloads.child_env(ROOT)
    # cli-cold children keep every CPU: exponents runs a worker per CPU.
    cpus = sorted(os.sched_getaffinity(0)) if wl.warm else []
    record["placement"] = f"operations alternate over CPUs {cpus}" if cpus else "unpinned"
    runner = Runner(cpus)
    try:
        cfg_paths = wl.config_paths()
        setup_probe(cfg_paths, env)  # untimed: writes bytecode caches once
        probes = [setup_probe(cfg_paths, env) for _ in range(SETUP_PROBES)]
        record["setup_probes_s"] = probes
        imports = import_profile(env) if args.trace else None
        if wl.warm:
            wl.load(import_cli())
            warm = Runner(cpus)
            for op in wl.warmup_ops():
                warm.run(op)
        if args.trace:
            metrics = per_layer(wl, runner, args.seconds, imports, record)
        else:
            record["cycles"] = runner.timed_cycles(wl, args.seconds)
            metrics = end_to_end(wl, runner, statistics.median(probes), record)
        runner.recheck(wl)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "ops", ignore_errors=True)

    record.update(
        loadavg_after=os.getloadavg(),
        error_rate=len(runner.failures) / runner.attempted,
        failures=runner.failures[:20],
        kind_p50_s={k: statistics.median(v) for k, v in sorted(runner.kinds.items())},
        metrics=metrics,
    )
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
