"""The four benchmark workloads: seeded inputs, operations and output checks.

An operation (``Op``) has a ``run()`` that the benchmark times and a
``check()`` that it does not: ``check`` raises ``CheckFailed`` when a result
disagrees with its reference, and otherwise returns the bytes the operation
produced, which must be identical every time the same ``key`` runs.  A workload yields its operations in cycles; every
cycle has the same mix of operation kinds, so a run that stops after a whole
number of cycles measures the same mix whatever its length.

Why each workload exists is in README.md beside this file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import refs

PRESETS = ("reference", "fermi-liquid", "convention-heavy")
CLI_KINDS = ("tc", "exponents", "xi", "vertex", "scan", "verify", "verify-fault")
CHILD_TIMEOUT_S = 170


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def read_config(path: Path) -> dict:
    """Flat ``section.key = value`` text, as the presets are written."""
    out = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def model_of(conf: dict) -> refs.Model:
    return refs.Model(
        float(conf["model.g0"]), float(conf["model.delta_c"]), float(conf["model.e_f"]),
        conf["model.lifetime"], conf.get("model.convention", "canonical"),
    )


# ---------------------------------------------------------------------------
# checks on result rows: (state, quantity, value, note)
# ---------------------------------------------------------------------------

def rows_of_table(table) -> list[tuple]:
    return [(r.state, r.quantity, r.value, r.note) for r in table.rows]


def rows_of_csv(data: bytes) -> list[tuple]:
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return [(r["state"], r["quantity"], float(r["value"]), r["note"]) for r in reader]


def state_kind(label: str) -> tuple[str, int]:
    """('number', n_top) for vacuum/Fock/mixtures, ('gaussian', 0) for thermal."""
    if label == "vacuum":
        return "number", 0
    if label.startswith("fock:"):
        return "number", int(label[5:])
    if label.startswith("thermal"):
        return "gaussian", 0
    if label.startswith("mix:{"):
        return "mixture", max(int(n) for n in re.findall(r"(\d+):", label[4:]))
    raise CheckFailed(f"unknown state label {label!r}")


def check_finite(rows) -> None:
    for state, qty, val, note in rows:
        require(math.isfinite(val), f"{state} {qty}: non-finite value {val} ({note})")


def check_tc(rows, model: refs.Model) -> None:
    check_finite(rows)
    vac = model.vacuum_root()
    closed = model.tc_closed_form()
    for state, qty, val, _ in rows:
        require(qty == "t_c", f"unexpected quantity {qty}")
        tc = val * model.delta_c
        if state_kind(state)[0] == "gaussian":
            beta = float(state.split("=", 1)[1]) if "beta=" in state else None
            resid = model.m_th(tc, beta) - 1.0
            require(tc >= vac * (1 - refs.TC_REL_TOL), f"{state}: thermal T_c {tc} below vacuum {vac}")
        else:
            resid = model.m_vac(tc) - 1.0
            if closed is not None:
                dev = refs.rel_dev(tc, closed)
                require(dev <= refs.TC_REL_TOL, f"{state}: T_c {tc} vs closed form {closed} (rel {dev:.2e})")
        require(abs(resid) <= refs.ROOT_RESIDUAL_TOL, f"{state}: |M(T_c) - 1| = {abs(resid):.2e}")


def check_exponents(rows) -> None:
    seen = set()
    for state, qty, val, note in rows:
        require(not note.startswith("REJECTED"), f"{state} {qty}: {note}")
        require(math.isfinite(val), f"{state} {qty}: non-finite value {val}")
        kind, n_top = state_kind(state)
        if qty == "gamma":
            want, tol = (1.0, refs.GAMMA_TOL_GAUSSIAN) if kind == "gaussian" else (
                n_top + 1.0, refs.GAMMA_TOL_NUMBER)
            require(abs(val - want) <= tol, f"{state}: gamma {val} vs {want} +- {tol}")
        elif qty == "nu":
            require(abs(val - 0.5) <= refs.NU_TOL, f"{state}: nu {val} vs 0.5 +- {refs.NU_TOL}")
        else:
            raise CheckFailed(f"unexpected quantity {qty}")
        seen.add((state, qty))
    require(len(seen) == len(rows) and len(rows) % 2 == 0, "gamma/nu rows incomplete")


def check_xi(rows) -> None:
    check_finite(rows)
    for state, qty, val, _ in rows:
        if qty == "xi":
            require(val > 0, f"{state}: xi {val} not positive")
        elif qty == "xi_ratio" and state_kind(state)[0] == "number":
            want = math.sqrt(state_kind(state)[1] + 1)
            dev = refs.rel_dev(val, want)
            require(dev <= refs.XI_RATIO_TOL, f"{state}: xi ratio {val} vs sqrt(n+1) = {want}")


def check_scan(rows, model: refs.Model) -> None:
    check_finite(rows)
    require(len(rows) > 0, "empty scan")
    for _, qty, val, note in rows:
        T = float(note.split("=", 1)[1]) * model.delta_c
        ref = model.m_vac(T) if qty == "m_vac" else model.m_th(T)
        dev = refs.rel_dev(val, ref)
        require(dev <= refs.MASS_REL_TOL, f"scan {qty} at T={T}: {val} vs {ref} (rel {dev:.2e})")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Op:
    key: str
    kind: str

    def run(self):
        raise NotImplementedError

    def check(self, result) -> bytes:
        """Raise ``CheckFailed`` on a wrong result; return the output bytes."""
        raise NotImplementedError


class Workload:
    name = ""
    warm = True  # in-process, with a warm-up before the timed loop

    def __init__(self, root: Path, seed: int, out: Path):
        self.root, self.seed, self.out = root, seed, out

    def config_paths(self) -> list[Path]:
        """Configs the set-up probe parses."""
        return [self.root / "configs" / f"{p}.cfg" for p in PRESETS]

    def load(self, cli) -> None:
        """Parse the configs in-process (warm workloads)."""
        self.cli = cli
        self.cfgs = {p: cli.RunConfig.parse(path.read_text(encoding="utf-8"))
                     for p, path in zip(PRESETS, self.config_paths())}

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return self.cycle(0)[:3]

    def trace_ops(self) -> list[Op]:
        return self.cycle(0)


# -- exponents-sweep --------------------------------------------------------

class ExponentsOp(Op):
    def __init__(self, wl, preset, token):
        self.wl, self.preset, self.token = wl, preset, token
        self.key = f"exponents+xi {preset} {token}"
        self.kind = "exponents+xi"

    def run(self):
        cli = self.wl.cli
        cfg = replace(self.wl.cfgs[self.preset], states=(self.token,))
        return cli.cmd_exponents(cfg, jobs=1), cli.cmd_xi(cfg)

    def check(self, result):
        exps, xis = result
        check_exponents(rows_of_table(exps))
        check_xi(rows_of_table(xis))
        return (exps.to_csv() + xis.to_csv()).encode()


class ExponentsSweep(Workload):
    name = "exponents-sweep"

    def __init__(self, root, seed, out):
        super().__init__(root, seed, out)
        rng = random.Random(seed)
        models = [model_of(read_config(p)) for p in self.config_paths()]
        while True:  # a fixed beta needs a thermal transition on every preset
            beta = round(rng.uniform(2.0, 8.0), 3)
            if all(m.thermal_root_exists(beta) for m in models):
                break
        n1, n2 = sorted(rng.sample(range(9), 2))
        w = rng.choice((0.25, 0.5, 0.75))
        self.states = (
            ["vacuum"]
            + [f"fock:{n}" for n in sorted(rng.sample(range(1, 9), 3))]
            + ["thermal", f"thermal:beta={beta!r}", f"mix:{{{n1}:{w!r},{n2}:{1 - w!r}}}"]
        )

    def cycle(self, k):
        return [ExponentsOp(self, p, tok) for tok in self.states for p in PRESETS]


# -- tc-sweep ---------------------------------------------------------------

class TcSweepOp(Op):
    def __init__(self, wl, text, model):
        self.wl, self.text, self.model = wl, text, model
        self.key = text
        self.kind = "tc+vertex+scan " + ("fermi-liquid" if model.lifetime == "fermi-liquid" else "constant")

    def run(self):
        cli = self.wl.cli
        cfg = cli.RunConfig.parse(self.text)
        tables = (cli.cmd_tc(cfg), cli.cmd_vertex(cfg), cli.cmd_scan(cfg))
        for stem, table in zip(("tc", "vertex", "scan"), tables):
            cli.emit(table, "csv", self.wl.out / "emit", stem)
        return tables

    def check(self, result):
        tc, vertex, scan = (rows_of_table(t) for t in result)
        check_tc(tc, self.model)
        check_finite(vertex)
        check_scan(scan, self.model)
        data = b"".join((self.wl.out / "emit" / f"{s}.csv").read_bytes()
                        for s in ("tc", "vertex", "scan"))
        return data


class TcSweep(Workload):
    """Fresh parameter points: half constant lifetime, half Fermi-liquid."""

    name = "tc-sweep"
    CYCLE = 24

    def __init__(self, root, seed, out):
        super().__init__(root, seed, out)
        self._rng = random.Random(seed)
        self._points: list[tuple[str, refs.Model]] = []

    def _point(self, i: int) -> tuple[str, refs.Model]:
        while len(self._points) <= i:
            self._points.append(self._draw(len(self._points)))
        return self._points[i]

    def _draw(self, i: int) -> tuple[str, refs.Model]:
        rng = self._rng
        while True:
            conv = rng.choice(sorted(refs.CONVENTION_FACTORS))
            fc = refs.CONVENTION_FACTORS[conv][1]
            if i % 2 == 0:
                dc, e_f = 1.0, 100.0
                g = 10 ** rng.uniform(math.log10(0.005), math.log10(0.03))
                s = rng.uniform(0.1, 0.6)  # resonant share 2 c2 of the vacuum mass
                lifetime = f"constant:{g * dc * math.sqrt(2 * fc / s)!r}"
            else:
                dc, e_f = 50.0, 1e4
                g = 10 ** rng.uniform(math.log10(3e-4), math.log10(3e-3))
                lifetime = "fermi-liquid"
            g0 = math.sqrt(g) * 4.0 * math.pi * dc
            model = refs.Model(g0, dc, e_f, lifetime, conv)
            if model.thermal_root_exists():
                break
        n = rng.randint(1, 8)
        text = (
            f"model.g0 = {g0!r}\nmodel.delta_c = {dc!r}\nmodel.q0 = 0.001\n"
            f"model.e_f = {e_f!r}\nmodel.k_f = 1.0\nmodel.lifetime = {lifetime}\n"
            f"model.convention = {conv}\n"
            f"states.list = vacuum, fock:{n}, thermal, mix:{{0:0.5,{n}:0.5}}\n"
        )
        return text, model

    def config_paths(self):
        cfg_dir = self.out / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i in range(self.CYCLE):
            path = cfg_dir / f"point{i}.cfg"
            path.write_text(self._point(i)[0], encoding="utf-8")
            paths.append(path)
        return paths

    def load(self, cli):
        self.cli = cli

    def cycle(self, k):
        return [TcSweepOp(self, *self._point(i))
                for i in range(k * self.CYCLE, (k + 1) * self.CYCLE)]

    def warmup_ops(self):
        # Points of their own, so no timed point is seen before it is timed.
        warm = TcSweep(self.root, self.seed ^ 0x5EED, self.out)
        warm.cli = self.cli
        return warm.cycle(0)[:3]


# -- oracle-exact -----------------------------------------------------------

def _rational_kernel(rng: random.Random, KernelScalars):
    a = Fraction(rng.randint(1, 60), 100)
    c2 = Fraction(rng.randint(1, 25), 100)
    if a + 2 * c2 == 1:
        c2 += Fraction(1, 1000)
    return KernelScalars(gamma0=Fraction(-rng.randint(1, 9), rng.randint(1, 5)), a_bcs=a, c2=c2)


class OracleOp(Op):
    def __init__(self, wl, kind, preset, n, make_kernel, x=None):
        self.wl, self.preset, self.n, self.make_kernel, self.x = wl, preset, n, make_kernel, x
        self.kind = kind
        self.key = f"{kind} {preset} n={n} x={x}"

    def run(self):
        ladder, sectors = self.wl.ladder, self.wl.sectors
        if self.kind == "verify":
            return self.wl.cli.run_verify(self.wl.cfgs[self.preset])
        k = self.make_kernel()
        if self.kind.startswith("oracle"):
            return ladder.oracle_check(self.n, k)
        if self.kind == "sector-solve":
            return k.exact(), sectors.solve_sector_system(sectors.build_sector_system(k))
        if self.kind == "resummation":
            return ladder.thermal_resummation_check(k, self.x)
        raise ValueError(self.kind)

    def check(self, result):
        if self.kind == "verify":
            passed, report = result
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            require(passed and not failed, f"verify failed: {failed}")
            return json.dumps(report, sort_keys=True).encode()
        if self.kind.startswith("oracle"):
            require(result.ok, f"oracle mismatch {result.max_abs_discrepancy}")
            require(len(result.series) == self.n + 1, "oracle series has the wrong length")
            return repr((result.hierarchy, result.series)).encode()
        if self.kind == "sector-solve":
            k, sol = result
            for u in (Fraction(1, 7), Fraction(-1, 5), Fraction(2, 9)):
                ref = refs.intermediate_vertex(k.gamma0, k.a_bcs, k.c2, u)
                require(sol(u) == ref, f"sector solve at u={u}: {sol(u)} vs closed form {ref}")
            return repr(sol).encode()
        require(result.residual < 1e-8 and result.tail < 1e-12,
                f"resummation residual {result.residual:.3e}, tail {result.tail:.3e}")
        return repr(result).encode()


class OracleExact(Workload):
    """Exact arithmetic: the series oracle, the 3-sector solve, resummation, verify."""

    name = "oracle-exact"
    ORDERS = (12, 32, 64)

    def __init__(self, root, seed, out):
        super().__init__(root, seed, out)
        rng = random.Random(seed)
        confs = {p: read_config(path) for p, path in zip(PRESETS, self.config_paths())}
        # Float kernels sit a seeded distance above each preset's reference T_c.
        self.kernel_t = {p: model_of(c).vacuum_root() * (1 + 10 ** rng.uniform(-3, 0))
                         for p, c in confs.items()}
        self.rational_seeds = {p: [rng.randrange(2**31) for _ in self.ORDERS] for p in PRESETS}
        self.resum = {p: (rng.randrange(2**31), Fraction(1, rng.randint(4, 10))) for p in PRESETS}

    def load(self, cli):
        super().load(cli)
        from cavitypairing import ladder, sectors
        self.ladder, self.sectors = ladder, sectors
        self._KS = ladder.KernelScalars

    def _float_kernel(self, preset):
        cfg = self.cfgs[preset]
        return lambda: self._KS.from_model(cfg.params(), cfg.lifetime_model(),
                                           self.kernel_t[preset], cfg.convention)

    def _small_kernel(self, seed):
        # Weak coupling and x <= 1/4, as in verify: the Boltzmann-weighted sum
        # converges well within the n_max that thermal_resummation_check picks.
        def make():
            rng = random.Random(seed)
            return self._KS(gamma0=Fraction(-rng.randint(1, 3), rng.randint(1, 3)),
                            a_bcs=Fraction(rng.randint(5, 15), 100),
                            c2=Fraction(rng.randint(2, 10), 1000))
        return make

    def cycle(self, k):
        ops = []
        for p in PRESETS:
            for n, s in zip(self.ORDERS, self.rational_seeds[p]):
                ops.append(OracleOp(self, "oracle-rational", p, n,
                                    lambda s=s: _rational_kernel(random.Random(s), self._KS)))
            for n in self.ORDERS:
                ops.append(OracleOp(self, "oracle-float", p, n, self._float_kernel(p)))
            ops.append(OracleOp(self, "sector-solve", p, 0, self._float_kernel(p)))
            s, x = self.resum[p]
            ops.append(OracleOp(self, "resummation", p, 0, self._small_kernel(s), x))
            ops.append(OracleOp(self, "verify", p, 0, None))
        return ops


# -- cli-cold ---------------------------------------------------------------

class CliResult:
    def __init__(self, code, out_dir, cpu_s, maxrss_kb, stats_path):
        self.code, self.out_dir, self.cpu_s = code, out_dir, cpu_s
        self.maxrss_kb, self.stats_path = maxrss_kb, stats_path


class CliOp(Op):
    def __init__(self, wl, preset, kind):
        self.wl, self.preset, self.kind = wl, preset, kind
        self.key = f"cli {preset} {kind}"
        self.traced = False

    def argv(self, out_dir: Path, stats_path: Path | None) -> list[str]:
        cfg = f"configs/{self.preset}.cfg"
        sub = ["verify", "--inject-fault"] if self.kind == "verify-fault" else [self.kind]
        args = ["--config", cfg, "--out", str(out_dir), *sub]
        if stats_path is None:
            return [sys.executable, "-m", "cavitypairing.cli", *args]
        return [sys.executable, str(self.wl.root / "perfbench" / "cli_child.py"),
                str(stats_path), *args]

    def run(self):
        self.wl.counter += 1
        out_dir = self.wl.out / "ops" / str(self.wl.counter)
        stats_path = out_dir / "trace.json" if self.traced else None
        out_dir.mkdir(parents=True)
        with open(out_dir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(self.argv(out_dir, stats_path), cwd=self.wl.root,
                                    env=self.wl.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, out_dir, ru.ru_utime + ru.ru_stime,
                         ru.ru_maxrss, stats_path)

    def check(self, res):
        want = 1 if self.kind == "verify-fault" else 0
        if res.code != want:
            tail = (res.out_dir / "stderr.txt").read_text(errors="replace")[-300:]
            raise CheckFailed(f"exit {res.code}, expected {want}: {tail}")
        if self.kind.startswith("verify"):
            data = (res.out_dir / "verify.json").read_bytes()
            report = json.loads(data)
            require(report["all_passed"] == (want == 0), f"verify.json all_passed={report['all_passed']}")
            return data
        data = (res.out_dir / f"{self.kind}.csv").read_bytes()
        rows = rows_of_csv(data)
        model = self.wl.models[self.preset]
        {
            "tc": lambda: check_tc(rows, model),
            "exponents": lambda: check_exponents(rows),
            "xi": lambda: check_xi(rows),
            "vertex": lambda: check_finite(rows),
            "scan": lambda: check_scan(rows, model),
        }[self.kind]()
        return data


class CliCold(Workload):
    """A fresh CLI process per operation, flags as a user types them."""

    name = "cli-cold"
    warm = False

    def __init__(self, root, seed, out):
        super().__init__(root, seed, out)
        self.models = {p: model_of(read_config(path))
                       for p, path in zip(PRESETS, self.config_paths())}
        self.env = child_env(root)
        self.counter = 0

    def cycle(self, k):
        # Each kind once, in seeded order; presets rotate from cycle to cycle,
        # so three cycles run every kind on every preset.
        ops = [CliOp(self, PRESETS[(j + k + self.seed) % len(PRESETS)], kind)
               for j, kind in enumerate(CLI_KINDS)]
        random.Random(f"{self.seed}/{k}").shuffle(ops)
        return ops


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's sources, nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


WORKLOADS = {w.name: w for w in (CliCold, ExponentsSweep, TcSweep, OracleExact)}
