"""Outside-in span tracer for the ``cavitypairing`` layers.

``Tracer.install()`` replaces each traced public function with a wrapper in
every ``cavitypairing`` module namespace that binds it (so names pulled in
with ``from .x import y`` are covered too), plus scipy's ``quad`` as bound in
``critical`` and ``sectors``.  The program source is not touched, and
``uninstall()`` puts every original object back.

Each call records one span: name, parent span, operation id, start and end.
Spans live in flat in-memory arrays and are written once, by ``write()``.
A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "critical", "ladder", "useries", "sectors", "model")

# Public functions whose calls are spans, per module.  Everything in a
# module's ``__all__`` that is a plain function is traced as well.
EXTRA_FUNCTIONS = {
    "cli": ("cmd_tc", "cmd_exponents", "cmd_xi", "cmd_vertex", "cmd_scan",
            "run_verify", "emit", "main"),
}
# (module, class, attribute, span name)
CLASSMETHODS = (
    ("ladder", "KernelScalars", "from_model", "ladder.KernelScalars.from_model"),
    ("cli", "RunConfig", "parse", "cli.parse"),
)
RF_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__pow__", "__neg__")
QUAD_MODULES = ("critical", "sectors")
# Spans whose distinct-argument share is reported as ``<name>.unique_ratio``.
KEYED = ("critical.find_tc", "critical.mass_slope")
# Spans that make up ``cli.self_s``: the subcommand bodies.
CLI_COMMANDS = ("cli.cmd_tc", "cli.cmd_exponents", "cli.cmd_xi", "cli.cmd_vertex",
                "cli.cmd_scan", "cli.run_verify")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.neval: dict[str, int] = {}
        self.keys: dict[str, set] = {n: set() for n in KEYED}
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        keyed = self.keys.get(name)
        sig = inspect.signature(fn) if keyed is not None else None
        tracer = self

        def traced(*args, **kwargs):
            if keyed is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                keyed.add(repr(bound.arguments))
            sid = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        traced.__wrapped__ = fn
        return traced

    def _wrap_quad(self, quad, name: str):
        traced = self._wrap(quad, name)
        neval = self.neval
        neval.setdefault(name, 0)

        def quad_counted(func, *args, **kwargs):
            if kwargs.get("full_output"):
                out = traced(func, *args, **kwargs)
                neval[name] += out[2]["neval"]
                return out

            def counted(*a):
                neval[name] += 1
                return func(*a)

            return traced(counted, *args, **kwargs)

        return quad_counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"cavitypairing.{m}") for m in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cavitypairing" or n.startswith("cavitypairing.")]
        for layer, mod in mods.items():
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n))]
            for fname in (*names, *EXTRA_FUNCTIONS.get(layer, ())):
                orig = getattr(mod, fname)
                self._rebind(namespaces, orig, self._wrap(orig, f"{layer}.{fname}"))
        for layer, cls_name, attr, span_name in CLASSMETHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[attr]
            self._set(cls, attr, orig, classmethod(self._wrap(orig.__func__, span_name)))
        rf = mods["useries"].RationalFunction
        for attr in RF_OPERATORS:
            orig = rf.__dict__[attr]
            self._set(rf, attr, orig, self._wrap(orig, "useries.rf_arith"))
        for layer in QUAD_MODULES:
            mod = mods[layer]
            self._set(mod, "quad", mod.quad, self._wrap_quad(mod.quad, f"{layer}.quad"))

    def _rebind(self, namespaces, orig, new) -> None:
        for mod in namespaces:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, orig, new)

    def _set(self, owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def stats(self) -> dict:
        """Per span name: calls, total and self seconds; plus counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            s = per.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
        return {
            "spans": per,
            "neval": dict(self.neval),
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "n_spans": n,
        }

    def dump(self) -> dict:
        """Raw spans as plain lists, for a child process to hand back."""
        return {
            "names": self.names,
            "spans": [list(self.name_id), list(self.parent), list(self.op),
                      list(self.start), list(self.end)],
        }

    def write(self, path, extra: list[dict] = ()) -> None:
        """Write every span as TSV (gzip): this tracer's, then each dump in ``extra``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("source\tid\tparent\top\tname\tstart_s\tend_s\n")
            sources = [self.dump(), *extra]
            for src, d in enumerate(sources):
                nid, par, op, st, en = d["spans"]
                for i in range(len(st)):
                    fh.write(f"{src}\t{i}\t{par[i]}\t{op[i]}\t{d['names'][nid[i]]}"
                             f"\t{st[i]!r}\t{en[i]!r}\n")


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False


def merge_stats(parts: list[dict]) -> dict:
    """Sum ``Tracer.stats()`` results from several processes."""
    out = {"spans": {}, "neval": {}, "distinct": {}, "n_spans": 0}
    for st in parts:
        for name, s in st["spans"].items():
            o = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in o:
                o[k] += s[k]
        for sect in ("neval", "distinct"):
            for k, v in st[sect].items():
                out[sect][k] = out[sect].get(k, 0) + v
        out["n_spans"] += st["n_spans"]
    return out
