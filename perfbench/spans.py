"""Per-layer tracing of ferrofem from outside the package.

A layer is one package module. ``Tracer.installed`` replaces every public
function of those modules (and the SciPy solver entry points that
``ferrofem.linalg`` looks up through ``spla``) with a wrapper that records
one span per call: name, start, end, parent span and level id. The package
is never edited; every call into a layer goes through a module attribute, so
replacing the attribute catches every call, and leaving the ``with`` block
restores the originals.

A function that a later version of the package deletes or renames is simply
not wrapped; the metrics that need it are then reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import types

LAYERS = ("cli", "verify", "driver", "linalg", "assembly", "material", "fespace",
          "refelem", "mesh2d")

# SciPy entry points that ferrofem.linalg may call through ``spla``, grouped
# under one span name each
SOLVER_ENTRY_POINTS = {
    "splu": "linalg.splu",
    "cg": "linalg.krylov",
    "gmres": "linalg.krylov",
    "lgmres": "linalg.krylov",
    "minres": "linalg.krylov",
    "bicgstab": "linalg.krylov",
    "gcrotmk": "linalg.krylov",
    "qmr": "linalg.krylov",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "level", "info", "child_s")

    def __init__(self, name, start, parent, level):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.level = level
        self.info = None
        self.child_s = 0.0


def _first_mesh(args):
    """The mesh of the first FESpace/FEField argument, if any."""
    for a in args:
        mesh = getattr(a, "mesh", None) or getattr(getattr(a, "space", None), "mesh", None)
        if mesh is not None:
            return mesh
    return None


def _saddle_dofs(args, kwargs, result):
    sys_ = args[0]
    return int(sys_.free_u.sum()) + int(sys_.B.shape[0])


def _fill(args, kwargs, result):
    return int(result.nnz)  # entries of L and U as SuperLU stores them


def _triangles(args, kwargs, result):
    return int(_first_mesh(args).n_triangles)


def _last_update(args, kwargs, result):
    return float(result[1]["updates"][-1])


# per-call work counts, computed after the call has returned and off the
# trace clock; a probe that no longer fits the package records nothing
PROBES = {
    "linalg.solve_saddle": _saddle_dofs,
    "linalg.solve_spd": lambda args, kwargs, result: int(args[0].shape[0]),
    "linalg.splu": _fill,
    "material.alpha": lambda args, kwargs, result: int(getattr(args[0], "size", 1)),
    "driver.picard_elliptic": _last_update,
}


def _level_of(name, args):
    """Mesh level a call works on, where the call names one itself."""
    if name == "driver.solve_fhd":
        return getattr(args[0], "n", None)
    if name in ("verify.infsup_constant", "mesh2d.build_uniform_square"):
        for a in args:
            if isinstance(a, int):
                return a
    if name == "verify.measure_errors":
        # a uniform N x N square has 2 N^2 triangles
        mesh = args[0].phi.space.mesh
        return round((mesh.n_triangles / 2) ** 0.5)
    return None


class _SolverNamespace(types.ModuleType):
    """Stand-in for ``scipy.sparse.linalg`` inside ``ferrofem.linalg``."""

    def __init__(self, real):
        super().__init__(real.__name__)
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Tracer:
    """Records spans in memory while installed; ``take`` hands them out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._off_clock = 0.0  # time spent in probes, removed from the clock
        self.wrapped: set[str] = set()

    def now(self) -> float:
        return time.perf_counter() - self._off_clock

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        if name.startswith("assembly."):
            probe = _triangles
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            try:
                level = _level_of(name, args)
            except (AttributeError, IndexError, TypeError):
                level = None
            if level is None and parent is not None:
                level = parent.level
            span = Span(name, tracer.now(), parent, level)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.now()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if probe is not None:
                t0 = time.perf_counter()
                try:
                    span.info = probe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
                tracer._off_clock += time.perf_counter() - t0
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of every layer for the ``with`` body."""
        undo = []
        try:
            for layer in LAYERS:
                try:
                    mod = importlib.import_module(f"ferrofem.{layer}")
                except ModuleNotFoundError:
                    continue
                for attr, fn in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    name = f"{layer}.{attr}"
                    setattr(mod, attr, self._wrap(name, fn))
                    undo.append((mod, attr, fn))
                    self.wrapped.add(name)
            linalg = sys.modules.get("ferrofem.linalg")
            real = getattr(linalg, "spla", None)
            if isinstance(real, types.ModuleType):
                proxy = _SolverNamespace(real)
                for attr, name in SOLVER_ENTRY_POINTS.items():
                    if hasattr(real, attr):
                        setattr(proxy, attr, self._wrap(name, getattr(real, attr)))
                        self.wrapped.add(name)
                linalg.spla = proxy
                undo.append((linalg, "spla", real))
            yield self
        finally:
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


# one sweep of a fixed-point loop is one assembly of this kernel under it
SWEEPS = {"assembly.assemble_weighted_stiffness": "driver.picard_elliptic",
          "assembly.assemble_convection": "driver.oseen_ns"}


class Totals:
    """Per-name sums over the spans of one traced pass."""

    def __init__(self, spans):
        self.s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.info: dict[str, list] = {}
        self.sweeps: dict[str, int] = {}
        for sp in spans:
            dur = sp.end - sp.start
            self.calls[sp.name] = self.calls.get(sp.name, 0) + 1
            self.self_s[sp.name] = self.self_s.get(sp.name, 0.0) + dur - sp.child_s
            if sp.info is not None:
                self.info.setdefault(sp.name, []).append(sp.info)
            ancestors = set()
            anc = sp.parent
            while anc is not None:
                ancestors.add(anc.name)
                anc = anc.parent
            if sp.name not in ancestors:  # inclusive time counts each nesting once
                self.s[sp.name] = self.s.get(sp.name, 0.0) + dur
            loop = SWEEPS.get(sp.name)
            if loop in ancestors:
                self.sweeps[loop] = self.sweeps.get(loop, 0) + 1


def _sum_info(t, name):
    return sum(t.info.get(name, ()))


def _elements_per_s(t):
    names = [n for n in t.calls if n.startswith("assembly.")]
    busy = sum(t.self_s[n] for n in names)
    tris = sum(_sum_info(t, n) for n in names)
    return tris / busy if busy > 0 else 0.0


def _metric_specs():
    """(metric, unit, better, function names it needs, value from Totals)."""
    specs = []

    def add(metric, unit, better, needs, value):
        specs.append((metric, unit, better, needs, value))

    def s(name):
        add(f"{name}.s", "s", "lower", (name,), lambda t: t.s.get(name, 0.0))

    def self_s(name):
        add(f"{name}.self_s", "s", "lower", (name,), lambda t: t.self_s.get(name, 0.0))

    def calls(name):
        add(f"{name}.calls", "count", "lower", (name,), lambda t: t.calls.get(name, 0))

    def info_sum(name, key):
        add(f"{name}.{key}", "count", "lower", (name,), lambda t: _sum_info(t, name))

    s("linalg.solve_saddle"); self_s("linalg.solve_saddle")
    calls("linalg.solve_saddle"); info_sum("linalg.solve_saddle", "dofs")
    add("linalg.solve_saddle.share", "ratio", "lower", ("linalg.solve_saddle", "cli.main"),
        lambda t: t.s.get("linalg.solve_saddle", 0.0) / t.s["cli.main"])
    s("linalg.splu"); calls("linalg.splu"); info_sum("linalg.splu", "fill_nnz")
    s("linalg.krylov"); calls("linalg.krylov")
    s("linalg.solve_spd"); calls("linalg.solve_spd"); info_sum("linalg.solve_spd", "dofs")

    s("driver.picard_elliptic")
    add("driver.picard_elliptic.sweeps", "count", "lower",
        ("driver.picard_elliptic", "assembly.assemble_weighted_stiffness"),
        lambda t: t.sweeps.get("driver.picard_elliptic", 0))
    add("driver.picard_elliptic.last_update", "norm", "lower",
        ("driver.picard_elliptic",),
        lambda t: t.info["driver.picard_elliptic"][-1])
    s("assembly.assemble_weighted_stiffness"); calls("assembly.assemble_weighted_stiffness")
    s("material.alpha"); info_sum("material.alpha", "points")

    s("driver.oseen_ns"); self_s("driver.oseen_ns")
    add("driver.oseen_ns.sweeps", "count", "lower",
        ("driver.oseen_ns", "assembly.assemble_convection"),
        lambda t: t.sweeps.get("driver.oseen_ns", 0))
    s("assembly.assemble_convection"); calls("assembly.assemble_convection")

    for name in ("verify.measure_errors", "fespace.tabulate", "fespace.eval_field",
                 "refelem.eval_basis"):
        s(name); calls(name)

    self_s("driver.solve_fhd")
    s("driver.recover_fields"); self_s("driver.recover_fields")
    for kernel in ("assemble_stokes_blocks", "assemble_edge_mass", "assemble_edge_rhs",
                   "assemble_scalar_mass", "assemble_scalar_rhs",
                   "elliptic_rhs_manufactured", "assemble_ns_rhs"):
        s(f"assembly.{kernel}"); calls(f"assembly.{kernel}")
    for name in ("material.beta", "material.magnetization", "fespace.build_space",
                 "fespace.gradient_matrix", "mesh2d.build_uniform_square"):
        s(name)
    add("assembly.elements_per_s", "1/s", "higher", (), _elements_per_s)

    s("verify.infsup_constant"); calls("verify.infsup_constant")
    for check in ("infsup", "form_bounds", "convection_skew", "stability_bounds",
                  "commuting_diagram"):
        s(f"verify.check_{check}")
    s("cli.main"); self_s("cli.main")
    return specs


LAYER_METRICS = _metric_specs()


def layer_metrics(spans, wrapped) -> tuple[dict, list]:
    """Per-layer metric values of one traced pass, and the absent names."""
    t = Totals(spans)
    values, absent = {}, []
    for metric, _unit, _better, needs, value in LAYER_METRICS:
        try:
            if not all(n in wrapped for n in needs):
                raise KeyError(metric)
            values[metric] = value(t)
        except (KeyError, IndexError):
            absent.append(metric)
    return values, absent


def by_level(spans) -> dict:
    """Inclusive and self seconds and call counts per level and name."""
    groups: dict = {}
    for sp in spans:
        groups.setdefault(str(sp.level), []).append(sp)
    out = {}
    for level, group in groups.items():
        t = Totals(group)
        out[level] = {name: {"s": t.s.get(name, 0.0), "self_s": t.self_s[name],
                             "calls": t.calls[name]} for name in t.calls}
    return out


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op against a bare one."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("cost.noop", noop)
    best = {}
    for fn in (noop, traced):
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best.get(fn, float("inf")), time.perf_counter() - t0)
            tracer.take()
    return (best[traced] - best[noop]) / calls
