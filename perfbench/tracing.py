"""Outside-in tracing of the platecap layers.

During a traced pass the benchmark replaces, in the namespace of the
calling module, the names through which one platecap module calls another
(``cli.extract_capacity``, ``layer.EliminationSolver``,
``fundamental.LogField.eval``, ...).  Each replacement records a span
around the original call, so spans mark the layer boundaries without any
change to the package.  Spans are kept in memory and turned into per-layer
metrics when the pass ends; ``uninstall`` puts every original back.

A span's layer is the part of its name before the first dot.  Its self
time is its duration minus that of its direct children; the self times of
all spans add up to the duration of the root spans.  ``polyfield`` calls
are too fine-grained to wrap, so their time shows as self time of the
``reduction`` and ``elastic`` spans that make them.  Calls are assumed to
run on one thread (the workloads use ``--jobs 1``).
"""
from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "reduction", "elastic", "fem", "fundamental", "layer",
          "inequalities", "kirchhoff")


def _dofs(result, args):
    return {"dofs": result.n}


def _rhs(result, args):
    b = args[0]
    return {"rhs": 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]}


def _fill(result, args):
    return {"fill_nnz": int(result.nnz)}


def _points(result, args):
    return {"points": len(args[1])}


def _fixed_point(result, args):
    return {"iterations": int(result[0].iterations.sum())}


# (calling module, name, span, counter): calls from one platecap module into
# another, wrapped in the caller's namespace
FUNCTIONS = (
    ("cli", "build_dimension_reduction", "reduction.build", None),
    ("cli", "residual_report", "reduction.residual", None),
    ("cli", "membrane_table_direct", "reduction.tables", None),
    ("cli", "bending_table_direct", "reduction.tables", None),
    ("cli", "reduced_stiffness", "elastic.reduced", None),
    ("cli", "construct_fundamental", "fundamental.construct", None),
    ("cli", "verify_contour_identities", "fundamental.verify", None),
    ("cli", "korn_constant", "inequalities.korn_constant", None),
    ("cli", "korn_csv", "inequalities.output", None),
    ("cli", "PlateDomain", "kirchhoff.domain", None),
    ("cli", "load_from_spec", "kirchhoff.load", None),
    ("cli", "operator_coefficients", "kirchhoff.coefficients", None),
    ("cli", "solve_membrane", "kirchhoff.solve", None),
    ("cli", "solve_bending", "kirchhoff.solve", None),
    ("cli", "solve_plate", "kirchhoff.solve", None),
    ("cli", "solution_csv", "kirchhoff.output", None),
    ("cli", "layer_mesh", "layer.mesh", None),
    ("cli", "extract_capacity", "layer.extract", _fixed_point),
    ("cli", "capacity_json", "layer.output", None),
    ("reduction", "layer_operator_parts", "elastic.operator_parts", None),
    ("reduction", "reduced_stiffness_exact", "elastic.reduced", None),
    ("kirchhoff", "membrane_table_direct", "reduction.tables", None),
    ("kirchhoff", "bending_table_direct", "reduction.tables", None),
    ("kirchhoff", "assemble_elastic", "fem.assemble", _dofs),
    ("kirchhoff", "assemble_pointwise_form", "fem.assemble", None),
    ("kirchhoff", "solve_constrained", "fem.constrained", None),
    ("inequalities", "korn_system", "inequalities.korn_system", None),
    ("inequalities", "assemble_elastic", "fem.assemble", _dofs),
    ("inequalities", "assemble_pointwise_form", "fem.assemble", None),
    ("inequalities", "smallest_eigenpair", "fem.eigen", None),
    ("layer", "assemble_elastic", "fem.assemble", _dofs),
    ("layer", "assemble_load", "fem.assemble", None),
    ("layer", "assemble_pointwise_form", "fem.assemble", None),
    ("layer", "solve_cg", "fem.cg", None),
    ("layer", "verify_contour_identities", "fundamental.verify", None),
    ("layer", "layer_operator_parts", "elastic.operator_parts", None),
    ("layer", "full_operator", "elastic.operator_parts", None),
)

# (module, class, method, span, counter): methods called across modules
METHODS = (
    ("fundamental", "LogField", "eval", "fundamental.eval", _points),
    ("fundamental", "LogField", "d", "fundamental.derivative", None),
    ("layer", "FarFieldExpansion", "__init__", "layer.farfield", None),
    ("layer", "FarFieldExpansion", "eval_column", "layer.farfield", None),
    ("layer", "FarFieldExpansion", "eval_derivative", "layer.farfield",
     None),
    ("layer", "_AnnulusFitter", "__init__", "layer.fit_setup", None),
    ("layer", "_AnnulusFitter", "fit_samples", "layer.fit", None),
    ("layer", "_AnnulusFitter", "interpolate", "layer.interpolate", None),
)

# (calling module, name) of kirchhoff helpers whose returned callables are
# evaluated by the caller
CALLABLE_FACTORIES = (("cli", "manufactured_membrane"),
                      ("cli", "manufactured_bending"))


class _Forward:
    """Forwards every attribute it does not define to the wrapped object."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, counts]
        self._stack = []
        self._undo = []

    def call(self, name, fn, args, kwargs, counter=None):
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span[4] = counter(result, args)
        return result

    def _traced(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target.  A missing one raises AttributeError, so that
        a renamed function cannot silently drop out of the layer metrics."""
        mods = {m: importlib.import_module(f"platecap.{m}")
                for m in LAYERS}
        for mod, attr, name, counter in FUNCTIONS:
            self._replace(mods[mod], attr,
                          self._traced(getattr(mods[mod], attr), name,
                                       counter))
        for mod, cls_name, attr, name, counter in METHODS:
            cls = getattr(mods[mod], cls_name)
            self._replace(cls, attr,
                          self._traced(getattr(cls, attr), name, counter))
        for mod, attr in CALLABLE_FACTORIES:
            self._replace(mods[mod], attr,
                          self._factory(getattr(mods[mod], attr)))
        tracer = self

        class TracedLU(_Forward):
            def solve(self, *args, **kwargs):
                return tracer.call("fem.lu_solve", self._target.solve, args,
                                   kwargs, _rhs)

        class TracedSolver(_Forward):
            def solve(self, *args, **kwargs):
                return tracer.call("fem.boundary_solve", self._target.solve,
                                   args, kwargs)

        fem = mods["fem"]
        splu = fem.spla.splu

        def traced_splu(*args, **kwargs):
            return TracedLU(self.call("fem.factor", splu, args, kwargs,
                                      _fill))

        spla = _Forward(fem.spla)
        spla.splu = traced_splu
        self._replace(fem, "spla", spla)
        solver_cls = mods["layer"].EliminationSolver
        self._replace(mods["layer"], "EliminationSolver",
                      lambda *a, **k: TracedSolver(self.call(
                          "fem.elimination", solver_cls, a, k)))

    def _factory(self, fn):
        name = "kirchhoff.manufactured"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            made = self.call(name, fn, args, kwargs)
            if not isinstance(made, tuple):
                return made
            return tuple(self._traced(f, name) if callable(f) else f
                         for f in made)
        return traced

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def has_ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def total(*names):
        """Time inside the outermost spans of the given names."""
        return sum(dur[i] for i in range(n) if spans[i][0] in names
                   and not has_ancestor(i, names))

    def calls(*names):
        return sum(1 for s in spans if s[0] in names)

    def counted(name, key):
        return sum(s[4].get(key, 0) for s in spans if s[0] == name)

    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_s[s[0].split(".", 1)[0]] += dur[i] - child[i]
    return {
        "cli.self_s": self_s["cli"],
        "reduction.self_s": self_s["reduction"],
        "reduction.build_s": total("reduction.build"),
        "reduction.residual_s": total("reduction.residual"),
        "reduction.residual_calls": calls("reduction.residual"),
        "elastic.self_s": self_s["elastic"],
        "elastic.operator_parts_s": total("elastic.operator_parts"),
        "elastic.operator_parts_calls": calls("elastic.operator_parts"),
        "fem.self_s": self_s["fem"],
        "fem.factor_s": total("fem.factor"),
        "fem.factor_calls": calls("fem.factor"),
        "fem.factor_fill_nnz": counted("fem.factor", "fill_nnz"),
        "fem.solve_s": total("fem.lu_solve"),
        "fem.solve_calls": calls("fem.lu_solve"),
        "fem.solve_rhs": counted("fem.lu_solve", "rhs"),
        "fem.eigen_s": total("fem.eigen"),
        "fem.eigen_iters": sum(1 for i in range(n)
                               if spans[i][0] == "fem.lu_solve"
                               and has_ancestor(i, ("fem.eigen",))),
        "fem.assemble_s": total("fem.assemble"),
        "fem.assemble_calls": calls("fem.assemble"),
        "fem.dofs": counted("fem.assemble", "dofs"),
        "fem.constrained_s": total("fem.constrained"),
        "fundamental.self_s": self_s["fundamental"],
        "fundamental.eval_s": total("fundamental.eval"),
        "fundamental.eval_calls": calls("fundamental.eval"),
        "fundamental.eval_points": counted("fundamental.eval", "points"),
        "fundamental.construct_s": total("fundamental.construct"),
        "fundamental.verify_s": total("fundamental.verify"),
        "layer.extract_self_s": self_s["layer"],
        "layer.farfield_s": total("layer.farfield"),
        "layer.fit_s": total("layer.fit"),
        "layer.fit_calls": calls("layer.fit"),
        "layer.boundary_solves": calls("fem.boundary_solve"),
        "layer.fixed_point_iters": counted("layer.extract", "iterations"),
        "inequalities.korn_system_s": total("inequalities.korn_system"),
        "inequalities.korn_self_s": self_s["inequalities"],
        "kirchhoff.self_s": self_s["kirchhoff"],
        "kirchhoff.solve_calls": calls("kirchhoff.solve"),
    }
