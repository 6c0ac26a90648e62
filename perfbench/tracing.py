"""Span tracing of ncplane from outside the package.

``Tracer.install`` wraps the public functions of every ncplane layer, the
arithmetic of ``Observable`` and ``numpy.fft.{fft,ifft,fft2,ifft2}``, and
puts each wrapper at every binding site: a function re-imported into
``ncplane.verify`` or ``ncplane.cli`` is the same object as the original,
so every module attribute that *is* an original gets its wrapper.
``Tracer.uninstall`` puts every original back.

Each call records one span (name, start, end, parent span, op id) in flat
in-memory arrays. ``Scalar`` methods stay unwrapped on purpose: a verify
suite makes about a quarter of a million of them, and wrapping them
would cost more time than it measures.

``layer_metrics`` derives the per-layer metrics from the spans. A span's
self time is its duration minus the durations of its direct children;
spans of one thread nest, so the children never overlap.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "verify", "sampling", "expr", "poly", "symplectic",
          "heisenberg", "grid", "operators", "dynamics")

# Class methods traced on top of each module's public functions.
CLASS_METHODS = {
    ("poly", "Observable"): ("__add__", "__radd__", "__sub__", "__rsub__",
                             "__neg__", "__mul__", "__rmul__", "__pow__",
                             "__eq__", "diff", "substitute",
                             "substitute_params", "evaluate_exact",
                             "evaluate"),
    ("grid", "GridSpec"): ("meshes", "wavenumbers"),
    ("verify", "SuiteReport"): ("to_json", "to_text"),
}

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2")


def _size(value, polynomial_type) -> int:
    """Stored terms of an ``Observable`` operand; a coerced constant has 1."""
    if isinstance(value, polynomial_type):
        return sum(1 for _ in value.terms())
    return 1 if value else 0


def _useful_pow_multiplies(exponent) -> int:
    """Multiplies binary powering needs: one per squaring and per extra bit."""
    if not isinstance(exponent, int) or exponent < 1:
        return 0
    return exponent.bit_length() - 1 + bin(exponent).count("1") - 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counters = {"term_products": 0, "pow_useful_multiplies": 0,
                         "fft_bytes": 0, "rk4_steps": 0}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, stack = self.parent, self.op, self._stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                start[index] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _count_mul(self, args, result):
        polynomial_type = type(args[0])
        self.counters["term_products"] += (_size(args[0], polynomial_type)
                                           * _size(args[1], polynomial_type))

    def _count_pow(self, args, result):
        self.counters["pow_useful_multiplies"] += _useful_pow_multiplies(args[1])

    def _count_fft(self, args, result):
        self.counters["fft_bytes"] += np.asarray(args[0]).nbytes + result.nbytes

    def _count_evolve(self, args, result):
        self.counters["rk4_steps"] += len(result) - 1

    # -------------------------------------------------------------- patching

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer and the numpy FFT entry points."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: sys.modules.get(f"ncplane.{layer}")
                   for layer in LAYERS}
        binding_sites = [module for name, module in sorted(sys.modules.items())
                         if name == "ncplane" or name.startswith("ncplane.")]
        hooks = {"dynamics.evolve": self._count_evolve}
        wrappers = {}
        for layer, module in modules.items():
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[value] = self._wrap(name, value, hooks.get(name))
        for module in binding_sites:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])

        method_hooks = {"__mul__": self._count_mul, "__pow__": self._count_pow}
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            if cls is None:
                continue
            seen = {}
            for attr in methods:
                original = cls.__dict__.get(attr)
                if not inspect.isfunction(original):
                    continue
                if original not in seen:
                    seen[original] = self._wrap(
                        f"{layer}.{original.__name__}", original,
                        method_hooks.get(original.__name__))
                self._set(cls, attr, seen[original])

        for attr in FFT_FUNCTIONS:
            self._set(np.fft, attr, self._wrap(
                f"grid.np.{attr}", getattr(np.fft, attr), self._count_fft))
        return self

    def uninstall(self):
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -------------------------------------------------------------- analysis

    def spans(self) -> dict:
        """The recorded spans as numpy arrays, ready to save or analyse."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }


class SpanTable:
    """Durations, self times and name queries over one tracer's spans."""

    def __init__(self, spans: dict):
        self.names = [str(name) for name in spans["names"]]
        self.name_id = spans["name_id"]
        self.parent = spans["parent"]
        self.duration = spans["end"] - spans["start"]
        children = np.zeros(len(self.duration))
        nested = self.parent >= 0
        np.add.at(children, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - children

    def mask(self, *names: str) -> np.ndarray:
        ids = [i for i, name in enumerate(self.names) if name in names]
        return np.isin(self.name_id, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, name in enumerate(self.names)
               if name.split(".", 1)[0] == layer]
        return np.isin(self.name_id, ids)

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def _under(self, members: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """Which ``members`` spans have an ``anchors`` span as an ancestor."""
        result = np.zeros(len(members), dtype=bool)
        for index in np.flatnonzero(members):
            up = self.parent[index]
            while up >= 0:
                if anchors[up]:
                    result[index] = True
                    break
                up = self.parent[up]
        return result

    def inclusive_s(self, *names: str) -> float:
        """Wall time inside the named spans, nested repeats counted once."""
        members = self.mask(*names)
        outermost = members & ~self._under(members, members)
        return float(self.duration[outermost].sum())

    def children_of(self, child_names, parent_names) -> int:
        """Calls of ``child_names`` made directly by ``parent_names``."""
        children = np.flatnonzero(self.mask(*child_names))
        parents = self.mask(*parent_names)
        up = self.parent[children]
        return int(parents[up[up >= 0]].sum())

    def under_count(self, child_names, ancestor_names) -> int:
        """Calls of ``child_names`` made anywhere below ``ancestor_names``."""
        return int(self._under(self.mask(*child_names),
                               self.mask(*ancestor_names)).sum())


FFT_SPANS = tuple(f"grid.np.{name}" for name in FFT_FUNCTIONS)
MUL_SPANS = ("poly.__mul__",)
ADD_SPANS = ("poly.__add__", "poly.__sub__", "poly.__rsub__", "poly.__neg__")
GROUP_SPANS = ("heisenberg.group_identity", "heisenberg.group_multiply",
               "heisenberg.group_inverse", "heisenberg.group_commutator")
COCYCLE_SPANS = ("heisenberg.extract_cocycle", "heisenberg.cocycle_double_sum")


def layer_metrics(tracer: Tracer, op_s: float, fft_pair_ms: float) -> dict:
    """Per-layer metrics of one traced phase.

    ``op_s`` is the summed wall time of the traced ops and
    ``fft_pair_ms`` the calibrated ``fft2``+``ifft2`` pair at the
    workload's grid size (0 when the workload has no grid).
    """
    table = SpanTable(tracer.spans())
    counters = tracer.counters
    metrics = {}

    mul_calls = table.calls(*MUL_SPANS)
    pow_multiplies = table.children_of(MUL_SPANS, ("poly.__pow__",))
    metrics.update({
        "poly.mul_calls": (mul_calls, "count"),
        "poly.term_products": (counters["term_products"], "count"),
        "poly.mul_self_s": (table.self_s(*MUL_SPANS), "s"),
        "poly.add_self_s": (table.self_s(*ADD_SPANS), "s"),
        "poly.diff_self_s": (table.self_s("poly.diff"), "s"),
        "poly.pow_calls": (table.calls("poly.__pow__"), "count"),
        # no multiplies inside __pow__ means none was wasted
        "poly.pow_useful_mul_ratio": (
            counters["pow_useful_multiplies"] / pow_multiplies
            if pow_multiplies else 1.0, "ratio"),
        "expr.parse_calls": (table.calls("expr.parse_observable"), "count"),
        "expr.parse_self_s": (table.self_s("expr.parse_observable"), "s"),
        "expr.format_self_s": (table.self_s("expr.format_observable"), "s"),
        "symplectic.bracket_calls": (
            table.calls("symplectic.poisson_bracket"), "count"),
        "symplectic.bracket_self_s": (
            table.self_s("symplectic.poisson_bracket"), "s"),
        "symplectic.standard_bracket_self_s": (
            table.self_s("symplectic.standard_poisson_bracket"), "s"),
        "symplectic.bopp_self_s": (table.self_s("symplectic.bopp_shift"), "s"),
        "symplectic.vf_self_s": (
            table.self_s("symplectic.hamiltonian_vector_field"), "s"),
        "symplectic.contract_self_s": (
            table.self_s("symplectic.contract_to_observable"), "s"),
        "heisenberg.cocycle_calls": (table.calls(*COCYCLE_SPANS), "count"),
        "heisenberg.cocycle_self_s": (table.self_s(*COCYCLE_SPANS), "s"),
        "heisenberg.moment_map_self_s": (
            table.self_s("heisenberg.moment_map"), "s"),
        "heisenberg.group_s": (table.inclusive_s(*GROUP_SPANS), "s"),
    })

    fft1 = table.calls("grid.np.fft", "grid.np.ifft")
    fft2 = table.calls("grid.np.fft2", "grid.np.ifft2")
    apply_calls = table.calls("operators.quantize_apply")
    apply_s = table.inclusive_s("operators.quantize_apply")
    metrics.update({
        "grid.gaussian_s": (table.inclusive_s("grid.gaussian"), "s"),
        "grid.fft1_calls": (fft1, "count"),
        "grid.fft2_calls": (fft2, "count"),
        "grid.fft_s": (table.self_s(*FFT_SPANS), "s"),
        "grid.fft_bytes_computed": (counters["fft_bytes"], "bytes"),
        "operators.apply_u_s": (table.inclusive_s("operators.apply_u"), "s"),
        "operators.apply_v_s": (table.inclusive_s("operators.apply_v"), "s"),
        "operators.apply_position_s": (
            table.inclusive_s("operators.apply_position"), "s"),
        "operators.apply_momentum_s": (
            table.inclusive_s("operators.apply_momentum"), "s"),
        "operators.quantize_apply_s": (apply_s, "s"),
        "operators.quantize_apply_fft_units": (
            apply_s * 1e3 / apply_calls / fft_pair_ms
            if apply_calls and fft_pair_ms else 0.0, "ratio"),
        "operators.ffts_per_apply": (
            table.under_count(FFT_SPANS, ("operators.quantize_apply",))
            / apply_calls if apply_calls else 0.0, "count"),
        "operators.commutator_check_self_s": (
            table.self_s("operators.commutator_check"), "s"),
        "operators.quantized_cocycle_self_s": (
            table.self_s("operators.quantized_cocycle_check"), "s"),
        "operators.weyl_check_self_s": (
            table.self_s("operators.weyl_check"), "s"),
    })

    evolve_s = table.inclusive_s("dynamics.evolve")
    metrics.update({
        "dynamics.evolve_s": (evolve_s, "s"),
        "dynamics.rk4_steps_per_s": (
            counters["rk4_steps"] / evolve_s if evolve_s else 0.0, "1/s"),
    })

    attributed = 0.0
    for layer in LAYERS:
        layer_self = float(table.self_time[table.layer_mask(layer)].sum())
        attributed += layer_self
        metrics[f"{layer}.self_s"] = (layer_self, "s")
    metrics.update({
        "trace.op_s": (op_s, "s"),
        "trace.unattributed_s": (op_s - attributed, "s"),
        "trace.spans": (len(table.duration), "count"),
    })
    return metrics
