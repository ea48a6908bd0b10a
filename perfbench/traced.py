"""Run one ``symdom`` CLI command with its layers traced from outside.

Usage: python3 traced.py STATS_JSON SYMDOM_ARGS...

Every public function of the layer modules is replaced by a wrapper that
records calls and self time (its duration minus the time spent in wrapped
functions it called).  ``cli``, ``operators`` and others bind functions by
name at import, so every binding of the same function object in every
``symdom`` module is replaced.  Private helpers and the cheap modules
(``polynomials``, ``sampling``, ``wallach``) are not wrapped: their time
counts in the caller's self time.  A few observers add counts and problem
sizes.  The tracer assumes one thread, which the workloads guarantee
(``--jobs 1``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "kernels", "operators", "koszul", "calculus", "domains")


class Tracer:
    def __init__(self, error_type: type) -> None:
        self.error_type = error_type
        self.stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.sizes: dict[str, int] = {}
        self.series_needed: set[tuple] = set()

    def size(self, name: str, value: int) -> None:
        self.sizes[name] = max(self.sizes.get(name, 0), int(value))

    def span(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except self.error_type as exc:
                if not getattr(exc, "_perfbench_seen", False):
                    exc._perfbench_seen = True
                    self.errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    # -- observers: counts and sizes, their time charged to the span --
    def observe(self, name: str, fn, note, before=None):
        """Call ``note(args, kwargs, result, state)`` after each call of fn."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before() if before else None
            result = fn(*args, **kwargs)
            try:
                note(args, kwargs, result, state)
            except Exception as exc:  # bookkeeping must never fail the traced run
                print(f"perfbench trace: observer of {name} failed: {exc!r}", file=sys.stderr)
            return result

        return wrapper

    def note_series(self, args, kwargs, blocks, misses_before):
        dom, lam = args[0], float(args[1])
        if misses_before is None or self.series_misses() > misses_before:
            self.counts["series_blocks_built"] += len(blocks)
        self.series_needed.update((dom, lam, d) for d in range(len(blocks)))
        self.size("largest_series_block", max(b.coeffs.shape[0] for b in blocks))

    def note_basis(self, args, kwargs, basis, _):
        if basis is not None:
            self.size("basis_dim", basis.dim)

    def note_load(self, args, kwargs, basis, _):
        self.note_basis(args, kwargs, basis, None)
        if basis is None:
            self.counts["cache_misses"] += 1
            return
        self.counts["cache_hits"] += 1
        key = self.kernels.cache_key(basis.dom, basis.lam, basis.max_degree)
        directory = kwargs.get("cache_dir", args[3] if len(args) > 3 else "")
        self.counts["cache_bytes_read"] += os.path.getsize(
            os.path.join(directory, f"basis-{key}.npz")
        )

    def note_save(self, args, kwargs, path, _):
        self.counts["cache_bytes_written"] += os.path.getsize(path)

    def note_quotient(self, args, kwargs, model, _):
        self.size("dim_quotient", model.dim_quotient)

    def note_quadrature(self, args, kwargs, quad, _):
        self.size("quadrature_nodes", quad.node_count)

    def note_nodes(self, args, kwargs, _result, _):
        nodes = kwargs["nodes"] if "nodes" in kwargs else args[3]
        self.counts["nodes_evaluated"] += len(nodes)

    def note_rows(self, args, kwargs, _result, _):
        rows = kwargs["rows"] if "rows" in kwargs else args[2]
        self.counts["rows_written"] += len(rows)

    def series_misses(self) -> int:
        return self.series_cache.cache_info().misses

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each layer module, everywhere bound."""
        self.kernels = modules["kernels"]
        # kernel_series memoizes through this private cache; without it every
        # call counts as built.
        cache = getattr(self.kernels, "_kernel_series_cached", None)
        self.series_cache = cache if hasattr(cache, "cache_info") else None
        observers = {
            "kernels.kernel_series": (
                self.note_series, self.series_misses if self.series_cache else None
            ),
            "kernels.truncated_basis": (self.note_basis, None),
            "kernels.load_basis": (self.note_load, None),
            "kernels.save_basis": (self.note_save, None),
            "operators.quotient_model": (self.note_quotient, None),
            "calculus.shilov_quadrature": (self.note_quadrature, None),
            "cli.write_rows": (self.note_rows, None),
        }
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__ or id(obj) in wrapped:
                    continue
                key = f"{layer}.{name}"
                if key in observers:
                    obj = self.observe(key, obj, *observers[key])
                wrapped[id(vars(mod)[name])] = self.span(layer, name, obj)
        # Count every quadrature node evaluated, the half-resolution
        # estimate included; this private helper keeps no span of its own.
        quad_sum = getattr(modules["calculus"], "_quadrature_sum", None)
        if quad_sum is not None:
            wrapped[id(quad_sum)] = self.observe("_quadrature_sum", quad_sum, self.note_nodes)
        # The wrappers hold the originals, so no id in ``wrapped`` is reused.
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "symdom" or mod_name.startswith("symdom.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

    def report(self, import_s: float) -> dict:
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.startswith(layer + ".")
            )
            metrics[f"{layer}.calls"] = sum(
                v for k, v in self.calls.items() if k.startswith(layer + ".")
            )
            metrics[f"{layer}.errors"] = self.errors[layer]
        for key, value in self.self_s.items():
            metrics[f"{key}.self_s"] = value
        for key, value in self.calls.items():
            metrics[f"{key}.calls"] = value
        built = self.counts["series_blocks_built"]
        metrics["kernels.series_useful_ratio"] = len(self.series_needed) / built if built else 0.0
        for name in ("cache_hits", "cache_misses", "cache_bytes_written", "cache_bytes_read"):
            metrics[f"kernels.{name}"] = self.counts[name]
        metrics["calculus.nodes_evaluated"] = self.counts["nodes_evaluated"]
        metrics["cli.rows_written"] = self.counts["rows_written"]
        metrics["cli.import_s"] = import_s
        return {"metrics": metrics, "sizes": self.sizes}


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import symdom.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - start

    modules = {layer: sys.modules[f"symdom.{layer}"] for layer in LAYERS}
    tracer = Tracer(sys.modules["symdom.errors"].SymdomError)
    tracer.install(modules)
    try:
        code = modules["cli"].main(argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
