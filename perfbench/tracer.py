"""Outside-in tracer: wraps the package's public functions from the benchmark.

Every public function defined in one of the traced modules is replaced, by
identity, in every `borderapolar.*` namespace that holds it, so a name bound by
`from .linalg import kernel` is caught too; the public methods of `Subspace`
are wrapped on the class.  Each call becomes a span (id, parent id, name,
start, end) kept in memory; `summary()` turns the spans into totals that can be
merged across processes, and `layer_metrics()` turns totals into the per-layer
metrics of BENCHMARK.json.  Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import Counter

TRACED_MODULES = ("grading", "linalg", "apolarity", "diagonal_maps", "ideals",
                  "transfer", "bounds", "cli")
SUBSPACE_METHODS = ("from_rows", "zero", "full", "matrix", "sum", "constraints",
                    "intersect", "reduce_vector", "contains_vector", "contains")
# Private helpers wrapped by name because a metric needs their boundary.
EXTRA = {"cli": ("_emit_payload",)}
ELIM = "linalg.rref_with_pivots"
LOADERS = ("cli.tensor_from_file", "cli.load_points", "cli.load_ideal_file")
CACHED = ("diagonal_maps.pi_matrix", "diagonal_maps.psi_matrix",
          "diagonal_maps.ir_piece", "grading.monomials")

# span fields
ID, PARENT, NAME, T0, T1, OUTER, ERR, PROBE, EXTRA_DATA = range(9)


def package_modules():
    """The package namespace and every submodule namespace."""
    import borderapolar

    return [borderapolar] + [importlib.import_module(f"borderapolar.{m.name}")
                             for m in pkgutil.iter_modules(borderapolar.__path__)]


def _bits(x) -> int:
    if hasattr(x, "numerator"):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(getattr(x, "v", x)).bit_length()


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = Counter()
        self._patches = []
        self._cached = {}
        self._cache_start = {}
        self.cache = {}

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        is_elim = name == ELIM

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                   depth[name] == 0, False, 0.0, None]
            spans.append(rec)
            stack.append(rec[ID])
            depth[name] += 1
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERR] = True
                raise
            finally:
                rec[T1] = clock()
                stack.pop()
                depth[name] -= 1
            if is_elim:
                m = args[0]
                rec[EXTRA_DATA] = (m.nrows, m.ncols,
                                   max((_bits(x) for row in m.rows for x in row), default=0),
                                   len(result[1]))
                if stack:
                    spans[stack[-1]][PROBE] += clock() - rec[T1]
            return result

        return traced

    def install(self):
        modules = package_modules()
        originals = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            if short not in TRACED_MODULES:
                continue
            for attr, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__
                        and (not attr.startswith("_") or attr in EXTRA.get(short, ()))):
                    originals[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {}
        for key, (obj, name) in originals.items():
            wrappers[key] = self._wrap(name, obj)
            if hasattr(obj, "cache_info"):
                self._cached[name] = obj
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        from borderapolar.linalg import Subspace

        for attr in SUBSPACE_METHODS:
            raw = Subspace.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(f"linalg.Subspace.{attr}", raw.__func__))
            else:
                new = self._wrap(f"linalg.Subspace.{attr}", raw)
            self._patches.append((Subspace, attr, raw))
            setattr(Subspace, attr, new)
        self._cache_start = {name: fn.cache_info() for name, fn in self._cached.items()}

    def uninstall(self):
        for name, fn in self._cached.items():
            now, start = fn.cache_info(), self._cache_start[name]
            hits, misses = self.cache.get(name, (0, 0))
            self.cache[name] = (hits + now.hits - start.hits,
                                misses + now.misses - start.misses)
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------------

    def summary(self) -> dict:
        """Totals over all spans, in a form that adds up across processes."""
        spans = self.spans
        children = [[] for _ in spans]
        for s in spans:
            if s[PARENT] >= 0:
                children[s[PARENT]].append(s)
        names = {}
        elim = Counter()
        kernel_elims = 0
        stages = Counter()
        for s, kids in zip(spans, children):
            dur = s[T1] - s[T0]
            own = dur - sum(k[T1] - k[T0] for k in kids) - s[PROBE]
            calls, incl, self_s = names.get(s[NAME], (0, 0.0, 0.0))
            names[s[NAME]] = (calls + 1, incl + (dur if s[OUTER] else 0.0), self_s + own)
            if s[NAME] == ELIM and s[EXTRA_DATA] is not None:
                rows, cols, bits, rank = s[EXTRA_DATA]
                elim["rows_in"] += rows
                elim["cells_in"] += rows * cols
                elim["rank_out"] += rank
                elim["max_rows"] = max(elim["max_rows"], rows)
                elim["max_cols"] = max(elim["max_cols"], cols)
                elim["max_bits"] = max(elim["max_bits"], bits)
                if self._under_kernel(s):
                    kernel_elims += 1
            if s[NAME] == "transfer.comon_certificate":
                for stage, secs in _stage_times(s, kids).items():
                    stages[stage] += secs
        return {
            "names": names,
            "elim": dict(elim),
            "kernel_elims": kernel_elims,
            "stages": dict(stages),
            "cache": dict(self.cache),
            "spans": len(spans),
            "errors": sum(1 for s in spans if s[ERR]),
        }

    def _under_kernel(self, s) -> bool:
        p = s[PARENT]
        while p >= 0 and self.spans[p][NAME] == "linalg.rref":
            p = self.spans[p][PARENT]
        return p >= 0 and self.spans[p][NAME] == "linalg.kernel"


def _stage_times(cert, kids) -> dict:
    """Certificate stages, delimited by the first direct child call of each stage."""
    starts = {}
    for k in kids:
        name = k[NAME]
        if name == "apolarity.ann_piece":
            starts.setdefault("apolarity_s", k[T0])
        elif name == "ideals.is_saturated_degreewise":
            starts.setdefault("saturation_s", k[T0])
        elif name == "transfer.rho_ideal":
            starts.setdefault("rho_checks_s", k[T0])
        elif "saturation_s" in starts:
            starts.setdefault("pi_containment_s", k[T0])
    order = sorted(starts.items(), key=lambda kv: kv[1])
    out = {}
    for i, (stage, t0) in enumerate(order):
        t1 = order[i + 1][1] if i + 1 < len(order) else cert[T1]
        out[stage] = t1 - t0
    return out


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (max for the max_* counters)."""
    for name, vals in part["names"].items():
        old = total["names"].get(name, (0, 0.0, 0.0))
        total["names"][name] = tuple(a + b for a, b in zip(old, vals))
    for key, val in part["elim"].items():
        if key.startswith("max_"):
            total["elim"][key] = max(total["elim"].get(key, 0), val)
        else:
            total["elim"][key] = total["elim"].get(key, 0) + val
    for key, val in part["stages"].items():
        total["stages"][key] = total["stages"].get(key, 0.0) + val
    for name, (hits, misses) in part["cache"].items():
        h, m = total["cache"].get(name, (0, 0))
        total["cache"][name] = (h + hits, m + misses)
    for key in ("kernel_elims", "spans", "errors"):
        total[key] += part[key]
    for key, val in part.get("cli", {}).items():
        total.setdefault("cli", {})
        total["cli"][key] = total["cli"].get(key, 0.0) + val
    return total


def empty_summary() -> dict:
    return {"names": {}, "elim": {}, "kernel_elims": 0, "stages": {}, "cache": {},
            "spans": 0, "errors": 0, "cli": {}}


def layer_metrics(s: dict, items: int, overhead_frac: float, startup_s: float,
                  src_lines: int) -> dict:
    """Per-layer metrics of BENCHMARK.json from a merged summary.  Times are
    totals over the traced items, except the cli.* times, which are per item."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(n):
        return s["names"].get(n, (0, 0.0, 0.0))[0]

    def incl(n):
        return s["names"].get(n, (0, 0.0, 0.0))[1]

    def self_s(n):
        return s["names"].get(n, (0, 0.0, 0.0))[2]

    e = s["elim"]
    n_elim = calls(ELIM)
    put("linalg.elim.calls", n_elim, "count")
    put("linalg.elim.self_s", self_s(ELIM), "s")
    for key in ("cells_in", "rows_in", "rank_out", "max_rows", "max_cols"):
        put(f"linalg.elim.{key}", e.get(key, 0), "count")
    put("linalg.elim.useful_ratio", e.get("rank_out", 0) / max(e.get("rows_in", 0), 1), "ratio")
    put("linalg.elim.max_bits", e.get("max_bits", 0), "bits")
    put("linalg.kernel.calls", calls("linalg.kernel"), "count")
    put("linalg.kernel.self_s", self_s("linalg.kernel"), "s")
    put("linalg.kernel.elims_per_call",
        s["kernel_elims"] / max(calls("linalg.kernel"), 1), "ratio")
    for m in ("from_rows", "constraints", "intersect", "contains"):
        put(f"linalg.subspace.{m}.calls", calls(f"linalg.Subspace.{m}"), "count")
        put(f"linalg.subspace.{m}.incl_s", incl(f"linalg.Subspace.{m}"), "s")
    for m in ("image", "preimage"):
        put(f"linalg.{m}.calls", calls(f"linalg.{m}"), "count")
        put(f"linalg.{m}.incl_s", incl(f"linalg.{m}"), "s")
    for m in ("point_ideal", "expand", "is_saturated_degreewise"):
        put(f"ideals.{m}.calls", calls(f"ideals.{m}"), "count")
        put(f"ideals.{m}.incl_s", incl(f"ideals.{m}"), "s")
    for m in ("upsilon", "sigma", "rho_ideal", "comon_certificate"):
        put(f"transfer.{m}.incl_s", incl(f"transfer.{m}"), "s")
        put(f"transfer.{m}.self_s", self_s(f"transfer.{m}"), "s")
    for stage in ("apolarity_s", "saturation_s", "pi_containment_s", "rho_checks_s"):
        put(f"transfer.cert.{stage}", s["stages"].get(stage, 0.0), "s")
    for name in CACHED:
        hits, misses = s["cache"].get(name, (0, 0))
        put(f"{name}.misses", misses, "count")
        put(f"{name}.hit_ratio", hits / max(hits + misses, 1), "ratio")
        if not name.startswith("grading."):
            put(f"{name}.incl_s", incl(name), "s")
    for m in ("ann_piece", "ann_sym_piece", "flattening_ranks"):
        put(f"apolarity.{m}.calls", calls(f"apolarity.{m}"), "count")
        put(f"apolarity.{m}.incl_s", incl(f"apolarity.{m}"), "s")
    put("bounds.is_sharp.incl_s", incl("bounds.is_sharp"), "s")
    put("bounds.is_111_sharp.incl_s", incl("bounds.is_111_sharp"), "s")
    put("bounds.verify.incl_s", sum(incl(n) for n in s["names"]
                                    if n.startswith("bounds.verify_")), "s")
    put("cli.startup_s", startup_s, "s")
    put("cli.load_s", sum(incl(n) for n in LOADERS) / max(items, 1), "s")
    put("cli.emit_s", incl("cli._emit_payload") / max(items, 1), "s")
    put("trace.overhead_frac", overhead_frac, "ratio")
    put("trace.spans", s["spans"], "count")
    put("trace.errors", s["errors"], "count")
    put("repo.src_lines", src_lines, "lines")
    return out


def dump(summary: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
