"""Outside-in span tracer for normdescent.

The tracer replaces program functions with timing wrappers at the module
attribute each caller reads. ``from .x import y`` copies ``y`` into the
importing module when it loads, so a function is wrapped once per binding
(``optimizer.steepest_map`` and ``harness.steepest_map`` are separate
entries in ``WRAP``); patching only the defining module would miss callers.
Nothing in the program is edited, and a name that a refactor renames or
removes makes ``install`` raise instead of silently dropping a layer.

Spans (name, start, end, parent) live in flat in-memory arrays and are
written out by ``dump`` when the benchmark ends. A span's layer is the
module that defines the wrapped function, whatever binding reached it, so
``harness.loss_fn`` counts as ``model`` work.
"""

from __future__ import annotations

import importlib
import math
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

# binding module -> attributes wrapped on it
WRAP = {
    "optimizer": ("grad", "steepest_map", "reshuffle", "step"),
    "steepest": ("jacobi_svd",),
    "linalg": ("jacobi_svd", "matrix_norm"),
    "model": ("matrix_norm",),
    "reference": ("steepest_map", "matrix_norm", "margin_report"),
    "harness": (
        "run",
        "load_config",
        "max_margin",
        "margin_report",
        "loss_fn",
        "proxy_g",
        "dual_norm",
        "frobenius_cosine",
        "load_dataset",
        "load_matrix",
        "bias_matrix",
        "canonical_update_matrix",
        "steepest_map",
    ),
    "data": ("max_margin",),
    "cli": (
        "train_cmd",
        "persample_cmd",
        "max_margin",
        "load_dataset",
        "save_matrix",
        "gen_gaussian",
        "gen_skewed",
        "save_dataset",
    ),
}

PACKAGE = "normdescent"
ROOT_SPAN = "cli.main"


def _norm_label(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return str(spec).replace(":", "")


def _batch_label(args, kwargs):
    ds = args[1]
    batch = args[2] if len(args) > 2 else kwargs.get("batch")
    size = ds.n if batch is None else len(batch)  # None is model.ALL
    if size == ds.n:
        return "full"
    return "b1" if size == 1 else "mb"


# functions whose spans carry a label naming the norm or the batch kind
_LABELS = {"steepest_map": _norm_label, "max_margin": _norm_label, "grad": _batch_label}


class Tracer:
    """Records nested spans for calls made through wrapped bindings."""

    def __init__(self):
        self.names = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        # name -> id, and id -> (name, layer, function)
        self._ids: dict[str, int] = {}
        self.info: list[tuple[str, str, str]] = []
        # span index -> (iterations_used, certificate_gap) of a max_margin call
        self.solutions: dict[int, tuple[int, float]] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.starts)

    def _name_id(self, name: str, layer: str, func: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.info)
            self.info.append((name, layer, func))
        return nid

    def wrap(self, fn, binding: str, attr: str):
        """``fn`` with a span per call, named ``binding.attr[label]``."""
        layer = fn.__module__.rsplit(".", 1)[-1]
        func = f"{layer}.{fn.__name__}"
        label_of = _LABELS.get(fn.__name__)
        fixed_id = self._name_id(f"{binding}.{attr}", layer, func) if label_of is None else None
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        keep_solution = fn.__name__ == "max_margin"
        wrap_hook = fn.__name__ == "run"

        def traced(*args, **kwargs):
            if fixed_id is None:
                label = label_of(args, kwargs)
                nid = self._name_id(f"{binding}.{attr}[{label}]", layer, f"{func}[{label}]")
            else:
                nid = fixed_id
            if wrap_hook and kwargs.get("metrics_hook") is not None:
                kwargs["metrics_hook"] = self.wrap(kwargs["metrics_hook"], "harness", "metrics_hook")
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if keep_solution:
                self.solutions[idx] = (result.iterations_used, result.certificate_gap)
            return result

        return traced

    def solves(self, lo: int, hi: int, bindings: tuple[str, ...]):
        """(norm label, iterations, certificate gap, seconds) of each
        max_margin call among spans lo..hi-1 made through ``bindings``."""
        out = []
        for i, (iters, gap) in self.solutions.items():
            name = self.info[self.names[i]][0]
            binding, _, label = name.partition(".max_margin[")
            if lo <= i < hi and binding in bindings:
                out.append((label.rstrip("]"), iters, gap, self.ends[i] - self.starts[i]))
        return out

    def install(self):
        """Wrap every binding in ``WRAP``; raises if one no longer exists."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for binding, attrs in WRAP.items():
            mod = importlib.import_module(f"{PACKAGE}.{binding}")
            for attr in attrs:
                fn = getattr(mod, attr)
                if not callable(fn):
                    raise TypeError(f"{PACKAGE}.{binding}.{attr} is not callable")
                self._installed.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, binding, attr))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def dump(self, path):
        """Write every span as a tab-separated row: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.starts)):
                name = self.info[self.names[i]][0]
                fh.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n")


def self_times(starts, ends, parents, lo: int, hi: int) -> list[float]:
    """Self time of spans lo..hi-1: duration minus the part children cover.

    Spans are recorded in start order, so the children of a span arrive in
    start order and their union is merged in one pass, clipped to the parent.
    """
    covered = [0.0] * (hi - lo)
    reach = {}
    for i in range(lo, hi):
        p = parents[i]
        if p < lo:
            continue
        a = max(starts[i], starts[p], reach.get(p, starts[p]))
        b = min(ends[i], ends[p])
        if b > a:
            covered[p - lo] += b - a
        reach[p] = max(reach.get(p, starts[p]), b)
    return [ends[i] - starts[i] - covered[i - lo] for i in range(lo, hi)]


def _strip(key: str) -> str:
    return key.split("[", 1)[0]


class _Groups:
    """Counts, self times and durations of spans, keyed by binding
    (``harness.loss_fn``) and by function (``model.loss``), each with and
    without the label (``steepest.steepest_map[ew2]``). A function reached
    through its defining module has the same key both ways."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.count = defaultdict(int)
        self.selfs = defaultdict(list)
        self.durations = defaultdict(list)
        self.layer_self = defaultdict(float)
        self.row_hooks = set()
        own = self_times(tracer.starts, tracer.ends, tracer.parents, lo, hi)
        for i in range(lo, hi):
            name, layer, func = tracer.info[tracer.names[i]]
            dur = tracer.ends[i] - tracer.starts[i]
            self.layer_self[layer] += own[i - lo]
            for key in {name, _strip(name), func, _strip(func)}:
                self.count[key] += 1
                self.selfs[key].append(own[i - lo])
                self.durations[key].append(dur)
            if name == "harness.margin_report":
                # the hook call that logs a CSV row is the parent of its margin report
                self.row_hooks.add(tracer.parents[i])
        self.row_durations = [tracer.ends[i] - tracer.starts[i] for i in self.row_hooks]

    def median_us(self, key: str) -> float:
        vals = self.selfs.get(key)
        return statistics.median(vals) * 1e6 if vals else 0.0

    def total(self, key: str) -> float:
        return sum(self.durations.get(key, ()), 0.0)


NORM_KEYS = ("ew2", "ewinf", "schinf")


def _percentile_us(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile, or 0 when fewer than ten samples lie beyond it."""
    rank = math.ceil(q * len(values))
    if len(values) - rank < 10:
        return 0.0
    return sorted(values)[rank - 1] * 1e6


def body_metrics(tracer: Tracer, lo: int, hi: int, wall_s: float, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round: spans lo..hi-1 took ``wall_s``."""
    g = _Groups(tracer, lo, hi)
    steps = g.count["optimizer.step"]
    step_durations = g.durations.get("optimizer.step", [])
    train_maps = g.count["optimizer.steepest_map"] + g.count["harness.steepest_map"]
    solves = tracer.solves(lo, hi, ("cli", "harness"))
    iters = sum(s[1] for s in solves)
    io_funcs = ("model.load_dataset", "model.load_matrix", "model.save_matrix", "model.save_dataset")
    covered = sum(g.durations.get(ROOT_SPAN, ())) - g.layer_self["cli"]

    m = {
        "linalg.svd_calls": g.count["linalg.jacobi_svd"],
        "linalg.svd_us": g.median_us("linalg.jacobi_svd"),
        "linalg.matrix_norm_us": g.median_us("linalg.matrix_norm"),
        "linalg.dual_norm_us": g.median_us("linalg.dual_norm"),
        "linalg.frobenius_cosine_us": g.median_us("linalg.frobenius_cosine"),
        "linalg.self_s": g.layer_self["linalg"],
        "steepest.calls_per_step": train_maps / steps if steps else 0.0,
        "steepest.self_s": g.layer_self["steepest"],
        "model.grad_calls": g.count["model.grad"],
        "model.grad_us.full": g.median_us("model.grad[full]"),
        "model.grad_us.b1": g.median_us("model.grad[b1]"),
        "model.loss_us": g.median_us("model.loss"),
        "model.proxy_g_us": g.median_us("model.proxy_g"),
        "model.margin_report_us": g.median_us("model.margin_report"),
        "model.io_s": sum((sum(g.selfs.get(f, ())) for f in io_funcs), 0.0),
        "model.self_s": g.layer_self["model"],
        "optimizer.steps": steps,
        "optimizer.step_samples": len(step_durations),
        "optimizer.step_p50_us": statistics.median(step_durations) * 1e6 if step_durations else 0.0,
        "optimizer.step_p99_us": _percentile_us(step_durations, 0.99),
        "optimizer.reshuffle_calls": g.count["optimizer.reshuffle"],
        "optimizer.reshuffle_us": g.median_us("optimizer.reshuffle"),
        "optimizer.reshuffle_share": sum(g.selfs.get("optimizer.reshuffle", ())) / wall_s,
        "optimizer.self_s": g.layer_self["optimizer"],
        "reference.solves": len(solves),
        "reference.fw_iter_us": sum(s[3] for s in solves) / iters * 1e6 if iters else 0.0,
        "reference.lmo_calls": g.count["reference.steepest_map"],
        "reference.certificate_gap": max((s[2] for s in solves), default=0.0),
        "reference.self_s": g.layer_self["reference"],
        "harness.metric_rows": g.count["harness.margin_report"],
        "harness.metric_row_us": statistics.median(g.row_durations) * 1e6 if g.row_durations else 0.0,
        "harness.csv_bytes": csv_bytes,
        "harness.load_config_s": g.total("harness.load_config"),
        "harness.self_s": g.layer_self["harness"],
        "cli.calls": g.count[ROOT_SPAN],
        "cli.self_s": g.layer_self["cli"],
        "trace.uncovered_share": (wall_s - covered) / wall_s,
    }
    for k in NORM_KEYS:
        m[f"steepest.calls.{k}"] = g.count[f"steepest.steepest_map[{k}]"]
        m[f"steepest.map_us.{k}"] = g.median_us(f"steepest.steepest_map[{k}]")
        m[f"reference.fw_iters.{k}"] = sum(s[1] for s in solves if s[0] == k)
        m[f"reference.solve_s.{k}"] = sum((s[3] for s in solves if s[0] == k), 0.0)
    return m


def setup_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of one traced set-up pass (spans lo..hi-1)."""
    g = _Groups(tracer, lo, hi)
    return {
        "data.gen_s": g.total("data.gen_gaussian") + g.total("data.gen_skewed"),
        "data.probe_solves": g.count["data.max_margin"],
        "reference.setup_solve_s": sum((s[3] for s in tracer.solves(lo, hi, ("cli",))), 0.0),
    }
