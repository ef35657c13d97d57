"""Experiment harness: configured training runs with CSV metric logs,
directory sweeps, post-hoc rate fits, and the batch-size-one protocol.

A run config is a JSON object. ``_KEYS`` below lists its keys with their
JSON types and defaults, and the README gives the rules ``load_config``
checks on their values: ``norm`` and ``wbar_norm`` take a norm spec
(``ew:p``, ``sch:p``) and ``loss`` one of ``model.LOSS_KINDS``, spelled
exactly, and ``wstar_path`` needs ``gamma``, all before any solve. A run
then computes W-bar, rejecting a zero one, deletes the previous outputs,
and takes gamma and W* from the config or both from one solve with a
margin. Every output (``out_csv``, persample's ``<out_csv>.verdict.json``,
``sweep_cmd``'s summary, the CLI's output flags) passes ``_check_out``
before anything is deleted or run: a file in an existing directory, within
its file-name limit, and none of its command's inputs.
The CSV schema is fixed:

    t,epoch,eta,loss,proxy_g,min_margin,weight_norm,norm_margin,gap_to_gamma,cos_wstar,cos_wbar,dualnorm_signal

``train`` and ``persample`` share one run driver, which streams a row to
the CSV every log_every steps, so a run that fails keeps the header and
the rows logged before the failure. The gap column is gamma minus the
normalized margin in every run; ``persample`` adds a per-step check of
the applied direction.
Optional fields serialize as empty strings. Floats are written with
repr(), so reruns of the same config are byte-identical. A row with a
non-finite cell (other than the -inf margin and inf gap of a zero W, whose
cosine cells are empty) aborts the run instead of being written.

Runs are fully independent (each owns its state and output file); the
sweep executes them one after another and a per-config failure is recorded
in the summary without touching the other runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .linalg import NormSpec, dual_norm, frobenius_cosine
from .model import (
    Dataset,
    _labelled,
    load_dataset,
    load_matrix,
    loss as loss_fn,
    margin_report,
    proxy_g,
)
from .optimizer import OptimizerConfig, Schedule, TrainingError, run
from .reference import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    bias_matrix,
    canonical_update_matrix,
    max_margin,
)
from .steepest import steepest_map  # unused here; kept as a binding the perfbench tracer wraps

CSV_HEADER = (
    "t,epoch,eta,loss,proxy_g,min_margin,weight_norm,norm_margin,"
    "gap_to_gamma,cos_wstar,cos_wbar,dualnorm_signal"
)

_COLUMNS = CSV_HEADER.split(",")
_METRIC_COLUMNS = _COLUMNS[2:]  # the cells after t and epoch

_REQUIRED = object()  # default of a key the config must set

_BOOLEAN = ((bool,), "a JSON boolean")
_INTEGER = ((int,), "a JSON integer")
_NUMBER = ((int, float), "a JSON number")
_STRING = ((str,), "a JSON string")
_STRING_OR_NULL = ((str, type(None)), "a JSON string or null")

# key -> (accepted JSON value types, matched with type() so a bool is not
# an int; their description; default or _REQUIRED)
_KEYS = {
    "norm": (*_STRING, _REQUIRED),
    "loss": (*_STRING, _REQUIRED),
    "batch_size": (*_INTEGER, _REQUIRED),
    "momentum": (*_BOOLEAN, _REQUIRED),
    "beta1": (*_NUMBER, _REQUIRED),
    "vr": (*_BOOLEAN, _REQUIRED),
    "c": (*_NUMBER, _REQUIRED),
    "a": (*_NUMBER, _REQUIRED),
    "eta0": (*_NUMBER, _REQUIRED),
    "epochs": (*_INTEGER, _REQUIRED),
    "seed": (*_INTEGER, _REQUIRED),
    "dataset_path": (*_STRING, _REQUIRED),
    "w0": (*_STRING, _REQUIRED),
    "out_csv": (*_STRING, _REQUIRED),
    "gamma": ((int, float, type(None)), "a JSON number or null", None),
    "wstar_path": (*_STRING_OR_NULL, None),
    "wbar_norm": (*_STRING_OR_NULL, None),
    "log_every": (*_INTEGER, 10),
    "margin_tol": (*_NUMBER, DEFAULT_TOL),
    "margin_iters": (*_INTEGER, DEFAULT_MAX_ITERS),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float


@dataclass
class RunConfig:
    """Validated run description, plus the loaded dataset and the config's
    references; ``inputs`` pairs each file the run reads with its name."""

    path: str
    inputs: tuple[tuple[str, str], ...]
    opt: OptimizerConfig
    dataset: Dataset
    w0: np.ndarray
    out_csv: str
    log_every: int
    gamma: float | None
    wstar: np.ndarray | None
    wbar_norm: NormSpec | None
    margin_tol: float
    margin_iters: int


def _finite_float(text: str) -> float:
    """JSON number parser that rejects NaN, Infinity, -Infinity and
    literals that overflow to infinity."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite JSON number {text}")
    return v


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a key given twice is an error, not its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate config key {key!r}")
        obj[key] = value
    return obj


def _kd_matrix(key: str, file: str, ds: Dataset) -> np.ndarray:
    """The (k, d) matrix in the file that config key ``key`` names."""
    if not os.path.exists(file):
        raise ValueError(f"{key} {file!r} does not exist")
    m = load_matrix(file)
    if m.shape != (ds.k, ds.d):
        raise ValueError(f"{key} {file!r} has shape {m.shape}, not (k, d) = ({ds.k}, {ds.d})")
    return m


@contextlib.contextmanager
def _naming(path: str):
    """Re-raise an OSError, ValueError or RecursionError (JSON nested too deep) as a ConfigError naming ``path``."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: {exc}") from exc


def _check_out(path: str, name: str, inputs=(), config_dir: str | None = None):
    """Reject an output ``path`` that is not a writable file in an existing
    directory, whose file name exceeds that directory's name limit, or that
    is one of its command's inputs: the same file as one of ``inputs``, the
    (name, path) pairs of the files it reads, or a *.json file in a sweep's
    ``config_dir``. The message names the flag or config key ``name``."""
    base = os.path.basename(path)
    if not base:
        raise ValueError(f"{name} {path!r} does not name a file")
    if os.path.isdir(path):
        raise ValueError(f"{name} {path!r} names a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"{name} {path!r}: directory {parent!r} does not exist")
    limit = os.pathconf(parent, "PC_NAME_MAX")
    if len(os.fsencode(base)) > limit:
        raise ValueError(f"{name} {path!r}: file name longer than {limit} bytes")
    exists = os.path.exists(path)
    if not os.access(path if exists else parent, os.W_OK):
        raise ValueError(f"{name} {path!r} is not writable")
    if config_dir is not None and base.endswith(".json") and os.path.samefile(parent, config_dir):
        raise ValueError(f"{name} {path!r} is a *.json file in --config-dir {config_dir!r}")
    for label, source in inputs:
        if exists and os.path.exists(source) and os.path.samefile(path, source):
            raise ValueError(f"{name} {path!r} is the same file as {label} {source!r}")


def load_config(path: str) -> RunConfig:
    """Read and check a run config and its files; every failure is a ConfigError naming ``path``."""
    with _naming(path):
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float,
                            object_pairs_hook=_unique_keys)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = raw.keys() - _KEYS.keys()
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        missing = [key for key, (_, _, default) in _KEYS.items() if default is _REQUIRED and key not in raw]
        if missing:
            raise ValueError(f"missing config keys {sorted(missing)}")
        raw = {key: raw.get(key, default) for key, (_, _, default) in _KEYS.items()}
        for key, (types, what, _) in _KEYS.items():
            if type(raw[key]) not in types:
                raise ValueError(f"{key} must be {what}, got {raw[key]!r}")
            if float in types and type(raw[key]) is int:
                try:
                    raw[key] = float(raw[key])
                except OverflowError:
                    raise ValueError(f"{key} is an integer too large for a float") from None

        with _labelled("norm"):
            norm = NormSpec.parse(raw["norm"])
        with _labelled("wbar_norm"):
            wbar_norm = None if raw["wbar_norm"] is None else NormSpec.parse(raw["wbar_norm"])
        opt = OptimizerConfig(
            batch_size=raw["batch_size"],
            beta1=raw["beta1"],
            vr_on=raw["vr"],
            schedule=Schedule(c=raw["c"], a=raw["a"], eta0=raw["eta0"]),
            epochs=raw["epochs"],
            seed=raw["seed"],
            norm=norm,
            loss=raw["loss"],
        )
        opt = opt if raw["momentum"] else replace(opt, beta1=0.0)  # beta1 is checked, then unused

        dataset_path = raw["dataset_path"]
        if not os.path.exists(dataset_path):
            raise ValueError(f"dataset_path {dataset_path!r} does not exist")
        ds = load_dataset(dataset_path)

        # init_state checks batch_size and the w0 shape too, but only after the
        # reference solve
        opt.validate_against(ds)
        w0 = np.zeros((ds.k, ds.d)) if raw["w0"] == "zeros" else _kd_matrix("w0", raw["w0"], ds)
        wstar = None if raw["wstar_path"] is None else _kd_matrix("wstar_path", raw["wstar_path"], ds)
        if wstar is not None and not wstar.any():  # it has no direction to take a cosine to
            raise ValueError(f"wstar_path {raw['wstar_path']!r} is the zero matrix")
        if wstar is not None and raw["gamma"] is None:  # one source for the pair
            raise ValueError("wstar_path needs gamma: give both, gamma alone, or neither to solve both")

        if raw["log_every"] < 1:
            raise ValueError("log_every must be >= 1")
        steps = opt.epochs * (ds.n // opt.batch_size)
        if raw["log_every"] > steps:
            raise ValueError(f"log_every {raw['log_every']} exceeds the run's {steps} steps; no row is logged")
        if raw["gamma"] is not None and not raw["gamma"] > 0:
            raise ValueError(f"gamma must be positive, got {raw['gamma']!r}")
        if raw["margin_iters"] < 1:
            raise ValueError("margin_iters must be >= 1")
        if not raw["margin_tol"] > 0:
            raise ValueError(f"margin_tol must be positive, got {raw['margin_tol']!r}")
        files = [("the config", path), ("dataset_path", dataset_path),
                 ("w0", None if raw["w0"] == "zeros" else raw["w0"]), ("wstar_path", raw["wstar_path"])]
        inputs = tuple((key, file) for key, file in files if file is not None)
        _check_out(raw["out_csv"], "out_csv", inputs)

        return RunConfig(
            path=path,
            inputs=inputs,
            opt=opt,
            dataset=ds,
            w0=w0,
            out_csv=raw["out_csv"],
            log_every=raw["log_every"],
            gamma=raw["gamma"],
            wstar=wstar,
            wbar_norm=wbar_norm,
            margin_tol=raw["margin_tol"],
            margin_iters=raw["margin_iters"],
        )


def _drive(cfg: RunConfig, outputs=(), check=None):
    """Fix the run's references, then run the configured optimizer and
    stream a metric row to the CSV every log_every steps; returns the final
    TrainState, gamma, W* and W-bar. W-bar is ``bias_matrix`` at
    ``cfg.wbar_norm`` (none for None), a zero one a ConfigError; only then
    are ``out_csv`` and ``outputs`` deleted, and gamma and W* come from the
    config or both from one solve, where finding no margin is a ConfigError.
    A run that fails leaves the header and the rows logged before the failure.

    ``check(h, delta)``, if given, sees every step's signal and the
    direction the step applied. A row with a non-finite cell aborts the run
    with a TrainingError instead of being written; the one exception is a
    zero W, whose norm_margin is -inf and gap_to_gamma inf by definition,
    and whose cosine cells are left empty.
    """
    ds = cfg.dataset
    wbar = None if cfg.wbar_norm is None else bias_matrix(ds, cfg.wbar_norm)
    if wbar is not None and not wbar.any():  # it has no direction to take a cosine to
        raise ConfigError(f"{cfg.path}: wbar_norm {cfg.wbar_norm} gives the zero bias matrix")
    for path in (cfg.out_csv, *outputs):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    gamma, wstar = cfg.gamma, cfg.wstar
    if gamma is None:
        sol = max_margin(ds, cfg.opt.norm, tol=cfg.margin_tol, max_iters=cfg.margin_iters)
        if not sol.separable:
            raise ConfigError(f"{cfg.path}: no margin at norm {cfg.opt.norm}: max_margin gives gamma "
                              f"{sol.gamma!r}, not above margin_tol {cfg.margin_tol!r}")
        gamma, wstar = sol.gamma, sol.w_star
    m = ds.n // cfg.opt.batch_size
    with open(cfg.out_csv, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")

        def hook(t, w, h, eta, delta):
            if check is not None:
                check(h, delta)
            if t % cfg.log_every != 0:
                return
            rep = margin_report(w, ds, cfg.opt.norm)
            zero = rep.weight_norm == 0.0
            cells = (
                eta,
                loss_fn(w, ds, cfg.opt.loss),
                proxy_g(w, ds, cfg.opt.loss),
                rep.unnormalized_min,
                rep.weight_norm,
                rep.normalized,
                gamma - rep.normalized,
                None if wstar is None or zero else frobenius_cosine(w, wstar),
                None if wbar is None or zero else frobenius_cosine(w, wbar),
                dual_norm(h, cfg.opt.norm),
            )
            exempt = ("norm_margin", "gap_to_gamma") if zero else ()
            bad = [f"{name} {float(v)!r}" for name, v in zip(_METRIC_COLUMNS, cells)
                   if v is not None and name not in exempt and not math.isfinite(v)]
            if bad:
                raise TrainingError(t, FloatingPointError(f"non-finite metric row: {', '.join(bad)}"))
            floats = ("" if v is None else repr(float(v)) for v in cells)
            fh.write(",".join((str(t), str((t - 1) // m), *floats)) + "\n")

        state = run(cfg.opt, ds, cfg.w0, metrics_hook=hook)
    return state, gamma, wstar, wbar


def train_cmd(config_path: str) -> str:
    """Run one config and stream its metric CSV; returns the CSV path."""
    cfg = load_config(config_path)
    _drive(cfg)
    return cfg.out_csv


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Metric CSV columns as float arrays (empty optional cells become NaN).

    Raises ValueError, naming the file and line, for a header other than
    CSV_HEADER, a row whose field count differs from the header's, or a
    cell that is not a number.
    """
    with open(path, "r", encoding="ascii") as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise ValueError(f"{path}: line 1 is not the metric CSV header {CSV_HEADER!r}")
        cols: dict[str, list[float]] = {h: [] for h in _COLUMNS}
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if len(cells) != len(_COLUMNS):
                raise ValueError(f"{path}: line {lineno} has {len(cells)} fields, expected {len(_COLUMNS)}")
            with _labelled(f"{path}: line {lineno}"):
                for h, tok in zip(_COLUMNS, cells):
                    cols[h].append(float(tok) if tok else math.nan)
    return {h: np.asarray(v) for h, v in cols.items()}


def fit_rate(csv_path: str, t_lo: int, t_hi: int) -> SlopeFit:
    """Least-squares slope of log(gap) against log(t) on a step window.

    Uses only rows with a finite, strictly positive gap; requires at least
    20 of them inside [t_lo, t_hi].
    """
    return _fit_columns(read_csv(csv_path), t_lo, t_hi, csv_path)


def _fit_columns(cols: dict[str, np.ndarray], t_lo: int, t_hi: int, csv_path: str) -> SlopeFit:
    """``fit_rate`` on the columns already read from ``csv_path``."""
    if t_lo >= t_hi:
        raise ValueError("t_lo must be below t_hi")
    t = cols["t"]
    gap = cols["gap_to_gamma"]
    sel = (t >= t_lo) & (t <= t_hi) & (gap > 0.0) & (gap < np.inf)
    if int(sel.sum()) < 20:
        raise ValueError(
            f"{csv_path}: only {int(sel.sum())} positive-gap rows in [{t_lo}, {t_hi}]; need >= 20"
        )
    x = np.log(t[sel])
    yv = np.log(gap[sel])
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, yv, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((yv - fitted) ** 2))
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    r2 = 1.0 - (ss_res / ss_tot if ss_tot > 0.0 else 0.0)
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]), r2=r2)


def sweep_cmd(config_dir: str, summary_path: str | None = None) -> dict:
    """Run every *.json config in a directory; failures do not stop the sweep.

    Returns (and optionally writes) a summary mapping config name to
    {final_gap, final_cos_wstar, slope} or {"error": reason}; a value that
    is not finite (the gap of a zero W, the cosine it has none of) is null.
    ``summary_path`` is checked before any config is run.
    """
    if summary_path is not None:
        _check_out(summary_path, "--out-summary", config_dir=config_dir)
    names = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    if not names:
        raise ConfigError(f"{config_dir}: no .json configs found")
    summary: dict[str, dict] = {}
    for name in names:
        try:
            csv_path = train_cmd(os.path.join(config_dir, name))
            cols = read_csv(csv_path)
            gap, cos = float(cols["gap_to_gamma"][-1]), float(cols["cos_wstar"][-1])
            try:
                slope = _fit_columns(cols, 1000, int(cols["t"][-1]), csv_path).slope
            except ValueError:
                slope = None
            summary[name] = {"final_gap": gap if math.isfinite(gap) else None,
                             "final_cos_wstar": None if math.isnan(cos) else cos, "slope": slope}
        except Exception as exc:  # fault isolation across configs
            summary[name] = {"error": f"{type(exc).__name__}: {exc}"}
    if summary_path is not None:
        _write_json(summary_path, summary)
    return summary


def _write_json(path: str, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# steps whose (h, delta) the persample check buffers before it compares
# them with their expected directions in one vectorised pass
_CHECK_CHUNK = 256


def _check_scale_skewed(ds: Dataset):
    """Each sample must be alpha * e_y with alpha > 0: sign +1 on row y, 0 elsewhere."""
    on_label = np.arange(ds.d)[:, None] == ds.y
    bad = (np.sign(ds.x) != on_label).any(axis=0) | (ds.y >= ds.d)
    if bad.any():
        raise ValueError(
            f"persample protocol needs orthogonal scale-skewed data; sample {int(np.argmax(bad))} is not alpha * e_y"
        )


def persample_cmd(config_path: str) -> tuple[str, dict]:
    """Batch-size-one protocol: train, track the bias-matrix cosine, and
    check the invariant update direction at every step.

    The check copies each step's signal and direction into a buffer of
    ``_CHECK_CHUNK`` steps. Whenever the buffer fills, and once after the
    run, it compares every buffered direction with minus the canonical
    update of the step's class at the run's norm, entry by entry within
    1e-9 * (1 + its largest entry); a step with a zero signal is exempt. One
    step off makes ``invariant_gradient_ok`` false.

    Preconditions: scale-skewed dataset, b = 1, momentum and VR off, zero
    init. Any norm is accepted, and the bias matrix is taken at that norm;
    a config wbar_norm must be null or that norm.
    Returns the CSV path and the verdict dict (also written next to the CSV
    as <out_csv>.verdict.json), whose ``wbar_norm`` is the run's norm.
    """
    cfg = load_config(config_path)
    ds = cfg.dataset
    norm = cfg.opt.norm
    with _naming(config_path):
        if cfg.opt.batch_size != 1:
            raise ValueError("persample protocol requires batch_size = 1")
        if cfg.opt.beta1 or cfg.opt.vr_on:
            raise ValueError("persample protocol requires momentum and vr off")
        if np.any(cfg.w0):
            raise ValueError("persample protocol requires w0 = zeros")
        _check_scale_skewed(ds)
        if cfg.wbar_norm not in (None, norm):
            raise ValueError(f"persample takes the bias matrix at its norm {norm}, not wbar_norm {cfg.wbar_norm}")
        verdict_path = cfg.out_csv + ".verdict.json"
        _check_out(verdict_path, "verdict", cfg.inputs)
    # every sample of a class has the same canonical update; keep the
    # first's, with the tolerance of the check against it
    firsts = [int(np.nonzero(ds.y == c)[0][0]) for c in range(ds.k)]
    expects = np.stack([canonical_update_matrix(ds, i, norm) for i in firsts])
    bounds = 1e-9 * (1.0 + np.abs(expects).max(axis=(1, 2)))
    hs = np.empty((_CHECK_CHUNK, ds.k, ds.d))
    deltas = np.empty_like(hs)
    filled = 0
    invariant_ok = True

    def flush():
        nonlocal filled, invariant_ok
        h, delta = hs[:filled], deltas[:filled]
        # h is a per-sample gradient; its support column identifies the class
        cls = np.abs(h).sum(axis=1).argmax(axis=1)
        off = np.abs(delta + expects[cls]).max(axis=(1, 2)) > bounds[cls]
        if (off & h.any(axis=(1, 2))).any():
            invariant_ok = False
        filled = 0

    def check(h, delta):
        nonlocal filled
        hs[filled] = h
        deltas[filled] = delta
        filled += 1
        if filled == _CHECK_CHUNK:
            flush()

    state, gamma, wstar, wbar = _drive(replace(cfg, wbar_norm=norm), (verdict_path,), check)
    flush()
    verdict = {
        "final_loss": loss_fn(state.w, ds, cfg.opt.loss),
        "final_cos_wbar": frobenius_cosine(state.w, wbar),
        "final_cos_wstar": None if wstar is None else frobenius_cosine(state.w, wstar),
        "invariant_gradient_ok": bool(invariant_ok),
        "wbar_norm": str(norm),
        "gamma": gamma,
    }
    _write_json(verdict_path, verdict)
    return cfg.out_csv, verdict
