"""Experiment harness: configured training runs with CSV metric logs,
directory sweeps, post-hoc rate fits, and the batch-size-one protocol.

A run config is a JSON object with the optimizer contract keys

    norm, loss, batch_size, momentum, beta1, vr, c, a, eta0, epochs,
    seed, dataset_path, w0 ("zeros" or a matrix file path), out_csv

plus the optional harness keys

    gamma        precomputed reference margin (float)
    wstar_path   precomputed max-margin direction (matrix file)
    wbar_kind    "sign" | "normalized": also log cosine to the bias matrix
    log_every    metric cadence in steps (default 10)
    margin_tol / margin_iters   solver settings when gamma is not supplied
                 (defaults 1e-3 and 120000)

Unknown keys are rejected, and values must have their JSON type: booleans
for momentum and vr, integers for batch_size, epochs, seed, log_every and
margin_iters, numbers for the other numeric keys, strings for the others
(wstar_path and wbar_kind may also be null). batch_size must divide the
dataset's n and a w0 file must hold a (k, d) matrix; all of this is checked
before any reference solve. The CSV schema is fixed:

    t,epoch,eta,loss,proxy_g,min_margin,weight_norm,norm_margin,gap_to_gamma,cos_wstar,cos_wbar,dualnorm_signal

``train`` and ``persample`` share one run driver, which streams a row to
the CSV every log_every steps, so a run that fails keeps the header and
the rows logged before the failure. The gap column is measured against
the command's target: for ``train`` the solver's gamma for
variance-reduced and full-batch runs, and the effective margin (rho_nomom
or rho_mom) for mini-batch runs, matching the distinct targets of the
large-batch and momentum regimes; for ``persample`` gamma, plus a
per-step check of the applied direction.
Optional fields serialize as empty strings. Floats are written with
repr(), so reruns of the same config are byte-identical.

Runs are fully independent (each owns its state and output file); the
sweep executes them one after another and a per-config failure is recorded
in the summary without touching the other runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .linalg import NormSpec, dual_norm, frobenius_cosine
from .model import (
    CROSS_ENTROPY,
    EXPONENTIAL,
    Dataset,
    load_dataset,
    load_matrix,
    loss as loss_fn,
    margin_report,
    proxy_g,
)
from .optimizer import OptimizerConfig, Schedule, effective_margin_thresholds, run
from .reference import (
    BIAS_NORMALIZED,
    BIAS_SIGN,
    bias_matrix,
    canonical_update_matrix,
    max_margin,
)
from .steepest import steepest_map  # unused here; kept as a binding the perfbench tracer wraps

CSV_HEADER = (
    "t,epoch,eta,loss,proxy_g,min_margin,weight_norm,norm_margin,"
    "gap_to_gamma,cos_wstar,cos_wbar,dualnorm_signal"
)

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
    "wbar_kind": (*_STRING_OR_NULL, None),
    "log_every": (*_INTEGER, 10),
    "margin_tol": (*_NUMBER, 1e-3),
    "margin_iters": (*_INTEGER, 120_000),
}

_LOSS_ALIASES = {
    "cross_entropy": CROSS_ENTROPY,
    "ce": CROSS_ENTROPY,
    "exponential": EXPONENTIAL,
    "exp": EXPONENTIAL,
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SlopeFit:
    window: tuple[int, int]
    slope: float
    intercept: float
    r2: float


@dataclass
class RunConfig:
    """Validated run description, plus the resolved dataset and references."""

    opt: OptimizerConfig
    dataset: Dataset
    w0: np.ndarray
    out_csv: str
    log_every: int
    gamma: float | None
    wstar_path: str | None
    wbar_kind: str | None
    margin_tol: float
    margin_iters: int


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = raw.keys() - _KEYS.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    missing = [key for key, (_, _, default) in _KEYS.items() if default is _REQUIRED and key not in raw]
    if missing:
        raise ConfigError(f"{path}: missing config keys {sorted(missing)}")
    raw = {key: raw.get(key, default) for key, (_, _, default) in _KEYS.items()}
    for key, (types, what, _) in _KEYS.items():
        if type(raw[key]) not in types:
            raise ConfigError(f"{path}: {key} must be {what}, got {raw[key]!r}")

    loss_kind = _LOSS_ALIASES.get(raw["loss"].lower())
    if loss_kind is None:
        raise ConfigError(f"{path}: loss must be one of {sorted(_LOSS_ALIASES)}, got {raw['loss']!r}")
    try:
        norm = NormSpec.parse(raw["norm"])
        schedule = Schedule(c=float(raw["c"]), a=float(raw["a"]), eta0=float(raw["eta0"]))
        opt = OptimizerConfig(
            batch_size=raw["batch_size"],
            momentum_on=raw["momentum"],
            beta1=float(raw["beta1"]),
            vr_on=raw["vr"],
            schedule=schedule,
            epochs=raw["epochs"],
            seed=raw["seed"],
            norm=norm,
            loss=loss_kind,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    dataset_path = raw["dataset_path"]
    if not os.path.exists(dataset_path):
        raise ConfigError(f"{path}: dataset_path {dataset_path!r} does not exist")
    ds = load_dataset(dataset_path)

    w0_spec = raw["w0"]
    if w0_spec == "zeros":
        w0 = np.zeros((ds.k, ds.d))
    else:
        if not os.path.exists(w0_spec):
            raise ConfigError(f"{path}: w0 path {w0_spec!r} does not exist")
        w0 = load_matrix(w0_spec)
    # init_state makes the same checks, but only after the reference solve
    try:
        opt.validate_against(ds)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if w0.shape != (ds.k, ds.d):
        raise ConfigError(f"{path}: w0 shape {w0.shape} does not match (k, d) = ({ds.k}, {ds.d})")

    wbar_kind = raw["wbar_kind"]
    if wbar_kind is not None and wbar_kind not in (BIAS_SIGN, BIAS_NORMALIZED):
        raise ConfigError(f"{path}: wbar_kind must be 'sign' or 'normalized'")
    wstar_path = raw["wstar_path"]
    if wstar_path is not None and not os.path.exists(wstar_path):
        raise ConfigError(f"{path}: wstar_path {wstar_path!r} does not exist")
    if raw["log_every"] < 1:
        raise ConfigError(f"{path}: log_every must be >= 1")

    return RunConfig(
        opt=opt,
        dataset=ds,
        w0=w0,
        out_csv=raw["out_csv"],
        log_every=raw["log_every"],
        gamma=None if raw["gamma"] is None else float(raw["gamma"]),
        wstar_path=wstar_path,
        wbar_kind=wbar_kind,
        margin_tol=float(raw["margin_tol"]),
        margin_iters=raw["margin_iters"],
    )


def _resolve_references(cfg: RunConfig):
    """Reference margin gamma and max-margin direction."""
    wstar = load_matrix(cfg.wstar_path) if cfg.wstar_path else None
    if cfg.gamma is not None:
        gamma = cfg.gamma
    else:
        sol = max_margin(cfg.dataset, cfg.opt.norm, tol=cfg.margin_tol, max_iters=cfg.margin_iters)
        gamma = sol.gamma
        if wstar is None:
            wstar = sol.w_star
    return gamma, wstar


def _gap_target(cfg: RunConfig, gamma: float) -> float:
    """Margin-gap target: gamma for VR/full-batch, effective margin otherwise."""
    ds = cfg.dataset
    if cfg.opt.vr_on or cfg.opt.batch_size == ds.n:
        return gamma
    thr = effective_margin_thresholds(
        gamma, ds.r_bound, ds.n, cfg.opt.batch_size, cfg.opt.beta1, cfg.opt.schedule.eta0
    )
    return thr.rho_mom if cfg.opt.momentum_on else thr.rho_nomom


def _drive(cfg: RunConfig, target: float, wstar, wbar, check=None):
    """Run the configured optimizer and stream a metric row to the CSV every
    log_every steps; returns the final TrainState. A run that fails leaves
    the header and the rows logged before the failure.

    ``check(h, delta)``, if given, sees every step's signal and the
    direction the step applied.
    """
    ds = cfg.dataset
    m = ds.n // cfg.opt.batch_size
    parent = os.path.dirname(cfg.out_csv)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(cfg.out_csv, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")

        def hook(t, w, h, eta, delta):
            if check is not None:
                check(h, delta)
            if t % cfg.log_every != 0:
                return
            rep = margin_report(w, ds, cfg.opt.norm)
            cells = (
                eta,
                loss_fn(w, ds, cfg.opt.loss),
                proxy_g(w, ds, cfg.opt.loss),
                rep.unnormalized_min,
                rep.weight_norm,
                rep.normalized,
                target - rep.normalized,
                None if wstar is None else frobenius_cosine(w, wstar),
                None if wbar is None else frobenius_cosine(w, wbar),
                dual_norm(h, cfg.opt.norm),
            )
            floats = ("" if v is None else repr(float(v)) for v in cells)
            fh.write(",".join((str(t), str((t - 1) // m), *floats)) + "\n")

        return run(cfg.opt, ds, cfg.w0, metrics_hook=hook)


def train_cmd(config_path: str) -> str:
    """Run one config and stream its metric CSV; returns the CSV path."""
    cfg = load_config(config_path)
    gamma, wstar = _resolve_references(cfg)
    wbar = bias_matrix(cfg.dataset, cfg.wbar_kind).w_bar if cfg.wbar_kind else None
    _drive(cfg, _gap_target(cfg, gamma), wstar, wbar)
    return cfg.out_csv


def read_csv(path: str) -> dict[str, np.ndarray]:
    """CSV columns as float arrays (empty optional cells become NaN)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        cols: dict[str, list[float]] = {h: [] for h in header}
        for line in fh:
            for h, tok in zip(header, line.strip().split(",")):
                cols[h].append(float(tok) if tok else math.nan)
    return {h: np.asarray(v) for h, v in cols.items()}


def fit_rate(csv_path: str, t_lo: int, t_hi: int) -> SlopeFit:
    """Least-squares slope of log(gap) against log(t) on a step window.

    Uses only rows with a strictly positive gap; requires at least 20 of
    them inside [t_lo, t_hi].
    """
    if t_lo >= t_hi:
        raise ValueError("t_lo must be below t_hi")
    cols = read_csv(csv_path)
    t = cols["t"]
    gap = cols["gap_to_gamma"]
    sel = (t >= t_lo) & (t <= t_hi) & (gap > 0.0)
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
    return SlopeFit(window=(t_lo, t_hi), slope=float(coef[0]), intercept=float(coef[1]), r2=r2)


def sweep_cmd(config_dir: str, summary_path: str | None = None) -> dict:
    """Run every *.json config in a directory; failures do not stop the sweep.

    Returns (and optionally writes) a summary mapping config name to
    {final_gap, final_cos_wstar, slope} or {"error": reason}.
    """
    names = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    if not names:
        raise ConfigError(f"{config_dir}: no .json configs found")
    summary: dict[str, dict] = {}
    for name in names:
        cfg_path = os.path.join(config_dir, name)
        try:
            csv_path = train_cmd(cfg_path)
            cols = read_csv(csv_path)
            entry: dict = {
                "final_gap": float(cols["gap_to_gamma"][-1]),
                "final_cos_wstar": _last_or_none(cols["cos_wstar"]),
            }
            try:
                fit = fit_rate(csv_path, 1000, int(cols["t"][-1]))
                entry["slope"] = fit.slope
            except ValueError:
                entry["slope"] = None
            summary[name] = entry
        except Exception as exc:  # fault isolation across configs
            summary[name] = {"error": f"{type(exc).__name__}: {exc}"}
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


def _last_or_none(col: np.ndarray):
    v = float(col[-1])
    return None if math.isnan(v) else v


_PERSAMPLE_NORMS = {"ew:inf", "ew:2", "sch:inf"}


def _check_scale_skewed(ds: Dataset):
    for i in range(ds.n):
        xi = ds.x[:, i]
        nz = np.nonzero(xi)[0]
        if nz.size != 1 or xi[nz[0]] <= 0.0 or int(nz[0]) != int(ds.y[i]):
            raise ConfigError(
                f"persample protocol needs orthogonal scale-skewed data; sample {i} is not alpha * e_y"
            )


def persample_cmd(config_path: str) -> tuple[str, dict]:
    """Batch-size-one protocol: train, track the bias-matrix cosine, and
    check the invariant update direction at every step.

    Preconditions: scale-skewed dataset, b = 1, momentum and VR off, zero
    init, and a norm in {ew:inf, ew:2, sch:inf}. The norm implies the bias
    kind (sign for ew:inf, normalized otherwise); a config wbar_kind must
    agree with it. Returns the CSV path and
    the verdict dict (also written next to the CSV as <out_csv>.verdict.json).
    """
    cfg = load_config(config_path)
    if cfg.opt.batch_size != 1:
        raise ConfigError("persample protocol requires batch_size = 1")
    if cfg.opt.momentum_on or cfg.opt.vr_on:
        raise ConfigError("persample protocol requires momentum and vr off")
    if str(cfg.opt.norm) not in _PERSAMPLE_NORMS:
        raise ConfigError(f"persample norm must be one of {sorted(_PERSAMPLE_NORMS)}")
    if np.any(cfg.w0):
        raise ConfigError("persample protocol requires w0 = zeros")
    ds = cfg.dataset
    _check_scale_skewed(ds)

    kind = BIAS_SIGN if str(cfg.opt.norm) == "ew:inf" else BIAS_NORMALIZED
    if cfg.wbar_kind not in (None, kind):
        raise ConfigError(f"persample with norm {cfg.opt.norm} uses wbar_kind {kind!r}, not {cfg.wbar_kind!r}")
    gamma, wstar = _resolve_references(cfg)
    wbar = bias_matrix(ds, kind).w_bar
    # every sample of a class has the same closed-form update; keep the first's
    expect_of_class = [
        canonical_update_matrix(ds, int(np.nonzero(ds.y == c)[0][0]), kind) for c in range(ds.k)
    ]
    invariant_ok = True

    def check(h, delta):
        nonlocal invariant_ok
        if np.any(h):
            # h is the per-sample gradient; its support column identifies the class
            expect = expect_of_class[int(np.argmax(np.abs(h).sum(axis=0)))]
            if float(np.abs(delta + expect).max()) > 1e-9 * (1.0 + float(np.abs(expect).max())):
                invariant_ok = False

    verdict_path = cfg.out_csv + ".verdict.json"
    if os.path.exists(verdict_path):
        os.remove(verdict_path)  # a run that fails must not sit next to the last run's verdict
    state = _drive(cfg, gamma, wstar, wbar, check)
    verdict = {
        "final_loss": loss_fn(state.w, ds, cfg.opt.loss),
        "final_cos_wbar": frobenius_cosine(state.w, wbar),
        "final_cos_wstar": None if wstar is None else frobenius_cosine(state.w, wstar),
        "invariant_gradient_ok": bool(invariant_ok),
        "wbar_kind": kind,
        "gamma": gamma,
    }
    with open(verdict_path, "w", encoding="utf-8") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return cfg.out_csv, verdict
