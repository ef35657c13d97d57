"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Gaussian reference instance, its max-margin solutions, and the long
training runs are computed once per session in module-scoped fixtures and
shared across criteria. Stated runtime budgets are asserted where the
criterion pins one.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from normdescent import (
    ALL,
    CROSS_ENTROPY,
    EXPONENTIAL,
    Dataset,
    GaussianSpec,
    NormSpec,
    OptimizerConfig,
    Schedule,
    SkewedSpec,
    dual_norm,
    fit_rate,
    frobenius_cosine,
    gen_gaussian,
    gen_skewed,
    grad,
    jacobi_svd,
    loss,
    margin_report,
    matrix_norm,
    max_margin,
    newton_schulz_polar,
    persample_cmd,
    proxy_g,
    read_csv,
    run,
    save_dataset,
    save_matrix,
    schedule_constants,
    steepest_map,
    train_cmd,
)
from tests.conftest import divisible_dataset
from tests.test_model import fd_grad

EW2 = NormSpec("ew", 2.0)
EWINF = NormSpec("ew", math.inf)
SCHINF = NormSpec("sch", math.inf)

ACCEPT_SPECS = [
    NormSpec("ew", 1.0),
    NormSpec("ew", 1.5),
    NormSpec("ew", 2.0),
    NormSpec("ew", 3.0),
    NormSpec("ew", math.inf),
    NormSpec("sch", 1.0),
    NormSpec("sch", 2.0),
    NormSpec("sch", math.inf),
]

GAUSS_SEED = 12345
RUN_SEED = 7
FP_SLACK = 1e-12  # relative float guard on exact inequalities


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def leq(lhs, rhs):
    return lhs <= rhs + FP_SLACK * max(1.0, abs(rhs))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def gauss(workdir):
    ds = gen_gaussian(GaussianSpec(k=10, per_class=20, d=5, sigma=0.1, seed=GAUSS_SEED))
    path = workdir / "gauss.txt"
    save_dataset(ds, path)
    return ds, str(path)


@pytest.fixture(scope="module")
def refs(gauss, workdir):
    """Max-margin references for the three experiment geometries."""
    ds, _ = gauss
    out = {}
    for spec, tol, iters in ((EW2, 2e-4, 200_000), (EWINF, 1e-2, 60_000), (SCHINF, 1e-2, 30_000)):
        sol = max_margin(ds, spec, tol=tol, max_iters=iters)
        wpath = workdir / f"wstar_{str(spec).replace(':', '_')}.txt"
        save_matrix(sol.w_star, wpath)
        out[str(spec)] = (sol, str(wpath))
    return out


def write_run_config(workdir, gauss_path, refs, name, norm, b, c, *, momentum=False,
                     beta1=0.0, vr=False, epochs=None, seed=RUN_SEED):
    sol, wpath = refs[norm]
    m = 200 // b
    cfg = {
        "norm": norm,
        "loss": "cross_entropy",
        "batch_size": b,
        "momentum": momentum,
        "beta1": beta1,
        "vr": vr,
        "c": c,
        "a": 0.5,
        "eta0": c,
        "epochs": epochs if epochs is not None else 20000 // m,
        "seed": seed,
        "dataset_path": gauss_path,
        "w0": "zeros",
        "out_csv": str(workdir / f"{name}.csv"),
        "gamma": sol.gamma,
        "wstar_path": wpath,
        "log_every": 10,
    }
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def fullbatch_runs(gauss, refs, workdir):
    """The three full-batch runs of the reference experiment (criterion 4)."""
    _, gpath = gauss
    started = time.time()
    csvs = {}
    for name, norm, c in (("fb_ew2", "ew:2", 0.5), ("fb_ewinf", "ew:inf", 0.05), ("fb_schinf", "sch:inf", 0.5)):
        csvs[norm] = train_cmd(write_run_config(workdir, gpath, refs, name, norm, 200, c))
    return csvs, time.time() - started


@pytest.fixture(scope="module")
def minibatch_run(gauss, refs, workdir):
    _, gpath = gauss
    started = time.time()
    csv = train_cmd(write_run_config(workdir, gpath, refs, "mb20", "ew:2", 20, 0.5))
    return csv, time.time() - started


@pytest.fixture(scope="module")
def momentum_run(gauss, refs, workdir):
    _, gpath = gauss
    csv = train_cmd(
        write_run_config(workdir, gpath, refs, "mb20_mom99", "ew:2", 20, 0.5, momentum=True, beta1=0.99)
    )
    return csv


@pytest.fixture(scope="module")
def vr_runs(gauss, refs, workdir):
    _, gpath = gauss
    out = {}
    for beta1 in (0.0, 0.5, 0.99):
        name = f"vr_beta{beta1}"
        out[beta1] = train_cmd(
            write_run_config(
                workdir, gpath, refs, name, "ew:2", 20, 0.5, momentum=beta1 > 0, beta1=beta1, vr=True
            )
        )
    return out


@pytest.fixture(scope="module")
def skewed(workdir):
    spec = SkewedSpec(
        counts=(6, 3, 3, 2, 1),
        alpha_ranges=((0.8, 1.2), (0.5, 1.5), (1.0, 2.0), (0.6, 0.9), (1.5, 2.5)),
        seed=42,
    )
    ds = gen_skewed(spec)
    path = workdir / "skewed.txt"
    save_dataset(ds, path)
    return ds, str(path)


def final_gamma_gap(csv_path, gamma):
    cols = read_csv(csv_path)
    return gamma - float(cols["norm_margin"][-1]), float(cols["cos_wstar"][-1])


class TestCriterion01BoundSuite:
    def test_bound_suite(self, rng):
        started = time.time()
        draws = 0

        # (a), (c)-(f): cheap inequalities swept over many random draws
        for _ in range(72):
            n = int(rng.choice([8, 12, 16, 20, 24]))
            k = int(rng.integers(2, 6))
            d = int(rng.integers(1, 6))
            ds = divisible_dataset(rng, k=k, d=d, n=n)
            r = ds.r_bound
            for _ in range(4):
                draws += 1
                w = 0.6 * rng.standard_normal((k, d))
                delta = 0.4 * rng.standard_normal((k, d))
                g = grad(w, ds)
                gval = proxy_g(w, ds)
                lval = loss(w, ds)
                # (a) norm dominance on the gradient matrix
                lo = matrix_norm(g, NormSpec("ew", math.inf))
                hi = matrix_norm(g, NormSpec("ew", 1.0))
                for spec in ACCEPT_SPECS:
                    v = matrix_norm(g, spec)
                    assert leq(lo, v) and leq(v, hi)
                # (b) upper side: ||grad||_* <= 2 R G for every spec
                for spec in ACCEPT_SPECS:
                    assert leq(dual_norm(g, spec), 2 * r * gval)
                # (c) proxy-loss sandwich in its validity range
                assert leq(gval, lval)
                if n * lval < 2:
                    assert leq(lval * (1 - n * lval / 2), gval)
                # (d) mini-batch noise bound
                b = int(rng.choice([v for v in (1, 2, 4, n // 2) if n % v == 0]))
                batch = rng.choice(n, size=b, replace=False)
                m = n // b
                lhs = float(np.abs(grad(w, ds, batch) - g).sum())
                assert leq(lhs, 2 * (m - 1) * r * gval)
                # (e) VR deviation bound
                w2 = w + delta
                dev = grad(w, ds, batch) - grad(w2, ds, batch) + grad(w2, ds) - g
                bound = 2 * (m - 1) * r * (math.exp(2 * r * np.abs(delta).max()) - 1) * gval
                assert leq(float(np.abs(dev).sum()), bound)
                # (f) proxy and gradient stability
                assert leq(proxy_g(w2, ds), math.exp(2 * r * np.abs(delta).max()) * gval)
                gdiff = float(np.abs(grad(w2, ds) - g).sum())
                assert leq(gdiff, 2 * r * (math.exp(2 * r * np.abs(delta).max()) - 1) * gval)

        # (b) lower side and the low-loss regime need a reference margin, so
        # these draws plant well-separated class means (random labelings are
        # almost never separable)
        solved = 0
        attempts = 0
        while solved < 5 and attempts < 20:
            attempts += 1
            k = int(rng.integers(2, 6))
            d = int(rng.integers(3, 6))
            means = rng.standard_normal((k, d))
            means /= np.linalg.norm(means, axis=1, keepdims=True)
            y = np.concatenate([np.arange(k), rng.integers(0, k, size=12 - k)])
            rng.shuffle(y)
            x = means[y].T + 0.08 * rng.standard_normal((d, 12))
            ds = Dataset(x, y, k)
            gammas = {}
            ok = True
            for spec in ACCEPT_SPECS:
                sol = max_margin(ds, spec, tol=0.05, max_iters=6000)
                if not sol.separable:
                    ok = False
                    break
                gammas[spec] = (sol.gamma, sol.w_star)
            if not ok:
                continue
            solved += 1
            for _ in range(45):
                draws += 1
                w = 0.6 * rng.standard_normal((ds.k, ds.d))
                gval = proxy_g(w, ds)
                g = grad(w, ds)
                for spec, (gamma, _) in gammas.items():
                    assert leq(gamma * gval, dual_norm(g, spec))
            # L <= 2G once the loss is under log2/n
            gamma2, wstar2 = gammas[EW2]
            wbig = wstar2 * (2 * math.log(2 * ds.n) / max(gamma2, 1e-3))
            lval = loss(wbig, ds)
            if lval <= math.log(2) / ds.n:
                assert leq(lval, 2 * proxy_g(wbig, ds))
                assert margin_report(wbig, ds, EW2).unnormalized_min >= 0
        assert solved == 5

        elapsed = time.time() - started
        report(1, draws >= 500 and elapsed < 60, f"{draws} draws, zero violations, {elapsed:.1f}s (< 60s)")


class TestCriterion02Gradients:
    def test_gradient_correctness(self, rng):
        started = time.time()
        for trial in range(50):
            kind = CROSS_ENTROPY if trial % 2 == 0 else EXPONENTIAL
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, 5))
            ds = divisible_dataset(rng, k=k, d=d, n=int(rng.integers(k, 9)) if k <= 8 else k)
            w = 0.4 * rng.standard_normal((k, d))
            g = grad(w, ds, ALL, kind)
            assert np.abs(g - fd_grad(w, ds, kind)).max() <= 1e-5
            if kind == CROSS_ENTROPY:
                assert np.abs(g.sum(axis=0)).max() <= 1e-12
            else:
                assert np.abs(g.sum(axis=0)).max() <= 1e-12 * max(1.0, float(np.abs(g).max()))
        elapsed = time.time() - started
        report(2, elapsed < 10, f"50 finite-difference instances, simplex identity holds, {elapsed:.1f}s (< 10s)")


class TestCriterion03SteepestDuality:
    def test_duality_and_polar_paths(self, rng):
        started = time.time()
        for spec in ACCEPT_SPECS:
            for _ in range(100):
                g = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
                phi = steepest_map(g, spec)
                dual = dual_norm(g, spec)
                assert abs(float(np.sum(g * phi)) - dual) <= 1e-8 * max(1.0, dual)
                assert abs(matrix_norm(phi, spec) - 1.0) <= 1e-8
        for _ in range(20):
            g = rng.standard_normal((4, 6))
            u, _, vt = jacobi_svd(g)
            exact = u @ vt
            assert np.linalg.norm(newton_schulz_polar(g, iters=80, tol=1e-8) - exact) <= 1e-6
        elapsed = time.time() - started
        report(3, elapsed < 30, f"8 specs x 100 draws + Newton-Schulz vs SVD, {elapsed:.1f}s (< 30s)")


class TestCriterion04FullBatchBias:
    def test_full_batch_implicit_bias(self, gauss, refs, fullbatch_runs):
        csvs, elapsed = fullbatch_runs
        gamma2 = refs["ew:2"][0].gamma
        cols = read_csv(csvs["ew:2"])
        gap = float(cols["gap_to_gamma"][-1])
        cos = float(cols["cos_wstar"][-1])
        # the reference run: 20000 steps logged every 10 -> 2000 rows, and
        # the final loss sits well under the uniform-softmax level log k
        assert cols["t"].size == 2000
        assert 0.0 < float(cols["loss"][-1]) < math.log(10)
        ok = gap <= 0.1 * gamma2 and cos >= 0.95
        details = [f"ew:2 gap={gap:.4f} (<= {0.1 * gamma2:.4f}) cos={cos:.4f} (>= 0.95)"]
        for norm in ("ew:inf", "sch:inf"):
            c = float(read_csv(csvs[norm])["cos_wstar"][-1])
            ok = ok and c >= 0.9
            details.append(f"{norm} cos={c:.4f} (>= 0.9)")
        ok = ok and elapsed < 300
        report(4, ok, "; ".join(details) + f"; runs took {elapsed:.0f}s (< 300s)")


class TestCriterion05MiniBatchFailure:
    def test_minibatch_gap_exceeds_full_batch(self, refs, fullbatch_runs, minibatch_run):
        csvs, _ = fullbatch_runs
        csv_mb, elapsed = minibatch_run
        gamma = refs["ew:2"][0].gamma
        gap_fb, _ = final_gamma_gap(csvs["ew:2"], gamma)
        gap_mb, _ = final_gamma_gap(csv_mb, gamma)
        ratio = gap_mb / gap_fb
        ok = ratio >= 3.0 and elapsed < 120
        report(5, ok, f"gap(b=20)={gap_mb:.4f} vs gap(b=200)={gap_fb:.4f}, ratio={ratio:.2f} (>= 3); {elapsed:.0f}s (< 120s)")


class TestCriterion06MomentumRescue:
    def test_momentum_restores_convergence(self, refs, minibatch_run, momentum_run):
        gamma = refs["ew:2"][0].gamma
        gap_mb, _ = final_gamma_gap(minibatch_run[0], gamma)
        gap_mom, cos = final_gamma_gap(momentum_run, gamma)
        ok = cos >= 0.9 and gap_mom <= gap_mb / 2.0
        report(6, ok, f"beta1=0.99: cos={cos:.4f} (>= 0.9), gap={gap_mom:.4f} <= {gap_mb:.4f}/2")


class TestCriterion07VarianceReduction:
    def test_vr_recovers_full_batch_target(self, gauss, refs, workdir, vr_runs):
        gamma = refs["ew:2"][0].gamma
        ok = True
        details = []
        for beta1, csv_path in vr_runs.items():
            cols = read_csv(csv_path)
            cos = float(cols["cos_wstar"][-1])
            # the stored gap target must be gamma itself, not an effective margin
            target = float(cols["gap_to_gamma"][0] + cols["norm_margin"][0])
            ok = ok and cos >= 0.95 and abs(target - gamma) <= 1e-9
            details.append(f"beta={beta1}: cos={cos:.4f}")
        # short paired runs: vr on/off coincide bitwise at b = n
        _, gpath = gauss
        pair = []
        for flag in (False, True):
            cfgp = write_run_config(
                workdir, gpath, refs, f"vr_pair_{int(flag)}", "ew:2", 200, 0.5, vr=flag, epochs=400
            )
            pair.append(open(train_cmd(cfgp), "rb").read())
        identical = pair[0] == pair[1]
        ok = ok and identical
        report(7, ok, "; ".join(details) + f"; vr/full-batch traces byte-identical={identical}")


class TestCriterion08Rate:
    def test_log_log_slope(self, fullbatch_runs):
        csvs, _ = fullbatch_runs
        fit = fit_rate(csvs["ew:2"], 1000, 20000)
        ok = -0.7 <= fit.slope <= -0.3 and fit.r2 >= 0.8
        report(8, ok, f"slope={fit.slope:.3f} in [-0.7, -0.3], r2={fit.r2:.3f} (>= 0.8)")


class TestCriterion09BatchSizeOneBias:
    def test_per_sample_bias(self, skewed, workdir):
        ds, dpath = skewed

        def cfg_path(norm):
            name = f"ps_{norm.replace(':', '_')}"
            cfg = {
                "norm": norm,
                "loss": "cross_entropy",
                "batch_size": 1,
                "momentum": False,
                "beta1": 0.0,
                "vr": False,
                "c": 0.5,
                "a": 0.5,
                "eta0": 0.5,
                "epochs": 5000,
                "seed": 3,
                "dataset_path": dpath,
                "w0": "zeros",
                "out_csv": str(workdir / f"{name}.csv"),
                "log_every": 100,
                "margin_tol": 0.01,
                "margin_iters": 30000,
            }
            p = workdir / f"{name}.json"
            p.write_text(json.dumps(cfg))
            return str(p)

        ok = True
        details = []
        for norm in ("ew:inf", "ew:2", "sch:inf"):
            _, verdict = persample_cmd(cfg_path(norm))
            good = (
                verdict["final_loss"] <= 1e-3
                and verdict["final_cos_wbar"] >= 0.999
                and verdict["invariant_gradient_ok"]
                and verdict["final_cos_wstar"] < 0.99  # the bias gap vs max-margin
            )
            ok = ok and good
            details.append(
                f"{norm}: loss={verdict['final_loss']:.1e} cos_wbar={verdict['final_cos_wbar']:.5f} "
                f"cos_wstar={verdict['final_cos_wstar']:.3f} invariant={verdict['invariant_gradient_ok']}"
            )

        # spectral and Frobenius trajectories coincide step by step at b=1
        def mk(norm):
            return OptimizerConfig(
                batch_size=1, beta1=0.0, vr_on=False,
                schedule=Schedule(c=0.5, a=0.5, eta0=0.5), epochs=5000, seed=3, norm=norm,
            )

        traj = []
        run(mk(EW2), ds, np.zeros((5, 5)), metrics_hook=lambda t, w, h, eta, delta: traj.append(w.copy()))
        worst = 0.0
        idx = 0

        def compare(t, w, h, eta, delta):
            nonlocal worst, idx
            worst = max(worst, float(np.abs(w - traj[idx]).max()))
            idx += 1

        run(mk(SCHINF), ds, np.zeros((5, 5)), metrics_hook=compare)
        ok = ok and worst <= 1e-8
        report(9, ok, "; ".join(details) + f"; max per-step spectral/frobenius deviation {worst:.1e} (<= 1e-8)")


class TestCriterion10ScheduleConstants:
    def test_twenty_random_tuples(self, rng):
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 400:
            attempts += 1
            c = float(rng.uniform(0.2, 1.0))
            a = float(rng.uniform(0.45, 1.0))
            beta = float(rng.uniform(0.2, 0.92))
            c1 = float(rng.uniform(0.3, 2.5))
            eta0 = float(rng.uniform(0.0, c))
            sc = schedule_constants(c, a, eta0, beta, c1)
            if sc.t0 > 1500:  # keep the brute-force horizon tractable
                continue
            checked += 1
            horizon = sc.t0 + 300
            eta = np.zeros(horizon + 1)
            eta[0] = eta0
            eta[1:] = c * np.arange(1, horizon + 1, dtype=float) ** (-a)
            prefix = np.concatenate([[0.0], np.cumsum(eta)])
            log_beta = math.log(beta)
            for t in range(sc.t0, horizon + 1):
                s = np.arange(0, t + 1)
                inner = c1 * (prefix[t] - prefix[t - s])
                live = inner > 0
                log_terms = s[live] * log_beta + inner[live] + np.log1p(-np.exp(-inner[live]))
                lhs = float(np.exp(log_terms).sum())
                assert lhs <= sc.c2 * eta[t] * (1 + 1e-9), (c, a, beta, c1, eta0, t)
        report(10, checked == 20, f"{checked} random (c, a, beta, c1, eta0) tuples verified on [t0, t0+300]")


class TestCriterion11Determinism:
    def test_byte_identical_rerun(self, gauss, refs, workdir):
        _, gpath = gauss
        cfgp = write_run_config(
            workdir, gpath, refs, "determinism", "ew:2", 20, 0.5, momentum=True, beta1=0.5, vr=True, epochs=200
        )
        first = open(train_cmd(cfgp), "rb").read()
        second = open(train_cmd(cfgp), "rb").read()
        ok = first == second and len(first) > 0
        report(11, ok, f"rerun of a vr+momentum mini-batch config reproduced {len(first)} bytes exactly")
