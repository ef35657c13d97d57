"""Mini-batches break the implicit bias; momentum and variance reduction
repair it.

Runs the four regimes on the same data, same norm, same schedule:

  1. full batch                      -> converges to the max margin
  2. small batch, plain              -> stalls at a visibly larger gap
  3. small batch + momentum 0.99     -> recovers the full-batch gap
  4. small batch + variance reduction-> recovers it exactly, any momentum

Set STEPS = 20_000 to reproduce the full-length behavior; the short runs
already separate the regimes clearly. It ends with the closed-form
thresholds of effective_margin_thresholds on this data, and why the batch
threshold gives no usable batch size on any data.
"""

import numpy as np

from normdescent import (
    GaussianSpec,
    NormSpec,
    OptimizerConfig,
    Schedule,
    effective_margin_thresholds,
    frobenius_cosine,
    gen_gaussian,
    margin_report,
    max_margin,
    run,
)

STEPS = 6_000

ds = gen_gaussian(GaussianSpec(k=10, per_class=20, d=5, sigma=0.1, seed=12345))
norm = NormSpec.parse("ew:2")
sol = max_margin(ds, norm, tol=2e-4, max_iters=200_000)
print(f"gamma = {sol.gamma:.6f}, R = {ds.r_bound:.3f}, n = {ds.n}\n")


def experiment(label, b, beta1=0.0, vr=False):
    m = ds.n // b
    cfg = OptimizerConfig(
        batch_size=b,
        beta1=beta1,
        vr_on=vr,
        schedule=Schedule(c=0.5, a=0.5, eta0=0.5),
        epochs=STEPS // m,
        seed=7,
        norm=norm,
    )
    state = run(cfg, ds, np.zeros((ds.k, ds.d)))
    rep = margin_report(state.w, ds, norm)
    gap = sol.gamma - rep.normalized
    cos = frobenius_cosine(state.w, sol.w_star)
    print(f"  {label:34s} gap = {gap:8.5f}   cos(W, W*) = {cos:.4f}")
    return gap


print(f"all runs: {STEPS} steps of eta_t = 0.5 t^(-1/2) under {norm}\n")
gap_full = experiment("full batch (b = 200)", 200)
gap_mini = experiment("mini-batch (b = 20), plain", 20)
experiment("mini-batch + momentum beta1 = 0.5", 20, beta1=0.5)
experiment("mini-batch + momentum beta1 = 0.99", 20, beta1=0.99)
experiment("mini-batch + variance reduction", 20, vr=True)
experiment("mini-batch + vr + momentum 0.99", 20, beta1=0.99, vr=True)

print(f"\nplain mini-batch gap is {gap_mini / gap_full:.1f}x the full-batch gap;")
print("momentum closes most of it, variance reduction all of it.")

thr = {beta1: effective_margin_thresholds(sol.gamma, ds.r_bound, ds.n, 100, beta1) for beta1 in (0.99, 0.999)}
print(f"\neffective_margin_thresholds: b_min = {thr[0.99].b_min:.1f} of n = {ds.n}; at b = 100,")
print(f"rho_nomom = {thr[0.99].rho_nomom:.3f}, rho_mom = {thr[0.99].rho_mom:.3f} (beta1 = 0.99)"
      f" and {thr[0.999].rho_mom:.3f} (beta1 = 0.999).")
print("The batch threshold is vacuous on any data: gamma <= 2R, so rho_nomom < 0 for every b < n and b_min >= 2n/3.")
