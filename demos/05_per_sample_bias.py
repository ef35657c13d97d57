"""Batch size one converges to a different limit altogether.

On orthogonal scale-skewed data (each sample a positive multiple of its
class basis vector, classes deliberately imbalanced), per-sample steepest
descent does not maximize any norm margin. At every norm its updates are
invariant matrices determined by the class label alone, the norm's steepest
map of the sample's gradient at W = 0, so the weights align with a
count-weighted bias matrix instead: frequent classes dominate, sample
scales drop out entirely. SignSGD (ew:inf) and Normalized-SGD (ew:2) have
closed forms for that matrix; ew:3 has none and follows the same law.
"""

import numpy as np

from normdescent import (
    NormSpec,
    OptimizerConfig,
    Schedule,
    SkewedSpec,
    bias_matrix,
    frobenius_cosine,
    gen_skewed,
    loss,
    max_margin,
    run,
)

spec = SkewedSpec(
    counts=(6, 3, 3, 2, 1),
    alpha_ranges=((0.8, 1.2), (0.5, 1.5), (1.0, 2.0), (0.6, 0.9), (1.5, 2.5)),
    seed=42,
)
ds = gen_skewed(spec)
print(f"skewed dataset: n = {ds.n}, class counts = {spec.counts}")
print("every sample is alpha * e_class with class-specific scale ranges\n")

for text, name in [("ew:inf", "SignSGD"), ("ew:2", "Normalized-SGD"), ("ew:3", "no closed form")]:
    norm = NormSpec.parse(text)
    wbar = bias_matrix(ds, norm)
    sol = max_margin(ds, norm, tol=1e-2, max_iters=30_000)
    cfg = OptimizerConfig(
        batch_size=1,
        beta1=0.0,
        vr_on=False,
        schedule=Schedule(c=0.5, a=0.5, eta0=0.5),
        epochs=2_000,
        seed=3,
        norm=norm,
    )
    print(f"per-sample training under {text} ({name}):")
    checkpoints = {int(v) for v in np.geomspace(ds.n, 2_000 * ds.n, 8).round()}

    def hook(t, w, h, eta, delta):
        if t in checkpoints:
            print(
                f"  t = {t:>6}: loss = {loss(w, ds):9.2e}  "
                f"cos(W, bias matrix) = {frobenius_cosine(w, wbar):.6f}  "
                f"cos(W, W*) = {frobenius_cosine(w, sol.w_star):.4f}"
            )

    state = run(cfg, ds, np.zeros((ds.k, ds.d)), metrics_hook=hook)
    print(
        f"  -> aligns with the count-weighted bias matrix "
        f"(cos = {frobenius_cosine(state.w, wbar):.6f}) while the max-margin "
        f"cosine stalls at {frobenius_cosine(state.w, sol.w_star):.3f}\n"
    )

print("column norms of the learned weights scale with the class counts,")
print("independent of the per-sample alphas:")
cols = np.linalg.norm(state.w, axis=0)
print("  counts:      ", spec.counts)
print("  column norms:", np.round(cols / cols[-1], 2), "(normalized to the rarest class)")
