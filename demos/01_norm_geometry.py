"""Norm geometries and their steepest-descent directions.

Walks through the matrix norms the library supports, the thin SVD
(LAPACK's, through ``jacobi_svd``) that backs the Schatten family, and the
unit-norm update directions that turn into SignSGD, Normalized-SGD, and
the spectral/Muon update depending on the chosen geometry.
"""

import math

import numpy as np

from normdescent import (
    NormSpec,
    dual_norm,
    jacobi_svd,
    matrix_norm,
    newton_schulz_polar,
    steepest_map,
)

rng = np.random.default_rng(0)
g = rng.standard_normal((4, 6))

print("A random 4x6 signal matrix g:")
print(np.round(g, 3))

print("\n-- norms ---------------------------------------------------------")
for text in ["ew:1", "ew:2", "ew:inf", "sch:1", "sch:2", "sch:inf"]:
    spec = NormSpec.parse(text)
    print(f"  {text:8s} norm = {matrix_norm(g, spec):9.4f}   dual norm = {dual_norm(g, spec):9.4f}")
print("  (sch:2 equals ew:2: the Frobenius norm sits in both families)")

print("\n-- the SVD behind the Schatten family ------------------------------")
u, sigma, vt = jacobi_svd(g)
print("  singular values:", np.round(sigma, 4))
print("  reconstruction error:", float(np.abs(u @ np.diag(sigma) @ vt - g).max()))
print("  nuclear norm = sum sigma =", round(matrix_norm(g, NormSpec("sch", 1.0)), 4))

print("\n-- steepest-descent directions -------------------------------------")
print("Each direction has unit norm in its geometry and attains the dual norm")
print("as inner product with g:\n")
for text, family in [("ew:inf", "SignSGD"), ("ew:2", "Normalized-SGD"), ("sch:inf", "Spectral-SGD / Muon")]:
    spec = NormSpec.parse(text)
    phi = steepest_map(g, spec)
    attained = float(np.sum(g * phi))
    print(
        f"  {text:8s} ({family:20s}) ||phi|| = {matrix_norm(phi, spec):.6f}, "
        f"<g, phi> = {attained:.6f}, dual = {dual_norm(g, spec):.6f}"
    )

print("\n-- Newton-Schulz as the iterative spectral path --------------------")
polar_exact = u @ vt
polar_ns = newton_schulz_polar(g, iters=60, tol=1e-9)
print("  ||UV^T - newton_schulz||_F =", float(np.linalg.norm(polar_exact - polar_ns)))

print("\n-- entry-wise p interpolates between the extremes -------------------")
for p in [1.0, 1.5, 2.0, 4.0, math.inf]:
    phi = steepest_map(g, NormSpec("ew", p))
    nz = int(np.sum(phi != 0))
    print(f"  p = {p:<4}: support size of phi = {nz:2d} / {g.size} (p=1 is one entry, p=inf is all)")
