"""Latent map roundtrips and the radial expansion law.

The latent map is a plain PCA: encode projects onto the principal
components, decode reconstructs. Expansion scales each latent row by
1 + |eps| with eps Gaussian, so rows only ever move outward; the mean
radial growth has a closed form to check against.
"""

import numpy as np

from explor.latent import decode, encode, expand_with, fit_pca
from explor.seeding import generator

rng = np.random.default_rng(0)

# Correlated 6-d data with most variance in two directions.
basis = rng.standard_normal((6, 6))
X = rng.standard_normal((500, 2)) @ basis[:2] + 0.05 * rng.standard_normal((500, 6))

lm = fit_pca(X)  # full width: d components
print(f"latent width s={lm.s} for d={lm.d}")
print("explained variance:", np.array2string(lm.explained_variance, precision=3))

X_back = decode(lm, encode(lm, X))
print(f"full-width roundtrip error: {np.max(np.abs(X - X_back)):.2e}")

# Truncating to the two dominant components only loses the noise floor.
lm2 = fit_pca(X, 2)
X_back2 = decode(lm2, encode(lm2, X))
print(f"2-component roundtrip error: {np.max(np.abs(X - X_back2)):.2e} "
      f"(the 0.05 noise outside the plane)")

Z = encode(lm2, X)

# Expansion: one multiplier per row, never below 1.
sigma = 0.5
Zx = expand_with(Z, generator(3).normal(0.0, sigma, size=len(Z)))
ratios = np.linalg.norm(Zx, axis=1) / np.linalg.norm(Z, axis=1)
print(f"\nper-row norm ratios: min {ratios.min():.4f} (never < 1), "
      f"median {np.median(ratios):.4f}, max {ratios.max():.4f}")

# E|eps| = sigma * sqrt(2/pi) for a half-normal multiplier.
expected = sigma * np.sqrt(2 / np.pi)
print(f"mean growth {ratios.mean() - 1:.4f} vs theoretical {expected:.4f}")

# Expanded rows stay on their original rays.
cos = (Z * Zx).sum(axis=1) / (np.linalg.norm(Z, axis=1) * np.linalg.norm(Zx, axis=1))
print(f"max ray deviation |1 - cos| = {np.max(np.abs(1 - cos)):.2e}")
