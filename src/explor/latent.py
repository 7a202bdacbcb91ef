"""PCA latent space and radial expansion augmentation.

Training happens in a PCA latent space. The expansion operator pushes latent
points outward along their own ray, z' = (1 + |eps|) z with eps ~ N(0, sigma^2),
so |eps| is half-normal with mean sigma * sqrt(2 / pi). No draw ever moves a
point toward the origin; the augmented cloud strictly surrounds the original.
``expand_with`` is the one expansion function: it takes the draws from the
caller, so training keeps a single seeded stream for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_finite


@dataclass
class LatentMap:
    """Affine map into the top principal components.

    mean : (d,) column means of the fit data
    components : (s, d) orthonormal rows, each flipped so its largest-magnitude
        entry is positive (fixes the SVD sign ambiguity)
    explained_variance : (s,) sample variances along each component
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        s, d = np.shape(self.components) if np.ndim(self.components) == 2 else (0, 0)
        arrays = (self.mean, self.components, self.explained_variance)
        if min(s, d) < 1 or np.shape(self.mean) != (d,) or np.shape(self.explained_variance) != (s,):
            raise ValueError(f"latent map needs mean (d,), components (s, d) and explained_variance (s,) with s, d >= 1, got shapes {[np.shape(a) for a in arrays]}")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("latent map has non-finite values")

    @property
    def d(self) -> int:
        return self.components.shape[1]

    @property
    def s(self) -> int:
        return self.components.shape[0]


def fit_pca(X, n_components: int | None = None) -> LatentMap:
    """Fit a LatentMap on an (N, d) matrix via SVD of the centered data.

    The latent width is min(n_components, N - 1, d); passing None uses the
    default cap of 128. N >= 2 rows are required so variances exist.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 rows, got {n}")
    cap = 128 if n_components is None else int(n_components)
    if cap < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    s = min(cap, n - 1, d)
    mean = X.mean(axis=0)
    _, sing, vt = np.linalg.svd(X - mean, full_matrices=False)
    comps = vt[:s].copy()
    # Sign convention: make the largest-magnitude entry of each row positive.
    flip = comps[np.arange(s), np.argmax(np.abs(comps), axis=1)] < 0
    comps[flip] *= -1.0
    return LatentMap(mean=mean, components=comps, explained_variance=(sing[:s] ** 2) / (n - 1))


def encode(lm: LatentMap, X) -> np.ndarray:
    """Project rows of X into the latent space; every feature must be finite."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != lm.d:
        raise ValueError(f"expected shape (N, {lm.d}), got {X.shape}")
    _check_finite(X)
    return (X - lm.mean) @ lm.components.T


def decode(lm: LatentMap, Z) -> np.ndarray:
    """Map latent rows back to the original feature space."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != lm.s:
        raise ValueError(f"expected shape (N, {lm.s}), got {Z.shape}")
    return Z @ lm.components + lm.mean


def expand_with(Z: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Radially expand each latent row Z[i] by its own factor 1 + |eps[i]|.

    The caller owns the draws, e.g. ``generator(seed).normal(0.0, sigma, len(Z))``.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or np.shape(eps) != (Z.shape[0],):
        raise ValueError(f"expected an (N, s) matrix and N draws, got shapes {Z.shape} and {np.shape(eps)}")
    return Z * (1.0 + np.abs(eps))[:, None]
