"""PCA latent map and radial expansion contracts."""

import numpy as np
import pytest

from explor.latent import LatentMap, decode, encode, expand_with, fit_pca
from explor.seeding import generator


def expand(Z, sigma, seed):
    """One seeded half-normal expansion of every row."""
    return expand_with(Z, generator(seed).normal(0.0, sigma, size=len(Z)))


class TestFitPca:
    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((20, 5))
        lm = fit_pca(X, 5)
        assert lm.s == 5
        back = decode(lm, encode(lm, X))
        assert np.max(np.abs(back - X)) < 1e-8

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 6)) @ np.diag([5, 4, 3, 2, 1, 0.5])
        lm = fit_pca(X, 6)
        gram = lm.components @ lm.components.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            X = np.random.default_rng(seed).standard_normal((15, 4))
            lm = fit_pca(X, 4)
            peaks = lm.components[np.arange(lm.s), np.argmax(np.abs(lm.components), axis=1)]
            assert np.all(peaks > 0)

    def test_explained_variance_matches_eigendecomposition(self):
        """Spectrum of the ddof=1 covariance, computed independently."""
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 3)) * np.array([3.0, 1.0, 0.2])
        lm = fit_pca(X, 3)
        cov = np.cov(X.T, ddof=1)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.max(np.abs(lm.explained_variance - eig)) < 1e-8

    def test_variance_non_increasing_and_matches_latent(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 7)) * np.linspace(4, 0.5, 7)
        lm = fit_pca(X, 7)
        ev = lm.explained_variance
        assert np.all(np.diff(ev) <= 1e-12)
        Z = encode(lm, X)
        assert np.allclose(Z.var(axis=0, ddof=1), ev, rtol=1e-10, atol=1e-12)

    def test_width_is_min_of_cap_rows_dims(self):
        rng = np.random.default_rng(13)
        assert fit_pca(rng.standard_normal((4, 10)), 8).s == 3    # N - 1 binds
        assert fit_pca(rng.standard_normal((20, 3)), 8).s == 3    # d binds
        assert fit_pca(rng.standard_normal((20, 10)), 4).s == 4   # cap binds
        assert fit_pca(rng.standard_normal((6, 200))).s == 5      # default cap 128, N - 1 binds

    def test_rank_deficient_data(self):
        rng = np.random.default_rng(17)
        base = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))
        X = np.vstack([base, base])
        lm = fit_pca(X, 5)
        back = decode(lm, encode(lm, X))
        assert np.max(np.abs(back - X)) < 1e-8

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.ones((1, 4)), 2)

    def test_encode_dim_mismatch(self):
        lm = fit_pca(np.random.default_rng(0).standard_normal((6, 4)), 2)
        with pytest.raises(ValueError):
            encode(lm, np.ones((3, 5)))
        with pytest.raises(ValueError):
            decode(lm, np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_rejects_non_finite_naming_first_cell(self, bad):
        lm = fit_pca(np.random.default_rng(0).standard_normal((6, 4)), 2)
        X = np.zeros((5, 4))
        X[2, 1] = bad
        X[4, 0] = np.nan
        with pytest.raises(ValueError, match="row 2, column 1"):
            encode(lm, X)

    @pytest.mark.parametrize("part,value,match", [
        ("mean", np.zeros(1), "shapes"),
        ("mean", np.zeros((1, 4)), "shapes"),
        ("components", np.zeros(4), "shapes"),
        ("components", np.zeros((0, 4)), "shapes"),
        ("explained_variance", np.ones(1), "shapes"),
        ("components", np.array([[np.nan, 0, 0, 0], [0, 1, 0, 0]]), "non-finite"),
        ("mean", np.array([0, np.inf, 0, 0]), "non-finite"),
    ])
    def test_map_rejects_bad_shapes_and_values(self, part, value, match):
        """A map whose mean would broadcast, or that holds NaN, must not be built."""
        lm = fit_pca(np.random.default_rng(0).standard_normal((6, 4)), 2)
        parts = {"mean": lm.mean, "components": lm.components, "explained_variance": lm.explained_variance}
        with pytest.raises(ValueError, match=match):
            LatentMap(**{**parts, part: value})


class TestExpansion:
    def test_never_shrinks_and_keeps_rays(self):
        rng = np.random.default_rng(19)
        Z = rng.standard_normal((500, 6))
        Zx = expand(Z, 0.7, 4)
        ratios = np.linalg.norm(Zx, axis=1) / np.linalg.norm(Z, axis=1)
        assert np.all(ratios >= 1.0)
        # Each output row is a scalar multiple of its input row.
        mult = Zx[:, 0] / Z[:, 0]
        assert np.allclose(Zx, Z * mult[:, None], rtol=1e-12)

    def test_mean_growth_is_half_normal_mean(self):
        """E|eps| = sigma * sqrt(2/pi), within 3 MC standard errors."""
        sigma = 0.5
        n = 200_000
        rng = np.random.default_rng(23)
        Z = rng.standard_normal((n, 3))
        Zx = expand(Z, sigma, 29)
        growth = np.linalg.norm(Zx, axis=1) / np.linalg.norm(Z, axis=1) - 1.0
        want = sigma * np.sqrt(2 / np.pi)
        se = sigma * np.sqrt(1 - 2 / np.pi) / np.sqrt(n)
        assert abs(growth.mean() - want) < 3 * se

    def test_vanishing_sigma_is_identity(self):
        rng = np.random.default_rng(31)
        Z = rng.standard_normal((50, 4))
        Zx = expand(Z, 1e-12, 1)
        assert np.allclose(Zx, Z, rtol=1e-9, atol=1e-12)

    def test_deterministic(self):
        Z = np.random.default_rng(37).standard_normal((20, 3))
        a = expand(Z, 0.5, 8)
        b = expand(Z, 0.5, 8)
        assert np.array_equal(a, b)

    def test_explicit_draws(self):
        Z = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = expand_with(Z, np.array([-0.5, 1.0]))
        assert np.allclose(out, [[1.5, 0.0], [0.0, 4.0]])

    def test_draws_must_match_rows(self):
        Z = np.ones((3, 2))
        with pytest.raises(ValueError):
            expand_with(Z, np.zeros(2))
        with pytest.raises(ValueError):
            expand_with(Z[0], np.zeros(2))
