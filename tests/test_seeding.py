"""Seed derivation: determinism and stream separation; the one seed range at every boundary."""

import json

import numpy as np
import pytest

from explor.cli import ConfigError, build_parser, resolve_config
from explor.data import Dataset, make_synthetic_radial
from explor.latent import fit_pca
from explor.model import NetConfig
from explor.pseudolabel import PseudoLabelConfig
from explor.seeding import derive_seed, generator
from explor.splits import cluster_split, kmeans


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "labeler", 3) == derive_seed(7, "labeler", 3)

    def test_distinct_purposes_and_indices(self):
        """Children of one parent must not collide across tags or indices."""
        seen = set()
        for tag in ("labeler", "batches", "expansion", "init"):
            for i in range(100):
                seen.add(derive_seed(42, tag, i))
        assert len(seen) == 400

    def test_distinct_parents(self):
        a = [derive_seed(p, "x", 0) for p in range(200)]
        assert len(set(a)) == 200

    def test_generator_reproducible(self):
        g1 = generator(derive_seed(1, "t"))
        g2 = generator(derive_seed(1, "t"))
        assert np.array_equal(g1.standard_normal(16), g2.standard_normal(16))


class TestSeedRange:
    """Every seed is an integer in [0, 2^64), checked where it enters; a wider one would alias a narrower one."""

    @staticmethod
    def boundaries():
        Z = np.arange(12, dtype=np.float64).reshape(6, 2)
        ds = Dataset(Z, [1, 1, 1, 0, 0, 0])
        lm = fit_pca(ds.features, 2)
        return {
            "NetConfig": lambda seed: NetConfig(seed=seed),
            "PseudoLabelConfig": lambda seed: PseudoLabelConfig(seed=seed),
            "make_synthetic_radial": lambda seed: make_synthetic_radial(10, 10, 2, seed),
            "kmeans": lambda seed: kmeans(Z, 2, seed=seed),
            "cluster_split": lambda seed: cluster_split(ds, lm, k=2, seed=seed),
        }

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.5, True, np.float64(3.0)])
    @pytest.mark.parametrize("where", ["NetConfig", "PseudoLabelConfig", "make_synthetic_radial", "kmeans", "cluster_split"])
    def test_rejects(self, where, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            self.boundaries()[where](seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_accepts_every_64_bit_seed(self, seed):
        for call in self.boundaries().values():
            call(seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.5, True])
    def test_config_key(self, tmp_path, seed):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": seed}))
        with pytest.raises(ConfigError, match=r"config key 'seed' must be in \[0, 2\^64\)"):
            resolve_config(str(path), build_parser().parse_args(["synth"]))
