"""Diversity of the labeler ensemble, and how its votes behave off-support.

Each labeler trains a small tree on its own row subsample and feature
subset, so no two see the same data. Individually they are decent but
imperfect; collectively their vote fraction carries information a single
classifier would not, and far outside the training support the votes split
into confident-but-conflicting camps. That graded, disagreeing signal is
what the matching network consumes.
"""

import numpy as np

from explor.data import Dataset
from explor.pseudolabel import PseudoLabelConfig, fit_ensemble

rng = np.random.default_rng(5)
X = rng.standard_normal((400, 8))
y = (X[:, 0] + 0.5 * X[:, 1] ** 2 > 0.5).astype(int)
ds = Dataset(X, y)

cfg = PseudoLabelConfig(k=16, max_depth=4, seed=9)
ens = fit_ensemble(ds, cfg)

# Every labeler is one tree here, and it splits only on the features of
# its own column subset.
print("labeler  split features")
for j, tree in enumerate(ens.trees[:6]):
    print(f"{j:>7}  {sorted(set(tree.feature[tree.feature >= 0].tolist()))}")
print(f"... {ens.k} labelers total\n")

# Training accuracy per labeler: diverse but each better than the prior.
votes = ens.predict_matrix(X)
acc = (votes == y[:, None]).mean(axis=0)
prior = max(y.mean(), 1 - y.mean())
print(f"per-labeler train accuracy: min {acc.min():.3f}, mean {acc.mean():.3f}, "
      f"max {acc.max():.3f} (majority prior {prior:.3f})")

# The ensemble mean grades each row by how many labelers call it positive.
frac = votes.mean(axis=1)
agree_with_truth = (np.round(frac) == y).mean()
print(f"majority vote matches the true label on {agree_with_truth:.0%} of training rows")

# Off-support queries: each tree falls into one of its outer leaves, so
# votes stay decisive per labeler while labelers disagree with each other.
print("\nscale  unanimous  split 25-75%  mean |vote - 1/2|")
for scale in (1.0, 2.0, 4.0):
    Q = scale * rng.standard_normal((300, 8))
    f = ens.predict_matrix(Q).mean(axis=1)
    unanimous = np.mean((f == 0) | (f == 1))
    contested = np.mean((f > 0.25) & (f < 0.75))
    print(f"{scale:>5.0f}  {unanimous:>9.0%}  {contested:>12.0%}  {np.abs(f - 0.5).mean():>17.3f}")
