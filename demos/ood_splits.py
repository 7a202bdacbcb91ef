"""Leave-one-cluster-out evaluation.

Clusters are built on the positive rows in latent space; each fold holds
one cluster out entirely, so its test region is unseen at training time.
Fold metrics are combined by test-size weighting.
"""

import numpy as np

from explor.data import Dataset
from explor.latent import fit_pca
from explor.metrics import ScoredSet, evaluate
from explor.model import predict, train_pl_ens
from explor.pseudolabel import PseudoLabelConfig
from explor.splits import FoldResult, cluster_split, leave_one_out_folds, weighted_summary

rng = np.random.default_rng(11)

# Three positive islands plus a diffuse negative background.
centers = np.array([[3.0, 0, 0, 0], [-3.0, 2.0, 0, 0], [0, -3.0, 1.0, 0]])
pos = np.concatenate([c + 0.4 * rng.standard_normal((40, 4)) for c in centers])
neg = 2.5 * rng.standard_normal((200, 4))
X = np.concatenate([pos, neg])
y = np.array([1] * len(pos) + [0] * len(neg))
ds = Dataset(X, y)

lm = fit_pca(ds.features, 4)
model = cluster_split(ds, lm, k=3, seed=1)
folds = leave_one_out_folds(ds, model)
print(f"{model.k} clusters over {int(ds.labels.sum())} positives, "
      f"fold sizes {[int(t.size) for _, t in folds]} (sum {ds.n})")

results = []
for j, (train_idx, test_idx) in enumerate(folds):
    bundle = train_pl_ens(ds.take(train_idx), PseudoLabelConfig(k=16, seed=j))
    scored = ScoredSet(predict(bundle, ds.take(test_idx).features), ds.labels[test_idx])
    rep = evaluate(scored, taus=(0.2,), ef_fractions=(0.1,))
    results.append(FoldResult(fold=j, test_size=int(test_idx.size), report=rep.to_dict()))
    print(f"fold {j}: test {test_idx.size:>3} rows, auprc@0.2 {rep.auprc_at[0.2]:.3f}, "
          f"auroc {rep.auroc:.3f}")

summary = weighted_summary(results)
print(f"weighted summary: auprc@0.2 {summary['auprc_at']['0.2']:.3f}, "
      f"auroc {summary['auroc']:.3f}")
