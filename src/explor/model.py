"""Multi-head matching network, trained with hand-written backprop and Adam.

The network is a small ELU trunk with K logistic heads. Head j is trained to
match pseudo-labeler j, not the true labels: the objective is

    total = mean_abs(D) + match(D) + lambda * match(Ex(D))

where match is mean binary cross-entropy between head logits and the hard
pseudo-labels, mean_abs is the l1 gap between the mean head probability and
the mean pseudo-label per point, and Ex(D) is the radial expansion of the
batch, which supplies matching targets outside the training shell.

One loop, ``_fit_net``, trains the net in both settings: ``train`` matches
the labelers on raw and expanded batches, and the ERM baseline
``train_erm`` runs the match loss against the true labels with no expansion
and averages parameter snapshots. Both share the optimiser, the batch
stream and the finite and divergence checks.

Trunk weights use Kaiming-uniform fan-in init. Head weights and all biases
start at zero, so an untrained net outputs probability 0.5 on every head and
the bagged predictor degrades to (ensemble_mean + 0.5) / 2.

Everything is float64 numpy; with a fixed seed, training is reproducible
bit-for-bit (single fixed reduction order, no threading in the Python layer).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset
from .latent import LatentMap, encode, expand_with, fit_pca
from .pseudolabel import PseudoLabelConfig, PseudoLabelEnsemble, fit_ensemble
from .seeding import derive_seed, generator

LOSS_MODES = ("full", "match_only", "mean_only", "single_head")

# The parts each method's bundle must carry; ``score`` averages whichever are present.
METHOD_PARTS = {"explor": ("ensemble", "net"), "erm": ("net",), "pl_ens": ("ensemble",)}

_PROB_EPS = 1e-12  # clamp for log() in the probability-space loss


class TrainingDivergence(RuntimeError):
    """Raised when the training loss explodes; carries the trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def elu(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=np.float64, copy=True)
    np.expm1(out, out=out, where=out <= 0)
    return out


def elu_grad(x: np.ndarray) -> np.ndarray:
    # 1 above zero, exp(x) at and below; continuous since exp(0) = 1.
    out = np.ones_like(x)
    np.exp(x, out=out, where=x <= 0)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) <= 1 never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x)
    # below. min(x, -x) rather than -|x| keeps the sign bit of a NaN input.
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def bce_logits(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy on logits, stable at saturation."""
    return np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))


@dataclass(frozen=True)
class NetConfig:
    """Architecture and optimization settings for the matching network."""

    hidden: tuple = (512, 512)
    lambda_expand: float = 0.5
    batch_size: int = 256
    iterations: int = 10000
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    redraw_expansion_each_batch: bool = True
    loss_mode: str = "full"
    snapshot_interval: int = 2500

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden must be nonempty positive widths, got {self.hidden}")
        if not self.batch_size >= 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.iterations >= 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.lambda_expand >= 0:
            raise ValueError(f"lambda_expand must be >= 0, got {self.lambda_expand}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if not self.snapshot_interval >= 1:
            raise ValueError(f"snapshot_interval must be >= 1, got {self.snapshot_interval}")


class ExplorNet:
    """ELU trunk with K independent logistic heads, stored as plain arrays."""

    def __init__(self, input_dim: int, hidden, heads: int, seed: int = 0):
        if input_dim < 1 or heads < 1 or any(h < 1 for h in hidden):
            raise ValueError(f"need input_dim, heads and hidden widths >= 1, got {input_dim}, {heads}, {list(hidden)}")
        self.input_dim = int(input_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.heads = int(heads)
        rng = generator(derive_seed(seed, "init"))
        self.params = {}
        fan_in = self.input_dim
        for i, width in enumerate(self.hidden):
            bound = np.sqrt(6.0 / fan_in)
            self.params[f"trunk.{i}.w"] = rng.uniform(-bound, bound, size=(width, fan_in))
            self.params[f"trunk.{i}.b"] = np.zeros(width)
            fan_in = width
        self.params["heads.w"] = np.zeros((self.heads, fan_in))
        self.params["heads.b"] = np.zeros(self.heads)

    def param_names(self):
        """Parameter names in layer order: trunk.i.w, trunk.i.b, ..., heads.w, heads.b."""
        return list(self.params)

    def forward(self, Z: np.ndarray):
        """Head logits for latent rows Z, plus the caches backward needs."""
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2 or Z.shape[1] != self.input_dim:
            raise ValueError(f"expected shape (N, {self.input_dim}), got {Z.shape}")
        acts = [Z]
        pres = []
        for i in range(len(self.hidden)):
            pre = acts[-1] @ self.params[f"trunk.{i}.w"].T + self.params[f"trunk.{i}.b"]
            pres.append(pre)
            acts.append(elu(pre))
        logits = acts[-1] @ self.params["heads.w"].T + self.params["heads.b"]
        return logits, (acts, pres)

    def logits(self, Z: np.ndarray) -> np.ndarray:
        return self.forward(Z)[0]

    def backward(self, cache, dlogits: np.ndarray, grads: dict) -> None:
        """Accumulate parameter gradients for one batch given dL/dlogits."""
        acts, pres = cache
        grads["heads.w"] += dlogits.T @ acts[-1]
        grads["heads.b"] += dlogits.sum(axis=0)
        delta = dlogits @ self.params["heads.w"]
        for i in reversed(range(len(self.hidden))):
            dpre = delta * elu_grad(pres[i])
            grads[f"trunk.{i}.w"] += dpre.T @ acts[i]
            grads[f"trunk.{i}.b"] += dpre.sum(axis=0)
            if i > 0:
                delta = dpre @ self.params[f"trunk.{i}.w"]
        return None

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden": list(self.hidden),
            "heads": self.heads,
            "params": {k: {"shape": list(v.shape), "data": v.ravel().tolist()} for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExplorNet":
        """Rebuild a net; every parameter must be present, finite and shaped as the declared dims say."""
        net = cls(doc["input_dim"], doc["hidden"], doc["heads"])
        params = doc["params"]
        missing = sorted(set(net.params) - set(params))
        unexpected = sorted(set(params) - set(net.params))
        if missing or unexpected:
            raise ValueError(f"net params do not fit the declared dims: missing {missing}, unexpected {unexpected}")
        for k, spec in params.items():
            want = net.params[k]
            data = np.array(spec["data"], dtype=np.float64)
            if tuple(spec["shape"]) != want.shape or data.shape != (want.size,):
                raise ValueError(f"net param {k!r} has shape {spec['shape']} and {data.size} values, expected {list(want.shape)}")
            if not np.all(np.isfinite(data)):
                raise ValueError(f"net param {k!r} has non-finite values")
            net.params[k] = data.reshape(want.shape)
        return net


def _prob_bce(p, q):
    pc = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
    return -(q * np.log(pc) + (1.0 - q) * np.log1p(-pc))


def loss_terms(net: ExplorNet, Z, targets, Z_exp, targets_exp, cfg: NetConfig):
    """Loss total and the (match, mean, expand) parts, without gradients.

    The expand part is reported unweighted; the total applies lambda. With
    lambda = 0 the total is exactly mean + match of the unexpanded batch.
    """
    total, parts, _ = loss_and_grads(net, Z, targets, Z_exp, targets_exp, cfg, want_grads=False)
    return total, parts


def _match_loss(logits, probs, targets):
    """(mean BCE of each head against its labeler, dL/dlogits); probs = sigmoid(logits)."""
    b, k = logits.shape
    return float(bce_logits(logits, targets).mean()), (probs - targets) / (b * k)


def _gap_loss(probs, targets, kind):
    """(loss, dL/dlogits) of the per-row gap between mean head probability and mean target.

    ``kind`` "mean_abs" takes |p - q|, "prob_bce" the BCE of p against q.
    """
    b, k = probs.shape
    p = probs.mean(axis=1)
    q = targets.mean(axis=1)
    if kind == "mean_abs":
        value, dp = np.abs(p - q).mean(), np.sign(p - q)
    else:
        inside = (p > _PROB_EPS) & (p < 1.0 - _PROB_EPS)
        pc = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
        value, dp = _prob_bce(p, q).mean(), np.where(inside, (pc - q) / (pc * (1.0 - pc)), 0.0)
    return float(value), dp[:, None] * (probs * (1.0 - probs)) / (b * k)


def _batch_loss(logits, targets, mean_only):
    """(loss value, dL/dlogits) of one batch: head matching, or the gap BCE if ``mean_only``."""
    probs = sigmoid(logits)
    if mean_only:
        return _gap_loss(probs, targets, "prob_bce")
    return _match_loss(logits, probs, targets)


def loss_and_grads(net: ExplorNet, Z, targets, Z_exp, targets_exp, cfg: NetConfig, want_grads=True):
    """Loss total, the (match, mean, expand) parts and the parameter gradients (None unless ``want_grads``)."""
    Z = np.asarray(Z, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    mode = cfg.loss_mode
    if mode == "single_head" and net.heads != 1:
        raise ValueError("single_head loss requires a one-head network")
    if mode == "single_head":
        targets = targets.mean(axis=1, keepdims=True)

    logits, cache = net.forward(Z)
    mean_only = mode == "mean_only"
    if mode == "full":
        probs = sigmoid(logits)
        match_val, d_match = _match_loss(logits, probs, targets)
        mean_val, d_mean = _gap_loss(probs, targets, "mean_abs")
        dlogits = d_match + d_mean
    else:
        value, dlogits = _batch_loss(logits, targets, mean_only)
        match_val, mean_val = (0.0, value) if mean_only else (value, 0.0)

    expand_val = 0.0
    exp_pack = None
    if Z_exp is not None:
        Z_exp = np.asarray(Z_exp, dtype=np.float64)
        targets_exp = np.asarray(targets_exp, dtype=np.float64)
        if mode == "single_head":
            targets_exp = targets_exp.mean(axis=1, keepdims=True)
        logits_exp, cache_exp = net.forward(Z_exp)
        expand_val, d_exp = _batch_loss(logits_exp, targets_exp, mean_only)
        exp_pack = (cache_exp, d_exp)

    total = match_val + mean_val + cfg.lambda_expand * expand_val
    parts = {"match": match_val, "mean": mean_val, "expand": expand_val}
    if not want_grads:
        return total, parts, None

    grads = net.zero_grads()
    net.backward(cache, dlogits, grads)
    if exp_pack is not None and cfg.lambda_expand != 0.0:
        cache_exp, d_exp = exp_pack
        net.backward(cache_exp, cfg.lambda_expand * d_exp, grads)
    return total, parts, grads


class Adam:
    """Adam with bias correction, stepping parameters in a fixed name order."""

    def __init__(self, net: ExplorNet, cfg: NetConfig):
        self.net = net
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in net.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in net.params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name in self.net.param_names():
            g = grads[name]
            self.m[name] = c.beta1 * self.m[name] + (1.0 - c.beta1) * g
            self.v[name] = c.beta2 * self.v[name] + (1.0 - c.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            self.net.params[name] -= c.learning_rate * m_hat / (np.sqrt(v_hat) + c.eps)


class _BatchStream:
    """Without-replacement batches from a reshuffled epoch permutation."""

    def __init__(self, n: int, batch_size: int, seed: int):
        self.n = n
        self.b = min(batch_size, n)
        self.rng = generator(seed)
        self.perm = self.rng.permutation(n)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos + self.b > self.n:
            self.perm = self.rng.permutation(self.n)
            self.pos = 0
        out = self.perm[self.pos : self.pos + self.b]
        self.pos += self.b
        return out


def _check_finite(arrays: dict, what: str, trace) -> None:
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise TrainingDivergence(f"non-finite {what} {name}", trace)


@dataclass
class TrainedBundle:
    """Everything a deployment needs: latent map, labelers, net, and the trace.

    The parts a method does not use stay at their defaults. Format 2 keeps
    no labeler subsamples and no copy of ``ensemble.config``; format 1's
    extra keys are never read.
    """

    method: str
    latent_map: LatentMap
    ensemble: PseudoLabelEnsemble | None = None
    net: ExplorNet | None = None
    net_config: NetConfig | None = None
    sigma: float = 0.0
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format_version": 2,
            "method": self.method,
            "latent_map": {
                "mean": self.latent_map.mean.tolist(),
                "components": self.latent_map.components.tolist(),
                "explained_variance": self.latent_map.explained_variance.tolist(),
            },
            "ensemble": None if self.ensemble is None else self.ensemble.to_dict(),
            "net": None if self.net is None else self.net.to_dict(),
            "net_config": None if self.net_config is None else asdict(self.net_config),
            "sigma": self.sigma,
            "trace": [[float(a), float(b), float(c)] for a, b, c in self.trace],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainedBundle":
        version = doc.get("format_version")
        if type(version) is not int or version not in (1, 2):
            raise ValueError(f"unsupported bundle format_version {version!r}")
        method = doc["method"]
        if method not in METHOD_PARTS:
            raise ValueError(f"unknown bundle method {method!r}")
        for part in ("ensemble", "net"):
            if (doc[part] is None) == (part in METHOD_PARTS[method]):
                raise ValueError(f"{method} bundle {'has no' if doc[part] is None else 'has an unused'} {part}")
        lm = LatentMap(
            mean=np.array(doc["latent_map"]["mean"], dtype=np.float64),
            components=np.array(doc["latent_map"]["components"], dtype=np.float64),
            explained_variance=np.array(doc["latent_map"]["explained_variance"], dtype=np.float64),
        )
        return cls(
            method=method,
            latent_map=lm,
            ensemble=None if doc["ensemble"] is None else PseudoLabelEnsemble.from_dict(doc["ensemble"]),
            net=None if doc["net"] is None else ExplorNet.from_dict(doc["net"]),
            net_config=None if doc["net_config"] is None else NetConfig(**doc["net_config"]),
            sigma=doc["sigma"],
            trace=[tuple(t) for t in doc["trace"]],
        )


def save_bundle(bundle: TrainedBundle, path) -> None:
    """Write a bundle as deterministic JSON (sorted keys, repr floats)."""
    with open(path, "w") as fh:
        json.dump(bundle.to_dict(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_bundle(path) -> TrainedBundle:
    """Read a bundle; any malformed content raises ValueError naming the file."""
    with open(path) as fh:
        try:
            return TrainedBundle.from_dict(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: malformed bundle: missing key {exc}") from None
        except (TypeError, AttributeError, IndexError, ValueError) as exc:
            raise ValueError(f"{path}: malformed bundle: {exc}") from None


def _latent(ds: Dataset, n_components):
    """The PCA map fit on ds and ds's rows encoded by it."""
    lm = fit_pca(ds.features, n_components)
    return lm, encode(lm, ds.features)


def _fit_net(Z, targets, heads: int, cfg: NetConfig, expansion=None, snapshot_interval=None):
    """The one training loop: Adam steps of ``loss_and_grads`` fit a ``heads``-head net to (Z, targets).

    ``expansion(idx)`` returns the expanded rows and their targets for batch
    ``idx``. With ``snapshot_interval`` the net ends as the mean of the
    snapshots taken every that many iterations, if any. Returns the net and
    the trace.
    """
    net = ExplorNet(Z.shape[1], cfg.hidden, heads, seed=cfg.seed)
    opt = Adam(net, cfg)
    stream = _BatchStream(len(Z), cfg.batch_size, derive_seed(cfg.seed, "batches"))
    trace = []
    snapshots = []
    for it in range(1, cfg.iterations + 1):
        idx = stream.next()
        Zx, Gx = (None, None) if expansion is None else expansion(idx)
        total, parts, grads = loss_and_grads(net, Z[idx], targets[idx], Zx, Gx, cfg)
        _check_finite(grads, "gradient in", None)
        opt.step(grads)
        _check_finite(net.params, "parameter after the update:", trace)
        trace.append((parts["match"], parts["mean"], parts["expand"]))
        if total > 1e6:
            raise TrainingDivergence(f"loss diverged to {total}", trace)
        if snapshot_interval is not None and it % snapshot_interval == 0:
            snapshots.append({k: v.copy() for k, v in net.params.items()})
    if snapshots:
        for name in net.param_names():
            net.params[name] = sum(s[name] for s in snapshots) / len(snapshots)
    return net, trace


def train(
    ds: Dataset,
    net_cfg: NetConfig,
    pl_cfg: PseudoLabelConfig,
    n_components: int | None = None,
    sigma: float = 0.5,
) -> TrainedBundle:
    """Fit the full pipeline: PCA, pseudo-labelers, then the matching net.

    Pseudo-labels for the raw batch are precomputed once; labels for expanded
    points are produced by the ensemble on the fly each batch. With
    ``redraw_expansion_each_batch`` off, one expansion per training row is
    drawn up front and reused.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    lm, Z = _latent(ds, n_components)
    ens = fit_ensemble(Dataset(Z, ds.labels), pl_cfg)
    pseudo = ens.predict_matrix(Z).astype(np.float64)
    rng_exp = generator(derive_seed(net_cfg.seed, "expansion"))
    if net_cfg.redraw_expansion_each_batch:
        def expansion(idx):
            Zx = expand_with(Z[idx], rng_exp.normal(0.0, sigma, size=idx.size))
            return Zx, ens.predict_matrix(Zx).astype(np.float64)
    else:
        Z_exp_all = expand_with(Z, rng_exp.normal(0.0, sigma, size=ds.n))
        pseudo_exp_all = ens.predict_matrix(Z_exp_all).astype(np.float64)

        def expansion(idx):
            return Z_exp_all[idx], pseudo_exp_all[idx]

    heads = 1 if net_cfg.loss_mode == "single_head" else ens.k
    net, trace = _fit_net(Z, pseudo, heads, net_cfg, expansion)
    return TrainedBundle(
        method="explor",
        latent_map=lm,
        ensemble=ens,
        net=net,
        net_config=net_cfg,
        sigma=sigma,
        trace=trace,
    )


def train_erm(
    ds: Dataset,
    net_cfg: NetConfig,
    heads: int = 64,
    n_components: int | None = None,
) -> TrainedBundle:
    """Baseline: same architecture, every head fit to the true labels.

    The deployed parameters are the uniform average of snapshots taken every
    ``snapshot_interval`` iterations (the final parameters if none were
    taken). The trace stores the label loss in the match slot. The loop runs
    the ``match_only`` loss with no expansion term, which is the plain label
    BCE whatever ``loss_mode`` and ``lambda_expand`` say; the bundle keeps
    ``net_cfg`` as given.
    """
    lm, Z = _latent(ds, n_components)
    targets = np.repeat(ds.labels.astype(np.float64)[:, None], heads, axis=1)
    loop_cfg = replace(net_cfg, loss_mode="match_only", lambda_expand=0.0)
    net, trace = _fit_net(Z, targets, heads, loop_cfg, snapshot_interval=net_cfg.snapshot_interval)
    return TrainedBundle(
        method="erm",
        latent_map=lm,
        net=net,
        net_config=net_cfg,
        trace=trace,
    )


def train_pl_ens(ds: Dataset, pl_cfg: PseudoLabelConfig, n_components: int | None = None) -> TrainedBundle:
    """Latent map plus pseudo-labeler ensemble only, no network."""
    lm, Z = _latent(ds, n_components)
    ens = fit_ensemble(Dataset(Z, ds.labels), pl_cfg)
    return TrainedBundle(
        method="pl_ens",
        latent_map=lm,
        ensemble=ens,
    )


def score(bundle: TrainedBundle, X):
    """(scores, columns) for raw feature rows X: the one scoring path of every method.

    X is encoded once; the net runs first, then the labelers. The score is
    the mean head probability, the labeler vote fraction, or their average
    (h + g) / 2 when the bundle has both. The columns are the (N, K) head
    probabilities, or the 0/1 votes of a bundle with no net.
    """
    Z = encode(bundle.latent_map, X)
    columns = [] if bundle.net is None else [sigmoid(bundle.net.logits(Z))]
    if bundle.ensemble is not None:
        columns.append(bundle.ensemble.predict_matrix(Z))
    return sum(c.mean(axis=1) for c in columns) / len(columns), columns[0]


def predict(bundle: TrainedBundle, X) -> np.ndarray:
    """Score rows of X with whatever the bundle's method deploys."""
    return score(bundle, X)[0]
