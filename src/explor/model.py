"""Multi-head matching network, trained with hand-written backprop and Adam.

The network is a small ELU trunk with K logistic heads. Head j is trained to
match pseudo-labeler j, not the true labels: the objective is

    total = mean_abs(D) + match(D) + lambda * match(Ex(D))

where match is mean binary cross-entropy between head logits and the hard
pseudo-labels, mean_abs is the l1 gap between the mean head probability and
the mean pseudo-label per point, and Ex(D) is the radial expansion of the
batch, which supplies matching targets outside the training shell. That is
the ``full`` loss mode; ``_TERMS`` is the one definition of it and of its
ablations, each a list of terms on D and one term on Ex(D).

One loop, ``_fit_net``, trains the net in both settings: ``train`` matches
the labelers on raw and expanded batches, and the ERM baseline
``train_erm`` runs the match loss against the true labels with no expansion
and averages parameter snapshots. Both share the optimiser, the batch
stream and the finite and divergence checks.

Trunk weights use Kaiming-uniform fan-in init. Head weights and all biases
start at zero, so an untrained net outputs probability 0.5 on every head and
the bagged predictor degrades to (ensemble_mean + 0.5) / 2.

Everything is float64 numpy; with a fixed seed, training is reproducible
bit-for-bit (single fixed reduction order, one Python thread). Scoring runs
its fixed blocks on threads, each writing only its own rows, so its bytes do
not depend on the thread count.
"""

from __future__ import annotations

import json
import math
import os
import types
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import SEED, Dataset, check_fields, check_value, is_int, ranged
from .latent import LatentMap, check_rows, encode, expand_with, fit_pca
from .pseudolabel import PseudoLabelConfig, PseudoLabelEnsemble, fit_ensemble
from .seeding import derive_seed, generator

# The one definition of the loss modes: each mode's terms on the raw batch,
# then its one term on the expanded batch, as ``_term`` kinds.
_TERMS = {
    "full": (("match", "mean_abs"), "match"),
    "match_only": (("match",), "match"),
    "mean_only": (("prob_bce",), "prob_bce"),
    "single_head": (("match",), "match"),
}
LOSS_MODES = tuple(_TERMS)

# The parts each method's bundle must carry; ``score`` averages whichever are present.
METHOD_PARTS = {"explor": ("ensemble", "net"), "erm": ("net",), "pl_ens": ("ensemble",)}

_PROB_EPS = 1e-12  # clamp for log() in the probability-space loss

# ``score`` runs every block at exactly this many rows, zero-padding the last,
# so BLAS always picks the same kernel and a row's bytes never depend on its
# neighbours; it also bounds the activations held at once.
_SCORE_BLOCK = 256
# ``score`` runs its blocks on threads: numpy's matrix products and ufuncs
# release the interpreter lock, so blocks overlap. It starts at most one
# thread per CPU, one per ``_BLOCKS_PER_WORKER`` blocks (a thread costs its
# start and a few MiB of buffers, which a handful of blocks does not repay),
# and ``_SCORE_WORKERS`` in all (each holds one block's activations, about
# 4 MiB at the default 512x512 width). It starts none unless these variables
# pin BLAS to one thread: otherwise BLAS splits each product across the CPUs
# itself, and scoring threads on top of it ran slower than none (50,000 rows
# on 2 CPUs with OpenBLAS's default threads: 1.5-1.8 s on 2 or 3 threads,
# 1.1-1.3 s inline).
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_SCORE_WORKERS = 3
_BLOCKS_PER_WORKER = 16
# Adam steps this many parameters at a time: faster at 512x512 than one pass or a step per parameter.
_ADAM_CHUNK = 65536


class TrainingDivergence(RuntimeError):
    """Raised when the training loss explodes; carries the trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def elu(x: np.ndarray) -> np.ndarray:
    # max(x, expm1(min(0, x))) is exact: expm1(x) >= x below zero, and expm1(0) = 0
    # leaves x above it. No mask, so the SIMD loops run; min(0.0, x) keeps -0.0.
    x = np.asarray(x, dtype=np.float64)
    out = np.minimum(0.0, x)
    np.expm1(out, out=out)
    np.maximum(x, out, out=out)
    return out


def elu_grad(x: np.ndarray) -> np.ndarray:
    # exp(min(0, x)): exactly 1 above zero, exp(x) at and below; fmin sends NaN to 1.
    out = np.fmin(0.0, x)
    np.exp(out, out=out)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) <= 1 never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x)
    # below. min(x, -x) rather than -|x| keeps the sign bit of a NaN input. The
    # numerator max(e, x >= 0) is exactly 1 where x >= 0, since e <= 1 there, and
    # e elsewhere, since e >= 0 (a NaN e stays NaN).
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    e /= d
    return e


def bce_logits(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy on logits, stable at saturation."""
    return np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))


@dataclass(frozen=True)
class NetConfig:
    """Architecture and optimization settings for the matching network."""

    hidden: tuple = ranged((512, 512), lambda v: len(v) >= 1 and all(h >= 1 for h in v), "a nonempty list of widths >= 1")
    lambda_expand: float = ranged(0.5, lambda v: v >= 0, ">= 0")
    batch_size: int = ranged(256, lambda v: v >= 1, ">= 1")
    iterations: int = ranged(10000, lambda v: v >= 0, ">= 0")
    learning_rate: float = ranged(1e-3, lambda v: v > 0, "> 0")
    beta1: float = ranged(0.9, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
    beta2: float = ranged(0.999, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
    eps: float = ranged(1e-8, lambda v: v > 0, "> 0")
    seed: int = ranged(0, *SEED)
    redraw_expansion_each_batch: bool = True
    loss_mode: str = ranged("full", lambda v: v in LOSS_MODES, f"one of {LOSS_MODES}")
    snapshot_interval: int = ranged(2500, lambda v: v >= 1, ">= 1")

    def __post_init__(self):
        check_fields(self)


class ExplorNet:
    """ELU trunk with K logistic heads; ``params`` is a read-only mapping of views into ``flat``, one float64 array."""

    def __init__(self, input_dim: int, hidden, heads: int, seed: int = 0):
        self.flat = np.zeros(self._set_dims(input_dim, hidden, heads))
        self.params = types.MappingProxyType(self.views(self.flat))
        rng = generator(derive_seed(seed, "init"))
        for i in range(len(self.hidden)):
            w = self.params[f"trunk.{i}.w"]
            bound = np.sqrt(6.0 / w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    def _set_dims(self, input_dim, hidden, heads) -> int:
        """Check and set the dims and each parameter's shape, in layer order, with nothing allocated; returns ``size``."""
        if not all(is_int(v) and v >= 1 for v in (input_dim, heads, *hidden)):
            raise ValueError(f"need integer input_dim, heads and hidden widths >= 1, got {input_dim}, {heads}, {list(hidden)}")
        self.input_dim = int(input_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.heads = int(heads)
        shapes, fan_in = {}, self.input_dim
        for i, width in enumerate(self.hidden):
            shapes |= {f"trunk.{i}.w": (width, fan_in), f"trunk.{i}.b": (width,)}
            fan_in = width
        self._shapes = shapes | {"heads.w": (self.heads, fan_in), "heads.b": (self.heads,)}
        self.size = sum(map(math.prod, self._shapes.values()))
        return self.size

    def views(self, flat: np.ndarray) -> dict:
        """Each parameter's name -> its C-ordered view of ``flat``, a 1-d array of ``size`` values in layer order."""
        out, start = {}, 0
        for name, shape in self._shapes.items():
            stop = start + math.prod(shape)
            out[name] = flat[start:stop].reshape(shape)
            start = stop
        return out

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
            dpre = elu_grad(pres[i])
            dpre *= delta
            grads[f"trunk.{i}.w"] += dpre.T @ acts[i]
            grads[f"trunk.{i}.b"] += dpre.sum(axis=0)
            if i > 0:
                delta = dpre @ self.params[f"trunk.{i}.w"]
        return None

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden": list(self.hidden),
            "heads": self.heads,
            "params": {k: {"shape": list(v.shape), "data": v.ravel().tolist()} for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExplorNet":
        """Rebuild a net; every parameter must be present, finite and shaped as the declared dims say.

        Nothing of the declared size is allocated, so a bundle cannot declare a net larger than its data.
        """
        net = cls.__new__(cls)
        net._set_dims(doc["input_dim"], doc["hidden"], doc["heads"])
        params, shapes = doc["params"], net._shapes
        missing = sorted(set(shapes) - set(params))
        unexpected = sorted(set(params) - set(shapes))
        if missing or unexpected:
            raise ValueError(f"net params do not fit the declared dims: missing {missing}, unexpected {unexpected}")
        arrays = {}
        for k, spec in params.items():
            shape = shapes[k]
            arrays[k] = data = np.array(spec["data"], dtype=np.float64)
            if tuple(spec["shape"]) != shape or not all(map(is_int, spec["shape"])) or data.shape != (math.prod(shape),):
                raise ValueError(f"net param {k!r} has shape {spec['shape']} and {data.size} values, expected {list(shape)}")
            if not np.all(np.isfinite(data)):
                raise ValueError(f"net param {k!r} has non-finite values")
        net.flat = np.concatenate([arrays[k] for k in shapes])
        net.params = types.MappingProxyType(net.views(net.flat))
        return net


def loss_terms(net: ExplorNet, Z, targets, Z_exp, targets_exp, cfg: NetConfig):
    """Loss total and the (match, mean, expand) parts, without gradients.

    The expand part is reported unweighted; the total applies lambda. With
    lambda = 0 the total is exactly mean + match of the unexpanded batch.
    """
    total, parts, _ = loss_and_grads(net, Z, targets, Z_exp, targets_exp, cfg, want_grads=False)
    return total, parts


def _term(kind, logits, probs, targets):
    """(value, dL/dlogits) of one loss term on a batch; probs = sigmoid(logits).

    ``match`` is the mean BCE of each head against its target column. The
    others compare, per row, the mean head probability p with the mean
    target q: ``mean_abs`` by |p - q|, ``prob_bce`` by the BCE of p against q.
    """
    b, k = logits.shape
    if kind == "match":
        return float(bce_logits(logits, targets).mean()), (probs - targets) / (b * k)
    p = probs.mean(axis=1)
    q = targets.mean(axis=1)
    if kind == "mean_abs":
        value, dp = np.abs(p - q).mean(), np.sign(p - q)
    else:
        inside = (p > _PROB_EPS) & (p < 1.0 - _PROB_EPS)
        pc = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
        value = (-(q * np.log(pc) + (1.0 - q) * np.log1p(-pc))).mean()
        dp = np.where(inside, (pc - q) / (pc * (1.0 - pc)), 0.0)
    return float(value), dp[:, None] * (probs * (1.0 - probs)) / (b * k)


def _batch(net: ExplorNet, Z, targets, kinds, single_head):
    """(term values in ``kinds`` order, their summed dL/dlogits, forward cache) of one batch."""
    targets = np.asarray(targets, dtype=np.float64)
    if single_head:
        targets = targets.mean(axis=1, keepdims=True)
    logits, cache = net.forward(Z)
    probs = sigmoid(logits)
    values, ds = zip(*(_term(kind, logits, probs, targets) for kind in kinds))
    # Summed in ``kinds`` order, so full's gradient is d_match + d_mean.
    return values, sum(ds[1:], ds[0]), cache


def loss_and_grads(net: ExplorNet, Z, targets, Z_exp, targets_exp, cfg: NetConfig, want_grads=True):
    """Loss total, the (match, mean, expand) parts and the gradient, laid out as ``net.flat`` (None unless ``want_grads``)."""
    raw_kinds, exp_kind = _TERMS[cfg.loss_mode]
    single_head = cfg.loss_mode == "single_head"
    if single_head and net.heads != 1:
        raise ValueError("single_head loss requires a one-head network")
    values, dlogits, cache = _batch(net, Z, targets, raw_kinds, single_head)
    parts = {"match": 0.0, "mean": 0.0, "expand": 0.0}
    for kind, value in zip(raw_kinds, values):
        parts["match" if kind == "match" else "mean"] = value
    if Z_exp is not None:
        (parts["expand"],), d_exp, cache_exp = _batch(net, Z_exp, targets_exp, (exp_kind,), single_head)
    total = parts["match"] + parts["mean"] + cfg.lambda_expand * parts["expand"]
    if not want_grads:
        return total, parts, None

    grads = np.zeros(net.size)
    views = net.views(grads)
    net.backward(cache, dlogits, views)
    if Z_exp is not None and cfg.lambda_expand != 0.0:
        net.backward(cache_exp, cfg.lambda_expand * d_exp, views)
    return total, parts, grads


class Adam:
    """Adam with bias correction; ``m`` and ``v`` are laid out as ``net.flat``."""

    def __init__(self, net: ExplorNet, cfg: NetConfig):
        self.net = net
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros(net.size)
        self.v = np.zeros(net.size)

    def step(self, grads: np.ndarray) -> None:
        self.t += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for lo in range(0, self.net.size, _ADAM_CHUNK):
            # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
            # params -= lr * m_hat / (sqrt(v_hat) + eps), in place and in that
            # operation order, so every byte is the same with two temporaries.
            g, m, v = (a[lo : lo + _ADAM_CHUNK] for a in (grads, self.m, self.v))
            t = (1.0 - c.beta1) * g
            m *= c.beta1
            m += t
            np.multiply(1.0 - c.beta2, g, out=t)
            t *= g
            v *= c.beta2
            v += t
            np.divide(m, bc1, out=t)
            t *= c.learning_rate
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += c.eps
            t /= denom
            self.net.flat[lo : lo + _ADAM_CHUNK] -= t


def _batches(n: int, batch_size: int, seed: int):
    """Without-replacement batches from a reshuffled epoch permutation, without end."""
    b = min(batch_size, n)
    rng = generator(seed)
    while True:
        perm = rng.permutation(n)
        for pos in range(0, n - b + 1, b):
            yield perm[pos : pos + b]


def _check_finite(net: ExplorNet, flat: np.ndarray, what: str, trace) -> None:
    if not np.all(np.isfinite(flat)):
        name = next(k for k, a in net.views(flat).items() if not np.all(np.isfinite(a)))
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
        sigma = check_value("bundle sigma", doc["sigma"], 0.0, (lambda v: v >= 0, ">= 0"))
        trace = check_value("bundle trace", doc["trace"], [[0.0]], (lambda v: all(len(t) == 3 for t in v), "a list of [match, mean, expand] triples"))
        ensemble = None if doc["ensemble"] is None else PseudoLabelEnsemble.from_dict(doc["ensemble"])
        net = None if doc["net"] is None else ExplorNet.from_dict(doc["net"])
        if net is not None and net.input_dim != lm.s:
            raise ValueError(f"net input_dim {net.input_dim} differs from the latent width {lm.s}")
        if ensemble is not None and ensemble.n_features > lm.s:
            raise ValueError(f"a tree splits on feature {ensemble.n_features - 1}, outside the latent width {lm.s}")
        return cls(
            method=method,
            latent_map=lm,
            ensemble=ensemble,
            net=net,
            net_config=None if doc["net_config"] is None else NetConfig(**doc["net_config"]),
            sigma=sigma,
            trace=[tuple(t) for t in trace],
        )


def write_json(path, doc) -> None:
    """Write ``doc`` as deterministic JSON: sorted keys, no spaces, repr floats, one trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def save_bundle(bundle: TrainedBundle, path) -> None:
    """Write a bundle as deterministic JSON."""
    write_json(path, bundle.to_dict())


def load_bundle(path) -> TrainedBundle:
    """Read a bundle; any malformed content raises ValueError naming the file."""
    with open(path) as fh:
        try:
            return TrainedBundle.from_dict(json.load(fh))
        except RecursionError:
            raise ValueError(f"{path}: malformed bundle: JSON nested too deeply") from None
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
    batches = _batches(len(Z), cfg.batch_size, derive_seed(cfg.seed, "batches"))
    trace = []
    snapshots = []
    for it, idx in zip(range(1, cfg.iterations + 1), batches):
        Zx, Gx = (None, None) if expansion is None else expansion(idx)
        total, parts, grads = loss_and_grads(net, Z[idx], targets[idx], Zx, Gx, cfg)
        _check_finite(net, grads, "gradient in", trace)
        opt.step(grads)
        _check_finite(net, net.flat, "parameter after the update:", trace)
        trace.append((parts["match"], parts["mean"], parts["expand"]))
        if total > 1e6:
            raise TrainingDivergence(f"loss diverged to {total}", trace)
        if snapshot_interval is not None and it % snapshot_interval == 0:
            snapshots.append(net.flat.copy())
    if snapshots:
        net.flat[...] = sum(snapshots) / len(snapshots)
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
    sigma = check_value("sigma", sigma, 0.5, (lambda v: v > 0, "> 0"))
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

    X is checked whole, then scored in blocks of ``_SCORE_BLOCK`` rows, the
    last one zero-padded: each block is encoded, run through the net, then
    the labelers, and only its real rows are kept. So a row's bytes do not
    depend on the rows scored with it, and memory beyond X and the outputs
    stays flat in N. When BLAS is pinned to one thread, the blocks run on
    one thread per CPU the process may use and per ``_BLOCKS_PER_WORKER``
    blocks, at most ``_SCORE_WORKERS``; otherwise, or when one thread would
    do, they run inline. Each block writes only its own rows of the
    outputs, so the bytes do not depend on the thread count, and memory
    holds about one block per thread. The score is the mean head
    probability, the labeler vote fraction, or their average (h + g) / 2
    when the bundle has both. The columns are the (N, K) head
    probabilities, or the 0/1 votes of a bundle with no net.
    """
    return _score(bundle, X, keep_columns=True)


def predict(bundle: TrainedBundle, X) -> np.ndarray:
    """The scores of :func:`score`, without holding its (N, K) columns."""
    return _score(bundle, X, keep_columns=False)[0]


def _score(bundle: TrainedBundle, X, keep_columns: bool):
    """(scores, columns or None) of :func:`score`."""
    # C order gives every full block the padded block's layout, so BLAS treats them alike.
    X = np.ascontiguousarray(check_rows(bundle.latent_map, X))
    n = len(X)
    net, ens = bundle.net, bundle.ensemble
    scores = np.empty(n)
    columns = None
    if keep_columns:
        columns = np.empty((n, ens.k), dtype=np.int64) if net is None else np.empty((n, net.heads))

    def run(start):
        block = X[start : start + _SCORE_BLOCK]
        m = len(block)
        if m < _SCORE_BLOCK:
            pad = np.zeros((_SCORE_BLOCK, X.shape[1]))
            pad[:m] = block
            block = pad
        Z = encode(bundle.latent_map, block)
        parts = [] if net is None else [sigmoid(net.logits(Z))]
        if ens is not None:
            parts.append(ens.predict_matrix(Z))
        scores[start : start + m] = (sum(c.mean(axis=1) for c in parts) / len(parts))[:m]
        if keep_columns:
            columns[start : start + m] = parts[0][:m]

    starts = range(0, n, _SCORE_BLOCK)
    workers = min(_scoring_cpus(), -(-len(starts) // _BLOCKS_PER_WORKER), _SCORE_WORKERS)
    if workers <= 1:
        for start in starts:
            run(start)
        return scores, columns
    # Imported here, so a process that never scores on threads does not load it.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        for future in [pool.submit(run, start) for start in starts]:
            future.result()
    finally:
        # After an error or an interrupt, blocks not yet started never start.
        pool.shutdown(cancel_futures=True)
    return scores, columns


def _scoring_cpus() -> int:
    """The CPUs ``score`` may start threads on: one unless ``_BLAS_THREAD_VARS`` pin BLAS to one thread.

    Every one of those variables that is set must read 1, so a larger value
    in any of them counts as BLAS threading its own products.
    """
    pins = [os.environ[var].strip() for var in _BLAS_THREAD_VARS if os.environ.get(var, "").strip()]
    if not pins or any(pin != "1" for pin in pins):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
