"""Network primitives, manual gradients, Adam, and the training loops.

Gradient correctness is established against central finite differences on
randomized small networks, with resampling guards that keep every batch away
from the absolute-value kink of the mean term. The Adam oracle is the
textbook update written as an independent scalar loop.
"""

import functools
import json
import math
import threading
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explor import latent, model
from explor.data import Dataset, make_synthetic_radial
from explor.latent import encode, fit_pca
from explor.model import (
    LOSS_MODES,
    Adam,
    ExplorNet,
    NetConfig,
    TrainedBundle,
    TrainingDivergence,
    bce_logits,
    elu,
    elu_grad,
    load_bundle,
    loss_and_grads,
    loss_terms,
    predict,
    save_bundle,
    score,
    sigmoid,
    train,
    train_erm,
    train_pl_ens,
)
from explor.pseudolabel import PseudoLabelConfig, Tree, fit_ensemble


# ---------------------------------------------------------------- oracles

def oracle_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def oracle_bce(z, g):
    s = oracle_sigmoid(z)
    return -(g * math.log(s) + (1.0 - g) * math.log(1.0 - s))


def masked_elu(x):
    """The masked-index ELU: exact reference for the in-place form."""
    out = np.array(x, dtype=np.float64, copy=True)
    neg = out <= 0
    out[neg] = np.expm1(out[neg])
    return out


def masked_elu_grad(x):
    out = np.ones_like(x)
    neg = x <= 0
    out[neg] = np.exp(x[neg])
    return out


def masked_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def fd_gradient(fn, params, name, h=1e-5):
    """Central finite differences of fn() w.r.t. every entry of params[name]."""
    base = params[name]
    out = np.zeros_like(base)
    flat = base.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = fn()
        flat[i] = keep - h
        lo = fn()
        flat[i] = keep
        out.reshape(-1)[i] = (hi - lo) / (2.0 * h)
    return out


def rel_err(a, b, floor=1e-3):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


# ------------------------------------------------------------- primitives

class TestPrimitives:
    def test_elu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
        expect = [math.expm1(-2.0), math.expm1(-0.5), 0.0, 0.5, 3.0]
        assert np.allclose(elu(x), expect, rtol=0, atol=1e-15)

    def test_elu_grad_matches_fd(self):
        x = np.linspace(-3, 3, 31)
        x = x[np.abs(x) > 1e-3]
        fd = (elu(x + 1e-6) - elu(x - 1e-6)) / 2e-6
        assert np.max(rel_err(elu_grad(x), fd)) < 1e-6

    def test_sigmoid_moderate(self):
        for z in np.linspace(-8, 8, 33):
            assert abs(sigmoid(np.array([z]))[0] - oracle_sigmoid(z)) < 1e-14

    def test_sigmoid_extreme_no_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-800.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_zero_is_half(self):
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("fn,oracle", [
        (elu, masked_elu),
        (elu_grad, masked_elu_grad),
        (sigmoid, masked_sigmoid),
    ])
    def test_bytes_match_masked_oracle(self, fn, oracle):
        rng = np.random.default_rng(23)
        edge = np.array([-0.0, 0.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan])
        # Magnitudes where expm1(x) rounds to x, down to the smallest subnormal.
        tiny = np.geomspace(5e-324, 0.1, 2000)
        inputs = (
            rng.standard_normal((256, 64)),
            40.0 * rng.standard_normal((256, 64)),
            edge,
            rng.standard_normal((256, 512)),
            rng.standard_normal((7, 13)),  # odd shape: SIMD loop tails
            np.concatenate([tiny, -tiny]),
        )
        with np.errstate(over="ignore"):  # elu_grad(800) is exp(800) in both forms
            for x in inputs:
                assert fn(x).tobytes() == oracle(x).tobytes()

    def test_elu_keeps_negative_zero(self):
        assert np.signbit(elu(np.array([-0.0]))[0])

    @pytest.mark.parametrize("fn", [elu, sigmoid])
    def test_no_overflow_on_extremes(self, fn):
        x = np.array([-0.0, 0.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan])
        with np.errstate(over="raise"):
            fn(x)

    def test_bce_moderate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = float(rng.uniform(-8, 8))
            g = float(rng.integers(0, 2))
            assert abs(bce_logits(np.array([z]), np.array([g]))[0] - oracle_bce(z, g)) < 1e-12

    def test_bce_zero_logit_is_log2(self):
        assert bce_logits(np.zeros(2), np.array([0.0, 1.0])).tolist() == [math.log(2)] * 2

    def test_bce_saturated_wrong_side_is_linear(self):
        # log1p(exp(-500)) underflows to zero, leaving exactly |z|.
        assert bce_logits(np.array([500.0]), np.array([0.0]))[0] == 500.0
        assert bce_logits(np.array([-500.0]), np.array([1.0]))[0] == 500.0
        with np.errstate(over="raise"):
            assert bce_logits(np.array([500.0]), np.array([1.0]))[0] < 1e-12


# ------------------------------------------------------------------- init

class TestNetInit:
    def test_untrained_logits_are_zero(self):
        net = ExplorNet(5, (16, 8), 4, seed=3)
        Z = np.random.default_rng(1).standard_normal((10, 5))
        assert np.all(net.logits(Z) == 0.0)

    def test_trunk_uniform_bounds(self):
        net = ExplorNet(9, (64,), 2, seed=5)
        w = net.params["trunk.0.w"]
        bound = math.sqrt(6.0 / 9)
        assert np.all(np.abs(w) < bound) and np.std(w) > 0.1 * bound

    def test_heads_and_biases_zero(self):
        net = ExplorNet(4, (8, 8), 6, seed=7)
        assert np.all(net.params["heads.w"] == 0.0)
        for name in ("trunk.0.b", "trunk.1.b", "heads.b"):
            assert np.all(net.params[name] == 0.0)

    def test_seeded_init_reproducible(self):
        a = ExplorNet(4, (8,), 2, seed=11).params["trunk.0.w"]
        b = ExplorNet(4, (8,), 2, seed=11).params["trunk.0.w"]
        c = ExplorNet(4, (8,), 2, seed=12).params["trunk.0.w"]
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_serialization_roundtrip(self):
        net = ExplorNet(3, (5, 4), 2, seed=1)
        net.params["heads.w"] += 0.37
        back = ExplorNet.from_dict(json.loads(json.dumps(net.to_dict())))
        Z = np.random.default_rng(2).standard_normal((6, 3))
        assert np.array_equal(back.logits(Z), net.logits(Z))


# -------------------------------------------------------------- gradients

def random_problem(rng, heads, need_exp=True):
    """Small randomized net and batch, kept away from the |p - q| kink."""
    s = int(rng.integers(2, 5))
    hidden = tuple(int(w) for w in rng.integers(3, 7, size=int(rng.integers(1, 3))))
    b = int(rng.integers(2, 6))
    for _ in range(64):
        net = ExplorNet(s, hidden, heads, seed=int(rng.integers(1 << 30)))
        for name in net.param_names():
            net.params[name] = rng.normal(0.0, 0.6, size=net.params[name].shape)
        Z = rng.normal(0.0, 1.0, size=(b, s))
        G = rng.integers(0, 2, size=(b, heads)).astype(np.float64)
        Zx = Z * (1.0 + np.abs(rng.normal(0.0, 0.5, size=b)))[:, None]
        Gx = rng.integers(0, 2, size=(b, heads)).astype(np.float64)
        logits = net.logits(Z)
        p = sigmoid(logits).mean(axis=1)
        gaps = [np.abs(p - G.mean(axis=1))]
        if need_exp:
            px = sigmoid(net.logits(Zx)).mean(axis=1)
            gaps.append(np.abs(px - Gx.mean(axis=1)))
        if min(g.min() for g in gaps) > 1e-3:
            return net, Z, G, Zx, Gx
    raise AssertionError("could not sample a kink-free problem")


@pytest.mark.parametrize("mode,heads", [
    ("full", 3),
    ("match_only", 3),
    ("mean_only", 3),
    ("single_head", 1),
])
def test_gradients_match_finite_differences(mode, heads):
    rng = np.random.default_rng(hash(mode) % (1 << 31))
    for trial in range(6):
        net, Z, G, Zx, Gx = random_problem(rng, heads)
        cfg = NetConfig(hidden=net.hidden, lambda_expand=0.5, loss_mode=mode, seed=0)
        _, _, grads = loss_and_grads(net, Z, G, Zx, Gx, cfg)

        def total():
            t, _ = loss_terms(net, Z, G, Zx, Gx, cfg)
            return t

        for name in net.param_names():
            fd = fd_gradient(total, net.params, name)
            err = np.max(rel_err(grads[name], fd))
            assert err < 1e-5, f"{mode} {name} trial {trial}: rel err {err}"


def test_lambda_scales_expansion_gradient():
    rng = np.random.default_rng(42)
    net, Z, G, Zx, Gx = random_problem(rng, 2)
    base = NetConfig(hidden=net.hidden, lambda_expand=0.0, seed=0)
    bumped = NetConfig(hidden=net.hidden, lambda_expand=0.8, seed=0)
    _, _, g0 = loss_and_grads(net, Z, G, Zx, Gx, base)
    _, _, g1 = loss_and_grads(net, Z, G, Zx, Gx, bumped)
    _, _, g_none = loss_and_grads(net, Z, G, None, None, base)
    for name in net.param_names():
        assert np.array_equal(g0[name], g_none[name])
        assert not np.array_equal(g0[name], g1[name])


def test_zero_lambda_total_is_match_plus_mean():
    rng = np.random.default_rng(9)
    net, Z, G, Zx, Gx = random_problem(rng, 4)
    cfg = NetConfig(hidden=net.hidden, lambda_expand=0.0, seed=0)
    total, parts = loss_terms(net, Z, G, Zx, Gx, cfg)
    assert total == parts["match"] + parts["mean"]
    assert parts["expand"] >= 0.0  # still reported, just unweighted


def test_mean_term_gradient_vanishes_at_balance():
    """Fresh net outputs p = 0.5; symmetric targets give q = 0.5, sign(0) = 0."""
    net = ExplorNet(4, (6,), 2, seed=3)
    Z = np.random.default_rng(5).standard_normal((5, 4))
    G = np.tile([0.0, 1.0], (5, 1))
    full = NetConfig(hidden=(6,), loss_mode="full", lambda_expand=0.5, seed=0)
    match = NetConfig(hidden=(6,), loss_mode="match_only", lambda_expand=0.5, seed=0)
    _, parts, gf = loss_and_grads(net, Z, G, 2.0 * Z, G, full)
    _, _, gm = loss_and_grads(net, Z, G, 2.0 * Z, G, match)
    assert parts["mean"] == 0.0
    for name in net.param_names():
        assert np.array_equal(gf[name], gm[name])


def test_single_head_equals_mean_only_with_one_head():
    rng = np.random.default_rng(77)
    net, Z, G, Zx, Gx = random_problem(rng, 1)
    a = NetConfig(hidden=net.hidden, loss_mode="mean_only", lambda_expand=0.5, seed=0)
    b = NetConfig(hidden=net.hidden, loss_mode="single_head", lambda_expand=0.5, seed=0)
    ta, _, ga = loss_and_grads(net, Z, G, Zx, Gx, a)
    tb, _, gb = loss_and_grads(net, Z, G, Zx, Gx, b)
    assert abs(ta - tb) < 1e-12
    for name in net.param_names():
        assert np.allclose(ga[name], gb[name], rtol=0, atol=1e-12)


def test_single_head_needs_one_head_net():
    net = ExplorNet(3, (4,), 2, seed=0)
    cfg = NetConfig(hidden=(4,), loss_mode="single_head", seed=0)
    Z = np.zeros((2, 3))
    G = np.zeros((2, 2))
    with pytest.raises(ValueError, match="one-head"):
        loss_and_grads(net, Z, G, None, None, cfg)


def oracle_parts(net, Z, G, Zx, Gx, mode):
    """(match, mean, expand) of ``mode`` from the paper's formulas, written out per mode."""
    if mode == "single_head":
        G, Gx = G.mean(axis=1, keepdims=True), Gx.mean(axis=1, keepdims=True)

    def match(Z, G):
        return bce_logits(net.logits(Z), G).mean()

    def gap(Z, G, bce):
        p, q = sigmoid(net.logits(Z)).mean(axis=1), G.mean(axis=1)
        return (-(q * np.log(p) + (1.0 - q) * np.log1p(-p))).mean() if bce else np.abs(p - q).mean()

    if mode == "mean_only":
        return 0.0, gap(Z, G, True), gap(Zx, Gx, True)
    return match(Z, G), gap(Z, G, False) if mode == "full" else 0.0, match(Zx, Gx)


@pytest.mark.parametrize("mode", LOSS_MODES)
def test_parts_of_every_mode(mode):
    """Each mode reports the parts its terms compute, exactly 0.0 for the rest, and totals them."""
    rng = np.random.default_rng(31)
    net, Z, G, Zx, Gx = random_problem(rng, 1 if mode == "single_head" else 3)
    cfg = NetConfig(hidden=net.hidden, lambda_expand=0.7, loss_mode=mode, seed=0)
    total, parts, _ = loss_and_grads(net, Z, G, Zx, Gx, cfg)
    assert loss_terms(net, Z, G, Zx, Gx, cfg) == (total, parts)
    assert total == parts["match"] + parts["mean"] + 0.7 * parts["expand"]
    want = oracle_parts(net, Z, G, Zx, Gx, mode)
    for name, oracle in zip(("match", "mean", "expand"), want):
        value = parts[name]
        assert type(value) is float
        if oracle == 0.0:
            assert value == 0.0, name
        else:
            assert value > 0.0 and abs(value - oracle) <= 1e-12 * oracle, name


# ------------------------------------------------------------------- adam

def test_adam_matches_scalar_oracle():
    net = ExplorNet(1, (4,), 3, seed=0)
    assert net.params["heads.w"].shape == (3, 4)
    cfg = NetConfig(hidden=(4,), learning_rate=0.05, beta1=0.9, beta2=0.999, eps=1e-8, seed=0)
    rng = np.random.default_rng(7)
    net.params["heads.w"][:] = rng.standard_normal((3, 4))
    opt = Adam(net, cfg)
    # The textbook update, one scalar at a time, with the constants formed as
    # the code forms them (1.0 - 0.9 is 0.09999999999999998, not 0.1).
    b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, cfg.eps
    theta = net.params["heads.w"].tolist()
    m = [[0.0] * 4 for _ in range(3)]
    v = [[0.0] * 4 for _ in range(3)]
    for t in range(1, 6):
        grads = {name: rng.standard_normal(p.shape) for name, p in net.params.items()}
        kept = {name: g.copy() for name, g in grads.items()}
        opt.step(grads)
        for name, g in grads.items():
            assert g.tobytes() == kept[name].tobytes(), f"step changed grads[{name!r}]"
        for i, j in np.ndindex(3, 4):
            g = float(grads["heads.w"][i, j])
            m[i][j] = b1 * m[i][j] + (1.0 - b1) * g
            v[i][j] = b2 * v[i][j] + (1.0 - b2) * g * g
            m_hat = m[i][j] / (1.0 - b1**t)
            v_hat = v[i][j] / (1.0 - b2**t)
            theta[i][j] -= lr * m_hat / (math.sqrt(v_hat) + eps)
        assert opt.m["heads.w"].tolist() == m, t
        assert opt.v["heads.w"].tolist() == v, t
        assert net.params["heads.w"].tolist() == theta, t


def test_backward_leaves_cache_and_dlogits_unchanged():
    net = ExplorNet(3, (6, 5), 4, seed=2)
    rng = np.random.default_rng(3)
    for p in net.params.values():
        p += rng.standard_normal(p.shape)
    logits, cache = net.forward(rng.standard_normal((9, 3)))
    dlogits = rng.standard_normal(logits.shape)
    acts, pres = cache
    kept = [a.copy() for a in acts] + [p.copy() for p in pres] + [dlogits.copy()]
    net.backward(cache, dlogits, net.zero_grads())
    after = list(acts) + list(pres) + [dlogits]
    assert [a.tobytes() for a in after] == [a.tobytes() for a in kept]


def test_adam_step_order_is_param_name_order():
    net = ExplorNet(2, (3,), 2, seed=1)
    assert net.param_names() == ["trunk.0.w", "trunk.0.b", "heads.w", "heads.b"]


# ----------------------------------------------------------- training api

def small_ds(seed=0, n=80, d=5):
    train_ds, _ = make_synthetic_radial(n, 10, d, seed=seed)
    return train_ds


def quick_net(its=25, **kw):
    kw.setdefault("hidden", (8,))
    kw.setdefault("batch_size", 16)
    kw.setdefault("seed", 4)
    return NetConfig(iterations=its, **kw)


def quick_pl(seed=2, k=4):
    return PseudoLabelConfig(k=k, max_depth=3, seed=seed)


class TestTrain:
    def test_bundle_contents_and_trace(self):
        ds = small_ds()
        b = train(ds, quick_net(), quick_pl(), n_components=4)
        assert b.method == "explor" and b.ensemble.k == 4 and b.net.heads == 4
        assert b.latent_map.s == 4
        assert len(b.trace) == 25 and all(len(row) == 3 for row in b.trace)
        assert all(row[0] > 0 for row in b.trace)

    def test_training_deterministic(self):
        ds = small_ds()
        X = np.random.default_rng(9).standard_normal((20, ds.d))
        b1 = train(ds, quick_net(), quick_pl(), n_components=4)
        b2 = train(ds, quick_net(), quick_pl(), n_components=4)
        assert b1.trace == b2.trace
        assert np.array_equal(predict(b1, X), predict(b2, X))
        for name in b1.net.param_names():
            assert np.array_equal(b1.net.params[name], b2.net.params[name])

    def test_zero_iterations_predicts_shifted_ensemble_mean(self):
        """Fresh heads output exactly 0.5, so the bag is (mean + 0.5) / 2."""
        ds = small_ds(seed=3)
        b = train(ds, quick_net(its=0), quick_pl(), n_components=4)
        X = np.random.default_rng(11).standard_normal((30, ds.d))
        g = b.ensemble.ensemble_mean(encode(b.latent_map, X))
        assert np.array_equal(predict(b, X), (g + 0.5) / 2.0)

    def test_loss_decreases_on_average(self):
        ds = small_ds(seed=5, n=150)
        b = train(ds, quick_net(its=200, batch_size=64), quick_pl(seed=6, k=8), n_components=4)
        first = np.mean([r[0] for r in b.trace[:20]])
        last = np.mean([r[0] for r in b.trace[-20:]])
        assert last < first

    def test_divergence_raises(self):
        ds = small_ds(seed=7)
        with pytest.raises(TrainingDivergence):
            train(ds, quick_net(its=60, learning_rate=1e6), quick_pl(), n_components=4)

    def test_non_finite_gradient_keeps_the_trace_so_far(self, monkeypatch):
        calls = []

        def nan_at_three(*args, **kwargs):
            total, parts, grads = loss_and_grads(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                grads = dict(grads, **{"heads.b": np.full_like(grads["heads.b"], np.nan)})
            return total, parts, grads

        monkeypatch.setattr(model, "loss_and_grads", nan_at_three)
        with pytest.raises(TrainingDivergence, match="gradient in heads.b") as exc:
            train(small_ds(seed=7), quick_net(its=10), quick_pl(), n_components=4)
        assert len(exc.value.trace) == 2 and all(len(t) == 3 for t in exc.value.trace)

    def test_expansion_redraw_flag_changes_path(self):
        ds = small_ds(seed=8)
        redraw = train(ds, quick_net(), quick_pl(), n_components=4)
        frozen = train(ds, quick_net(redraw_expansion_each_batch=False), quick_pl(), n_components=4)
        frozen2 = train(ds, quick_net(redraw_expansion_each_batch=False), quick_pl(), n_components=4)
        assert frozen.trace == frozen2.trace
        assert frozen.trace != redraw.trace

    def test_single_head_mode_builds_one_head(self):
        ds = small_ds(seed=9)
        b = train(ds, quick_net(loss_mode="single_head"), quick_pl(), n_components=4)
        assert b.net.heads == 1
        X = np.random.default_rng(13).standard_normal((10, ds.d))
        assert predict(b, X).shape == (10,)
        assert score(b, X)[1].shape == (10, 1)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            train(small_ds(), quick_net(its=1), quick_pl(), sigma=0.0)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            train(small_ds(), quick_net(its=1), quick_pl(), sigma=float("nan"))


class TestErm:
    def test_snapshot_average_is_mean_of_snapshots(self):
        """its=2 interval=1 deploys exactly the average of the two snapshots."""
        ds = small_ds(seed=10)
        a = train_erm(ds, quick_net(its=1, snapshot_interval=1), heads=3, n_components=4)
        b = train_erm(ds, quick_net(its=2, snapshot_interval=2), heads=3, n_components=4)
        c = train_erm(ds, quick_net(its=2, snapshot_interval=1), heads=3, n_components=4)
        for name in c.net.param_names():
            expect = (a.net.params[name] + b.net.params[name]) / 2.0
            assert np.array_equal(c.net.params[name], expect)

    def test_no_snapshot_keeps_final_params(self):
        ds = small_ds(seed=11)
        plain = train_erm(ds, quick_net(its=5, snapshot_interval=100), heads=2, n_components=4)
        snap = train_erm(ds, quick_net(its=5, snapshot_interval=5), heads=2, n_components=4)
        # One snapshot at the last iteration equals the final parameters.
        for name in plain.net.param_names():
            assert np.array_equal(plain.net.params[name], snap.net.params[name])

    def test_loss_mode_and_lambda_ignored_but_kept_in_bundle(self):
        """ERM trains the label BCE alone; the bundle still records the caller's config."""
        ds = small_ds(seed=14)
        base = train_erm(ds, quick_net(its=6), heads=3, n_components=4)
        cfg = quick_net(its=6, loss_mode="mean_only", lambda_expand=2.0)
        odd = train_erm(ds, cfg, heads=3, n_components=4)
        assert odd.net_config == cfg
        assert odd.trace == base.trace and all(row[1:] == (0.0, 0.0) for row in odd.trace)
        for name in base.net.param_names():
            assert np.array_equal(odd.net.params[name], base.net.params[name])

    def test_divergence_raises(self):
        with pytest.raises(TrainingDivergence):
            train_erm(small_ds(seed=15), quick_net(its=60, learning_rate=1e6), heads=2, n_components=4)

    def test_predict_is_mean_head_probability(self):
        ds = small_ds(seed=12)
        b = train_erm(ds, quick_net(its=10), heads=4, n_components=4)
        X = np.random.default_rng(15).standard_normal((12, ds.d))
        probs = sigmoid(b.net.logits(encode(b.latent_map, X)))
        assert np.array_equal(predict(b, X), probs.mean(axis=1))


class TestPlEns:
    def test_predict_is_ensemble_mean(self):
        ds = small_ds(seed=13)
        b = train_pl_ens(ds, quick_pl(seed=3, k=5), n_components=4)
        X = np.random.default_rng(17).standard_normal((15, ds.d))
        assert np.array_equal(predict(b, X), b.ensemble.ensemble_mean(encode(b.latent_map, X)))


class TestScore:
    """``score`` is the one scoring path: its parts are checked against the bundle's own pieces."""

    @pytest.mark.parametrize("method", ["explor", "erm", "pl_ens"])
    def test_scores_and_columns_from_the_bundle_parts(self, method):
        ds = small_ds(seed=14)
        if method == "explor":
            b = train(ds, quick_net(its=6), quick_pl(k=5), n_components=4)
        elif method == "erm":
            b = train_erm(ds, quick_net(its=6), heads=5, n_components=4)
        else:
            b = train_pl_ens(ds, quick_pl(k=5), n_components=4)
        X = np.random.default_rng(21).standard_normal((18, ds.d))
        Z = encode(b.latent_map, X)
        probs = None if b.net is None else sigmoid(b.net.logits(Z))
        votes = None if b.ensemble is None else b.ensemble.predict_matrix(Z)
        scores, columns = score(b, X)
        assert columns.shape == (18, 5)
        assert np.array_equal(columns, votes if probs is None else probs)
        if method == "explor":
            want = 0.5 * (b.ensemble.ensemble_mean(Z) + probs.mean(axis=1))
        else:
            want = columns.mean(axis=1)
        assert np.array_equal(scores, want) and np.array_equal(predict(b, X), scores)


@functools.lru_cache(maxsize=None)
def library_case(method):
    """A small trained bundle of ``method``, a 600-row library and the library's full-batch (scores, columns)."""
    train_ds, library = make_synthetic_radial(200, 600, 12, seed=3)
    net_cfg = NetConfig(hidden=(32, 32), iterations=20, batch_size=32, seed=1)
    pl_cfg = PseudoLabelConfig(k=8, max_depth=4, seed=2)
    if method == "explor":
        b = train(train_ds, net_cfg, pl_cfg, n_components=6)
    elif method == "erm":
        b = train_erm(train_ds, net_cfg, heads=8, n_components=6)
    else:
        b = train_pl_ens(train_ds, pl_cfg, n_components=6)
    return b, library.features, score(b, library.features)


@functools.lru_cache(maxsize=None)
def wide_case():
    """An untrained default-width bundle (512x512 net, 64 heads, 64 labelers) and 20,000 rows to score."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20000, 16))
    lm = fit_pca(X[:500], 8)
    ens = fit_ensemble(Dataset(encode(lm, X[:500]), rng.integers(0, 2, 500)), PseudoLabelConfig(k=64, seed=5))
    return TrainedBundle(method="explor", latent_map=lm, ensemble=ens, net=ExplorNet(8, (512, 512), 64, seed=5)), X


class TestBlockedScore:
    """``score`` runs fixed, zero-padded blocks: row-local bytes, flat memory, whole-X checks."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        method=st.sampled_from(["explor", "erm", "pl_ens"]),
        size=st.one_of(st.sampled_from([1, 3, 17, 63, 255, 256, 257, 600]), st.integers(1, 600)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(method="explor", size=1, seed=0)
    @example(method="erm", size=17, seed=0)
    def test_rows_score_as_in_the_full_library(self, method, size, seed):
        """Any subset of the library, in any order, gets exactly the bytes its rows get in the full batch."""
        b, X, (full_scores, full_columns) = library_case(method)
        idx = np.random.default_rng(seed).permutation(len(X))[:size]
        scores, columns = score(b, X[idx])
        assert scores.tobytes() == full_scores[idx].tobytes()
        assert columns.dtype == full_columns.dtype and columns.tobytes() == full_columns[idx].tobytes()

    @pytest.mark.parametrize("method", ["explor", "erm", "pl_ens"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_rows_score_alike_on_any_number_of_threads(self, monkeypatch, method, cpus):
        """The library 15 times over (9,000 rows, 36 blocks, the last padded) gets the library's bytes 15 times."""
        b, X, (full_scores, full_columns) = library_case(method)
        monkeypatch.setattr(model, "_scoring_cpus", lambda: cpus)
        scores, columns = score(b, np.tile(X, (15, 1)))
        assert scores.tobytes() == np.tile(full_scores, 15).tobytes()
        assert columns.tobytes() == np.tile(full_columns, (15, 1)).tobytes()
        assert predict(b, np.tile(X, (15, 1))).tobytes() == scores.tobytes()

    def test_few_blocks_run_inline(self, monkeypatch):
        """Fewer than ``_BLOCKS_PER_WORKER`` blocks per thread start no pool: the blocks run on the caller's thread."""
        b, X, _ = library_case("explor")
        monkeypatch.setattr(model, "_scoring_cpus", lambda: 3)
        threads = set()

        def encode(lm, block):
            threads.add(threading.get_ident())
            return latent.encode(lm, block)

        monkeypatch.setattr(model, "encode", encode)
        score(b, np.tile(X, (6, 1)))  # 3,600 rows: 15 blocks
        assert threads == {threading.get_ident()}
        threads.clear()
        score(b, np.tile(X, (15, 1)))  # 36 blocks: a pool
        assert threads and threading.get_ident() not in threads

    @pytest.mark.parametrize(
        "env,threaded",
        [
            ({}, False),
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": " 1 "}, True),
            ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "2"}, False),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
            ({"OPENBLAS_NUM_THREADS": ""}, False),
        ],
    )
    def test_threads_only_when_blas_is_pinned_to_one(self, monkeypatch, env, threaded):
        """Unless every BLAS thread variable that is set reads 1, scoring starts no threads of its own."""
        for var in model._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert model._scoring_cpus() == (4 if threaded else 1)

    def test_peak_memory_is_flat_in_rows(self, monkeypatch):
        """20,000 rows through a 512x512, 64-head net and 64 labelers hold no (N, 512) activations,
        with as many scoring threads as the cap allows."""
        monkeypatch.setattr(model, "_scoring_cpus", lambda: 64)
        b, X = wide_case()
        tracemalloc.start()
        try:
            scores, columns = score(b, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert columns.shape == (20000, 64)
        assert peak < scores.nbytes + columns.nbytes + 16 * 2**20

    def test_predict_holds_no_columns(self, monkeypatch):
        """``predict`` peaks below the 10 MB of (20,000, 64) head columns that ``score`` returns."""
        monkeypatch.setattr(model, "_scoring_cpus", lambda: 1)
        b, X = wide_case()
        tracemalloc.start()
        try:
            scores = predict(b, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.tobytes() == score(b, X)[0].tobytes()
        assert peak < 20000 * 64 * 8

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_failing_block_raises_its_error_and_cancels_the_rest(self, monkeypatch, cpus):
        """The caller gets the block's own ValueError; blocks not yet started never start."""
        b, X, _ = library_case("explor")
        X = np.tile(X, (20, 1))  # 12,000 rows: 47 blocks
        error = ValueError("block failed")
        calls = []

        def encode(lm, block):
            calls.append(None)
            if len(calls) == 1:
                raise error
            time.sleep(0.01)  # the other blocks are slow, so cancelling them shows
            return latent.encode(lm, block)

        monkeypatch.setattr(model, "_scoring_cpus", lambda: cpus)
        monkeypatch.setattr(model, "encode", encode)
        with pytest.raises(ValueError) as raised:
            score(b, X)
        assert raised.value is error
        ran = len(calls)
        time.sleep(0.05)
        assert len(calls) == ran < 47  # nothing runs after score returns

    @pytest.mark.parametrize("method", ["explor", "erm", "pl_ens"])
    def test_non_finite_error_names_the_row_in_x(self, method):
        b, X, _ = library_case(method)
        X = X.copy()
        X[300, 2] = np.nan
        with pytest.raises(ValueError, match="row 300, column 2"):
            score(b, X)

    @pytest.mark.parametrize("method", ["explor", "erm", "pl_ens"])
    def test_empty_input_keeps_the_shapes(self, method):
        b, X, (_, full_columns) = library_case(method)
        scores, columns = score(b, X[:0])
        assert scores.shape == (0,) and columns.shape == (0, 8) and columns.dtype == full_columns.dtype


class TestBundleIO:
    @pytest.mark.parametrize("method", ["explor", "erm", "pl_ens"])
    def test_roundtrip_bitexact(self, method, tmp_path):
        ds = small_ds(seed=15)
        if method == "explor":
            b = train(ds, quick_net(its=8), quick_pl(), n_components=4)
        elif method == "erm":
            b = train_erm(ds, quick_net(its=8), heads=3, n_components=4)
        else:
            b = train_pl_ens(ds, quick_pl(), n_components=4)
        path = tmp_path / "bundle.json"
        save_bundle(b, path)
        back = load_bundle(path)
        X = np.random.default_rng(19).standard_normal((25, ds.d))
        assert np.array_equal(predict(back, X), predict(b, X))
        # Re-serializing the loaded bundle reproduces the file byte for byte.
        path2 = tmp_path / "again.json"
        save_bundle(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        method=st.sampled_from(["explor", "erm", "pl_ens"]),
        k=st.integers(1, 4),
        max_depth=st.integers(1, 4),
        trees_per_labeler=st.integers(1, 3),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        loss_mode=st.sampled_from(["full", "match_only", "mean_only", "single_head"]),
        its=st.integers(1, 6),
    )
    def test_roundtrip_property(self, tmp_path_factory, method, k, max_depth, trees_per_labeler, hidden, loss_mode, its):
        """Any small bundle loads back to the same document and scores the same bytes."""
        ds = small_ds(seed=25, n=40, d=4)
        net_cfg = quick_net(its=its, hidden=tuple(hidden), loss_mode=loss_mode, snapshot_interval=2)
        pl_cfg = PseudoLabelConfig(k=k, max_depth=max_depth, trees_per_labeler=trees_per_labeler, seed=3)
        if method == "explor":
            b = train(ds, net_cfg, pl_cfg, n_components=3)
        elif method == "erm":
            b = train_erm(ds, net_cfg, heads=k, n_components=3)
        else:
            b = train_pl_ens(ds, pl_cfg, n_components=3)
        path = tmp_path_factory.mktemp("bundle") / "bundle.json"
        save_bundle(b, path)
        back = load_bundle(path)
        assert back.to_dict() == b.to_dict()
        X = np.random.default_rng(26).standard_normal((30, ds.d))
        for got, want in zip(score(back, X), score(b, X)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("breakage,match", [
        ("drop trunk.0.w", "missing"),
        ("drop heads.b", "missing"),
        ("extra param", "unexpected"),
        ("short heads.w", "shape"),
        ("reshaped trunk.1.w", "shape"),
        ("nan in trunk.0.b", "non-finite"),
        ("inf in heads.w", "non-finite"),
        ("zero width", "hidden"),
    ])
    def test_net_params_checked_against_declared_dims(self, breakage, match):
        """A net whose params do not fit input_dim, hidden and heads must not load."""
        ds = small_ds(seed=17)
        doc = json.loads(json.dumps(train(ds, quick_net(its=3, hidden=(6, 5)), quick_pl(), n_components=4).to_dict()))
        params = doc["net"]["params"]
        if breakage.startswith("drop"):
            del params[breakage.split()[1]]
        elif breakage == "extra param":
            params["trunk.2.w"] = {"shape": [1, 5], "data": [0.0] * 5}
        elif breakage == "short heads.w":
            params["heads.w"] = {"shape": [3, 5], "data": params["heads.w"]["data"][:15]}
        elif breakage == "reshaped trunk.1.w":
            params["trunk.1.w"]["shape"] = [6, 5]
        elif breakage == "nan in trunk.0.b":
            params["trunk.0.b"]["data"][2] = float("nan")
        elif breakage == "inf in heads.w":
            params["heads.w"]["data"][0] = float("inf")
        else:
            doc["net"]["hidden"] = [6, 0]
        with pytest.raises(ValueError, match=match):
            TrainedBundle.from_dict(doc)

    def test_declared_widths_are_checked_before_allocation(self):
        """Wide declared widths fail on the stored shapes before a net of those widths exists."""
        doc = ExplorNet(16, (4, 4), 2).to_dict()
        doc["hidden"] = [3000, 3000]  # 72 MB of trunk.1.w if it were allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"net param 'trunk.0.w' has shape \[4, 16\] and 64 values, expected \[3000, 16\]"):
                ExplorNet.from_dict(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_missing_part_for_method_rejected(self):
        ds = small_ds(seed=18)
        doc = train(ds, quick_net(its=2), quick_pl(), n_components=4).to_dict()
        doc["ensemble"] = None
        with pytest.raises(ValueError, match="no ensemble"):
            TrainedBundle.from_dict(doc)

    @pytest.mark.parametrize("method,part", [("erm", "ensemble"), ("pl_ens", "net")])
    def test_unused_part_for_method_rejected(self, method, part):
        """``score`` uses every part a bundle has, so a part the method does not deploy must not load."""
        ds = small_ds(seed=18)
        doc = dict(train(ds, quick_net(its=2), quick_pl(), n_components=4).to_dict(), method=method)
        with pytest.raises(ValueError, match=f"unused {part}"):
            TrainedBundle.from_dict(doc)

    @pytest.mark.parametrize("method", ["explor", "erm", "pl_ens"])
    def test_format_1_loads_and_scores_as_format_2(self, method):
        """A format-1 document adds per-labeler subsample indices and a second pseudo-label config; neither is read."""
        ds = small_ds(seed=21)
        if method == "explor":
            b = train(ds, quick_net(its=8), quick_pl(), n_components=4)
        elif method == "erm":
            b = train_erm(ds, quick_net(its=8), heads=3, n_components=4)
        else:
            b = train_pl_ens(ds, quick_pl(), n_components=4)
        v2 = json.loads(json.dumps(b.to_dict()))
        assert v2["format_version"] == 2 and "pl_config" not in v2
        v1 = json.loads(json.dumps(v2))
        v1["format_version"] = 1
        v1["pl_config"] = None if v2["ensemble"] is None else v2["ensemble"]["config"]
        for lab in [] if v1["ensemble"] is None else v1["ensemble"]["labelers"]:
            assert set(lab) == {"trees", "decision_threshold"}
            lab["instance_indices"] = list(range(0, ds.n, 2))
            lab["feature_indices"] = [0, 2]
        old = TrainedBundle.from_dict(v1)
        X = np.random.default_rng(22).standard_normal((25, ds.d))
        assert np.array_equal(predict(old, X), predict(b, X))
        # Re-saving a format-1 bundle writes exactly the format-2 document.
        assert json.dumps(old.to_dict(), sort_keys=True) == json.dumps(v2, sort_keys=True)

    @pytest.mark.parametrize("method", ["explor", "erm", "pl_ens"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predict_rejects_non_finite_features(self, method, bad):
        ds = small_ds(seed=24)
        if method == "explor":
            b = train(ds, quick_net(its=2), quick_pl(), n_components=4)
        elif method == "erm":
            b = train_erm(ds, quick_net(its=2), heads=2, n_components=4)
        else:
            b = train_pl_ens(ds, quick_pl(), n_components=4)
        X = np.zeros((4, ds.d))
        X[3, 1] = bad
        with pytest.raises(ValueError, match="row 3, column 1"):
            predict(b, X)

    def test_from_dict_rejects_unknown_version(self):
        ds = small_ds(seed=16)
        doc = train_pl_ens(ds, quick_pl(), n_components=4).to_dict()
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            TrainedBundle.from_dict(doc)

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "2", None])
    def test_from_dict_rejects_version_that_is_not_an_int(self, version):
        # A bool or a float compares equal to 1 or 2; only an int is a version.
        doc = train_pl_ens(small_ds(seed=16), quick_pl(), n_components=4).to_dict()
        doc["format_version"] = version
        with pytest.raises(ValueError, match="version"):
            TrainedBundle.from_dict(doc)


class TestNetConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"hidden": ()},
        {"hidden": (0,)},
        {"batch_size": 0},
        {"iterations": -1},
        {"learning_rate": 0.0},
        {"lambda_expand": -0.1},
        {"loss_mode": "other"},
        {"snapshot_interval": 0},
        {"lambda_expand": float("nan")},
        {"learning_rate": float("nan")},
        {"batch_size": float("nan")},
        {"iterations": float("nan")},
        {"snapshot_interval": float("nan")},
        {"iterations": True},
        {"hidden": (8, True)},
        {"learning_rate": True},
        {"lambda_expand": False},
        {"learning_rate": float("inf")},
        {"redraw_expansion_each_batch": 3},
        {"beta1": 1.0},
        {"beta2": -3.0},
        {"eps": 0.0},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            NetConfig(**kw)

    def test_numpy_floats_are_stored_as_floats(self):
        """A numpy float32 would reach the bundle's JSON, which cannot write it."""
        net_cfg = NetConfig(learning_rate=np.float32(0.5), eps=np.float64(1e-6))
        pl_cfg = PseudoLabelConfig(decision_threshold=np.float32(0.25))
        assert (type(net_cfg.learning_rate), type(net_cfg.eps), type(pl_cfg.decision_threshold)) == (float, float, float)
        assert (net_cfg.learning_rate, pl_cfg.decision_threshold) == (0.5, 0.25)
        json.dumps([asdict(net_cfg), asdict(pl_cfg)])

    def test_zero_iterations_allowed(self):
        assert NetConfig(iterations=0).iterations == 0


def stump(**over):
    """A valid one-split tree's node arrays, with ``over`` replacing some of them."""
    return dict({"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.5, 0.0, 1.0]}, **over)


class TestIntegerFields:
    """An integer field takes a Python or numpy int; a float or a bool is an error, never truncated."""

    @pytest.mark.parametrize("cls,kw", [
        (ExplorNet, {"input_dim": 3, "hidden": (4, False), "heads": 2}),
        (Tree, stump(right=np.array([2.0, -1.0, -1.0]))),
        (Tree, stump(feature=[2**32, -1, -1])),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_rejects(self, cls, kw):
        with pytest.raises(ValueError, match="integer"):
            cls(**kw)

    def test_numpy_ints_are_stored_as_ints(self):
        net_cfg = NetConfig(batch_size=np.int64(16), hidden=(np.int32(8),))
        pl_cfg = PseudoLabelConfig(k=np.uint8(3))
        assert (type(net_cfg.batch_size), type(net_cfg.hidden[0]), type(pl_cfg.k)) == (int, int, int)
        assert Tree(**stump(feature=np.array([0, -1, -1], dtype=np.int64))).feature.dtype == np.int32
