"""Network primitives, manual gradients, Adam, and the training loops.

Gradient correctness is established against central finite differences on
randomized small networks, with resampling guards that keep every batch away
from the absolute-value kink of the mean term. The Adam oracle is the
textbook update written as an independent scalar loop.
"""

import json
import math

import numpy as np
import pytest

from explor.data import Dataset, make_synthetic_radial
from explor.model import (
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
from explor.pseudolabel import PseudoLabelConfig


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
        with np.errstate(over="ignore"):  # elu_grad(800) is exp(800) in both forms
            for x in (rng.standard_normal((256, 64)), 40.0 * rng.standard_normal((256, 64)), edge):
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


# ------------------------------------------------------------------- adam

def test_adam_matches_scalar_oracle():
    net = ExplorNet(1, (1,), 1, seed=0)
    net.params["heads.w"][:] = 0.25
    cfg = NetConfig(hidden=(1,), learning_rate=0.05, beta1=0.9, beta2=0.999, eps=1e-8, seed=0)
    opt = Adam(net, cfg)
    grad_steps = [1.0, -0.5, 2.0]
    for g in grad_steps:
        grads = {name: np.full_like(p, g) for name, p in net.params.items()}
        opt.step(grads)

    theta, m, v = 0.25, 0.0, 0.0
    for t, g in enumerate(grad_steps, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        theta -= 0.05 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(net.params["heads.w"][0, 0] - theta) < 1e-15


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
        from explor.latent import encode

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
        from explor.latent import encode

        probs = sigmoid(b.net.logits(encode(b.latent_map, X)))
        assert np.array_equal(predict(b, X), probs.mean(axis=1))


class TestPlEns:
    def test_predict_is_ensemble_mean(self):
        ds = small_ds(seed=13)
        b = train_pl_ens(ds, quick_pl(seed=3, k=5), n_components=4)
        X = np.random.default_rng(17).standard_normal((15, ds.d))
        from explor.latent import encode

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
        from explor.latent import encode

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
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            NetConfig(**kw)

    def test_zero_iterations_allowed(self):
        assert NetConfig(iterations=0).iterations == 0
