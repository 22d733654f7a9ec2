import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid.data import Domain, IVectorSet, Utterance
from dialectid.errors import NumericError, ValidationError
from dialectid import siamese
from dialectid.siamese import (
    BATCH_SIZE,
    FORWARD_ROWS,
    LEARNING_RATE,
    MOMENTUM,
    TrainConfig,
    _forward_batch,
    forward_batch,
    grad,
    init_params,
    sample_pairs,
    train,
)
from dialectid.synth import SynthConfig, generate

from helpers import make_set


def tiny_params(seed):
    # the least input dim: 336 parameters, few enough for finite differences on each
    return init_params(22, 4, seed)


def reference_embedding(params, x):
    """The stack written out as loops: two tanh valid convs (stride 2), then dense."""
    a = x[None, :]
    for w, b in zip(params.weights[:2], params.biases[:2]):
        cout, _, kernel = w.shape
        t_out = (a.shape[1] - kernel) // 2 + 1
        a = np.tanh([[b[o] + (w[o] * a[:, 2 * t:2 * t + kernel]).sum() for t in range(t_out)]
                     for o in range(cout)])
    return params.weights[2] @ a.reshape(-1) + params.biases[2]


def squared_cosine_residual(params, xa, xb, y):
    """(y - cos)^2 of the two rows' embeddings, from `forward_batch`."""
    ea, eb = forward_batch(params, np.stack([xa, xb]))
    return (y - cosine(ea, eb)) ** 2


class TestArch:
    def test_default_shapes(self):
        p = init_params(400, 200)
        assert (p.input_dim, p.output_dim) == (400, 200)
        assert [w.shape for w in p.weights] == [(4, 1, 8), (8, 4, 8), (200, 8 * 95)]
        assert [b.shape for b in p.biases] == [(4,), (8,), (200,)]
        _, (_, a1, a2, _) = _forward_batch(p, np.zeros((3, 400)))
        assert a1.shape == (3, 4, 197) and a2.shape == (3, 8, 95)

    @pytest.mark.parametrize("dims", [(21, 4), (22, 0), (22, 23)],
                             ids=["dim-21", "out-dim-0", "out-dim-above-dim"])
    def test_dims_out_of_range_rejected(self, dims):
        with pytest.raises(ValidationError):
            init_params(*dims)


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = tiny_params(9)
        b = tiny_params(9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_seed_changes_values(self):
        a = tiny_params(1)
        b = tiny_params(2)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_fan_in_bound_and_zero_biases(self):
        p = init_params(400, 200)
        lim0 = np.sqrt(6.0 / (1 * 8))
        assert np.abs(p.weights[0]).max() <= lim0
        for b in p.biases:
            np.testing.assert_array_equal(b, 0.0)


class TestForward:
    def test_zero_params_give_zero_embedding(self):
        p = tiny_params(0)
        p = p.replace_arrays([np.zeros_like(w) for w in p.weights],
                             [np.zeros_like(b) for b in p.biases])
        out = forward_batch(p, np.arange(22.0)[None, :])
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_default_stack_output_length(self):
        p = init_params(400, 200)
        out = forward_batch(p, np.zeros((3, 400)))
        assert out.shape == (3, 200)

    @pytest.mark.parametrize("dims", [(400, 200), (22, 4)], ids=["default", "tiny"])
    def test_empty_batch_gives_empty_embedding(self, dims):
        p = init_params(*dims)
        out = forward_batch(p, np.empty((0, dims[0])))
        assert out.shape == (0, dims[1])

    def test_identity_dense_layer(self):
        # with the identity as dense layer, the embedding is conv 2's flattened tanh
        # output, here against the stack written out as loops
        for dim in (22, 31):
            rng = np.random.default_rng(dim)
            p = init_params(dim, 8, seed=dim)
            p = p.replace_arrays(p.weights[:2] + (np.eye(8, p.weights[2].shape[1]),),
                                 [rng.normal(size=4), rng.normal(size=8), np.zeros(8)])
            X = rng.normal(size=(3, dim))
            for x, e in zip(X, forward_batch(p, X)):
                np.testing.assert_allclose(e, reference_embedding(p, x), rtol=0, atol=1e-12)

    def test_dim_mismatch(self):
        p = tiny_params(0)
        with pytest.raises(ValidationError):
            forward_batch(p, np.zeros((1, 23)))
        with pytest.raises(ValidationError):
            forward_batch(p, np.zeros(22))

    @settings(max_examples=30, deadline=None)
    @given(n1=st.integers(0, 5), n2=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_stacked_blocks_match_separate_blocks(self, n1, n2, seed):
        # the stacked twin batch in `grad` relies on rows not mixing
        rng = np.random.default_rng(seed)
        p = tiny_params(seed % 1000)
        x1, x2 = rng.normal(size=(n1, 22)), rng.normal(size=(n2, 22))
        both = forward_batch(p, np.concatenate([x1, x2]))
        np.testing.assert_allclose(both[:n1], forward_batch(p, x1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(both[n1:], forward_batch(p, x2), rtol=0, atol=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([0, 1, 255, 256, 257, 515]), seed=st.integers(0, 2**32 - 1))
    def test_blocked_rows_match_one_pass(self, n, seed):
        assert FORWARD_ROWS == 256  # the sizes straddle one and two block edges
        p = init_params(40, 6, seed % 1000)
        X = np.random.default_rng(seed).normal(size=(n, 40))
        one_pass, _ = _forward_batch(p, X)
        np.testing.assert_allclose(forward_batch(p, X), one_pass, rtol=0, atol=1e-12)

    def test_working_memory_does_not_grow_with_rows(self):
        # one pass over 2000 x 400 rows holds about 90 MB of column matrices
        # and layer caches; FORWARD_ROWS blocks hold about 10 MB at a time
        p = init_params(400, 200)
        X = np.random.default_rng(0).normal(size=(2000, 400))
        tracemalloc.start()
        try:
            out = forward_batch(p, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (2000, 200)
        assert peak < 30e6, peak


def cosine(e1, e2):
    return float(np.dot(e1, e2) / (np.linalg.norm(e1) * np.linalg.norm(e2)))


class TestPairDistanceLoss:
    def test_orthogonal(self):
        # a dense layer that maps the pair's conv features to (1, 0, 0, 0) and
        # (0, 2, 0, 0): orthogonal embeddings, so a positive pair loses 1
        rng = np.random.default_rng(3)
        p = tiny_params(3)
        x = rng.normal(size=(2, 22))
        _, (_, _, _, flat) = _forward_batch(p, x)
        dense = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]]) @ np.linalg.pinv(flat.T)
        p = p.replace_arrays(p.weights[:2] + (dense,), p.biases)
        ea, eb = forward_batch(p, x)
        assert abs(cosine(ea, eb)) < 1e-12
        loss = grad(p, x[:1], x[1:], np.array([1]))[2]
        assert loss == pytest.approx(squared_cosine_residual(p, x[0], x[1], 1.0), abs=1e-15)
        assert loss == pytest.approx(1.0)

    def test_antipodal(self):
        # tanh is odd and the biases start at zero, so -x embeds to minus x's embedding
        x = np.random.default_rng(4).normal(size=22)
        p = tiny_params(4)
        loss = grad(p, x[None, :], -x[None, :], np.array([-1]))[2]
        assert loss == pytest.approx(squared_cosine_residual(p, x, -x, -1.0), abs=1e-15)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_twin_symmetry(self):
        rng = np.random.default_rng(0)
        p = tiny_params(0)
        x = rng.normal(size=(2, 22))
        ea, eb = forward_batch(p, x)
        assert cosine(ea, eb) == cosine(eb, ea)
        # swapping the twins leaves the pair loss unchanged
        y = np.array([1.0])
        assert grad(p, x[:1], x[1:], y)[2] == grad(p, x[1:], x[:1], y)[2]

    def test_loss_bounds(self):
        rng = np.random.default_rng(1)
        p = tiny_params(1)
        for _ in range(50):
            x = rng.normal(size=(2, 22))
            for y in (1.0, -1.0):
                assert 0.0 <= grad(p, x[:1], x[1:], np.array([y]))[2] <= 4.0


def fd_check(params, xa, xb, y, step=1e-5, rtol=1e-4, afloor=1e-7):
    """Central finite differences on every coordinate of every parameter."""
    gw, gb, _ = grad(params, xa, xb, y)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]

    def loss_at():
        p = params.replace_arrays([w.copy() for w in weights], [b.copy() for b in biases])
        _, _, val = grad(p, xa, xb, y)
        return val

    worst = 0.0
    for arrays, grads in ((weights, gw), (biases, gb)):
        for arr, g in zip(arrays, grads):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_at()
                flat[i] = orig - step
                down = loss_at()
                flat[i] = orig
                fd = (up - down) / (2 * step)
                diff = abs(gflat[i] - fd)
                if diff > afloor:
                    rel = diff / max(abs(gflat[i]), abs(fd))
                    worst = max(worst, rel)
    return worst, rtol


class TestGrad:
    def test_zero_loss_gives_zero_gradient(self):
        # an identical pair with y=+1: cosine 1, so no loss and no gradient
        v = np.random.default_rng(7).normal(size=(1, 22))
        p = tiny_params(7)
        gw, gb, loss = grad(p, v, v, np.array([1]))
        assert loss == pytest.approx(squared_cosine_residual(p, v[0], v[0], 1.0), abs=1e-15)
        assert loss == pytest.approx(0.0, abs=1e-15)
        for g in gw + gb:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        p = tiny_params(5)
        y = rng.choice([1, -1], size=3)
        ab = rng.normal(size=(3, 2, 22))  # a then b for each pair, as drawn before
        worst, rtol = fd_check(p, ab[:, 0], ab[:, 1], y)
        assert worst < rtol, worst

    def test_duplicated_pair_equals_single(self):
        rng = np.random.default_rng(6)
        p = tiny_params(6)
        a, b, y = rng.normal(size=(1, 22)), rng.normal(size=(1, 22)), np.array([1])
        gw1, gb1, l1 = grad(p, a, b, y)
        gw2, gb2, l2 = grad(p, np.repeat(a, 2, axis=0), np.repeat(b, 2, axis=0),
                            np.repeat(y, 2))
        assert l1 == pytest.approx(l2)
        for a, b in zip(gw1, gw2):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_empty_batch_errors(self):
        with pytest.raises(ValidationError):
            grad(tiny_params(0), np.empty((0, 22)), np.empty((0, 22)),
                 np.empty(0))

    @pytest.mark.parametrize("bad", [0, 2])
    def test_label_not_plus_minus_one_errors(self, bad):
        x = np.random.default_rng(0).normal(size=(2, 22))
        with pytest.raises(ValidationError):
            grad(tiny_params(0), x, x[::-1], np.array([1, bad]))

    def test_misaligned_pairs_error(self):
        p = tiny_params(0)
        x = np.random.default_rng(0).normal(size=(3, 22))
        with pytest.raises(ValidationError):
            grad(p, x, x[:2], np.array([1, -1, 1]))
        with pytest.raises(ValidationError):
            grad(p, x, x, np.array([1, -1]))
        with pytest.raises(ValidationError):
            grad(p, x[:, :21], x[:, :21], np.array([1, -1, 1]))


def reference_sample_pairs(data, n_pairs, positive_fraction=0.5, seed=0, dev_emphasis=0.0):
    """The pair draw as a loop of two `Generator.choice(p=...)` calls per pair
    (anchor, then partner), kept as the reference for `sample_pairs`."""
    labeled = np.flatnonzero([u.label is not None for u in data.utterances])
    lab = np.array([data.utterances[i].label for i in labeled])
    n_pos = int(round(n_pairs * positive_fraction))
    weights = np.where([data.utterances[i].domain is Domain.DEV for i in labeled],
                       1.0 + dev_emphasis, 1.0)
    rng = np.random.default_rng(seed)
    ia = np.empty(n_pairs, dtype=np.int64)
    ib = np.empty(n_pairs, dtype=np.int64)
    for k in range(n_pairs):
        at = rng.choice(len(labeled), p=weights / weights.sum())
        ia[k] = labeled[at]
        if k < n_pos:
            pool, w = labeled[lab == lab[at]], weights[lab == lab[at]]
            keep = pool != ia[k]
            pool, p = pool[keep], w[keep] / w[keep].sum()
        else:
            pool, w = labeled[lab != lab[at]], weights[lab != lab[at]]
            p = w / w.sum()
        ib[k] = rng.choice(pool, p=p)
    return ia, ib, np.repeat([1, -1], [n_pos, n_pairs - n_pos])


class TestSamplePairs:
    def _data(self, n_per=4):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3 * n_per, 6))
        labels = ["A"] * n_per + ["B"] * n_per + ["C"] * n_per
        return make_set(X, labels=labels)

    def test_all_positive(self):
        ia, ib, y = sample_pairs(self._data(), 20, positive_fraction=1.0, seed=0)
        assert len(ia) == len(ib) == len(y) == 20
        assert np.all(y == 1)

    def test_exact_composition(self):
        _, _, y = sample_pairs(self._data(), 1000, positive_fraction=0.5, seed=0)
        np.testing.assert_array_equal(y, [1] * 500 + [-1] * 500)

    def test_deterministic(self):
        p1 = sample_pairs(self._data(), 50, seed=3)
        p2 = sample_pairs(self._data(), 50, seed=3)
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    def test_positive_pairs_share_dialect(self):
        data = self._data()
        labels = np.array([u.label for u in data.utterances])
        ia, ib, y = sample_pairs(data, 60, positive_fraction=0.5, seed=1)
        np.testing.assert_array_equal(labels[ia] == labels[ib], y == 1)
        assert np.all(ia != ib)

    def test_pinned_draws(self):
        # mixed TRN/DEV rows with one unlabeled row (index 2), which no pair
        # may use; the indices are the draws this seed has always given
        X = np.arange(11 * 3, dtype=float).reshape(11, 3)
        trn = make_set(X[:6], labels=["A", "B", None, "A", "C", "B"], domain=Domain.TRN,
                       prefix="t")
        dev = make_set(X[6:], labels=["C", "A", "B", "C", "A"], domain=Domain.DEV, prefix="d")
        ia, ib, y = sample_pairs(trn.concat(dev), 9, positive_fraction=0.5, seed=7,
                                 dev_emphasis=1.5)
        np.testing.assert_array_equal(ia, [8, 9, 6, 0, 9, 6, 5, 7, 10])
        np.testing.assert_array_equal(ib, [5, 4, 9, 10, 7, 5, 7, 8, 9])
        np.testing.assert_array_equal(y, [1, 1, 1, 1, -1, -1, -1, -1, -1])

    def test_singleton_dialect_blocks_positives(self):
        X = np.eye(3)
        data = make_set(X, labels=["A", "A", "B"])
        with pytest.raises(ValidationError):
            sample_pairs(data, 10, positive_fraction=0.5, seed=0)
        # but a purely negative draw is fine
        _, _, y = sample_pairs(data, 10, positive_fraction=0.0, seed=0)
        assert np.all(y == -1)

    def test_dev_emphasis_shifts_sampling(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 4))
        trn = make_set(X[:20], labels=["A"] * 10 + ["B"] * 10, domain=Domain.TRN, prefix="t")
        dev = make_set(X[20:], labels=["A"] * 10 + ["B"] * 10, domain=Domain.DEV, prefix="d")
        data = trn.concat(dev)

        def dev_rate(emphasis):
            ia, ib, _ = sample_pairs(data, 400, seed=0, dev_emphasis=emphasis)
            rows = np.concatenate([ia, ib])
            return float((rows >= 20).mean())  # rows 20 and up are DEV

        assert dev_rate(0.0) == pytest.approx(0.5, abs=0.06)
        assert dev_rate(3.0) > dev_rate(0.0) + 0.15

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_choice_loop(self, data):
        n = data.draw(st.integers(4, 30))
        labels = data.draw(st.lists(st.sampled_from(["A", "B", "C", None]), min_size=n,
                                    max_size=n))
        fraction = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
        counts = {d: labels.count(d) for d in set(labels) - {None}}
        if fraction > 0 and min(counts.values(), default=0) < 2:
            fraction = 0.0  # a dialect with one row has no positive partner
        if fraction < 1 and len(counts) < 2:
            return  # and a single dialect has no negative one
        domains = data.draw(st.lists(st.sampled_from([Domain.TRN, Domain.DEV]), min_size=n,
                                     max_size=n))
        dataset = IVectorSet(tuple(Utterance("u%d" % i, dom, lab) for i, (dom, lab)
                                   in enumerate(zip(domains, labels))), np.zeros((n, 2)))
        kwargs = dict(n_pairs=data.draw(st.integers(0, 60)), positive_fraction=fraction,
                      seed=data.draw(st.integers(0, 2**32 - 1)),
                      dev_emphasis=data.draw(st.sampled_from([0.0, 0.5, 2.5, 1e6])))
        for got, want in zip(sample_pairs(dataset, **kwargs),
                             reference_sample_pairs(dataset, **kwargs)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestTrain:
    def test_zero_learning_rate_keeps_params(self, monkeypatch):
        monkeypatch.setattr(siamese, "LEARNING_RATE", 0.0)
        ds = generate(SynthConfig(dim=24, seed=0, n_trn=6, n_dev=2, n_tst=2))
        p = init_params(24, 4, seed=0)
        out, hist = train(p, ds.trn, TrainConfig(epochs=2, n_pairs=40, seed=0))
        for a, b in zip(p.weights, out.weights):
            np.testing.assert_array_equal(a, b)
        assert len(hist) == 2

    def test_single_step_equals_manual_update(self):
        ds = generate(SynthConfig(dim=24, seed=1, n_trn=4, n_dev=2, n_tst=2))
        p = init_params(24, 4, seed=1)
        cfg = TrainConfig(epochs=1, n_pairs=8, seed=4)
        assert cfg.n_pairs <= BATCH_SIZE  # one batch, so one step from zero velocity
        out, hist = train(p, ds.trn, cfg)
        # reproduce by hand: one batch of all 8 pairs in shuffled order
        ia, ib, y = sample_pairs(ds.trn, 8, positive_fraction=0.5, seed=4, dev_emphasis=0.0)
        order = np.random.default_rng(5).permutation(8)  # seed+1 inside train
        X = ds.trn.vectors
        gw, gb, loss = grad(p, X[ia[order]], X[ib[order]], y[order])
        assert hist == [pytest.approx(loss)]
        for w, g, got in zip(p.weights, gw, out.weights):
            np.testing.assert_allclose(got, w - LEARNING_RATE * g, atol=1e-15)

    def test_second_step_carries_momentum(self):
        # two epochs of one batch each: the second step adds MOMENTUM times the first
        ds = generate(SynthConfig(dim=24, seed=1, n_trn=4, n_dev=2, n_tst=2))
        p = init_params(24, 4, seed=1)
        out, hist = train(p, ds.trn, TrainConfig(epochs=2, n_pairs=8, seed=4))
        ia, ib, y = sample_pairs(ds.trn, 8, seed=4)
        rng = np.random.default_rng(5)  # seed+1 inside train
        X = ds.trn.vectors
        arrays = [a.copy() for a in p.weights + p.biases]
        velocity = [np.zeros_like(a) for a in arrays]
        current = p
        for _ in range(2):
            order = rng.permutation(8)
            gw, gb, _ = grad(current, X[ia[order]], X[ib[order]], y[order])
            for a, v, g in zip(arrays, velocity, gw + gb):
                v[...] = MOMENTUM * v - LEARNING_RATE * g
                a += v
            current = p.replace_arrays(arrays[:3], arrays[3:])
        assert len(hist) == 2
        for want, got in zip(current.weights + current.biases, out.weights + out.biases):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_loss_decreases_on_cluster_data(self):
        wins = 0
        for seed in range(5):
            ds = generate(SynthConfig(dim=24, seed=seed, n_trn=20, n_dev=5, n_tst=5))
            p = init_params(24, 8, seed=seed)
            _, hist = train(p, ds.trn, TrainConfig(epochs=6, n_pairs=400, seed=seed))
            wins += hist[-1] < hist[0]
        assert wins == 5

    def test_divergence_aborts_with_history(self, monkeypatch):
        # one absurd step sends embedding dot products past float max, so the
        # next batch sees a nan cosine and training must abort with history
        monkeypatch.setattr(siamese, "LEARNING_RATE", 1e200)
        ds = generate(SynthConfig(dim=24, seed=2, n_trn=6, n_dev=2, n_tst=2))
        p = init_params(24, 4, seed=2)
        with pytest.raises(NumericError) as exc:
            train(p, ds.trn, TrainConfig(epochs=2, n_pairs=128, seed=0))
        assert isinstance(exc.value.history, list)

    @pytest.mark.parametrize("field, bad, least", [("epochs", -1, 0), ("n_pairs", 0, 1)])
    def test_counts_name_their_field_and_bound(self, field, bad, least):
        with pytest.raises(ValidationError) as exc:
            TrainConfig(**{field: bad})
        assert str(exc.value) == "%s must be at least %d, got %d" % (field, least, bad)
        TrainConfig(**{field: least})  # the bound itself is allowed

    def test_overflowing_step_aborts_with_history(self, monkeypatch):
        # the largest finite step times a gradient entry above 1 overflows, so
        # the first step makes the parameters themselves non-finite
        monkeypatch.setattr(siamese, "LEARNING_RATE", np.finfo(np.float64).max)
        ds = generate(SynthConfig(dim=24, seed=1, n_trn=6, n_dev=2, n_tst=2))
        p = init_params(24, 4, seed=1)
        cfg = TrainConfig(epochs=2, n_pairs=128, seed=0)
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                        match="non-finite parameters") as exc:
            train(p, ds.trn, cfg)
        assert exc.value.history == []

    def test_overflowing_last_step_aborts_with_history(self, monkeypatch):
        # one batch: the step that overflows is the last one, after which no
        # further batch would see the non-finite parameters
        monkeypatch.setattr(siamese, "LEARNING_RATE", np.finfo(np.float64).max)
        ds = generate(SynthConfig(dim=24, seed=1, n_trn=6, n_dev=2, n_tst=2))
        p = init_params(24, 4, seed=1)
        cfg = TrainConfig(epochs=1, n_pairs=64, seed=0)
        assert BATCH_SIZE >= cfg.n_pairs
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                        match="non-finite parameters") as exc:
            train(p, ds.trn, cfg)
        assert exc.value.history == []
