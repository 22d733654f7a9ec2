import numpy as np
import pytest

from dialectid.errors import NumericError, ValidationError
from dialectid.synth import SynthConfig, generate
from dialectid.whitening import (
    WhiteningChain,
    WhiteningStage,
    apply_chain,
    apply_stage,
    fit_recursive_chain,
    fit_whitener,
    length_normalize,
)

from helpers import make_set, sample_cov


class TestFitWhitener:
    def test_already_white_data_gives_identity(self):
        # four points with exact zero mean and identity covariance
        X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        stage = fit_whitener(make_set(X), ridge=0.0)
        np.testing.assert_allclose(stage.mean, 0.0, atol=1e-15)
        np.testing.assert_allclose(stage.matrix, np.eye(2), atol=1e-12)

    def test_known_gaussian_whitens(self):
        # oracle: recompute the covariance of the transformed points directly
        rng = np.random.default_rng(42)
        X = rng.normal(size=(200, 2)) * np.array([2.0, 1.0])  # cov ~ diag(4, 1)
        stage = fit_whitener(make_set(X), ridge=0.0)
        Z = apply_stage(stage, X)
        np.testing.assert_allclose(sample_cov(Z), np.eye(2), atol=0.15)
        assert np.linalg.norm(sample_cov(Z) - np.eye(2)) < 0.15

    def test_exact_whitening_on_fit_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        stage = fit_whitener(make_set(X), ridge=0.0)
        Z = apply_stage(stage, X)
        assert np.linalg.norm(sample_cov(Z) - np.eye(5)) < 1e-6
        assert np.abs(Z.mean(axis=0)).max() < 1e-8

    def test_matrix_symmetric_positive_definite(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        stage = fit_whitener(make_set(X))
        np.testing.assert_allclose(stage.matrix, stage.matrix.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(stage.matrix) > 0)

    def test_identical_points_singular(self):
        X = np.ones((2, 3))
        with pytest.raises(NumericError):
            fit_whitener(make_set(X), ridge=0.0)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            fit_whitener(make_set(np.ones((1, 3))))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValidationError):
            fit_whitener(make_set(np.eye(3)), ridge=-1.0)


class TestApplyStage:
    def test_identity_stage(self):
        stage = WhiteningStage(mean=np.zeros(2), matrix=np.eye(2))
        v = np.array([3.0, -1.0])
        np.testing.assert_array_equal(apply_stage(stage, v), v)

    def test_centering(self):
        stage = WhiteningStage(mean=np.ones(2), matrix=np.eye(2))
        np.testing.assert_array_equal(apply_stage(stage, np.ones(2)), np.zeros(2))

    def test_scaling(self):
        stage = WhiteningStage(mean=np.zeros(2), matrix=2 * np.eye(2))
        np.testing.assert_array_equal(apply_stage(stage, np.array([1.0, 0.0])),
                                      np.array([2.0, 0.0]))

    def test_dim_mismatch(self):
        stage = WhiteningStage(mean=np.zeros(2), matrix=np.eye(2))
        with pytest.raises(ValidationError):
            apply_stage(stage, np.zeros(3))


class TestLengthNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(length_normalize(np.array([3.0, 4.0])),
                                   np.array([0.6, 0.8]))

    def test_unit_vector_fixed_point(self):
        u = np.array([0.6, 0.8])
        np.testing.assert_allclose(length_normalize(u), u, atol=1e-15)

    def test_zero_vector_errors(self):
        with pytest.raises(NumericError):
            length_normalize(np.zeros(2))

    def test_batch(self):
        X = np.array([[3.0, 4.0], [0.0, 2.0]])
        out = length_normalize(X)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)


def chain_residuals(chain, X):
    """Oracle: covariance distance to identity after each (stage, normalize) step."""
    residuals = []
    cur = np.asarray(X, dtype=float)
    for stage in chain.stages:
        cur = length_normalize(apply_stage(stage, cur))
        residuals.append(np.linalg.norm(sample_cov(cur) - np.eye(cur.shape[1])))
    return residuals


class TestRecursiveChain:
    def test_depth_one_matches_single_whitener(self):
        ds = generate(SynthConfig(seed=1))
        chain = fit_recursive_chain(ds.trn, ds.dev, depth=1, ridge=0.0)
        stage = fit_whitener(ds.trn, ridge=0.0)
        np.testing.assert_array_equal(chain.stages[0].mean, stage.mean)
        np.testing.assert_array_equal(chain.stages[0].matrix, stage.matrix)
        assert chain.depth == 1
        v = ds.tst.vectors[0]
        np.testing.assert_array_equal(
            apply_chain(chain, v), length_normalize(apply_stage(stage, v))
        )

    def test_depth_three_fits_three_stages(self):
        ds = generate(SynthConfig(seed=2))
        chain = fit_recursive_chain(ds.trn, ds.dev, depth=3)
        assert chain.depth == 3

    def test_stagewise_fit_uses_transformed_matched_set(self):
        # stage 2 must whiten the matched set exactly after stage 1 + normalize
        ds = generate(SynthConfig(seed=3))
        chain = fit_recursive_chain(ds.trn, ds.dev, depth=2, ridge=0.0)
        step1 = length_normalize(apply_stage(chain.stages[0], ds.dev.vectors))
        step2 = apply_stage(chain.stages[1], step1)
        assert np.linalg.norm(sample_cov(step2) - np.eye(ds.trn.dim)) < 1e-8

    def test_monotone_residual_over_seeds(self):
        for seed in range(10):
            ds = generate(SynthConfig(seed=seed))
            chain = fit_recursive_chain(ds.trn, ds.dev, depth=3)
            r = chain_residuals(chain, ds.dev.vectors)
            assert all(r[i] >= r[i + 1] - 1e-9 for i in range(len(r) - 1)), (seed, r)

    def test_empty_matched_errors(self):
        ds = generate(SynthConfig(seed=0))
        empty = ds.dev.subset(np.array([], dtype=int))
        with pytest.raises(ValidationError):
            fit_recursive_chain(ds.trn, empty, depth=2)

    def test_depth_bounds(self):
        ds = generate(SynthConfig(seed=0))
        with pytest.raises(ValidationError):
            fit_recursive_chain(ds.trn, ds.dev, depth=0)
        with pytest.raises(ValidationError):
            fit_recursive_chain(ds.trn, ds.dev, depth=4)


class TestApplyChain:
    def test_single_identity_stage_reduces_to_normalize(self):
        chain = WhiteningChain(
            stages=(WhiteningStage(mean=np.zeros(2), matrix=np.eye(2)),),
        )
        np.testing.assert_allclose(apply_chain(chain, np.array([3.0, 4.0])),
                                   np.array([0.6, 0.8]))

    def test_output_always_unit_norm(self):
        rng = np.random.default_rng(7)
        ds = generate(SynthConfig(seed=7))
        chain = fit_recursive_chain(ds.trn, ds.dev, depth=3)
        X = rng.normal(size=(50, ds.trn.dim))
        out = apply_chain(chain, X)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_depth_two_matches_hand_computation(self):
        # tiny 2-D instance worked through with plain matrix arithmetic
        primary = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        matched = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]])
        chain = fit_recursive_chain(make_set(primary), make_set(matched), depth=2, ridge=0.0)

        def whiten_oracle(X):
            mu = X.mean(axis=0)
            C = sample_cov(X)
            vals, vecs = np.linalg.eigh(C)
            M = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
            return mu, M

        mu1, M1 = whiten_oracle(primary)
        step1 = (matched - mu1) @ M1.T
        step1 = step1 / np.linalg.norm(step1, axis=1, keepdims=True)
        mu2, M2 = whiten_oracle(step1)

        v = np.array([0.5, -0.25])
        expect = (v - mu1) @ M1.T
        expect = expect / np.linalg.norm(expect)
        expect = (expect - mu2) @ M2.T
        expect = expect / np.linalg.norm(expect)
        np.testing.assert_allclose(apply_chain(chain, v), expect, atol=1e-12)
