import numpy as np
import pytest

from dialectid.data import DEFAULT_LABELS, Domain
from dialectid.errors import ValidationError
from dialectid.synth import SynthConfig, SynthDataset, generate


class TestConfig:
    def test_defaults_use_paper_label_names(self):
        assert SynthConfig().labels == DEFAULT_LABELS

    def test_other_counts_get_generic_names(self):
        assert SynthConfig(num_dialects=3).labels == ("D00", "D01", "D02")

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(dim=0)
        with pytest.raises(ValidationError):
            SynthConfig(n_trn=0)
        with pytest.raises(ValidationError):
            SynthConfig(within_std=-1.0)

    def test_default_mismatch_ratio(self):
        cfg = SynthConfig()
        assert cfg.channel_std == pytest.approx(2.0 * cfg.within_std)


class TestGenerate:
    def test_shapes_domains_labels(self):
        ds = generate(SynthConfig(seed=0))
        assert len(ds.trn) == 5 * 40 and len(ds.dev) == 5 * 15 and len(ds.tst) == 5 * 30
        assert {u.domain for u in ds.trn.utterances} == {Domain.TRN}
        assert {u.domain for u in ds.dev.utterances} == {Domain.DEV}
        assert {u.domain for u in ds.tst.utterances} == {Domain.TST}
        for split in (ds.trn, ds.dev, ds.tst):
            assert len(set(split.ids)) == len(split)
            assert np.isfinite(split.vectors).all()

    def test_zero_noise_collapses_to_dialect_means(self):
        ds = generate(SynthConfig(seed=1, within_std=0.0, channel_std=0.0))
        for i, utt in enumerate(ds.trn.utterances):
            k = ds.labels.index(utt.label)
            np.testing.assert_array_equal(ds.trn.vectors[i], ds.dialect_means[k])

    def test_zero_channel_matches_trn_distribution(self):
        ds = generate(SynthConfig(seed=2, channel_std=0.0, n_trn=400, n_dev=400))
        np.testing.assert_array_equal(ds.channel_offset, 0.0)
        for k, lab in enumerate(ds.labels):
            trn_mean = ds.trn.vectors[ds.trn.indices_for_label(lab)].mean(axis=0)
            dev_mean = ds.dev.vectors[ds.dev.indices_for_label(lab)].mean(axis=0)
            assert np.linalg.norm(trn_mean - dev_mean) < 0.4

    def test_deterministic_per_seed(self):
        a = generate(SynthConfig(seed=3))
        b = generate(SynthConfig(seed=3))
        np.testing.assert_array_equal(a.trn.vectors, b.trn.vectors)
        np.testing.assert_array_equal(a.tst.vectors, b.tst.vectors)
        assert a.trn.ids == b.trn.ids

    def test_seed_changes_data(self):
        a = generate(SynthConfig(seed=4))
        b = generate(SynthConfig(seed=5))
        assert not np.array_equal(a.trn.vectors, b.trn.vectors)

    def test_dev_and_tst_share_one_offset(self):
        cfg = SynthConfig(seed=6, within_std=0.0)
        ds = generate(cfg)
        for split in (ds.dev, ds.tst):
            for i, utt in enumerate(split.utterances):
                k = ds.labels.index(utt.label)
                np.testing.assert_allclose(
                    split.vectors[i], ds.dialect_means[k] + ds.channel_offset
                )
