"""The trained back end and its model directory.

A `Backend` is the paper's fixed processing chain: a recursive whitening
chain (each stage followed by length normalization), then an optional
projection (LDA followed by length normalization, or the twin-network
embedding), then a scorer (cosine dialect models or a linear SVM).
Training and scoring both go through this object, so the order is written
once, and `save`/`load` are the only code that knows the artifact payload.

A model directory holds one artifact, ``model.json`` (kind ``"model"``).
Its payload maps ``"flags"`` to the training flags, ``"chain"`` to the
whitening chain, ``"lda"`` or ``"siamese"`` to the projection of the
``lda_cds`` or ``siam_cds`` recipe, and ``"svm"`` (``baseline_svm``) or
``"models"`` (the cosine recipes) to the scorer. Each stage entry is its
dataclass's own fields, with arrays and tuples as JSON lists, nested
dataclasses as objects, and a ``"type"`` tag (``"conv1d"`` or ``"dense"``)
on each twin-network layer. The artifact carries the fingerprint of the
flags, which `load` verifies, and the recipe in the flags says which stage
entries `load` reads.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import dialect_model, fileio, lda, siamese, svm, whitening
from .data import IVectorSet
from .errors import FormatError, ValidationError

RECIPES = ("baseline_svm", "cds", "lda_cds", "siam_cds")

MODEL_FILE = "model.json"
_LAYER_TYPES = {"conv1d": siamese.Conv1d, "dense": siamese.Dense}
_LAYER_TAGS = {cls: tag for tag, cls in _LAYER_TYPES.items()}
# the payload key of each projection and scorer type
_STAGE_KEYS = {lda.LdaProjection: "lda", siamese.SiameseParams: "siamese",
               svm.LinearSvmModel: "svm", dialect_model.DialectModelSet: "models"}

Projection = Optional[Union[lda.LdaProjection, siamese.SiameseParams]]
Scorer = Union[dialect_model.DialectModelSet, svm.LinearSvmModel]


def _entry(value):
    """JSON form of a stage: a dataclass becomes a dict of its own fields (a
    twin-network layer also gets its ``"type"`` tag), arrays and tuples lists."""
    if is_dataclass(value):
        entry = {f.name: _entry(getattr(value, f.name)) for f in fields(value)}
        if type(value) in _LAYER_TAGS:
            entry["type"] = _LAYER_TAGS[type(value)]
        return entry
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_entry(v) for v in value]
    return value


def _project(projection: Projection, vectors: np.ndarray) -> np.ndarray:
    if isinstance(projection, lda.LdaProjection):
        return whitening.length_normalize(lda.apply_lda(projection, vectors))
    if isinstance(projection, siamese.SiameseParams):
        return siamese.forward_batch(projection, vectors)
    return vectors


@dataclass(frozen=True)
class Backend:
    """Whitening chain -> optional projection -> scorer."""

    chain: whitening.WhiteningChain
    projection: Projection
    scorer: Scorer

    @property
    def dim(self) -> int:
        return self.chain.stages[0].mean.shape[0]

    @classmethod
    def fit(cls, trn: IVectorSet, dev: Optional[IVectorSet], flags: dict) -> "Backend":
        """Fit every stage, in processing order, from the training flags.

        `flags` is the dict whose fingerprint the model directory carries
        (see `dialectid.cli.cmd_train` for its keys), so everything the fit
        reads is fingerprinted. `dev` is the DEV set when ``use_dev`` is
        set, else None: it is the matched subset for deeper whitening
        stages, joins TRN for the LDA, twin-network and SVM fits, and gives
        the in-domain models that the TRN models are interpolated with.
        """
        recipe = flags["recipe"]
        if recipe not in RECIPES:
            raise ValidationError("unknown recipe %r (choose from %r)" % (recipe, RECIPES))
        if flags["seed"] < 0:
            raise ValidationError("seed must be >= 0, got %d" % flags["seed"])
        if (dev is not None) != flags["use_dev"]:
            raise ValidationError("a DEV set must be given exactly when use_dev is set")
        labels = flags["labels"]
        chain = whitening.fit_recursive_chain(
            primary=trn, matched=dev if dev is not None else trn, depth=flags["whiten_depth"]
        )
        trn = trn.with_vectors(whitening.apply_chain(chain, trn.vectors))
        if dev is not None:
            dev = dev.with_vectors(whitening.apply_chain(chain, dev.vectors))

        def pooled():
            # built only for the recipes that fit on it, to keep memory down
            return trn.concat(dev) if dev is not None else trn

        projection = None
        if recipe == "lda_cds":
            projection = lda.fit_lda(pooled())
        elif recipe == "siam_cds":
            out_dim = flags["siam_out_dim"]
            arch = siamese.default_arch(
                input_dim=trn.dim, output_dim=max(2, trn.dim // 2) if out_dim is None else out_dim)
            config = siamese.TrainConfig(
                epochs=flags["siam_epochs"], n_pairs=flags["siam_pairs"],
                dev_emphasis=flags["dev_emphasis"], seed=flags["seed"],
            )
            projection, _ = siamese.train(
                siamese.init_params(arch, seed=flags["seed"]), pooled(), config)

        if recipe == "baseline_svm":
            fit_set = pooled()
            scorer = svm.train_linear_svm(
                fit_set.vectors, [u.label for u in fit_set.utterances],
                C=flags["svm_c"], epochs=flags["svm_epochs"], seed=flags["seed"],
                class_labels=labels,
            )
        else:
            scorer = dialect_model.fit_dialect_means(
                trn.with_vectors(_project(projection, trn.vectors)), labels, domain_desc="TRN")
            if dev is not None:
                gamma = dialect_model.DEFAULT_GAMMA if flags["gamma"] is None else flags["gamma"]
                dev_models = dialect_model.fit_dialect_means(
                    dev.with_vectors(_project(projection, dev.vectors)), labels,
                    domain_desc="DEV")
                scorer = dialect_model.interpolate_models(scorer, dev_models, gamma)
        return cls(chain, projection, scorer)

    def score(self, vectors: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """Raw (n, dim) vectors -> (labels, (n, K) scores)."""
        labels = self.scorer.labels
        vectors = _project(self.projection, whitening.apply_chain(self.chain, vectors))
        if isinstance(self.scorer, svm.LinearSvmModel):
            return labels, svm.svm_decision(self.scorer, vectors)
        return labels, dialect_model.cds_score(self.scorer, vectors)

    def save(self, model_dir, flags: dict) -> str:
        """Write ``<model_dir>/model.json``; returns the flags' fingerprint."""
        payload = {"flags": flags, "chain": _entry(self.chain)}
        if self.projection is not None:
            payload[_STAGE_KEYS[type(self.projection)]] = _entry(self.projection)
        payload[_STAGE_KEYS[type(self.scorer)]] = _entry(self.scorer)
        fingerprint = fileio.config_fingerprint(flags)
        model_dir = Path(model_dir)
        model_dir.mkdir(parents=True, exist_ok=True)
        fileio.save_artifact(model_dir / MODEL_FILE, "model", fingerprint, payload)
        return fingerprint

    @classmethod
    def load(cls, model_dir) -> tuple["Backend", dict, str]:
        """Read ``<model_dir>/model.json``; returns (backend, training flags, fingerprint).

        A fingerprint that does not match the flags, an unknown recipe, a
        stage entry the recipe needs but the file lacks, or a wrong-typed
        entry raises FormatError.
        """
        path = Path(model_dir) / MODEL_FILE
        payload, stored = fileio.load_artifact(path, "model")
        try:
            flags = payload["flags"]
            fingerprint = fileio.config_fingerprint(flags)
            if stored != fingerprint:
                raise FormatError("%s: fingerprint does not match its flags" % path)
            recipe = flags["recipe"]
            if recipe not in RECIPES:
                raise FormatError("%s: unknown recipe %r" % (path, recipe))
            entry = payload["chain"]
            chain = whitening.WhiteningChain(**dict(
                entry, stages=[whitening.WhiteningStage(**st) for st in entry["stages"]]))
            projection = None
            if recipe == "lda_cds":
                projection = lda.LdaProjection(**payload["lda"])
            elif recipe == "siam_cds":
                entry = payload["siamese"]
                arch = entry["arch"]
                layers = [_LAYER_TYPES[spec.pop("type")](**spec) for spec in arch["layers"]]
                projection = siamese.SiameseParams(**dict(
                    entry, arch=siamese.SiameseArch(**dict(arch, layers=layers))))
            if recipe == "baseline_svm":
                scorer = svm.LinearSvmModel(**payload["svm"])
            else:
                entry = payload["models"]
                scorer = dialect_model.DialectModelSet(**dict(
                    entry, provenance=dialect_model.ModelProvenance(**entry["provenance"])))
        except (KeyError, TypeError, ValueError, AttributeError, ValidationError) as err:
            raise FormatError("%s: malformed model (%s: %s)"
                              % (path, type(err).__name__, err)) from err
        return cls(chain, projection, scorer), flags, fingerprint
