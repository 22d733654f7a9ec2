"""The trained back end and its model directory.

A `Backend` is the paper's fixed processing chain: a recursive whitening
chain (each stage followed by length normalization), then an optional
projection (LDA followed by length normalization, or the twin-network
embedding), then a scorer (cosine dialect models or a linear SVM).
Training and scoring both go through this object, so the order is written
once, and `save`/`load` are the only code that knows the artifact payload.

A model directory holds one artifact, ``model.json`` (kind ``"model"``),
and its array sidecar ``model.f64`` (see `fileio.save_artifact`). The
training flags fix everything about the chain but its arrays, so the
payload holds the flags and the arrays only:

* ``"flags"``: the training flags, whose fingerprint the artifact carries;
* ``"chain"``: one ``{"mean", "matrix"}`` per whitening stage;
* ``"lda"`` (``lda_cds``): ``{"mean", "basis"}``, or ``"siamese"``
  (``siam_cds``): ``{"weights", "biases"}``, one array per layer;
* ``"svm"`` (``baseline_svm``): ``{"weights", "biases"}``, or ``"models"``
  (the cosine recipes): the (K, d) model matrix.

`load` verifies the fingerprint, rebuilds every other field from the flags
as `fit` does (the labels are the flags' ``labels`` and the twin network's
layers come from `_siamese_arch`), and checks each stage against the flags.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import dialect_model, fileio, lda, siamese, svm, whitening
from .data import IVectorSet
from .errors import FormatError, ValidationError

RECIPES = ("baseline_svm", "cds", "lda_cds", "siam_cds")

MODEL_FILE = "model.json"

Projection = Optional[Union[lda.LdaProjection, siamese.SiameseParams]]
Scorer = Union[dialect_model.DialectModelSet, svm.LinearSvmModel]


def _siamese_arch(flags: dict) -> siamese.SiameseArch:
    """The twin network's layers for the flags' ``dim`` and ``siam_out_dim``
    (half the dim, at least 2, when that is None)."""
    dim, out_dim = flags["dim"], flags["siam_out_dim"]
    return siamese.default_arch(
        input_dim=dim, output_dim=max(2, dim // 2) if out_dim is None else out_dim)


def _check_labels(labels) -> None:
    """The flags' ``labels`` must be what `cmd_train` writes: a sorted list of
    distinct strings."""
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)
            and labels == sorted(set(labels))):
        raise ValidationError("labels %r are not a sorted list of distinct strings"
                              % (labels,))


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
        ``gamma`` needs ``use_dev`` and a cosine recipe, and a ``whiten_depth``
        above 1 needs ``use_dev``.
        """
        recipe = flags["recipe"]
        if recipe not in RECIPES:
            raise ValidationError("unknown recipe %r (choose from %r)" % (recipe, RECIPES))
        if flags["seed"] < 0:
            raise ValidationError("seed must be >= 0, got %d" % flags["seed"])
        if flags["gamma"] is not None and not flags["use_dev"]:
            raise ValidationError("--gamma requires --use-dev (no in-domain means otherwise)")
        if flags["gamma"] is not None and recipe == "baseline_svm":
            raise ValidationError("--gamma does not apply to the SVM recipe")
        if flags["whiten_depth"] > 1 and not flags["use_dev"]:
            raise ValidationError("--whiten-depth > 1 requires --use-dev as the matched subset")
        if (dev is not None) != flags["use_dev"]:
            raise ValidationError("a DEV set must be given exactly when use_dev is set")
        if trn.dim != flags["dim"]:
            raise ValidationError("TRN dim %d is not the flags' dim %r" % (trn.dim, flags["dim"]))
        labels = flags["labels"]
        _check_labels(labels)
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
            config = siamese.TrainConfig(
                epochs=flags["siam_epochs"], n_pairs=flags["siam_pairs"],
                dev_emphasis=flags["dev_emphasis"], seed=flags["seed"],
            )
            projection, _ = siamese.train(
                siamese.init_params(_siamese_arch(flags), seed=flags["seed"]), pooled(), config)

        if recipe == "baseline_svm":
            fit_set = pooled()
            scorer = svm.train_linear_svm(
                fit_set.vectors, [u.label for u in fit_set.utterances],
                C=flags["svm_c"], epochs=flags["svm_epochs"], seed=flags["seed"],
                class_labels=labels,
            )
        else:
            scorer = dialect_model.fit_dialect_means(
                trn.with_vectors(_project(projection, trn.vectors)), labels)
            if dev is not None:
                gamma = dialect_model.DEFAULT_GAMMA if flags["gamma"] is None else flags["gamma"]
                dev_models = dialect_model.fit_dialect_means(
                    dev.with_vectors(_project(projection, dev.vectors)), labels)
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
        """Write ``<model_dir>/model.json`` and its sidecar; returns the flags' fingerprint."""
        payload = {"flags": flags, "chain": [{"mean": st.mean, "matrix": st.matrix}
                                             for st in self.chain.stages]}
        p = self.projection
        if isinstance(p, lda.LdaProjection):
            payload["lda"] = {"mean": p.mean, "basis": p.basis}
        elif isinstance(p, siamese.SiameseParams):
            payload["siamese"] = {"weights": p.weights, "biases": p.biases}
        if isinstance(self.scorer, svm.LinearSvmModel):
            payload["svm"] = {"weights": self.scorer.weights, "biases": self.scorer.biases}
        else:
            payload["models"] = self.scorer.models
        fingerprint = fileio.config_fingerprint(flags)
        model_dir = Path(model_dir)
        model_dir.mkdir(parents=True, exist_ok=True)
        fileio.save_artifact(model_dir / MODEL_FILE, "model", fingerprint, payload)
        return fingerprint

    @classmethod
    def load(cls, model_dir) -> tuple["Backend", dict, str]:
        """Read ``<model_dir>/model.json``; returns (backend, training flags, fingerprint).

        A fingerprint that does not match the flags, an unknown recipe, flags'
        ``labels`` that are not a sorted list of distinct strings, a stage
        entry the recipe needs but the file lacks, a wrong-typed entry, a
        stage count other than ``whiten_depth``, a first whitening stage
        whose dim is not the flags' ``dim``, or an array whose shape does
        not fit the stages around it raises FormatError, as does every
        sidecar fault `fileio.load_artifact` finds.
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
            labels = flags["labels"]
            _check_labels(labels)
            chain = whitening.WhiteningChain([whitening.WhiteningStage(**st)
                                              for st in payload["chain"]])
            if chain.depth != flags["whiten_depth"]:
                raise FormatError("%s: %d whitening stages, but whiten_depth is %r"
                                  % (path, chain.depth, flags["whiten_depth"]))
            # before the projection, whose shapes follow from the dim
            dim = chain.stages[0].mean.size
            if type(flags["dim"]) is not int or dim != flags["dim"]:
                raise FormatError("%s: whitening dim %d is not the flags' dim %r"
                                  % (path, dim, flags["dim"]))
            projection = None
            if recipe == "lda_cds":
                projection = lda.LdaProjection(**payload["lda"])
            elif recipe == "siam_cds":
                projection = siamese.SiameseParams(_siamese_arch(flags), **payload["siamese"])
            if recipe == "baseline_svm":
                scorer = svm.LinearSvmModel(labels, **payload["svm"])
            else:
                scorer = dialect_model.DialectModelSet(labels, payload["models"])
            backend = cls(chain, projection, scorer)
            backend.score(np.empty((0, dim)))  # each stage's dim against the next
        except (LookupError, TypeError, ValueError, AttributeError, ValidationError) as err:
            raise FormatError("%s: malformed model (%s: %s)"
                              % (path, type(err).__name__, err)) from err
        return backend, flags, fingerprint
