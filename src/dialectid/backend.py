"""The training flags, the back end fit with them, and its model directory.

`TrainFlags` holds every training flag. A `Backend` is the paper's fixed
chain: recursive whitening (each stage followed by length normalization),
an optional projection (LDA then length normalization, or the
twin-network embedding), then a scorer (cosine dialect models or a linear
SVM). Training and scoring both go through it, so the order is written
once, and `save` and `load` alone know the model directory: ``model.json``
and its sidecar ``model.f64`` (see `fileio.save_artifact`). The payload
holds the arrays and the ``"flags"``: the `TrainFlags` fields plus TRN's
``dim`` and sorted ``labels``, which the fingerprint covers. `load`
rebuilds all else from them, as `fit` does.
"""
from __future__ import annotations

import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
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


def _flag(help_text: str, default=MISSING):
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class TrainFlags:
    """One field per `train` option (``whiten_depth`` is ``--whiten-depth``, a bool is a
    switch), with its type, default and help text. The checks that need no data run
    here, for every recipe; those that need it (epochs x rows, a dim) run where it is.
    Each value must have its field's type: a bool only where it is the type, and a
    float field also takes an int, which it stores as a float.
    """

    recipe: str = _flag("one of " + ", ".join(RECIPES))
    whiten_depth: int = _flag("whitening stages, 1..%d" % whitening.DEFAULT_MAX_DEPTH, 1)
    gamma: Optional[float] = _flag("weight of the DEV models in [0, 1], %g when omitted"
                                   % dialect_model.DEFAULT_GAMMA, None)
    use_dev: bool = _flag("fit on dev.ivec too, as --whiten-depth > 1 and --gamma need", False)
    seed: int = _flag("seed of every random draw, at least 0", 0)
    svm_c: float = _flag("SVM cost, finite and positive", svm.DEFAULT_C)
    svm_epochs: int = _flag("epochs x rows must be 1..%d" % svm.MAX_STEPS, svm.DEFAULT_EPOCHS)
    siam_out_dim: Optional[int] = _flag("embedding dim in 1..dim, dim // 2 when omitted", None)
    siam_epochs: int = _flag("twin-network epochs, at least 0", siamese.DEFAULT_EPOCHS)
    siam_pairs: int = _flag("1..%d, as must be epochs x pairs" % siamese.MAX_PAIR_STEPS,
                            siamese.DEFAULT_PAIRS)
    dev_emphasis: float = _flag("extra pair-sampling weight of DEV rows, at least 0", 0.0)

    def __post_init__(self):
        for name, (kind, optional) in flag_types().items():
            value = getattr(self, name)
            if value is None and optional:
                continue
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, (int, float) if kind is float else kind)):
                raise ValidationError("%s must be %s%s, got %r" % (
                    name, kind.__name__, " or None" if optional else "", value))
            if kind is float:
                try:
                    object.__setattr__(self, name, float(value))
                except OverflowError:
                    raise ValidationError("%s=%d is too large for a float" % (name, value))
        if self.recipe not in RECIPES:
            raise ValidationError("unknown recipe %r (choose from %r)" % (self.recipe, RECIPES))
        if self.seed < 0:
            raise ValidationError("seed must be >= 0, got %d" % self.seed)
        if not 1 <= self.whiten_depth <= whitening.DEFAULT_MAX_DEPTH:
            raise ValidationError("whiten_depth must be in 1..%d" % whitening.DEFAULT_MAX_DEPTH)
        if self.whiten_depth > 1 and not self.use_dev:
            raise ValidationError("--whiten-depth > 1 requires --use-dev as the matched subset")
        if self.gamma is not None:
            if not self.use_dev:
                raise ValidationError("--gamma requires --use-dev (no in-domain means otherwise)")
            if self.recipe == "baseline_svm":
                raise ValidationError("--gamma does not apply to the SVM recipe")
            _check_flag("--gamma", dialect_model.check_gamma, self.gamma)
        _check_flag("--svm-c", svm.check_options, self.svm_c, 1)
        _check_flag("--svm-epochs", svm.check_options, svm.DEFAULT_C, self.svm_epochs)
        if self.siam_out_dim is not None and self.siam_out_dim < 1:
            raise ValidationError("siam_out_dim must be at least 1, got %d" % self.siam_out_dim)
        # TrainConfig checks the twin-network fields, each alone and then together
        _check_flag("--siam-epochs", siamese.TrainConfig, epochs=self.siam_epochs, n_pairs=1)
        _check_flag("--siam-pairs", siamese.TrainConfig, epochs=0, n_pairs=self.siam_pairs)
        _check_flag("--dev-emphasis", siamese.TrainConfig, dev_emphasis=self.dev_emphasis)
        _check_flag("--siam-epochs x --siam-pairs", self.siamese_config)

    def siamese_config(self) -> siamese.TrainConfig:
        return siamese.TrainConfig(epochs=self.siam_epochs, n_pairs=self.siam_pairs,
                                   dev_emphasis=self.dev_emphasis, seed=self.seed)

    def siamese_out_dim(self, dim: int) -> int:
        """The twin network's embedding dim for `dim`-wide input."""
        return self.siam_out_dim or dim // 2


def _check_flag(flag: str, check, *args, **kwargs) -> None:
    """Run a library check of one flag's value; its ValidationError is prefixed
    with the flag, since the library names its own field."""
    try:
        check(*args, **kwargs)
    except ValidationError as err:
        raise ValidationError("%s: %s" % (flag, err)) from None


def flag_types() -> dict:
    """Each `TrainFlags` field's name -> (its type, ``Optional[T]`` as T; whether None is allowed)."""
    hints = typing.get_type_hints(TrainFlags)
    return {f.name: ((typing.get_args(hints[f.name]) or (hints[f.name],))[0],
                     type(None) in typing.get_args(hints[f.name])) for f in fields(TrainFlags)}


def _checked_labels(labels) -> list:
    """``labels`` if `Backend.fit` could derive them: sorted distinct strings, at least one."""
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)
            and labels == sorted(set(labels))):
        raise ValidationError("labels %r are not a sorted list of distinct strings" % (labels,))
    if not labels:
        raise ValidationError("there are no labels: every TRN row is unlabeled")
    return labels


def _project(projection: Projection, vectors: np.ndarray) -> np.ndarray:
    if isinstance(projection, lda.LdaProjection):
        return whitening.length_normalize(lda.apply_lda(projection, vectors))
    if isinstance(projection, siamese.SiameseParams):
        return siamese.forward_batch(projection, vectors)
    return vectors


@dataclass(frozen=True)
class Backend:
    """Whitening chain -> optional projection -> scorer, fit with `flags`."""

    flags: TrainFlags
    chain: whitening.WhiteningChain
    projection: Projection
    scorer: Scorer

    @classmethod
    def fit(cls, trn: IVectorSet, dev: Optional[IVectorSet], flags: TrainFlags) -> "Backend":
        """Fit every stage in processing order; the dim and the sorted labels come from TRN.

        `dev`, given exactly when ``flags.use_dev`` is set, is the matched
        subset for deeper whitening stages, joins TRN for the LDA,
        twin-network and SVM fits, and gives the in-domain models.
        """
        if (dev is not None) != flags.use_dev:
            raise ValidationError("a DEV set must be given exactly when use_dev is set")
        labels = _checked_labels(sorted({u.label for u in trn.utterances if u.label is not None}))
        chain = whitening.fit_recursive_chain(
            primary=trn, matched=dev if dev is not None else trn, depth=flags.whiten_depth
        )
        trn = trn.with_vectors(whitening.apply_chain(chain, trn.vectors))
        if dev is not None:
            dev = dev.with_vectors(whitening.apply_chain(chain, dev.vectors))

        def pooled():
            # built only for the recipes that fit on it, to keep memory down
            return trn.concat(dev) if dev is not None else trn

        projection = None
        if flags.recipe == "lda_cds":
            projection = lda.fit_lda(pooled())
        elif flags.recipe == "siam_cds":
            projection, _ = siamese.train(
                siamese.init_params(trn.dim, flags.siamese_out_dim(trn.dim), flags.seed),
                pooled(), flags.siamese_config())

        if flags.recipe == "baseline_svm":
            fit_set = pooled()
            scorer = svm.train_linear_svm(
                fit_set.vectors, [u.label for u in fit_set.utterances],
                C=flags.svm_c, epochs=flags.svm_epochs, seed=flags.seed, class_labels=labels,
            )
        else:
            scorer = dialect_model.fit_dialect_means(
                trn.with_vectors(_project(projection, trn.vectors)), labels)
            if dev is not None:
                gamma = dialect_model.DEFAULT_GAMMA if flags.gamma is None else flags.gamma
                dev_models = dialect_model.fit_dialect_means(
                    dev.with_vectors(_project(projection, dev.vectors)), labels)
                scorer = dialect_model.interpolate_models(scorer, dev_models, gamma)
        return cls(flags, chain, projection, scorer)

    def score(self, vectors: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """Raw (n, dim) vectors -> (labels, (n, K) scores)."""
        labels = self.scorer.labels
        vectors = _project(self.projection, whitening.apply_chain(self.chain, vectors))
        if isinstance(self.scorer, svm.LinearSvmModel):
            return labels, svm.svm_decision(self.scorer, vectors)
        return labels, dialect_model.cds_score(self.scorer, vectors)

    def save(self, model_dir) -> str:
        """Write ``<model_dir>/model.json`` and its sidecar; returns the flags' fingerprint."""
        flags = {**asdict(self.flags), "dim": self.chain.stages[0].mean.size,
                 "labels": list(self.scorer.labels)}
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
    def load(cls, model_dir) -> tuple["Backend", str]:
        """Read ``<model_dir>/model.json``; returns (backend, fingerprint). Every fault
        README "File formats" lists for a model directory is a FormatError."""
        path = Path(model_dir) / MODEL_FILE
        payload, stored = fileio.load_artifact(path, "model")
        try:
            stored_flags = payload["flags"]
            fingerprint = fileio.config_fingerprint(stored_flags)
            if stored != fingerprint:
                raise FormatError("%s: fingerprint does not match its flags" % path)
            flags = TrainFlags(**{k: v for k, v in stored_flags.items()
                                  if k not in ("dim", "labels")})
            labels = _checked_labels(stored_flags["labels"])
            chain = whitening.WhiteningChain([whitening.WhiteningStage(**st)
                                              for st in payload["chain"]])
            if chain.depth != flags.whiten_depth:
                raise FormatError("%s: %d whitening stages, but whiten_depth is %r"
                                  % (path, chain.depth, flags.whiten_depth))
            # before the projection, whose shapes follow from the dim
            dim = chain.stages[0].mean.size
            if type(stored_flags["dim"]) is not int or dim != stored_flags["dim"]:
                raise FormatError("%s: whitening dim %d is not the flags' dim %r"
                                  % (path, dim, stored_flags["dim"]))
            projection = None
            if flags.recipe == "lda_cds":
                projection = lda.LdaProjection(**payload["lda"])
            elif flags.recipe == "siam_cds":
                projection = siamese.SiameseParams(dim, **payload["siamese"])
                if projection.output_dim != flags.siamese_out_dim(dim):
                    raise FormatError("%s: embedding dim %d is not the flags' %d" % (
                        path, projection.output_dim, flags.siamese_out_dim(dim)))
            if flags.recipe == "baseline_svm":
                scorer = svm.LinearSvmModel(labels, **payload["svm"])
            else:
                scorer = dialect_model.DialectModelSet(labels, payload["models"])
            backend = cls(flags, chain, projection, scorer)
            backend.score(np.empty((0, dim)))  # each stage's dim against the next
        except (LookupError, TypeError, ValueError, AttributeError, ValidationError) as err:
            raise FormatError("%s: malformed model (%s: %s)"
                              % (path, type(err).__name__, err)) from err
        return backend, fingerprint
