"""The trained back end and its model directory.

A `Backend` is the paper's fixed processing chain: a recursive whitening
chain (each stage followed by length normalization), then an optional
projection (LDA followed by length normalization, or the twin-network
embedding), then a scorer (cosine dialect models or a linear SVM).
Training and scoring both go through this object, so the order is written
once, and `save`/`load` are the only code that knows the artifact payloads.

A model directory holds one JSON artifact per stage plus ``manifest.json``
with the training flags and the artifact file names; every artifact carries
the fingerprint of the flags, which `load` verifies.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import dialect_model, fileio, lda, siamese, svm, whitening
from .data import IVectorSet
from .errors import FormatError, ValidationError

RECIPES = ("baseline_svm", "cds", "lda_cds", "siam_cds")

# artifact key in the manifest -> artifact kind; the file is <key>.json
_KINDS = {"chain": "whitening_chain", "lda": "lda_projection", "siamese": "siamese_params",
          "svm": "linear_svm", "models": "dialect_models"}
_LAYER_TYPES = {"conv1d": siamese.Conv1d, "dense": siamese.Dense}

Projection = Optional[Union[lda.LdaProjection, siamese.SiameseParams]]
Scorer = Union[dialect_model.DialectModelSet, svm.LinearSvmModel]


def _project(projection: Projection, vectors: np.ndarray) -> np.ndarray:
    if isinstance(projection, lda.LdaProjection):
        return whitening.length_normalize(lda.apply_lda(projection, vectors))
    if isinstance(projection, siamese.SiameseParams):
        return siamese.forward_batch(projection, vectors)
    return vectors


@dataclass(frozen=True)
class Backend:
    """Whitening chain -> optional projection -> scorer.

    `loss_history` is the twin network's per-epoch training loss, kept so
    the saved twin-network artifact records it; it is empty otherwise.
    """

    chain: whitening.WhiteningChain
    projection: Projection
    scorer: Scorer
    loss_history: tuple[float, ...] = field(default=(), repr=False)

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

        projection, history = None, []
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
            projection, history = siamese.train(
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
        return cls(chain, projection, scorer, tuple(history))

    def transform(self, vectors: np.ndarray) -> np.ndarray:
        """Raw (n, dim) vectors -> the space the scorer works in."""
        return _project(self.projection, whitening.apply_chain(self.chain, vectors))

    def score(self, vectors: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """Raw (n, dim) vectors -> (labels, (n, K) scores)."""
        labels = self.scorer.labels
        vectors = self.transform(vectors)
        if isinstance(self.scorer, svm.LinearSvmModel):
            return labels, svm.svm_decision(self.scorer, vectors)
        return labels, dialect_model.cds_score(self.scorer, vectors)

    def _payloads(self):
        chain, proj, scorer = self.chain, self.projection, self.scorer
        yield "chain", {
            "fit_subsets": list(chain.fit_subsets),
            "stages": [{"mean": st.mean.tolist(), "matrix": st.matrix.tolist()}
                       for st in chain.stages],
        }
        if isinstance(proj, lda.LdaProjection):
            yield "lda", {"mean": proj.mean.tolist(), "basis": proj.basis.tolist()}
        elif isinstance(proj, siamese.SiameseParams):
            layers = [dict(asdict(layer), type="conv1d" if isinstance(layer, siamese.Conv1d)
                           else "dense") for layer in proj.arch.layers]
            yield "siamese", {
                "arch": {"layers": layers, "input_dim": proj.arch.input_dim,
                         "output_dim": proj.arch.output_dim},
                "weights": [w.tolist() for w in proj.weights],
                "biases": [b.tolist() for b in proj.biases],
                "seed": proj.seed,
                "loss_history": list(self.loss_history),
            }
        if isinstance(scorer, svm.LinearSvmModel):
            yield "svm", {"labels": list(scorer.labels), "weights": scorer.weights.tolist(),
                          "biases": scorer.biases.tolist(), "C": scorer.C}
        else:
            yield "models", {"labels": list(scorer.labels), "models": scorer.models.tolist(),
                             "provenance": asdict(scorer.provenance),
                             "n_per_dialect": list(scorer.n_per_dialect)}

    def save(self, model_dir, flags: dict) -> str:
        """Write one artifact per stage plus the manifest; returns the fingerprint."""
        fingerprint = fileio.config_fingerprint(flags)
        model_dir = Path(model_dir)
        model_dir.mkdir(parents=True, exist_ok=True)
        artifacts = {}
        for key, payload in self._payloads():
            artifacts[key] = key + ".json"
            fileio.save_artifact(model_dir / artifacts[key], _KINDS[key], fingerprint, payload)
        fileio.save_artifact(model_dir / "manifest.json", "manifest", fingerprint,
                             {"flags": flags, "artifacts": artifacts})
        return fingerprint

    @classmethod
    def load(cls, model_dir) -> tuple["Backend", dict, str]:
        """Read a model directory; returns (backend, training flags, fingerprint).

        A fingerprint that does not match the flags, a missing key or a
        wrong-typed entry raises FormatError.
        """
        model_dir = Path(model_dir)
        manifest_path = model_dir / "manifest.json"
        manifest = fileio.load_artifact(manifest_path, "manifest")
        try:
            flags, artifacts = manifest["flags"], manifest["artifacts"]
            fingerprint = fileio.config_fingerprint(flags)
            if fileio.read_fingerprint(manifest_path) != fingerprint:
                raise FormatError("manifest fingerprint does not match its flags")
            if flags["recipe"] not in RECIPES:
                raise FormatError("manifest names unknown recipe %r" % (flags["recipe"],))

            def read(key):
                return fileio.load_artifact(model_dir / artifacts[key], _KINDS[key], fingerprint)

            payload = read("chain")
            chain = whitening.WhiteningChain(
                stages=[whitening.WhiteningStage(**st) for st in payload["stages"]],
                fit_subsets=payload["fit_subsets"])
            projection, history = None, ()
            if "lda" in artifacts:
                projection = lda.LdaProjection(**read("lda"))
            elif "siamese" in artifacts:
                payload = read("siamese")
                arch = payload["arch"]
                layers = [_LAYER_TYPES[spec["type"]](**{k: v for k, v in spec.items()
                                                         if k != "type"})
                          for spec in arch["layers"]]
                projection = siamese.SiameseParams(
                    arch=siamese.SiameseArch(layers, arch["input_dim"], arch["output_dim"]),
                    weights=[np.array(w, dtype=np.float64) for w in payload["weights"]],
                    biases=[np.array(b, dtype=np.float64) for b in payload["biases"]],
                    seed=payload["seed"])
                history = tuple(payload["loss_history"])
            if "svm" in artifacts:
                scorer = svm.LinearSvmModel(**read("svm"))
            else:
                payload = read("models")
                scorer = dialect_model.DialectModelSet(**dict(
                    payload, provenance=dialect_model.ModelProvenance(**payload["provenance"])))
        except (KeyError, TypeError, ValueError, AttributeError, ValidationError) as err:
            raise FormatError("%s: malformed model directory (%s: %s)"
                              % (model_dir, type(err).__name__, err)) from err
        return cls(chain, projection, scorer, history), flags, fingerprint
