"""One read-only rule: every container takes its arrays through `data._freeze`.

The containers are found by introspection, so a new frozen dataclass with an
array field fails here until it has an example below and follows the rule.
"""
import dataclasses
import importlib
import pkgutil
import typing

import numpy as np
import pytest

import dialectid
from dialectid import dialect_model, lda, metrics, siamese, svm, synth, text_features, whitening
from dialectid.backend import Backend
from dialectid.data import Domain, IVectorSet, ScoreTable, Utterance, _freeze


def _holds_arrays(hint) -> bool:
    """An ndarray field, or a tuple of ndarrays."""
    return hint is np.ndarray or (typing.get_origin(hint) is tuple
                                  and np.ndarray in typing.get_args(hint))


def _array_containers() -> dict:
    """'module.Class' -> names of its array fields, for every dataclass in the package."""
    found = {}
    for info in pkgutil.iter_modules(dialectid.__path__):
        module = importlib.import_module("dialectid." + info.name)
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)):
                hints = typing.get_type_hints(cls)
                names = [f.name for f in dataclasses.fields(cls) if _holds_arrays(hints[f.name])]
                if names:
                    found["%s.%s" % (info.name, cls.__name__)] = (cls, names)
    return found


def _utts(n):
    return tuple(Utterance("u%d" % i, Domain.TRN, "A") for i in range(n))


def _siamese_params():
    params = siamese.init_params(siamese.default_arch(24, 4), seed=0)
    return siamese.SiameseParams(params.arch, [w.copy() for w in params.weights],
                                 [b.copy() for b in params.biases])


def _synth_dataset():
    ds = synth.generate(synth.SynthConfig(dim=3, n_trn=2, n_dev=1, n_tst=1))
    return dataclasses.replace(ds, dialect_means=ds.dialect_means.copy(),
                               channel_offset=ds.channel_offset.copy())


# one valid instance per container, built from fresh writable arrays at each call
EXAMPLES = {
    "data.IVectorSet": lambda: IVectorSet(_utts(2), np.array([[1.0, 2.0], [3.0, 4.0]])),
    "data.ScoreTable": lambda: ScoreTable("s", ("A", "B"), ("u0", "u1"),
                                          np.array([[0.1, 0.2], [0.3, 0.4]])),
    "dialect_model.DialectModelSet": lambda: dialect_model.DialectModelSet(("A", "B"),
                                                                           np.eye(2)),
    "whitening.WhiteningStage": lambda: whitening.WhiteningStage(np.array([1.0, 2.0]),
                                                                 np.eye(2)),
    "lda.LdaProjection": lambda: lda.LdaProjection(np.array([1.0, 2.0]),
                                                   np.asfortranarray([[1.0, 0.5], [0.0, 1.0]])),
    "svm.LinearSvmModel": lambda: svm.LinearSvmModel(("A", "B"), np.ones((2, 3)), np.zeros(2)),
    "siamese.SiameseParams": _siamese_params,
    "metrics.ConfusionMatrix": lambda: metrics.ConfusionMatrix(("A", "B"),
                                                               np.array([[3, 1], [0, 2]])),
    "text_features.FeatureVector": lambda: text_features.FeatureVector(
        np.array([0, 2]), np.array([0.6, 0.8]), 3),
    "synth.SynthDataset": _synth_dataset,
}


def _arrays(value) -> list:
    return list(value) if isinstance(value, tuple) else [value]


def test_every_array_container_has_an_example():
    found = _array_containers()
    assert sorted(found) == sorted(EXAMPLES)
    assert all(cls.__dataclass_params__.frozen for cls, _ in found.values())


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_container_takes_a_private_read_only_copy(name):
    cls, fields = _array_containers()[name]
    template = EXAMPLES[name]()
    # the caller's arrays: fresh writable copies in the template's memory order
    given = {f: tuple(a.copy(order="K") for a in _arrays(getattr(template, f)))
             for f in fields}
    kwargs = {f.name: getattr(template, f.name) for f in dataclasses.fields(cls)}
    kwargs.update({f: arrays if isinstance(getattr(template, f), tuple) else arrays[0]
                   for f, arrays in given.items()})
    before = {f: [a.copy() for a in arrays] for f, arrays in given.items()}
    container = cls(**kwargs)
    for f, arrays in given.items():
        kept = _arrays(getattr(container, f))
        for caller, old, own in zip(arrays, before[f], kept):
            assert caller.flags.writeable
            np.testing.assert_array_equal(caller, old)
            assert own.flags.f_contiguous == caller.flags.f_contiguous  # order kept
            caller += 1  # the caller keeps writing into its own array
            np.testing.assert_array_equal(own, old)
            with pytest.raises(ValueError):
                own[...] = 0


def test_freeze_copies_what_a_subclass_converts_to_a_view():
    class Sub(np.ndarray):
        pass

    caller = np.zeros(3).view(Sub)
    frozen = _freeze(caller)  # np.asarray gives a plain view of the caller's memory
    caller += 1
    assert caller.flags.writeable and not frozen.any() and not frozen.flags.writeable


def _reachable_arrays(value) -> list:
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _reachable_arrays(v)]
    return []


RECIPE_FLAGS = {
    "cds": {"whiten_depth": 2, "gamma": 0.91},
    "lda_cds": {},
    "baseline_svm": {},
    "siam_cds": {},
}


@pytest.mark.parametrize("recipe", sorted(RECIPE_FLAGS))
def test_backend_arrays_are_read_only_after_fit_and_load(recipe, tmp_path):
    ds = synth.generate(synth.SynthConfig(dim=24, n_trn=8, n_dev=4, n_tst=2, seed=1))
    flags = {"recipe": recipe, "whiten_depth": 1, "gamma": None, "use_dev": True,
             "seed": 0, "dim": ds.trn.dim, "labels": sorted(ds.labels),
             "svm_c": 0.01, "svm_epochs": 3, "siam_out_dim": None,
             "siam_epochs": 1, "siam_pairs": 40, "dev_emphasis": 0.0}
    flags.update(RECIPE_FLAGS[recipe])
    fitted = Backend.fit(ds.trn, ds.dev, flags)
    fitted.save(tmp_path, flags)
    loaded, _, _ = Backend.load(tmp_path)
    for backend in (fitted, loaded):
        arrays = _reachable_arrays(backend)
        assert len(arrays) >= 3
        assert not any(a.flags.writeable for a in arrays)
