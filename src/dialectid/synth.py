"""Synthetic labeled vector sets with a controllable train/test channel shift.

Dialect means are drawn i.i.d. N(0, dialect_std^2 I); each utterance adds
isotropic within-dialect noise; DEV and TST share one channel offset drawn
N(0, channel_std^2 I) that TRN does not see, which models recordings from
a different source than the training material. Ground truth (means and
offset) is returned so oracle checks can measure recovery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DEFAULT_LABELS, Domain, IVectorSet, Utterance, _freeze
from .errors import ValidationError

# cap on the normal draws of one dataset; `generate` peaks at about twice their
# float64 size (1.6 GB at the cap)
MAX_DRAWS = 10**8


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 20
    num_dialects: int = 5
    n_trn: int = 40  # per dialect
    n_dev: int = 15
    n_tst: int = 30
    dialect_std: float = 1.0
    within_std: float = 0.8
    channel_std: float = 1.6
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.num_dialects < 1:
            raise ValidationError("dim and num_dialects must be >= 1")
        if min(self.n_trn, self.n_dev, self.n_tst) < 1:
            raise ValidationError("per-dialect counts must be >= 1")
        spreads = (self.dialect_std, self.within_std, self.channel_std)
        if not all(0 <= s < math.inf for s in spreads):  # NaN fails too
            raise ValidationError("spread parameters must be finite and nonnegative, got "
                                  "dialect_std=%r, within_std=%r, channel_std=%r" % spreads)
        # `generate` draws the means, the offset and every row
        draws = self.dim * (self.num_dialects * (1 + self.n_trn + self.n_dev + self.n_tst) + 1)
        if draws > MAX_DRAWS:
            raise ValidationError("dim %d x (%d dialects x (1 + %d + %d + %d rows) + 1) = %d "
                                  "draws exceeds %d" % (self.dim, self.num_dialects, self.n_trn,
                                                       self.n_dev, self.n_tst, draws, MAX_DRAWS))
        if self.seed < 0:
            raise ValidationError("seed must be >= 0, got %d" % self.seed)

    @property
    def labels(self) -> tuple[str, ...]:
        if self.num_dialects == len(DEFAULT_LABELS):
            return DEFAULT_LABELS
        return tuple("D%02d" % i for i in range(self.num_dialects))


@dataclass(frozen=True)
class SynthDataset:
    config: SynthConfig
    trn: IVectorSet
    dev: IVectorSet
    tst: IVectorSet
    dialect_means: np.ndarray = field(repr=False)  # (K, dim)
    channel_offset: np.ndarray = field(repr=False)  # (dim,)

    def __post_init__(self):
        object.__setattr__(self, "dialect_means", _freeze(self.dialect_means))
        object.__setattr__(self, "channel_offset", _freeze(self.channel_offset))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.config.labels


def generate(cfg: SynthConfig) -> SynthDataset:
    """Draw the three splits deterministically from cfg.seed.

    Draw order is fixed (means, offset, then TRN/DEV/TST dialect by
    dialect), so equal configs give byte-identical datasets. Spreads so large
    that a draw or a sum overflows are refused.
    """
    rng = np.random.default_rng(cfg.seed)
    labels = cfg.labels
    means = rng.normal(0.0, cfg.dialect_std, size=(cfg.num_dialects, cfg.dim))
    offset = rng.normal(0.0, cfg.channel_std, size=cfg.dim)

    def split(tag: str, domain: Domain, count: int, shift: np.ndarray) -> IVectorSet:
        utts = []
        rows = []
        for d, lab in enumerate(labels):
            noise = rng.normal(0.0, cfg.within_std, size=(count, cfg.dim))
            block = means[d] + noise + shift
            for i in range(count):
                utts.append(Utterance(id="%s-%s-%04d" % (tag, lab, i), domain=domain, label=lab))
            rows.append(block)
        return IVectorSet(tuple(utts), np.vstack(rows))

    zero = np.zeros(cfg.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        trn = split("trn", Domain.TRN, cfg.n_trn, zero)
        dev = split("dev", Domain.DEV, cfg.n_dev, offset)
        tst = split("tst", Domain.TST, cfg.n_tst, offset)
    if not all(np.isfinite(a).all() for a in (means, offset, trn.vectors, dev.vectors,
                                              tst.vectors)):
        raise ValidationError("draws overflow to non-finite values; lower dialect_std=%r, "
                              "within_std=%r or channel_std=%r"
                              % (cfg.dialect_std, cfg.within_std, cfg.channel_std))
    return SynthDataset(config=cfg, trn=trn, dev=dev, tst=tst,
                        dialect_means=means, channel_offset=offset)
