"""Twin-network embedding trained with a contrastive cosine loss.

Two copies of the paper's one stack (shared weights) map a pair of vectors
to a low-dimensional space: two tanh conv layers (kernel 8, stride 2,
channels 1 -> 4 -> 8), then a linear dense layer. The loss is
(y - cos(e1, e2))^2 with pair label y = +1 for same-dialect pairs and -1
otherwise. Backpropagation is implemented by hand. Both twins run as one
stacked batch, so one forward and one backward pass give the shared
parameter gradients. Pairs are row indices into the training set. The
convolution kernels live in `_kernels`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .data import Domain, IVectorSet, _freeze
from .errors import NumericError, ValidationError

ZERO_EMBEDDING_EPS = 1e-12
# cap on n_pairs and on epochs x n_pairs: the pair tables take 24 B a pair and each
# epoch's shuffle 8 B (320 MB at the cap), and a pair step costs about 0.25 ms at dim 400
MAX_PAIR_STEPS = 10**7
# the two conv layers' kernel and stride, and the channels into and out of them
KERNEL = 8
STRIDE = 2
CHANNELS = (1, 4, 8)
# the stack's least input dim: 8 + 2 x (8 - 1), so its second conv has one output
DEFAULT_MIN_DIM = 22
# rows per `forward_batch` block, so that its working memory does not grow with n
FORWARD_ROWS = 256


def _param_shapes(input_dim: int, output_dim: int) -> tuple:
    """((weight shape, bias shape) of conv 1, conv 2 and the dense layer); a weight's
    fan-in is the product of its trailing dims. The embedding may not be wider than
    the input."""
    if input_dim < DEFAULT_MIN_DIM:
        raise ValidationError("input dim %d too small for the twin-network stack, which "
                              "needs at least %d" % (input_dim, DEFAULT_MIN_DIM))
    if not 1 <= output_dim <= input_dim:
        raise ValidationError("embedding dim must be in 1..%d (the input dim), got %d"
                              % (input_dim, output_dim))
    length = input_dim
    for _ in range(2):
        length = (length - KERNEL) // STRIDE + 1
    c0, c1, c2 = CHANNELS
    return (((c1, c0, KERNEL), (c1,)), ((c2, c1, KERNEL), (c2,)),
            ((output_dim, c2 * length), (output_dim,)))


@dataclass(frozen=True)
class SiameseParams:
    """Weights and biases of conv 1, conv 2 and the dense layer, for rows of
    `input_dim`; the embedding dim is the dense bias's length."""

    input_dim: int
    weights: tuple[np.ndarray, ...] = field(repr=False)
    biases: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        for name in ("weights", "biases"):
            object.__setattr__(self, name, tuple(_freeze(a) for a in getattr(self, name)))
        if len(self.weights) != 3 or len(self.biases) != 3:
            raise ValidationError("the stack has 3 layers, got %d weights and %d biases"
                                  % (len(self.weights), len(self.biases)))
        shapes = _param_shapes(self.input_dim, self.output_dim)
        for i, (w, b, want) in enumerate(zip(self.weights, self.biases, shapes)):
            if (w.shape, b.shape) != want:
                raise ValidationError("layer %d parameter shape mismatch" % i)
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError("layer %d has non-finite parameters" % i)

    @property
    def output_dim(self) -> int:
        return self.biases[-1].size

    def replace_arrays(self, weights, biases) -> "SiameseParams":
        return SiameseParams(self.input_dim, tuple(weights), tuple(biases))


def init_params(input_dim: int, output_dim: int, seed: int = 0) -> SiameseParams:
    """Fan-in scaled uniform init (+-sqrt(6/fan_in)), zero biases, seeded."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for shape, b_shape in _param_shapes(input_dim, output_dim):
        lim = np.sqrt(6.0 / math.prod(shape[1:]))
        weights.append(rng.uniform(-lim, lim, size=shape))
        biases.append(np.zeros(b_shape))
    return SiameseParams(input_dim, tuple(weights), tuple(biases))


def _finite(z: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite activations in forward pass (divergence)")
    return z


def _forward_batch(params: SiameseParams, X: np.ndarray):
    """Run conv, conv, dense on a (B, input_dim) batch; returns the embeddings and
    what the backward pass needs: the input as one channel, both conv layers' tanh
    outputs and the second one flattened. Shapes come from the weights, never from
    the batch, so B may be 0.
    """
    (w1, w2, w3), (b1, b2, b3) = params.weights, params.biases
    x = np.ascontiguousarray(X, dtype=np.float64)[:, None, :]
    a1 = np.tanh(_finite(_kernels.conv1d_forward(x, w1, b1, STRIDE)))
    a2 = np.tanh(_finite(_kernels.conv1d_forward(a1, w2, b2, STRIDE)))
    flat = a2.reshape(len(a2), w3.shape[1])
    return _finite(flat @ w3.T + b3), (x, a1, a2, flat)


def forward_batch(params: SiameseParams, X: np.ndarray) -> np.ndarray:
    """Embed a (n, input_dim) matrix row-wise, FORWARD_ROWS rows at a time; n may be 0."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValidationError("expected (n, %d) input, got %r" % (params.input_dim, X.shape))
    out = np.empty((X.shape[0], params.output_dim))
    for lo in range(0, X.shape[0], FORWARD_ROWS):
        out[lo:lo + FORWARD_ROWS] = _forward_batch(params, X[lo:lo + FORWARD_ROWS])[0]
    return out


def _backward(params: SiameseParams, caches, d_embed):
    """Push d_embed back through dense, conv 2 and conv 1; returns (grad_weights,
    grad_biases) in layer order."""
    x, a1, a2, flat = caches
    w1, w2, w3 = params.weights
    gw3, gb3 = d_embed.T @ flat, d_embed.sum(axis=0)
    g = (d_embed @ w3).reshape(a2.shape) * (1.0 - a2 * a2)
    g, gw2, gb2 = _kernels.conv1d_backward(a1, w2, STRIDE, g)
    _, gw1, gb1 = _kernels.conv1d_backward(x, w1, STRIDE, g * (1.0 - a1 * a1))
    return [gw1, gw2, gw3], [gb1, gb2, gb3]


def grad(params: SiameseParams, xa: np.ndarray, xb: np.ndarray, y: np.ndarray):
    """Analytic gradient of the mean loss over pairs (xa[i], xb[i]) labeled y[i] = +-1.

    Returns (grad_weights, grad_biases, mean_loss) with gradients shaped
    exactly like the parameters. Both twins run as one stacked batch, one
    forward and one backward pass, so the shared weights get both
    contributions at once. Pairs whose embedding norm falls below 1e-12 are
    skipped (they have no direction); if every pair degenerates the
    gradient is zero and the loss 0.0.
    """
    xa, xb, y = (np.asarray(v, dtype=np.float64) for v in (xa, xb, y))
    if y.ndim != 1 or not xa.shape == xb.shape == (len(y), params.input_dim):
        raise ValidationError("pairs need (n, %d) xa and xb and (n,) y, got %r, %r and %r"
                              % (params.input_dim, xa.shape, xb.shape, y.shape))
    if y.size == 0:
        raise ValidationError("gradient needs a non-empty batch")
    if not np.all(np.abs(y) == 1.0):
        raise ValidationError("pair labels must be +1 or -1")

    e, caches = _forward_batch(params, np.concatenate([xa, xb]))
    ea, eb = np.split(e, 2)  # the twins' halves of the stacked batch
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow here is the divergence signal caught right below
        na = np.linalg.norm(ea, axis=1)
        nb = np.linalg.norm(eb, axis=1)
        keep = (na > ZERO_EMBEDDING_EPS) & (nb > ZERO_EMBEDDING_EPS)
        m = int(keep.sum())
        if m == 0:
            return ([np.zeros_like(w) for w in params.weights],
                    [np.zeros_like(b) for b in params.biases], 0.0)

        na_s = np.where(keep, na, 1.0)
        nb_s = np.where(keep, nb, 1.0)
        cos = np.where(keep, (ea * eb).sum(axis=1) / (na_s * nb_s), 0.0)
        residual = np.where(keep, y - cos, 0.0)
        mean_loss = float((residual ** 2).sum() / m)
    if not np.isfinite(mean_loss):
        raise NumericError("non-finite pair loss (divergence)")

    # dL/dcos per pair, already divided by the retained count
    dcos = -2.0 * residual / m
    dea = dcos[:, None] * (eb / (na_s * nb_s)[:, None] - (cos / na_s ** 2)[:, None] * ea)
    deb = dcos[:, None] * (ea / (na_s * nb_s)[:, None] - (cos / nb_s ** 2)[:, None] * eb)
    dea[~keep] = 0.0
    deb[~keep] = 0.0

    grads_w, grads_b = _backward(params, caches, np.concatenate([dea, deb]))
    for gw, gb in zip(grads_w, grads_b):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise NumericError("non-finite gradient (divergence)")
    return grads_w, grads_b, mean_loss


def _check_dev_emphasis(dev_emphasis: float, rows: int = 1) -> None:
    """DEV rows weigh 1 + dev_emphasis; rows = 1 leaves the checks any rows need."""
    # in Python floats, which overflow to inf without a numpy warning
    if not (dev_emphasis >= 0.0 and math.isfinite((1.0 + float(dev_emphasis)) * rows)):
        raise ValidationError("dev_emphasis must be nonnegative and keep (1 + dev_emphasis) x "
                              "rows finite; got %r, rows=%d" % (dev_emphasis, rows))


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cdf that `Generator.choice` searches to draw with probabilities `p`."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_pairs(
    data: IVectorSet,
    n_pairs: int,
    positive_fraction: float = 0.5,
    seed: int = 0,
    dev_emphasis: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw labeled pairs: positives within a dialect, negatives across.

    Returns (ia, ib, y): pair k joins rows ia[k] and ib[k] of `data`, and
    y[k] is +1 for the positives (which come first) and -1 for the rest.
    Utterances from the DEV domain carry sampling weight (1 + dev_emphasis)
    relative to TRN/TST ones, so the in-domain split can be emphasized.
    Deterministic given the seed. Positive count is round(n * fraction).
    """
    if n_pairs < 0:
        raise ValidationError("n_pairs must be nonnegative")
    if not 0.0 <= positive_fraction <= 1.0:
        raise ValidationError("positive_fraction must lie in [0, 1]")

    labeled = np.flatnonzero([u.label is not None for u in data.utterances])
    if not labeled.size:
        raise ValidationError("pair sampling needs labeled utterances")
    _check_dev_emphasis(dev_emphasis, labeled.size)
    lab = np.array([data.utterances[i].label for i in labeled])
    labels = sorted(set(lab.tolist()))
    n_pos = int(round(n_pairs * positive_fraction))
    n_neg = n_pairs - n_pos
    singles = [d for d in labels if np.count_nonzero(lab == d) < 2]
    if n_pos > 0 and singles:
        raise ValidationError("positive pairs impossible: dialect(s) %r have fewer than 2 "
                              "utterances" % (singles,))
    if n_neg > 0 and len(labels) < 2:
        raise ValidationError("negative pairs impossible with a single dialect")

    weights = np.where([data.utterances[i].domain is Domain.DEV for i in labeled],
                       1.0 + dev_emphasis, 1.0)
    _, codes = np.unique(lab, return_inverse=True)
    # Pair k takes uniforms 2k (its anchor) and 2k + 1 (its partner), each
    # mapped through the cdf of its pool's weights as `Generator.choice(p=...)`
    # maps them, so these are the pairs of a loop of two such calls per pair.
    u = np.random.default_rng(seed).random(2 * n_pairs)
    at = _cdf(weights / weights.sum()).searchsorted(u[0::2], side="right")
    ib = np.empty(n_pairs, dtype=np.int64)

    def draw(pool, k):
        w = weights[pool]
        ib[k] = labeled[pool][_cdf(w / w.sum()).searchsorted(u[2 * k + 1], side="right")]

    pos, neg = at[:n_pos], at[n_pos:]
    for a in np.unique(pos):  # positives: another row of the anchor's dialect
        pool = codes == codes[a]
        pool[a] = False
        draw(pool, np.flatnonzero(pos == a))
    for c in np.unique(codes[neg]):  # negatives: a row of another dialect
        draw(codes != c, n_pos + np.flatnonzero(codes[neg] == c))
    ia = labeled[at]
    return ia, ib, np.repeat([1, -1], [n_pos, n_neg])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    n_pairs: int = 2000
    positive_fraction: float = 0.5
    dev_emphasis: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 0), ("batch_size", 1), ("n_pairs", 1)):
            if getattr(self, name) < least:
                raise ValidationError("%s must be at least %d, got %r"
                                      % (name, least, getattr(self, name)))
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValidationError("learning_rate must be finite and nonnegative, got %r"
                                  % (self.learning_rate,))
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must be in [0, 1), got %r" % (self.momentum,))
        _check_dev_emphasis(self.dev_emphasis)
        if max(self.n_pairs, self.epochs * self.n_pairs) > MAX_PAIR_STEPS:
            raise ValidationError("n_pairs %d and epochs x n_pairs = %d x %d must each be at "
                                  "most %d" % (self.n_pairs, self.epochs, self.n_pairs,
                                               MAX_PAIR_STEPS))


def train(params: SiameseParams, data: IVectorSet, config: TrainConfig):
    """Mini-batch SGD with momentum on sampled pairs.

    Deterministic given config.seed (pair sampling and epoch shuffles both
    derive from it). Returns (trained params, per-epoch mean loss history).
    A non-finite loss, or a step that leaves a parameter non-finite (checked
    after every step, the last one too), aborts with the partial history
    attached to the raised NumericError.
    """
    ia, ib, y = sample_pairs(
        data,
        n_pairs=config.n_pairs,
        positive_fraction=config.positive_fraction,
        seed=config.seed,
        dev_emphasis=config.dev_emphasis,
    )
    rng = np.random.default_rng(config.seed + 1)
    n_layers = len(params.weights)
    arrays = [a.copy() for a in params.weights + params.biases]  # weights, then biases
    velocity = [np.zeros_like(a) for a in arrays]
    history: list[float] = []
    current = params
    for _ in range(config.epochs):
        order = rng.permutation(len(y))
        total = 0.0
        counted = 0
        for lo in range(0, len(y), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            try:
                gw, gb, loss = grad(current, data.vectors[ia[batch]], data.vectors[ib[batch]],
                                    y[batch])
            except NumericError as err:
                raise NumericError(str(err), history=history) from err
            total += loss * len(batch)
            counted += len(batch)
            for a, v, g in zip(arrays, velocity, gw + gb):
                v *= config.momentum
                v -= config.learning_rate * g
                a += v
            try:  # the params refuse a step that overflowed, which is divergence too
                current = params.replace_arrays(arrays[:n_layers], arrays[n_layers:])
            except ValidationError as err:
                raise NumericError("non-finite parameters (divergence)", history=history) from err
        epoch_loss = total / counted if counted else 0.0
        if not np.isfinite(epoch_loss):
            raise NumericError("training diverged (non-finite epoch loss)", history=history)
        history.append(epoch_loss)
    return current, history
