"""Twin-network embedding trained with a contrastive cosine loss.

Two copies of the same stack (shared weights) map a pair of vectors to a
low-dimensional space; the loss is (y - cos(e1, e2))^2 with pair label
y = +1 for same-dialect pairs and -1 otherwise. Backpropagation is
implemented by hand. Both twins run as one stacked batch, so one forward
and one backward pass give the shared parameter gradients. Pairs are row
indices into the training set. The convolution kernels live in `_kernels`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import _kernels
from .data import Domain, IVectorSet, _freeze
from .errors import NumericError, ValidationError

ZERO_EMBEDDING_EPS = 1e-12
# cap on n_pairs and on epochs x n_pairs: the pair tables take 24 B a pair and each
# epoch's shuffle 8 B (320 MB at the cap), and a pair step costs about 0.25 ms at dim 400
MAX_PAIR_STEPS = 10**7
# rows per `forward_batch` block, so that its working memory does not grow with n
FORWARD_ROWS = 256


@dataclass(frozen=True)
class Conv1d:
    """1-D valid convolution layer over (channels, length) inputs."""

    kernel: int
    in_channels: int
    out_channels: int
    stride: int = 1
    activation: Optional[str] = "tanh"


@dataclass(frozen=True)
class Dense:
    """Fully connected layer; flattens whatever shape it receives."""

    in_dim: int
    out_dim: int
    activation: Optional[str] = None


Layer = Union[Conv1d, Dense]


@dataclass(frozen=True)
class SiameseArch:
    """Layer stack descriptor with declared input and output widths."""

    layers: tuple[Layer, ...]
    input_dim: int = 400
    output_dim: int = 200

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        self.shape_trace()  # raises on inconsistency

    def shape_trace(self) -> list[tuple[int, int]]:
        """Per-layer output (channels, length), validating the whole chain.

        The final layer must be a Dense with no activation so the embedding
        space stays linear at the output.
        """
        if not self.layers:
            raise ValidationError("architecture needs at least one layer")
        shape = (1, self.input_dim)  # channels, length
        trace = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Conv1d):
                ch, length = shape
                if layer.in_channels != ch:
                    raise ValidationError(
                        "layer %d expects %d channels, gets %d" % (i, layer.in_channels, ch)
                    )
                if layer.kernel < 1 or layer.stride < 1:
                    raise ValidationError("layer %d has non-positive kernel/stride" % i)
                t_out = (length - layer.kernel) // layer.stride + 1
                if t_out < 1:
                    raise ValidationError(
                        "layer %d kernel %d does not fit input length %d"
                        % (i, layer.kernel, length)
                    )
                shape = (layer.out_channels, t_out)
            elif isinstance(layer, Dense):
                flat = shape[0] * shape[1]
                if layer.in_dim != flat:
                    raise ValidationError(
                        "layer %d expects in_dim %d, gets %d" % (i, layer.in_dim, flat)
                    )
                shape = (1, layer.out_dim)
            else:
                raise ValidationError("unsupported layer type %r" % (layer,))
            if layer.activation not in (None, "tanh"):
                raise ValidationError("unsupported activation %r" % (layer.activation,))
            trace.append(shape)
        last = self.layers[-1]
        if not isinstance(last, Dense) or last.activation is not None:
            raise ValidationError("final layer must be fully connected with no activation")
        if shape[0] * shape[1] != self.output_dim:
            raise ValidationError(
                "declared output dim %d but stack produces %d"
                % (self.output_dim, shape[0] * shape[1])
            )
        return trace


def _param_shapes(layer: Layer) -> tuple[tuple[int, ...], tuple[int]]:
    """(weight shape, bias shape); a weight's fan-in is the product of its trailing dims."""
    if isinstance(layer, Conv1d):
        return (layer.out_channels, layer.in_channels, layer.kernel), (layer.out_channels,)
    return (layer.out_dim, layer.in_dim), (layer.out_dim,)


def default_arch(input_dim: int = 400, output_dim: int = 200) -> SiameseArch:
    """Two tanh conv layers (kernel 8, stride 2, channels 1->4->8) + linear dense.

    The embedding may not be wider than the input.
    """
    if not 1 <= output_dim <= input_dim:
        raise ValidationError("embedding dim must be in 1..%d (the input dim), got %d"
                              % (input_dim, output_dim))
    t1 = (input_dim - 8) // 2 + 1
    t2 = (t1 - 8) // 2 + 1
    if t2 < 1:
        raise ValidationError("input dim %d too small for the default stack" % input_dim)
    return SiameseArch(
        layers=(
            Conv1d(kernel=8, in_channels=1, out_channels=4, stride=2, activation="tanh"),
            Conv1d(kernel=8, in_channels=4, out_channels=8, stride=2, activation="tanh"),
            Dense(in_dim=8 * t2, out_dim=output_dim, activation=None),
        ),
        input_dim=input_dim,
        output_dim=output_dim,
    )


@dataclass(frozen=True)
class SiameseParams:
    """Weights and biases for every layer, plus the arch."""

    arch: SiameseArch
    weights: tuple[np.ndarray, ...] = field(repr=False)
    biases: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        for name in ("weights", "biases"):
            object.__setattr__(self, name, tuple(_freeze(a) for a in getattr(self, name)))
        if len(self.weights) != len(self.arch.layers) or len(self.biases) != len(self.arch.layers):
            raise ValidationError("parameter count does not match layer count")
        for i, (layer, w, b) in enumerate(zip(self.arch.layers, self.weights, self.biases)):
            if (w.shape, b.shape) != _param_shapes(layer):
                raise ValidationError("layer %d parameter shape mismatch" % i)
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError("layer %d has non-finite parameters" % i)

    def replace_arrays(self, weights, biases) -> "SiameseParams":
        return SiameseParams(arch=self.arch, weights=tuple(weights), biases=tuple(biases))


def init_params(arch: SiameseArch, seed: int = 0) -> SiameseParams:
    """Fan-in scaled uniform init (+-sqrt(6/fan_in)), zero biases, seeded."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for layer in arch.layers:
        shape, b_shape = _param_shapes(layer)
        lim = np.sqrt(6.0 / math.prod(shape[1:]))
        weights.append(rng.uniform(-lim, lim, size=shape))
        biases.append(np.zeros(b_shape))
    return SiameseParams(arch=arch, weights=tuple(weights), biases=tuple(biases))


def _forward_batch(params: SiameseParams, X: np.ndarray):
    """Run the stack on a (B, input_dim) batch; returns embeddings and caches.

    Cache per layer: (input in layer shape, activated output) — what the
    backward pass needs for weight gradients and tanh derivatives. Shapes
    come from the layers, never from the batch, so B may be 0.
    """
    cur = np.ascontiguousarray(X, dtype=np.float64)
    caches = []
    for layer, w, b in zip(params.arch.layers, params.weights, params.biases):
        if isinstance(layer, Conv1d):
            x_in = cur if cur.ndim == 3 else cur[:, None, :]
            z = _kernels.conv1d_forward(x_in, w, b, layer.stride)
        else:
            x_in = cur.reshape(cur.shape[0], layer.in_dim)
            z = x_in @ w.T + b
        if not np.all(np.isfinite(z)):
            raise NumericError("non-finite activations in forward pass (divergence)")
        cur = np.tanh(z) if layer.activation == "tanh" else z
        caches.append((x_in, cur))
    return cur, caches  # the last layer is Dense, so cur is (B, output_dim)


def forward_batch(params: SiameseParams, X: np.ndarray) -> np.ndarray:
    """Embed a (n, input_dim) matrix row-wise, FORWARD_ROWS rows at a time; n may be 0."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.arch.input_dim:
        raise ValidationError("expected (n, %d) input, got %r" % (params.arch.input_dim, X.shape))
    out = np.empty((X.shape[0], params.arch.output_dim))
    for lo in range(0, X.shape[0], FORWARD_ROWS):
        out[lo:lo + FORWARD_ROWS] = _forward_batch(params, X[lo:lo + FORWARD_ROWS])[0]
    return out


def _backward(params: SiameseParams, caches, d_embed):
    """Push d_embed back through the stack; returns (grad_weights, grad_biases)."""
    n_layers = len(params.arch.layers)
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    g = d_embed
    for idx in range(n_layers - 1, -1, -1):
        layer = params.arch.layers[idx]
        x_in, a = caches[idx]
        g = g.reshape(a.shape)
        if layer.activation == "tanh":
            g = g * (1.0 - a * a)
        if isinstance(layer, Dense):
            grads_w[idx] = g.T @ x_in
            grads_b[idx] = g.sum(axis=0)
            g = g @ params.weights[idx]
        else:
            g, grads_w[idx], grads_b[idx] = _kernels.conv1d_backward(
                x_in, params.weights[idx], layer.stride, g)
    return grads_w, grads_b


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
    if y.ndim != 1 or not xa.shape == xb.shape == (len(y), params.arch.input_dim):
        raise ValidationError("pairs need (n, %d) xa and xb and (n,) y, got %r, %r and %r"
                              % (params.arch.input_dim, xa.shape, xb.shape, y.shape))
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
    # in Python floats, which overflow to inf without a numpy warning
    if not (dev_emphasis >= 0.0 and math.isfinite((1.0 + float(dev_emphasis)) * labeled.size)):
        raise ValidationError("dev_emphasis must be nonnegative and keep the weights of %d "
                              "labeled rows finite, got %r" % (labeled.size, dev_emphasis))
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
        if self.epochs < 0 or self.batch_size < 1 or self.n_pairs < 1:
            raise ValidationError("epochs, batch_size and n_pairs must be positive")
        if self.learning_rate < 0 or not 0.0 <= self.momentum < 1.0:
            raise ValidationError("bad learning_rate/momentum")
        if max(self.n_pairs, self.epochs * self.n_pairs) > MAX_PAIR_STEPS:
            raise ValidationError("n_pairs %d and epochs x n_pairs = %d x %d must each be at "
                                  "most %d" % (self.n_pairs, self.epochs, self.n_pairs,
                                               MAX_PAIR_STEPS))


def train(params: SiameseParams, data: IVectorSet, config: TrainConfig):
    """Mini-batch SGD with momentum on sampled pairs.

    Deterministic given config.seed (pair sampling and epoch shuffles both
    derive from it). Returns (trained params, per-epoch mean loss history).
    A non-finite loss aborts with the partial history attached to the
    raised NumericError.
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
    for _ in range(config.epochs):
        order = rng.permutation(len(y))
        total = 0.0
        counted = 0
        for lo in range(0, len(y), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            try:  # the params refuse a step that overflowed, which is divergence too
                current = params.replace_arrays(arrays[:n_layers], arrays[n_layers:])
            except ValidationError as err:
                raise NumericError("non-finite parameters (divergence)", history=history) from err
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
        epoch_loss = total / counted if counted else 0.0
        if not np.isfinite(epoch_loss):
            raise NumericError("training diverged (non-finite epoch loss)", history=history)
        history.append(epoch_loss)
    return params.replace_arrays(arrays[:n_layers], arrays[n_layers:]), history
