"""Minimal dense feed-forward networks with exact reverse-mode gradients.

ReLU hidden layers, identity output (logits). Weights are Glorot-uniform
draws from the repository's PCG64 stream; biases start at zero. The
logit-level upstream gradient comes from the schedule module, so this
module only needs plain backpropagation, momentum SGD, evaluation, and a
human-readable text checkpoint format (documented in the README):

    rectidistill-mlp v1
    layers <L>
    layer <out> <in>
    <out> rows of <in> weight values      (shortest round-trip decimal)
    1 row of <out> bias values
    ... repeated per layer

A model's parameters live in one flat float64 vector, ``MlpParams.flat``,
laid out as the checkpoint is: w_1 row by row, b_1, w_2, b_2, ... Its
``weights`` and ``biases`` are reshaped views of that vector, and a
gradient or a velocity is a flat vector of the same layout, so one SGD
step is three whole-vector operations.

Only ``load_checkpoint`` checks its input, a file. Everything else takes
values checked where they entered the program: layer widths by the CLI,
a model's fit to each split by ``train`` before any forward, and a
split's shape by ``Dataset``.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import TEXT, Dataset, atomic_write, batch_slices, plain_number_text
from .errors import InvalidInputError
from .rng import generator

_MAGIC = "rectidistill-mlp v1"
# glibc's default mmap threshold: a larger temporary is a fresh mmap per call
# unless an earlier allocation has raised the threshold, so eval timings
# would depend on which phase ran first
EVAL_CHUNK_BYTES = 128 * 1024


@dataclass
class MlpParams:
    """Per-layer (out x in) weight matrices and (out,) bias vectors.

    Construction copies them into ``flat`` and rebinds ``weights`` and
    ``biases`` to views of it, so an in-place update of ``flat`` is an
    update of every layer.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.concatenate(
            [np.ravel(a) for w, b in zip(self.weights, self.biases) for a in (w, b)]
        ).astype(np.float64, copy=False)
        views = self.layer_views(self.flat)
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def layer_views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views of a flat vector in this model's layout."""
        views, k = [], 0
        for out_w, in_w in (np.shape(w) for w in self.weights):
            end = k + out_w * in_w
            views.append((flat[k:end].reshape(out_w, in_w), flat[end : end + out_w]))
            k = end + out_w
        return views


def init(dims, seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases, fully determined by the seed."""
    rng = generator(int(seed))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases)


def _forward_cached(p: MlpParams, x: np.ndarray):
    """Logits (n, k) and per-layer activations ``[x, h_1, ..., logits]``.

    Each layer's bias add and ReLU run in place on its fresh matmul output.
    """
    acts = [x]
    h = x
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w.T
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, acts


def forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits (n, k) for a batch of feature rows (n, d); one row is (1, d)."""
    return _forward_cached(p, x)[0]


def _backward_into(p: MlpParams, grads, upstream: np.ndarray, acts) -> None:
    """Write the batch-summed parameter gradients into ``grads``.

    ``grads`` holds per-layer (gw, gb) views of a flat gradient buffer
    (``p.layer_views``); ``acts`` are the activations ``_forward_cached``
    returned. ReLU subgradient at 0 is taken as 0.
    """
    delta = upstream
    for i in range(len(p.weights) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(delta.T, acts[i], out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = delta @ p.weights[i]
            delta *= acts[i] > 0.0


def sgd_step(p: MlpParams, grad, velocity, lr: float, momentum: float) -> None:
    """In-place heavy-ball update of flat vectors: v <- momentum*v + g; p <- p - lr*v."""
    velocity *= momentum
    velocity += grad
    p.flat -= lr * velocity


def evaluate(p: MlpParams, ds: Dataset) -> float:
    """Top-1 accuracy on a split; argmax ties go to the lowest index.

    The forward runs in chunks of rows whose widest layer temporary fits in
    ``EVAL_CHUNK_BYTES``, so peak memory does not grow with the split size.
    """
    hits = 0
    for chunk in batch_slices(ds.n, max(1, EVAL_CHUNK_BYTES // (8 * max(p.dims)))):
        predicted = np.argmax(forward(p, ds.features[chunk]), axis=1)
        hits += int(np.count_nonzero(predicted == ds.labels[chunk]))
    return hits / ds.n


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(map(repr, row.tolist()))


def save_checkpoint(p: MlpParams, path) -> None:
    """Atomic text serialization; every float round-trips exactly."""
    lines = [_MAGIC, f"layers {len(p.weights)}"]
    for w, b in zip(p.weights, p.biases):
        lines.append(f"layer {w.shape[0]} {w.shape[1]}")
        lines.extend(_fmt_row(row) for row in [*w, b])
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> MlpParams:
    with open(path, **TEXT) as fh:
        lines = fh.read().splitlines()

    def parse_error(lineno: int, msg: str):
        return InvalidInputError(f"{path}:{lineno}: {msg}")

    def floats(lineno: int, expected: int) -> np.ndarray:
        parts = lines[lineno - 1].split()
        if len(parts) != expected:
            raise parse_error(lineno, f"expected {expected} values, got {len(parts)}")
        try:
            values = np.array([float(v) for v in parts])
        except ValueError as exc:
            raise parse_error(lineno, f"non-numeric value: {exc}") from exc
        if not np.all(np.isfinite(values)):
            raise parse_error(lineno, "non-finite value")
        return values

    if not lines or lines[0] != _MAGIC:
        raise parse_error(1, f"missing header {_MAGIC!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not plain_number_text(line):
            raise parse_error(lineno, "non-numeric value: an underscore or a non-ASCII character")
    if len(lines) < 2 or not lines[1].startswith("layers "):
        raise parse_error(2, "missing 'layers <L>' line")
    try:
        _, count = lines[1].split()
        n_layers = int(count)
    except ValueError as exc:
        raise parse_error(2, "malformed layer count: expected 'layers <L>'") from exc
    if n_layers < 1:
        raise parse_error(2, f"layer count must be >= 1, got {n_layers}")

    weights, biases = [], []
    lineno = 3
    for i in range(n_layers):
        if lineno > len(lines):
            raise parse_error(lineno, "unexpected end of file")
        parts = lines[lineno - 1].split()
        if len(parts) != 3 or parts[0] != "layer":
            raise parse_error(lineno, "expected 'layer <out> <in>'")
        try:
            out_w, in_w = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise parse_error(lineno, "malformed layer dims") from exc
        if out_w < 1 or in_w < 1:
            raise parse_error(lineno, f"layer dims must be positive, got {out_w}x{in_w}")
        if i == n_layers - 1 and out_w < 2:  # the output width is the class count
            raise parse_error(lineno, f"the final layer needs >= 2 outputs (classes), got {out_w}")
        # the header's dims size nothing until the file is known to hold its rows
        if len(lines) - lineno < out_w + 1:
            raise parse_error(lineno, f"layer needs {out_w + 1} lines, "
                                      f"the file has {len(lines) - lineno} after it")
        weights.append(np.array([floats(lineno + 1 + r, in_w) for r in range(out_w)]))
        biases.append(floats(lineno + 1 + out_w, out_w))
        lineno += out_w + 2
    if any(line.strip() for line in lines[lineno - 1 :]):
        raise parse_error(lineno, "trailing content after final layer")
    for prev, nxt in zip(weights[:-1], weights[1:]):
        if nxt.shape[1] != prev.shape[0]:
            raise InvalidInputError(
                f"{path}: layer widths do not chain ({prev.shape} -> {nxt.shape})"
            )
    return MlpParams(weights=weights, biases=biases)
