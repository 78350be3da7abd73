"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

A :class:`Tensor` wraps a float64 array plus an optional gradient.  Ops
build a DAG; calling :meth:`Tensor.backward` on a scalar walks it in
reverse topological order and accumulates gradients into every tensor
with ``requires_grad``.  The op set is deliberately closed: arithmetic,
matmul, reductions, log/relu, softmax, cosine similarity, L1 distance,
L2 normalization, smooth-L1, plus the structural ops (concat, stack,
reshape, pick, gather) and two sampling ops (patch broadcast, bilinear
resample) needed by the feature pipelines.  Everything downstream is a
composition of these.

The row ops (``linear_rows``, ``l2_normalize_rows``, ``softmax_rows``,
``pick_rows``, ``gather_rows``), ``avg_pool2``, ``tsum`` and ``tmean``
over given axes, and the stacked form of ``bilinear_resample`` treat the
leading axis as a batch of independent rows, so a whole scene's
proposals go through the detector head as one node per op instead of
one per proposal.

Gradient conventions: the L1 subgradient at a tie is 0, relu's subgradient
at 0 is 0.  ``grad_check`` compares analytic gradients against central
finite differences with relative error normalized by
``max(1, |analytic| + |numeric|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ShapeError, StateError


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False, _parents=(), _vjp=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of size {self.values.size}")
        return float(self.values.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.values.copy())

    def backward(self) -> None:
        if self.values.size != 1:
            raise ContractError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.values)
        for node in reversed(order):
            if node._vjp is not None and node.grad is not None:
                node._vjp(node.grad)

    # Operator sugar for tests and small compositions.
    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else add_scalar(self, other)

    def __radd__(self, other):
        return add_scalar(self, other)

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Tensor) else add_scalar(self, -other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values)


def parameter(values, rg: bool = True) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), requires_grad=rg)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _node(values: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    if any(t.requires_grad for t in inputs):
        return Tensor(values, requires_grad=True, _parents=inputs, _vjp=vjp)
    return Tensor(values)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def vjp(g):
        _accum(a, g)
        _accum(b, g)

    return _node(a.values + b.values, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def vjp(g):
        _accum(a, g)
        _accum(b, -g)

    return _node(a.values - b.values, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g):
        _accum(a, -g)

    return _node(-a.values, (a,), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def vjp(g):
        _accum(a, g * b.values)
        _accum(b, g * a.values)

    return _node(a.values * b.values, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g):
        _accum(a, g * s)

    return _node(a.values * s, (a,), vjp)


def add_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g):
        _accum(a, g)

    return _node(a.values + s, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"matmul: left operand must be 2-D, got {a.shape}")
    if b.values.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

        def vjp(g):
            _accum(a, np.outer(g, b.values))
            _accum(b, a.values.T @ g)

        return _node(a.values @ b.values, (a, b), vjp)
    if b.values.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

        def vjp(g):
            _accum(a, g @ b.values.T)
            _accum(b, a.values.T @ g)

        return _node(a.values @ b.values, (a, b), vjp)
    raise ShapeError(f"matmul: right operand must be 1-D or 2-D, got {b.shape}")


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 1 or b.values.ndim != 1:
        raise ShapeError("dot: operands must be 1-D")
    _same_shape(a, b, "dot")

    def vjp(g):
        _accum(a, g * b.values)
        _accum(b, g * a.values)

    return _node(np.asarray(a.values @ b.values), (a, b), vjp)


def tsum(a: Tensor, axes=None) -> Tensor:
    if axes is None:

        def vjp(g):
            _accum(a, np.full_like(a.values, float(g)))

        return _node(np.asarray(a.values.sum()), (a,), vjp)
    axes = (axes,) if isinstance(axes, int) else tuple(axes)

    def vjp_axes(g):
        _accum(a, np.broadcast_to(np.expand_dims(g, axes), a.shape))

    return _node(a.values.sum(axis=axes), (a,), vjp_axes)


def tmean(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        count = a.values.size

        def vjp(g):
            _accum(a, np.full_like(a.values, float(g) / count))

        return _node(np.asarray(a.values.mean()), (a,), vjp)
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    count = int(np.prod([a.shape[ax] for ax in axes]))
    out = a.values.mean(axis=axes)

    def vjp_axes(g):
        _accum(a, np.broadcast_to(np.expand_dims(g, axes), a.shape) / count)

    return _node(out, (a,), vjp_axes)


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0.0):
        raise DomainError("log: non-positive input")

    def vjp(g):
        _accum(a, g / a.values)

    return _node(np.log(a.values), (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0

    def vjp(g):
        _accum(a, g * mask)

    return _node(a.values * mask, (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    if a.values.ndim != 1 or a.values.size == 0:
        raise DomainError("softmax: needs a non-empty 1-D input")
    shifted = a.values - a.values.max()
    e = np.exp(shifted)
    y = e / e.sum()

    def vjp(g):
        _accum(a, y * (g - float(g @ y)))

    return _node(y, (a,), vjp)


def stack(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("stack: empty list")
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeError("stack: mismatched shapes")
    out = np.stack([p.values for p in parts])

    def vjp(g):
        for i, p in enumerate(parts):
            _accum(p, g[i])

    return _node(out, tuple(parts), vjp)


def concat_rows(blocks: list[Tensor]) -> Tensor:
    if not blocks:
        raise ShapeError("concat_rows: empty list")
    for b in blocks:
        if b.values.ndim != 2:
            raise ShapeError("concat_rows: blocks must be 2-D")
    widths = {b.shape[1] for b in blocks}
    if len(widths) != 1:
        raise ShapeError("concat_rows: mismatched widths")
    out = np.concatenate([b.values for b in blocks], axis=0)
    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])

    def vjp(g):
        for i, b in enumerate(blocks):
            _accum(b, g[offsets[i] : offsets[i + 1]])

    return _node(out, tuple(blocks), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def vjp(g):
        _accum(a, g.reshape(a.shape))

    return _node(a.values.reshape(shape), (a,), vjp)


def pick(a: Tensor, index: int) -> Tensor:
    if a.values.ndim != 1:
        raise ShapeError("pick: needs a 1-D input")
    if not (0 <= index < a.values.size):
        raise ShapeError(f"pick: index {index} out of range {a.values.size}")

    def vjp(g):
        buf = np.zeros_like(a.values)
        buf[index] = float(g)
        _accum(a, buf)

    return _node(np.asarray(a.values[index]), (a,), vjp)


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Sum of absolute differences; subgradient 0 where the operands tie."""
    _same_shape(a, b, "l1_distance")
    diff = a.values - b.values
    sgn = np.sign(diff)

    def vjp(g):
        _accum(a, float(g) * sgn)
        _accum(b, -float(g) * sgn)

    return _node(np.asarray(np.abs(diff).sum()), (a, b), vjp)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 1 or b.values.ndim != 1:
        raise ShapeError("cosine_similarity: operands must be 1-D")
    _same_shape(a, b, "cosine_similarity")
    na = float(np.linalg.norm(a.values))
    nb = float(np.linalg.norm(b.values))
    if na == 0.0 or nb == 0.0:
        raise DomainError("cosine_similarity: zero-norm input")
    c = float(a.values @ b.values) / (na * nb)

    def vjp(g):
        g = float(g)
        _accum(a, g * (b.values / (na * nb) - c * a.values / (na * na)))
        _accum(b, g * (a.values / (na * nb) - c * b.values / (nb * nb)))

    return _node(np.asarray(c), (a, b), vjp)


def l2_normalize(a: Tensor) -> Tensor:
    n = float(np.linalg.norm(a.values))
    if n == 0.0:
        raise DomainError("l2_normalize: zero-norm input")
    y = a.values / n

    def vjp(g):
        _accum(a, (g - y * float((g * y).sum())) / n)

    return _node(y, (a,), vjp)


def smooth_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Huber-style loss, mean over elements: 0.5 d^2 if |d| < 1 else |d| - 0.5."""
    _same_shape(pred, target, "smooth_l1")
    d = pred.values - target.values
    absd = np.abs(d)
    quad = absd < 1.0
    per = np.where(quad, 0.5 * d * d, absd - 0.5)
    count = d.size

    def vjp(g):
        gd = np.where(quad, d, np.sign(d)) * (float(g) / count)
        _accum(pred, gd)
        _accum(target, -gd)

    return _node(np.asarray(per.mean()), (pred, target), vjp)


def patch_broadcast(t: Tensor, row_idx: np.ndarray, col_idx: np.ndarray) -> Tensor:
    """Expand (C, M, N) patch values to (C, H, W) via per-pixel patch indices."""
    if t.values.ndim != 3:
        raise ShapeError("patch_broadcast: needs a (C, M, N) input")
    out = t.values[:, row_idx[:, None], col_idx[None, :]]
    c, m, n = t.shape
    flat_pid = (row_idx[:, None] * n + col_idx[None, :]).reshape(-1)

    def vjp(g):
        acc = np.zeros((c, m * n))
        np.add.at(acc, (np.arange(c)[:, None], flat_pid[None, :]), g.reshape(c, -1))
        _accum(t, acc.reshape(c, m, n))

    return _node(out, (t,), vjp)


def bilinear_resample(x: Tensor, src_y: np.ndarray, src_x: np.ndarray) -> Tensor:
    """Sample (C, H, W) at continuous source coords.

    1-D ``src_y`` (Ho,) and ``src_x`` (Wo,) give one (C, Ho, Wo) grid.  2-D
    ``src_y`` (N, Ho) and ``src_x`` (N, Wo) give one grid per row, stacked
    to (N, C, Ho, Wo).  The 1-D form runs as a stack of one.
    """
    if x.values.ndim != 3:
        raise ShapeError("bilinear_resample: needs a (C, H, W) input")
    src_y = np.asarray(src_y, dtype=np.float64)
    src_x = np.asarray(src_x, dtype=np.float64)
    single = src_y.ndim == 1 and src_x.ndim == 1
    if single:
        src_y, src_x = src_y[None], src_x[None]
    if src_y.ndim != 2 or src_x.ndim != 2 or src_y.shape[0] != src_x.shape[0]:
        raise ShapeError("bilinear_resample: coords must be 1-D, or (N, Ho) and (N, Wo)")
    c, h, w = x.shape
    sy = np.clip(src_y, 0.0, h - 1.0)
    sx = np.clip(src_x, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0)[:, :, None, None]
    fx = (sx - x0)[:, None, :, None]
    # per corner: (N, Ho, Wo, 1) weights and (N, Ho, Wo) flat pixel indices
    weights = ((1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx)
    row0, row1 = (y0 * w)[:, :, None], (y1 * w)[:, :, None]
    col0, col1 = x0[:, None, :], x1[:, None, :]
    pixels = (row0 + col0, row0 + col1, row1 + col0, row1 + col1)
    # channel-last pixel table: each sample gathers one contiguous row of C values
    table = np.ascontiguousarray(x.values.reshape(c, h * w).T)
    acc = np.take(table, pixels[0], axis=0)
    acc *= weights[0]
    for wt, pix in zip(weights[1:], pixels[1:]):
        corner = np.take(table, pix, axis=0)
        corner *= wt
        acc += corner
    out = np.ascontiguousarray(acc.transpose(0, 3, 1, 2))

    def vjp(g):
        # one bincount over the four corners in turn: each input pixel sums its
        # contributions in the same order as one scatter-add per corner
        gl = (g[None] if single else g).transpose(0, 2, 3, 1)
        chan = np.arange(c)
        index = np.concatenate([(pix[..., None] * c + chan).reshape(-1) for pix in pixels])
        contrib = np.concatenate([(gl * wt).reshape(-1) for wt in weights])
        total = np.bincount(index, weights=contrib, minlength=h * w * c)
        _accum(x, np.ascontiguousarray(total.reshape(h * w, c).T).reshape(c, h, w))

    return _node(out[0] if single else out, (x,), vjp)


def avg_pool2(a: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 over the last two axes."""
    if a.values.ndim < 2 or a.shape[-2] % 2 or a.shape[-1] % 2:
        raise ShapeError(f"avg_pool2: needs even trailing dims, got {a.shape}")
    v = a.values
    # pairs within each row first, then across rows: the order a mean over
    # the two pooled axes of a (..., H/2, 2, W/2, 2) view sums in
    out = ((v[..., 0::2, 0::2] + v[..., 0::2, 1::2]) + (v[..., 1::2, 0::2] + v[..., 1::2, 1::2])) / 4

    def vjp(g):
        buf = np.empty_like(v)
        quarter = g / 4
        for dy in (0, 1):
            for dx in (0, 1):
                buf[..., dy::2, dx::2] = quarter
        _accum(a, buf)

    return _node(out, (a,), vjp)


def linear_rows(x: Tensor, w: Tensor) -> Tensor:
    """Map each row of (N, D) ``x`` through (M, D) ``w``: ``x @ w.T``, shape (N, M)."""
    if x.values.ndim != 2 or w.values.ndim != 2:
        raise ShapeError(f"linear_rows: operands must be 2-D, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear_rows: rows of width {x.shape[1]} through a {w.shape} map")

    def vjp(g):
        _accum(x, g @ w.values)
        _accum(w, g.T @ x.values)

    return _node(x.values @ w.values.T, (x, w), vjp)


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row of a 2-D input to unit L2 norm."""
    if a.values.ndim != 2:
        raise ShapeError("l2_normalize_rows: needs a 2-D input")
    n = np.sqrt((a.values * a.values).sum(axis=1, keepdims=True))
    if np.any(n == 0.0):
        raise DomainError("l2_normalize_rows: zero-norm row")
    y = a.values / n

    def vjp(g):
        _accum(a, (g - y * (g * y).sum(axis=1, keepdims=True)) / n)

    return _node(y, (a,), vjp)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis of a 2-D input, row by row."""
    if a.values.ndim != 2 or a.values.shape[1] == 0:
        raise DomainError("softmax_rows: needs a 2-D input with non-empty rows")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        _accum(a, y * (g - (g * y).sum(axis=1, keepdims=True)))

    return _node(y, (a,), vjp)


def pick_rows(a: Tensor, index) -> Tensor:
    """Entry ``index[i]`` of row ``i`` of a 2-D input, as a 1-D tensor."""
    index = np.asarray(index, dtype=np.int64)
    if a.values.ndim != 2 or index.shape != (a.shape[0],):
        raise ShapeError(f"pick_rows: one index per row of a 2-D input, got {index.shape} for {a.shape}")
    if np.any((index < 0) | (index >= a.shape[1])):
        raise ShapeError(f"pick_rows: index out of range {a.shape[1]}")
    rows = np.arange(a.shape[0])

    def vjp(g):
        buf = np.zeros_like(a.values)
        buf[rows, index] = g
        _accum(a, buf)

    return _node(a.values[rows, index], (a,), vjp)


def gather_rows(a: Tensor, rows) -> Tensor:
    """Rows ``rows`` of the input, in that order; repeats allowed."""
    rows = np.asarray(rows, dtype=np.int64)
    if a.values.ndim == 0 or rows.ndim != 1:
        raise ShapeError("gather_rows: needs an input with rows and a 1-D row list")
    if np.any((rows < 0) | (rows >= a.shape[0])):
        raise ShapeError(f"gather_rows: row out of range {a.shape[0]}")

    def vjp(g):
        buf = np.zeros_like(a.values)
        np.add.at(buf, rows, g)
        _accum(a, buf)

    return _node(a.values[rows], (a,), vjp)


@dataclass
class OptimState:
    """Per-parameter SGD-with-momentum state."""

    velocity: np.ndarray
    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        if self.learning_rate <= 0.0:
            raise StateError("learning_rate must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise StateError("momentum must lie in [0, 1)")
        if self.weight_decay < 0.0:
            raise StateError("weight_decay must be non-negative")


def sgd_momentum_step(param: Tensor, state: OptimState) -> Tensor:
    """v <- m*v + (grad + wd*param); param <- param - lr*v; grad cleared."""
    if param.grad is None:
        raise StateError("sgd_momentum_step: parameter has no gradient")
    if state.velocity.shape != param.values.shape:
        raise ShapeError("sgd_momentum_step: velocity shape mismatch")
    state.velocity *= state.momentum
    state.velocity += param.grad + state.weight_decay * param.values
    param.values -= state.learning_rate * state.velocity
    param.grad = None
    return param


class SgdMomentum:
    """Momentum SGD over a parameter list; params without grads are skipped."""

    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        self.params = list(params)
        self.states = [
            OptimState(np.zeros_like(p.values), lr, momentum, weight_decay) for p in self.params
        ]

    def set_lr(self, lr: float) -> None:
        for st in self.states:
            st.learning_rate = lr

    def step(self) -> None:
        for p, st in zip(self.params, self.states):
            if p.grad is not None:
                sgd_momentum_step(p, st)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass
class GradCheckResult:
    passed: bool
    max_rel_error: float
    checked: int = 0
    worst_input: int = -1
    worst_index: int = -1

    def __bool__(self) -> bool:
        return self.passed


def grad_check(fn, inputs: list[Tensor], eps: float = 1e-5, tol: float = 1e-4) -> GradCheckResult:
    """Compare reverse-mode gradients of scalar ``fn`` against central differences."""
    if not (0.0 < eps <= 1e-3):
        raise ContractError("grad_check: eps must lie in (0, 1e-3]")
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    if not isinstance(out, Tensor) or out.values.size != 1:
        raise ContractError("grad_check: fn must return a scalar Tensor")
    out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.values) for t in inputs
    ]
    for t in inputs:
        t.zero_grad()

    max_rel = 0.0
    worst = (-1, -1)
    checked = 0
    for ti, t in enumerate(inputs):
        flat = t.values.reshape(-1)
        aflat = analytic[ti].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            f_plus = fn(*inputs).item()
            flat[i] = keep - eps
            f_minus = fn(*inputs).item()
            flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]) + abs(numeric))
            checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (ti, i)
    return GradCheckResult(max_rel <= tol, max_rel, checked, worst[0], worst[1])
