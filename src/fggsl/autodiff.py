"""Reverse-mode automatic differentiation over dense 2-D float64 tensors.

Define-by-run: every differentiable operation appends a node to a global
tape while computing its value eagerly in numpy.  ``backward`` replays the
tape once in reverse, accumulating vector-Jacobian products into the
gradients of tracked parameters, then clears the tape.  The op set is
exactly what the edge-mask / filter-bank forward pass needs; there is no
broadcasting beyond the listed operations and no higher-order grads.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, DimensionError


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"tensors are 2-D; got array of ndim {arr.ndim}")
    return arr


class Tensor:
    """Dense 2-D float64 array, optionally tracked for gradients.

    Scalars are stored as 1x1, 1-D input becomes a single row.  ``grad``
    is populated (as a plain ndarray) by ``backward`` for tracked leaves.
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_matrix(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad_tracked={self.requires_grad}{tag})"

    # Operator sugar; everything routes through the module-level ops so
    # the tape sees a single implementation of each rule.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(float(other), self)
        return hadamard(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(-1.0, self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


class Tape:
    """Ordered record of executed operations.

    Nodes are appended in execution order, so inputs always precede the
    node that consumes them; reverse iteration is a valid reverse
    topological order and visits each node exactly once.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp):
        self._nodes.append((out, inputs, vjp))

    def clear(self):
        self._nodes.clear()

    def __len__(self):
        return len(self._nodes)

    def nodes(self):
        return self._nodes


_TAPE = Tape()
_GRAD_ENABLED = True


def tape() -> Tape:
    return _TAPE


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (evaluation-only forward passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _emit(value: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(value)
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.record(out, inputs, vjp)
    return out


class ParameterSet:
    """Named grad-tracked tensors plus their accumulated gradients."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        t = data if isinstance(data, Tensor) else Tensor(data)
        t.requires_grad = True
        t.name = name
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.items())

    def __len__(self):
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._params.items()}

    def restore(self, state: dict[str, np.ndarray]):
        for k, v in state.items():
            self._params[k].data = v.copy()


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return (
            g @ bd.T if a.requires_grad else None,
            ad.T @ g if b.requires_grad else None,
        )

    return _emit(ad @ bd, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shapes differ, {a.shape} vs {b.shape}")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"hadamard: shapes differ, {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(c: float, a: Tensor) -> Tensor:
    c = float(c)
    return _emit(c * a.data, (a,), lambda g: (c * g,))


def transpose(a: Tensor) -> Tensor:
    return _emit(a.data.T.copy(), (a,), lambda g: (g.T,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # split by sign so exp never overflows
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _emit(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return _emit(t, (a,), lambda g: (g * (1.0 - t * t),))


def rsqrt_clamped(a: Tensor, eps: float = 1e-8) -> Tensor:
    """1/sqrt(max(x, eps)); gradient is zero wherever the clamp is active."""
    x = a.data
    clamped = np.maximum(x, eps)
    y = 1.0 / np.sqrt(clamped)
    live = x > eps

    def vjp(g):
        return (np.where(live, -0.5 * g * y / clamped, 0.0),)

    return _emit(y, (a,), vjp)


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols: no parts")
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise DimensionError(
                f"concat_cols: row counts differ, {rows} vs {p.shape[0]}")
    if len(parts) == 1:
        return parts[0]
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(
            g[:, offsets[k]:offsets[k + 1]] if parts[k].requires_grad else None
            for k in range(len(parts)))

    return _emit(np.concatenate([p.data for p in parts], axis=1), tuple(parts), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _emit(np.sum(a.data), (a,), lambda g: (np.full(shape, g[0, 0]),))


def gather_pairs(m: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Column vector of entries m[rows[k], cols[k]]; backward scatter-adds."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise DimensionError("gather_pairs: index arrays must be equal-length 1-D")
    shape = m.shape
    vals = m.data[rows, cols].reshape(-1, 1)

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, (rows, cols), g[:, 0])
        return (out,)

    return _emit(vals, (m,), vjp)


def _row_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows(logits: Tensor) -> Tensor:
    p = _row_softmax(logits.data)

    def vjp(g):
        return (p * (g - np.sum(g * p, axis=1, keepdims=True)),)

    return _emit(p, (logits,), vjp)


def softmax_cross_entropy(logits: Tensor, onehot: Tensor, rows) -> tuple[Tensor, Tensor]:
    """Mean cross-entropy over the selected rows plus full softmax probabilities.

    The loss gradient is the fused rule (probs - onehot)/|rows| on selected
    rows; the probability output carries its own softmax backward so later
    consumers of the full matrix stay differentiable.
    """
    rows = np.asarray(rows, dtype=np.intp).ravel()
    if rows.size == 0:
        raise ContractError("softmax_cross_entropy: empty row set")
    if logits.shape != onehot.shape:
        raise DimensionError(
            f"softmax_cross_entropy: shapes differ, {logits.shape} vs {onehot.shape}")
    ysel = onehot.data[rows]
    sums = ysel.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        bad = int(rows[np.argmax(np.abs(sums - 1.0))])
        raise ContractError(f"softmax_cross_entropy: label row {bad} does not sum to 1")

    x = logits.data[rows]
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    ce_val = float(np.mean(lse - np.sum(shifted * ysel, axis=1)))
    psel = _row_softmax(x)
    n_sel = rows.size
    full_shape = logits.shape

    def vjp(g):
        out = np.zeros(full_shape)
        out[rows] = (g[0, 0] / n_sel) * (psel - ysel)
        return (out, None)

    loss = _emit(np.array([[ce_val]]), (logits, onehot), vjp)
    probs = softmax_rows(logits)
    return loss, probs


def pair_cosines(a: np.ndarray, b: np.ndarray, i_idx, j_idx, what: str):
    """Cosine similarity of rows a[i] and b[j] per pair, in plain numpy.

    Returns (cos, u, v, nu, nv): the gathered rows and their norms come
    back for callers that differentiate.  A zero-norm row raises a
    ContractError naming ``what`` and the row.
    """
    u, v = a[i_idx], b[j_idx]
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    zero = (nu == 0) | (nv == 0)
    if np.any(zero):
        k = int(np.argmax(zero))
        bad = int(i_idx[k]) if nu[k] == 0 else int(j_idx[k])
        raise ContractError(f"{what}: zero-norm row {bad}")
    return np.sum(u * v, axis=1) / (nu * nv), u, v, nu, nv


def cosine_rows(a: Tensor, b: Tensor, pairs) -> Tensor:
    """Cosine similarity of a[i] and b[j] per pair (i, j), as a column vector.

    Differentiable through both arguments (grads scatter-add, so a and b
    may be the same tensor).
    """
    i_idx = np.asarray(pairs[0], dtype=np.intp).ravel()
    j_idx = np.asarray(pairs[1], dtype=np.intp).ravel()
    if i_idx.size != j_idx.size:
        raise DimensionError("cosine_rows: pair index arrays differ in length")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"cosine_rows: widths differ, {a.shape} vs {b.shape}")
    c, u, v, nu, nv = pair_cosines(a.data, b.data, i_idx, j_idx, "cosine_rows")
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        gv = g[:, 0]
        denom = (nu * nv)[:, None]
        du = (v / denom - (c / (nu * nu))[:, None] * u) * gv[:, None]
        dv = (u / denom - (c / (nv * nv))[:, None] * v) * gv[:, None]
        ga = gb = None
        if a.requires_grad:
            ga = np.zeros(a_shape)
            np.add.at(ga, i_idx, du)
        if b.requires_grad:
            gb = np.zeros(b_shape)
            np.add.at(gb, j_idx, dv)
        return (ga, gb)

    return _emit(c.reshape(-1, 1), (a, b), vjp)


# ---------------------------------------------------------------------------
# backward pass and verification


def backward(loss: Tensor, params: ParameterSet | list[Tensor]):
    """Accumulate d(loss)/d(param) into each tracked parameter's ``grad``.

    The loss must be a scalar produced on the current tape.  The tape is
    cleared afterwards, so each forward pass supports one backward.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = _TAPE.nodes()
    if not loss.requires_grad or not any(out is loss for out, _, _ in nodes):
        raise ContractError("backward: loss was not produced on the current tape")

    # Accumulation is out-of-place: vjps may return views or the same array
    # for several inputs, and stored arrays must never be mutated.
    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for out, inputs, vjp in reversed(nodes):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for inp, gi in zip(inputs, vjp(g)):
            if gi is None or not inp.requires_grad:
                continue
            key = id(inp)
            prev = grads.get(key)
            grads[key] = gi if prev is None else prev + gi

    tensors = params.tensors() if isinstance(params, ParameterSet) else list(params)
    for p in tensors:
        g = grads.get(id(p))
        if g is None:
            g = np.zeros(p.shape)
        if g.shape != p.shape:
            raise DimensionError(
                f"backward: gradient shape {g.shape} != parameter shape {p.shape}")
        p.grad = g.copy() if p.grad is None else p.grad + g
    _TAPE.clear()


def grad_check(loss_fn, params: ParameterSet, step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a deterministic zero-argument callable returning a
    scalar Tensor built from the tensors in ``params``.
    """
    _TAPE.clear()
    params.zero_grad()
    loss = loss_fn()
    backward(loss, params)
    analytic = {name: t.grad.copy() for name, t in params}

    worst = 0.0
    for name, t in params:
        flat = t.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            with no_grad():
                f_plus = loss_fn().item()
            flat[k] = orig - step
            with no_grad():
                f_minus = loss_fn().item()
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[name].reshape(-1)[k]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst
