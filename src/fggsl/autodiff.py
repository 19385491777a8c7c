"""Reverse-mode automatic differentiation over dense 2-D float64 tensors.

Define-by-run: every differentiable operation computes its value eagerly
in numpy and, when an input is tracked, records a node on the current
tape: a fresh one inside ``recording()``, none under ``no_grad``, and the
module's default tape outside both.  ``backward`` replays the current
tape once in reverse, accumulating vector-Jacobian products into the
gradients of tracked parameters, then clears it.  The op set is
exactly what the edge-mask / filter-bank forward pass needs; there is no
broadcasting beyond the listed operations and no higher-order grads.

A filter bank's propagation is one op, ``propagate``: it evaluates
polynomials in an n x n operator T on column blocks, out_m =
sum_s sum_k coeffs[s, k, m] T^s Z_k, by repeated products T @ Y.  It
runs in the chain order (push the K inputs through T) or the Horner
order (push the M outputs), whichever is narrower, recorded or not, and
records one tape node.  Its VJP runs the transposed polynomial in the
other order at the same width.  Each step T @ Y takes the form BLAS runs
fastest for Y's shape (``_step`` holds the measurements): on n >= 512
rows, a block 2 to 7 columns wide runs in row panels of about
``BLOCK_ENTRIES`` entries, T[r0:r1] @ Y, one at a time; any other block
runs as T @ Y.

T is an ``EdgeOperator``: diag * I + off * W of an undirected edge
column, so it is exactly symmetric and T^T is T.  The op steps the
operator's ``matrix``, T built by one symmetric scatter
(``EdgeOperator.dense``) on first read, and keeps it in its node; the
gradient is the per-edge column off * (dT[i, j] + dT[j, i]), read one
row block at a time, so no n x n dT is formed.  ``side_by_side``
lays the row blocks of several weights next to each other in one array,
so one product with X serves all of them; with one block per part it is
the plain column concatenation.  ``block`` reads one column span of that
product as a read-only view, so splitting it copies nothing.

Per-pair quantities are |P| x 1 columns over a list of node pairs
(i, j), and one pair layer computes them.  Its one pair argument is a
``PairIndex(i, j, n)``, which carries the node count n and does the index
work once: it checks that the arrays have one length and every pair lies
in [0, n), and holds the pairs as ``intp`` arrays and the flat offsets
of (i, j) and (j, i) in an n x n array.  On first use it builds their
row blocks of ``_block_rows(n)`` rows, about ``BLOCK_ENTRIES`` entries,
and each block's flat gather offsets.  A graph's ``EdgeList`` builds one
on first use, and the model passes it to every op of every forward.
``pair_dots(a, index)`` reads the Gram matrix a a^T at the pairs, and
every cosine is ``pair_dots(unit_rows(a, index, what), index)``;
``unit_rows`` is the one zero-norm check, and ``row_units``, the one
overflow-safe row norm, also normalises features and kNN.  Both check
that the index spans a's rows.
``edge_normalize(w, index)`` turns an undirected edge column into its
symmetric normalised one, taking the degrees with ``np.bincount``, and
``EdgeOperator(w, index, diag, off)`` is its T.  The pair layer works one
row block at a time, skipping blocks that hold no pair: the forward reads
a block of a a^T at the block's offsets, and the VJP scatters the block's
pair gradients into its rows of S with one ``bincount`` on the same
offsets and adds S a + S^T a.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError

# lower clamp of a weighted degree in the normalised Laplacian
DEGREE_EPS = 1e-8


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

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad_tracked={self.requires_grad}{tag})"


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


_TAPE: Tape | None = Tape()


def tape() -> Tape | None:
    """The current tape: None under ``no_grad``."""
    return _TAPE


@contextlib.contextmanager
def recording(on: bool = True):
    """Record the block's ops on a fresh tape, yielded, or on none when
    ``on`` is false; the previous tape comes back on exit, also on raise."""
    global _TAPE
    prev = _TAPE
    _TAPE = Tape() if on else None
    try:
        yield _TAPE
    finally:
        _TAPE = prev


def no_grad():
    """Record nothing in the block (evaluation-only forward passes)."""
    return recording(False)


def _records(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` would record a tape node."""
    return _TAPE is not None and any(t.requires_grad for t in inputs)


def _emit(value: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(value)
    if _records(inputs):
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

    def __iter__(self):
        return iter(self._params.items())

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


def add_row(a: Tensor, row: Tensor) -> Tensor:
    """a with the 1 x m ``row`` added to each of its rows (a bias)."""
    if row.shape != (1, a.shape[1]):
        raise DimensionError(f"add_row: row shape {row.shape} != (1, {a.shape[1]})")
    return _emit(a.data + row.data, (a, row),
                 lambda g: (g, np.sum(g, axis=0, keepdims=True)))


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


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # split by sign so exp never overflows: 1 / (1 + e) where x >= 0,
    # e / (1 + e) elsewhere
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return _emit(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return _emit(t, (a,), lambda g: (g * (1.0 - t * t),))


def block(a: Tensor, cols: tuple[int, int]) -> Tensor:
    """The column block a[:, lo:hi].

    The value is a read-only view of ``a``'s data, not a copy.  Backward
    pads the gradient with zero columns to the shape of ``a``.
    """
    lo, hi = cols
    if not 0 <= lo < hi <= a.shape[1]:
        raise DimensionError(f"block: cols {lo}:{hi} outside 0:{a.shape[1]}")
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
        out[:, lo:hi] = g
        return (out,)

    view = a.data[:, lo:hi]
    view.flags.writeable = False
    return _emit(view, (a,), vjp)


def side_by_side(parts: list[tuple[Tensor, int]]) -> Tensor:
    """Row blocks laid side by side in one array: each part (a, k) adds
    a's k equal row blocks, [a_1 | ... | a_k], after the previous parts'.

    Every block must have the same number of rows.  Backward hands each
    part its columns stacked back into rows, one array of its shape.
    """
    if not parts:
        raise ContractError("side_by_side: no parts")
    for a, k in parts:
        if k < 1 or a.shape[0] % k:
            raise DimensionError(f"side_by_side: {a.shape[0]} rows do not split into {k} blocks")
    rows = {a.shape[0] // k for a, k in parts}
    if len(rows) > 1:
        raise DimensionError(f"side_by_side: blocks of {sorted(rows)} rows")
    r = rows.pop()
    out = np.concatenate([a.data[i * r:(i + 1) * r] for a, k in parts for i in range(k)],
                         axis=1)

    def vjp(g):
        grads, first = [], 0
        for a, k in parts:
            c = a.shape[1]
            grads.append(np.concatenate([g[:, first + i * c:first + (i + 1) * c]
                                         for i in range(k)]) if a.requires_grad else None)
            first += k * c
        return tuple(grads)

    return _emit(out, tuple(a for a, _ in parts), vjp)


def _step_form(n: int, w: int) -> str:
    """How ``_step`` multiplies an n x n T with an n x w block: "panels"
    or "direct"."""
    return "panels" if n >= 512 and 2 <= w <= 7 else "direct"


def _step(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T @ Y for a symmetric n x n T and an n x w block Y, in the form BLAS
    runs fastest for the block's shape, as a C-contiguous array.

    - **direct**: T @ Y;
    - **row panels**: T[r0:r1] @ Y into rows r0:r1 of one n x w array, one
      row block of ``_block_rows(n)`` rows, about ``BLOCK_ENTRIES``
      entries, at a time.

    Medians in ms of eleven runs with one BLAS thread (OpenBLAS 0.3.31 on
    a 2-CPU Sapphire Rapids-class host with 4 MiB of L2); p16 is the panel
    form at 2^16 entries, p17 at ``BLOCK_ENTRIES`` = 2^17:

        n     w   direct    p16     p17
        256   2    0.015   0.017   0.017
        256   5    0.033   0.036   0.035
        256   12   0.050   0.052   0.052
        512   2    0.068   0.085   0.077
        512   5    0.294   0.141   0.151
        512   7    0.338   0.118   0.114
        512   8    0.276   0.167   0.285
        1000  1    0.350   0.406   0.372
        1000  2    0.785   0.389   0.357
        1000  5    1.171   0.644   0.614
        1000  7    1.540   0.561   0.481
        1000  8    0.789   0.436   0.766
        1000  10   1.160   0.748   1.407
        1000  12   1.513   1.081   1.555
        1000  24   1.783   2.003   1.875
        2000  2    3.957   1.700   1.526
        2000  5    5.190   2.436   2.485
        2000  8    4.993   2.310   4.893
        2000  12   7.280   4.222   7.268
        2000  24   8.689   8.962  10.004
        3000  5    18.32   7.500   6.908
        3000  8    16.05   7.357   16.56

    A product of at most 10^6 multiply-adds ran in half the time per row
    of one just past it (125 against 126 rows of T at n = 1000, w = 8),
    and a 2^17-entry panel stays under that up to w = 7.  So a block of
    n >= 512 rows runs in row panels if it is 2 to 7 columns wide
    (``_step_form``).  Every other block runs as T @ Y: at n < 512 the
    forms tie, at w = 1 it is a gemv, and a training or evaluation step on
    C = 5 classes is 5 wide.  Three measured misses stay, all on shapes no
    workload runs.  At w = 2, T @ Y beats the panels while it is under
    10^6 multiply-adds: 0.069 against 0.075 ms at n = 512 and 0.134
    against 0.141 at n = 600 (medians of 11 x 200).  The panels win from
    n = 708 (0.209 against 0.509) and at n = 512, w = 3 (0.131 against
    0.144), so a second constant would save under 0.01 ms.  At w = 8 to 10
    half-size panels beat T @ Y.  And from n = 1000, a block 12 to 500
    wide ran 1.1 to 1.9 times faster as (Y^T T)^T, the same product with
    the operands' roles swapped (3.91 against 7.28 ms at n = 2000, w = 12).
    """
    n, w = y.shape
    if _step_form(n, w) == "direct":
        return t @ y
    rows = _block_rows(n)
    y = np.ascontiguousarray(y)     # a strided block is copied once, not once per panel
    out = np.empty((n, w))
    for r0 in range(0, n, rows):
        np.matmul(t[r0:r0 + rows], y, out=out[r0:r0 + rows])
    return out


def _polynomial(t: np.ndarray, z: np.ndarray, coeffs: np.ndarray,
                order: str, keep: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """out_m = sum over s, k of coeffs[s, k, m] T^s Z_k, by S = len(coeffs) - 1
    products with the symmetric T (see ``_step``).

    The "chain" order applies T to the K blocks of Z, Y_s = T Y_(s-1), and
    adds Y_s's blocks into the outputs.  The "horner" order folds the
    inputs into M blocks first, acc_s = T acc_(s+1) + B_s with
    B_s = sum_k coeffs[s, k, m] Z_k.  With ``keep`` the input of every
    step comes back as well, stacked: block s holds T^s Z in the chain
    order and acc_(s+1) in the Horner order.
    """
    n = z.shape[0]
    top, k_in, m_out = coeffs.shape
    w = z.shape[1] // k_in
    horner = order == "horner"
    steps = top - 1
    width = (m_out if horner else k_in) * w
    stack = np.empty((n, steps * width)) if keep else None
    # each power's nonzero terms (k, m, coeffs[s, k, m]), in row-major order
    terms = [[] for _ in range(top)]
    for s, k, m in zip(*np.nonzero(coeffs)):
        terms[s].append((k, m, coeffs[s, k, m]))

    def add_terms(out, y, s):
        for k, m, c in terms[s]:
            out[:, m * w:(m + 1) * w] += c * y[:, k * w:(k + 1) * w]

    out = np.zeros((n, m_out * w))
    if horner:
        add_terms(out, z, steps)
        for s in range(steps - 1, -1, -1):
            if keep:
                stack[:, s * width:(s + 1) * width] = out
            out = _step(t, out)
            add_terms(out, z, s)
        return out, stack
    y = z
    for s in range(top):
        if s:
            if keep:
                stack[:, (s - 1) * width:s * width] = y
            y = _step(t, y)
        add_terms(out, y, s)
    return out, stack


@dataclass(frozen=True, eq=False)
class EdgeOperator:
    """T = diag * I + off * W of an undirected edge column, for ``propagate``.

    ``w`` holds one weight per pair (i, j) of the ``PairIndex`` ``index``,
    with i != j and no pair given twice in either orientation, and T is
    index.n x index.n.  ``dense`` builds T; ``matrix`` is T, built by
    ``dense`` on first read and kept read-only, so ``w`` must not change
    after that read: the model builds a fresh operator for each forward's
    learned column and reuses only a constant column's, whose T it so
    builds once (``model._constant_operator``).  ``propagate``'s gradient
    for T is the per-edge column off * (dT[i, j] + dT[j, i]), so no n x n
    dT is formed.
    """

    w: Tensor
    index: PairIndex
    diag: float
    off: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.index.n, self.index.n)

    def dense(self) -> np.ndarray:
        """The n x n array T; one scatter writes each weight at (i, j) and
        (j, i), through the flat offsets of the pair index, so T is
        exactly symmetric."""
        index = self.index
        if self.w.shape != (index.size, 1):
            raise DimensionError(f"EdgeOperator: weights {self.w.shape} for {index.size} pairs")
        out = np.zeros(self.shape)
        v = float(self.off) * self.w.data[:, 0]
        flat = out.reshape(-1)
        flat[index.upper] = v
        flat[index.lower] = v
        np.fill_diagonal(out, float(self.diag))
        return out

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """T, built by ``dense`` on first read and kept read-only."""
        t = self.dense()
        t.flags.writeable = False
        return t


def propagate(t: EdgeOperator, z: Tensor, coeffs) -> Tensor:
    """The polynomials out_m = sum_s sum_k coeffs[s, k, m] T^s Z_k in T.

    ``z`` holds K column blocks Z_k of one width, ``coeffs`` has shape
    (S + 1) x K x M, and the n x Mw result holds the M blocks out_m.
    Powers past the last nonzero coefficient are dropped, so the op makes
    S products of the n x n operator T with a block, and no product
    has two n x n operands.  It runs them in the narrower order: the
    chain order pushes the K input blocks through T (K <= M), the Horner
    order the M output blocks (M < K), recorded or not, so the value
    does not depend on whether the op records.  It steps the dense,
    exactly symmetric ``t.matrix`` and holds it in its node.

    The op records one tape node, on (the edge column, Z).  Its VJP for Z
    is the same polynomial in T = T^T with coeffs transposed over (k, m),
    in the opposite order and so at the same width.  Both orders keep the
    input of every step, and block s of the backward's steps B is the
    gradient of the output of the forward's step whose input is block s
    of the forward's steps F.  So dT = B F^T, and the edge column's
    gradient reads off * (dT + dT^T) at its pairs, one row block of
    [B | F] [F | B]^T at a time (``PairIndex.read``).
    """
    n, width = z.shape
    if t.shape != (n, n):
        raise DimensionError(f"propagate: operator {t.shape} does not act on {z.shape}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 3 or coeffs.shape[0] == 0:
        raise ContractError(f"propagate: coeffs of shape {coeffs.shape} is not "
                            "(powers, inputs, outputs)")
    if width % coeffs.shape[1]:
        raise DimensionError(f"propagate: {width} columns do not split into "
                             f"{coeffs.shape[1]} blocks")
    live = np.flatnonzero(coeffs.any(axis=(1, 2)))
    coeffs = coeffs[:live[-1] + 1 if live.size else 1]
    top, k_in, m_out = coeffs.shape
    order, back = ("horner", "chain") if m_out < k_in else ("chain", "horner")
    w, td = t.w, t.matrix
    out, forward_steps = _polynomial(td, z.data, coeffs, order, _records((w,)))

    def vjp(g):
        dz, backward_steps = _polynomial(td, g, coeffs.transpose(0, 2, 1), back,
                                         w.requires_grad)
        dw = None
        if w.requires_grad:
            dw = t.off * t.index.read(np.hstack([backward_steps, forward_steps]),
                                      np.hstack([forward_steps, backward_steps]))
        return dw, dz if z.requires_grad else None

    return _emit(out, (w, z), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _emit(np.sum(a.data), (a,), lambda g: (np.full(shape, g[0, 0]),))


def softmax_rows(logits: Tensor) -> Tensor:
    e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (p * (g - np.sum(g * p, axis=1, keepdims=True)),)

    return _emit(p, (logits,), vjp)


def softmax_cross_entropy(logits: Tensor, onehot: Tensor, rows) -> Tensor:
    """Mean cross-entropy over the selected rows.

    The loss gradient is the fused rule (probs - onehot)/|rows| on selected
    rows; callers that need the probabilities take ``softmax_rows``.
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
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    ce_val = float(np.mean(np.log(total[:, 0]) - np.sum(shifted * ysel, axis=1)))
    psel = e / total
    n_sel = rows.size
    full_shape = logits.shape

    def vjp(g):
        out = np.zeros(full_shape)
        out[rows] = (g[0, 0] / n_sel) * (psel - ysel)
        return (out, None)

    return _emit(np.array([[ce_val]]), (logits, onehot), vjp)


def row_units(m: np.ndarray, ord: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``m`` divided by their ``ord``-norm, and the norms.  A
    zero row stays zero.  A row whose norm overflows, or underflows to 0
    although the row is not zero, is first divided by its largest
    absolute value; the norm of the first stays inf, and that of the
    second is its largest value times the scaled row's norm."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, ord=ord, axis=1)
    units = m / np.where(norms == 0.0, 1.0, norms)[:, None]
    huge = np.isinf(norms)
    tiny = norms == 0.0
    tiny[tiny] = m[tiny].any(axis=1)
    odd = huge | tiny
    if odd.any():
        top = np.abs(m[odd]).max(axis=1)
        rows = m[odd] / top[:, None]
        scaled = np.linalg.norm(rows, ord=ord, axis=1)
        units[odd] = rows / scaled[:, None]
        small = tiny[odd]
        norms[tiny] = top[small] * scaled[small]
    return units, norms


def unit_rows(a: Tensor, index: PairIndex, what: str) -> Tensor:
    """The rows of ``a`` scaled to unit length by ``row_units``, for
    cosines over the pairs of ``index``.

    A zero-norm row that a pair (i, j) uses raises a ContractError naming
    ``what`` and the row, taken from the first such pair, its i side
    first; rows no pair uses stay zero.  Backward projects out each unit
    direction twice, so the result is orthogonal to it to working
    precision, and divides by the row's norm, so a row whose norm
    overflows gets a zero gradient.
    """
    index.spans(a.shape[0], what)
    i_idx, j_idx = index.i, index.j
    u, norms = row_units(a.data, 2)
    if not np.all(norms):
        zero = (norms[i_idx] == 0) | (norms[j_idx] == 0)
        if np.any(zero):
            k = int(np.argmax(zero))
            bad = int(i_idx[k]) if norms[i_idx[k]] == 0 else int(j_idx[k])
            raise ContractError(f"{what}: zero-norm row {bad}")
    safe = np.where(norms == 0, 1.0, norms)[:, None]

    def vjp(g):
        # rows no pair uses have g = 0 and keep a zero gradient.  The second
        # projection removes what round-off left along u: a self pair (i, i)
        # sends a g parallel to u_i, and one pass left a few ulps of |g|
        r = g - np.sum(g * u, axis=1, keepdims=True) * u
        r = r - np.sum(r * u, axis=1, keepdims=True) * u
        return (r / safe,)

    return _emit(u, (a,), vjp)


# the entries of one row block of an n x n operand, in the pair layer and
# in ``_step``'s row panels: 1 MiB of float64
BLOCK_ENTRIES = 2 ** 17


def _block_rows(n: int) -> int:
    """The rows of one row block of an n x n operand: about BLOCK_ENTRIES
    entries, at least one row."""
    return max(1, BLOCK_ENTRIES // max(n, 1))


class PairIndex:
    """Node pairs (i, j) over n nodes, the one pair argument of the pair
    layer, with the index work of every pair op done once:
    ``graphs.EdgeList.index`` builds one for a graph's pairs.

    The index arrays must be of one length and every pair must lie in
    [0, n), so that no flat offset aliases another pair; else the
    constructor raises a DimensionError.  ``i`` and ``j`` hold the pairs
    as ``intp`` arrays, and ``upper`` and ``lower`` their flat offsets
    i n + j and j n + i into an n x n array, which is all a scatter
    (``EdgeOperator.dense``) reads.  The row-block layout that the reads
    and their VJPs go by is built on first use (``_layout``), so an index
    that only scatters never pays for it.  The pairs are grouped as
    lo = min(i, j) <= hi = max(i, j) by lo into row blocks of
    ``_block_rows(n)`` rows: ``blocks`` lists (r0, r1, c1, p0, p1), the
    sorted pairs p0:p1 having lo in rows r0:r1 and hi below c1, and the
    layout's offsets hold each sorted pair's flat offset
    (lo - r0)(c1 - r0) + hi - r0 into its block's (r1 - r0) x (c1 - r0)
    array.  Blocks that hold no pair are not listed.  Pairs already sorted
    by lo, as ``edge_pairs()`` returns them, are not moved; any others are
    ordered once by a stable argsort, ``order``, and the results come back
    in the caller's order.
    """

    def __init__(self, i_idx, j_idx, n: int):
        i_idx = np.asarray(i_idx, dtype=np.intp).ravel()
        j_idx = np.asarray(j_idx, dtype=np.intp).ravel()
        if i_idx.size != j_idx.size:
            raise DimensionError("PairIndex: pair index arrays differ in length")
        if i_idx.size and not (0 <= min(i_idx.min(), j_idx.min())
                               and max(i_idx.max(), j_idx.max()) < n):
            raise DimensionError(f"PairIndex: a pair lies outside [0, {n})")
        self.i, self.j, self.n = i_idx, j_idx, n
        self.upper, self.lower = i_idx * n + j_idx, j_idx * n + i_idx

    @functools.cached_property
    def _layout(self) -> tuple[np.ndarray | None, list, np.ndarray]:
        """(``order``, ``blocks``, ``offsets``), built once, on first use."""
        n, lo, hi = self.n, self.i, self.j
        if np.any(lo > hi):
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        order = None
        if np.any(lo[1:] < lo[:-1]):
            order = np.argsort(lo, kind="stable")
            lo, hi = lo[order], hi[order]
        rows = _block_rows(n)
        firsts = np.concatenate(([0], np.searchsorted(lo, np.arange(rows, n, rows)),
                                 [lo.size]))
        blocks = [(r0, min(r0 + rows, n), int(hi[p0:p1].max()) + 1, int(p0), int(p1))
                  for r0, p0, p1 in zip(range(0, n, rows), firsts, firsts[1:]) if p1 > p0]
        offsets = np.empty(lo.size, dtype=np.intp)
        for r0, _, c1, p0, p1 in blocks:
            offsets[p0:p1] = (lo[p0:p1] - r0) * (c1 - r0) + hi[p0:p1] - r0
        return order, blocks, offsets

    @property
    def order(self) -> np.ndarray | None:
        return self._layout[0]

    @property
    def blocks(self) -> list:
        return self._layout[1]

    @property
    def size(self) -> int:
        return self.i.size

    def spans(self, n: int, what: str):
        """Raise a DimensionError naming ``what`` unless the pairs are over
        n nodes."""
        if self.n != n:
            raise DimensionError(f"{what}: pair index over {self.n} nodes, not {n}")

    def read(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """(left right^T)[i, j] per pair, as a column; the product must be
        symmetric.  Row block r0:r1 computes left[r0:r1] right[r0:c1]^T."""
        order, blocks, offsets = self._layout
        vals = np.empty(self.size)
        for r0, r1, c1, p0, p1 in blocks:
            vals[p0:p1] = np.take(left[r0:r1] @ right[r0:c1].T, offsets[p0:p1])
        if order is not None:
            vals[order] = vals.copy()
        return vals.reshape(-1, 1)


def pair_dots(a: Tensor, index: PairIndex) -> Tensor:
    """a[i] . a[j] per pair (i, j) of ``index``, as a column: (a a^T) read
    at the pairs.

    A cosine is ``pair_dots(unit_rows(a, index, what), index)``.  Both
    directions work one row block of the ``PairIndex`` at a time, so no
    n x n array is formed.  Backward scatters a block's pair gradients
    into its rows of S, at the index's flat offsets, and adds S a + S^T a.
    """
    ad = a.data
    index.spans(ad.shape[0], "pair_dots")
    vals = index.read(ad, ad)

    def vjp(g):
        order, blocks, offsets = index._layout
        gs = g[:, 0] if order is None else g[order, 0]
        out = np.zeros_like(ad)
        for r0, r1, c1, p0, p1 in blocks:
            # S[r0:r1, r0:c1] sums g over the block's pairs: one bincount
            cols = c1 - r0
            s = np.bincount(offsets[p0:p1], weights=gs[p0:p1],
                            minlength=(r1 - r0) * cols).reshape(r1 - r0, cols)
            out[r0:r1] += s @ ad[r0:c1]
            out[r0:c1] += s.T @ ad[r0:r1]
        return (out,)

    return _emit(vals, (a,), vjp)


def edge_normalize(w: Tensor, index: PairIndex) -> Tensor:
    """w_e / sqrt(d_i d_j) per pair e = (i, j) of ``index``: the edge
    column of D^-1/2 W D^-1/2 for an undirected edge column ``w``.

    Node r's degree d_r sums the weights of the pairs that touch it, on
    either side, clamped below at ``DEGREE_EPS``; a clamped degree passes
    no gradient.  ``w`` is listed twice as an input, once directly and
    once through the degrees, and the VJP returns the two parts in that
    order.  The |E|-length gathers are redone in the VJP, not held on
    the tape.
    """
    i_idx, j_idx, n = index.i, index.j, index.n
    if w.shape != (index.size, 1):
        raise DimensionError(f"edge_normalize: weights {w.shape} for {index.size} pairs")
    wv = w.data[:, 0]
    d = (np.bincount(i_idx, weights=wv, minlength=n)
         + np.bincount(j_idx, weights=wv, minlength=n))
    r = 1.0 / np.sqrt(np.maximum(d, DEGREE_EPS))

    def vjp(g):
        ri, rj = r.take(i_idx), r.take(j_idx)
        gw = g[:, 0] * wv
        gr = (np.bincount(i_idx, weights=gw * rj, minlength=n)
              + np.bincount(j_idx, weights=gw * ri, minlength=n))
        gd = np.where(d > DEGREE_EPS, -0.5 * gr * r / np.maximum(d, DEGREE_EPS), 0.0)
        return g * (ri * rj)[:, None], (gd.take(i_idx) + gd.take(j_idx)).reshape(-1, 1)

    return _emit((r.take(i_idx) * r.take(j_idx) * wv).reshape(-1, 1), (w, w), vjp)


# ---------------------------------------------------------------------------
# backward pass and verification


def backward(loss: Tensor, params: ParameterSet | list[Tensor]):
    """Accumulate d(loss)/d(param) into each tracked parameter's ``grad``.

    The loss must be a scalar produced on the current tape.  The tape is
    cleared afterwards, so each forward pass supports one backward.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = _TAPE.nodes() if _TAPE is not None else []
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


class GradErrors(NamedTuple):
    """Worst errors of analytic against central-difference gradients."""

    relative: float    # |a - d| / max(|a|, |d|, 1e-6), over every entry
    absolute: float    # |a - d|, over every entry


def grad_check(loss_fn, params: ParameterSet, step: float = 1e-5) -> GradErrors:
    """Worst relative and worst absolute error between analytic and
    central-difference gradients.

    The relative error of an entry whose gradient is exactly zero is its
    round-off over 1e-6, so a large relative error beside an absolute one
    near machine precision is round-off, not a wrong gradient.
    ``loss_fn`` must be a deterministic zero-argument callable returning a
    scalar Tensor built from the tensors in ``params``.  The analytic pass
    records on its own tape, and each entry is put back also on a raise.
    """
    params.zero_grad()
    with recording():
        backward(loss_fn(), params)
    analytic = {name: t.grad.copy() for name, t in params}

    worst_rel = worst_abs = 0.0
    for name, t in params:
        flat = t.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            try:
                with no_grad():
                    flat[k] = orig + step
                    f_plus = loss_fn().item()
                    flat[k] = orig - step
                    f_minus = loss_fn().item()
            finally:
                flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[name].reshape(-1)[k]
            err = abs(a - numeric)
            worst_rel = max(worst_rel, err / max(abs(a), abs(numeric), 1e-6))
            worst_abs = max(worst_abs, err)
    return GradErrors(worst_rel, worst_abs)
