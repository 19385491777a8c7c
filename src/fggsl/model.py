"""Joint edge-mask and spectral filter-bank classifier.

Two sigmoid mask networks carve a homophilic and a heterophilic weighted
graph out of a candidate edge set; a low-pass diffusion filter bank runs
on the first graph and a high-pass bank on the second.  Concatenated
filter responses feed one linear layer + softmax.  The layer is linear,
so ``forward`` applies it first and evaluates each bank's logits as one
polynomial in T on n x C blocks; ``embedding`` builds the filter
responses themselves on demand.
The training objective adds two label-similarity structural penalties
to the cross-entropy so the masks are pushed toward genuinely
homophilic / heterophilic edge sets.

Everything per edge is an |E| x 1 column over the candidate's pairs,
computed by the pair layer of ``autodiff`` on the candidate's ``index``,
the one ``ad.PairIndex`` it built when it was made, which carries the
node count n: no op of a forward or a backward redoes the index work of
the pairs.  Each mask is w_e = sigmoid(z_i . z_j) =
sigmoid(``pair_dots(z, index)``), and the structural losses share one
cosine column, ``pair_dots(unit_rows(yhat, index), index)``.
``normalized_laplacian(w, index)`` turns a mask column into the
normalised weights a_e = w_e / sqrt(d_i d_j), and a bank's
``FilterBankSpec.operator(a, index)`` turns that column into an
``ad.EdgeOperator``, the edge form of T = I/2 + A/2 or I/2 - A/2, for
``ad.propagate``: the op builds the dense T once per forward and holds
it, and its gradient for T is the per-edge column, so a training step
allocates no n x n array but the banks' operators, and no tape node
outputs one.  ``_banks`` builds each bank's column and operator, in one
loop that ``forward`` and ``embedding`` share; a bank without a mask net
runs on the all-ones column, whose operator, dense T included, is built
once per candidate and held in ``a_f.operators`` (``_constant_operator``).
``filter_bank_apply`` reads the same edge column off a dense L = I - A,
builds one index of its pairs and T the same way, so a check of it
against an eigendecomposition checks the banks that training runs.
``ForwardResult.w1``/``w2`` build the dense masks on demand.

A forward multiplies the features X by its weights once:
``_feature_products`` multiplies X by the mask nets' weights and the
classifier's F-row blocks laid side by side (``ad.side_by_side``) in one
``ad.matmul``, and slices the result into each net's X W, which
``mask_matrix`` takes in place of X, and each bank's
Z = [X W_2 | ... | X W_J].  Its backward is one X^T G.

A bank's ``FilterBankSpec`` holds every choice about it: ``scales``
lists its kernels, ``coefficients`` tables each as a polynomial in T, and
``operator`` builds its T.  ``ad.propagate`` applies
the table to blocks by repeated dense products T @ Y: one tape node per
bank, whose backward reads the T gradient at the bank's edges.
``embedding`` pushes X, or the block it is given (an n x n factor of
X X^T in ``analysis.embedding_similarity``), through T once for all
scales (the chain order); ``forward`` folds the scales' blocks X W_j
into one n x C block by Horner's rule (the Horner order).  No n x n matrix is ever squared.
Each step T @ Y runs in the form BLAS runs fastest for the block's
shape: row panels of T for a block 2 to 7 columns wide on n >= 512 rows,
as at C = 5 on the heterophilic benchmarks (see ``autodiff._step``).

``_parameter_shapes``, sized by the banks' specs, is the one table of the
parameters: the model draws them from it, and the loader checks files against it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .datasets import CandidateGraph, candidate_graph, candidate_k
from .errors import ContractError, ValidationError
from .graphs import EdgeList, LabeledGraph, check_symmetric, normalized_laplacian

KERNEL_MODES = ("fig3", "verbatim")
# the largest number of scales J: a bank runs 2^J products of T per forward
MAX_J = 10
BANK_KINDS = ("low", "high")
# variant -> {bank kind: the mask net that learns the bank's graph}, in
# the order of ``w_clf``'s blocks.  A variant with no net learns no
# masks, and ``bank_graph`` runs its banks on the given graph.
BANKS = {"full": {"low": "mask_ho", "high": "mask_ht"},
         "NM": {"low": None, "high": None},
         "FBL": {"low": "mask_ho"},
         "FBH": {"high": "mask_ht"}}
VARIANTS = tuple(BANKS)

CHECKPOINT_FORMAT = "fggsl-checkpoint-v1"


@dataclass
class FilterBankSpec:
    """The one list of a bank's kernels: J-1 diffusion kernels at scales 2..J."""

    j_max: int
    mode: str
    kind: str

    def __post_init__(self):
        if not 2 <= self.j_max <= MAX_J:
            raise ContractError(f"FilterBankSpec: j_max={self.j_max} must be in [2, {MAX_J}]")
        if self.mode not in KERNEL_MODES:
            raise ContractError(f"FilterBankSpec: unknown mode {self.mode!r}")
        if self.kind not in BANK_KINDS:
            raise ContractError(f"FilterBankSpec: unknown kind {self.kind!r}")

    def scales(self) -> range:
        return range(2, self.j_max + 1)

    def operator(self, a: Tensor, index: ad.PairIndex) -> ad.EdgeOperator:
        """The bank's T = I/2 + s A in edge form, from the normalised
        adjacency column ``a`` over the pairs of ``index``.  With L = I - A,
        s = +1/2 where the kernels are powers of T = I - L/2, and s = -1/2
        where they are powers of T = L/2."""
        s = 0.5 if (self.mode == "fig3") == (self.kind == "low") else -0.5
        return ad.EdgeOperator(a, index, 0.5, s)

    def coefficients(self) -> np.ndarray:
        """The bank's kernels as polynomials in T: an (2^J + 1) x (J - 1)
        array whose column j - 2 holds the coefficients of T^0 .. T^(2^J)
        in h_j, so that h_j(lam) = sum_s coeffs[s, j - 2] t(lam)^s with
        the t of ``kernel_value``."""
        table = np.zeros((2 ** self.j_max + 1, len(self.scales())))
        for col, j in enumerate(self.scales()):
            table[2 ** (j - 1), col] = 1.0
            if self.mode == "verbatim" and self.kind == "low":
                table[0, col] = -(0.5 ** (2 ** j))    # the frequency-free term
            else:
                table[2 ** j, col] = -1.0
        return table


def kernel_value(j: int, lam, mode: str, kind: str):
    """Spectral response of the scale-j kernel at frequency ``lam``.

    ``fig3`` mode uses the diffusion-wavelet family t^(2^(j-1)) - t^(2^j)
    with t = 1 - lam/2 for the low bank and t = lam/2 for the high bank,
    so the low bank concentrates near lam = 0 and the high bank near
    lam = 2.  ``verbatim`` mode swaps in the alternative printed forms:
    low = (lam/2)^(2^(j-1)) - (1/2)^(2^j) (note the frequency-free second
    term) and high = (1 - lam/2)^(2^(j-1)) - (1 - lam/2)^(2^j).
    """
    FilterBankSpec(j, mode, kind)      # checks j, mode and kind
    lam = np.asarray(lam, dtype=np.float64)
    a = 2 ** (j - 1)
    if mode == "fig3":
        t = 1.0 - 0.5 * lam if kind == "low" else 0.5 * lam
        out = t ** a - t ** (2 * a)
    elif kind == "low":
        out = (0.5 * lam) ** a - 0.5 ** (2 * a)
    else:
        t = 1.0 - 0.5 * lam
        out = t ** a - t ** (2 * a)
    return out if out.ndim else float(out)


def filter_bank_apply(l: Tensor, x: Tensor, spec: FilterBankSpec) -> Tensor:
    """Column-concatenated responses of every scale in the bank, from a
    dense normalised Laplacian L = I - A.

    L must be a square, symmetric (within ``graphs.SYMMETRY_TOL``)
    constant with ones on its diagonal, as ``normalized_laplacian`` of a
    weight matrix with a zero diagonal gives; anything else raises a
    ContractError.  The nonzero entries of L's strict upper triangle, read
    by ``EdgeList.from_dense``, are the edge column a = -L[i, j], and the
    bank runs on its ``ad.EdgeOperator``, as ``forward`` and ``embedding``
    do.  One propagation in the chain order serves every scale: the bank
    costs 2^j_max products of the n x n operator T with the n x F block
    X, and no n x n product.
    """
    lap = l.data
    n = lap.shape[0]
    if lap.shape != (n, n):
        raise ContractError(f"filter_bank_apply: L of shape {lap.shape} is not square")
    if l.requires_grad:
        raise ContractError("filter_bank_apply: L is grad-tracked; no gradient reaches it")
    if np.any(np.diagonal(lap) != 1.0):
        raise ContractError("filter_bank_apply: L has a diagonal entry other than 1")
    check_symmetric(lap, "filter_bank_apply")
    support = EdgeList.from_dense(lap != 0.0)
    edges = ad.constant(-lap[support.pairs].reshape(-1, 1))
    index = ad.PairIndex(support.i, support.j, n)
    return ad.propagate(spec.operator(edges, index), x, spec.coefficients()[:, None, :])


def mask_matrix(xw: Tensor, bias: Tensor, a_f: CandidateGraph) -> Tensor:
    """The mask as an |E| x 1 column: w_e = sigmoid(<z_i, z_j>) for each
    pair (i, j) of ``a_f.edge_pairs()``, with z = tanh(xw + bias).

    ``xw`` is the product X W of the features with a mask net's weight;
    ``forward`` and ``embedding`` read it off their one product with X.
    Each undirected candidate edge has one weight, so the mask is
    symmetric by construction; ``dense_mask`` scatters it into n x n.
    """
    if xw.shape[1] != bias.shape[1]:
        raise ContractError(
            f"mask_matrix: product width {xw.shape[1]} != net width {bias.shape[1]}")
    z = ad.tanh(ad.add_row(xw, bias))
    return ad.sigmoid(ad.pair_dots(z, a_f.index))


def dense_mask(w: Tensor | None, a_f: CandidateGraph) -> Tensor | None:
    """The n x n constant holding an edge column at (i, j) and (j, i):
    exactly symmetric, zero on the diagonal and off the candidate."""
    if w is None:
        return None
    return ad.constant(ad.EdgeOperator(w, a_f.index, 0.0, 1.0).dense())


def check_config(variant: str, kernel_mode: str, j_max: int, mask_dim: int) -> None:
    """Raise ValidationError unless the model's choices name a variant,
    a kernel mode, 2 to ``MAX_J`` scales and a mask width of at least 1."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if kernel_mode not in KERNEL_MODES:
        raise ValidationError(
            f"unknown kernel_mode {kernel_mode!r}; expected one of {KERNEL_MODES}")
    if not 2 <= j_max <= MAX_J:
        raise ValidationError(f"j_max={j_max} must be in [2, {MAX_J}]")
    if mask_dim < 1:
        raise ValidationError(f"mask_dim={mask_dim} must be >= 1")


def learns_masks(variant: str) -> bool:
    """Whether any bank of ``variant`` runs on a learned mask."""
    return any(net is not None for net in BANKS[variant].values())


def bank_graph(graph: LabeledGraph, variant: str, spec: str) -> CandidateGraph:
    """The candidate ``variant``'s banks run on: the one ``spec`` names,
    or the given graph for a variant that learns no masks.  ``spec`` is
    checked either way."""
    candidate_k(spec)
    return candidate_graph(graph, spec if learns_masks(variant) else "given")


def _parameter_shapes(num_features: int, num_classes: int, j_max: int, mask_dim: int,
                      kernel_mode: str, variant: str) -> dict[str, tuple[int, int]]:
    """Each parameter's shape in the ``FgGSLModel`` of these fields, in the
    order the model draws them: the weight and bias of both mask nets
    z = tanh(X W + b), which every variant holds whether or not it uses
    them, then the classifier, one F-row block per kernel of each bank."""
    kernels = sum(len(FilterBankSpec(j_max, kernel_mode, k).scales()) for k in BANKS[variant])
    return {"mask_ho_w": (num_features, mask_dim), "mask_ho_b": (1, mask_dim),
            "mask_ht_w": (num_features, mask_dim), "mask_ht_b": (1, mask_dim),
            "w_clf": (kernels * num_features, num_classes)}


class FgGSLModel:
    """Mask networks + filter banks + linear classifier for one variant.

    full : both masks, both banks
    NM   : no masks, both banks on the given graph
    FBL  : homophilic mask, low bank only
    FBH  : heterophilic mask, high bank

    ``BANKS`` holds this table.

    The width is that of ``embedding``, F per kernel of each bank.
    ``w_clf`` holds one F-row block per (bank, kernel): the low bank's
    first, in ``scales`` order.  ``_parameter_shapes`` holds every
    parameter's shape; a bias starts at zero and a weight of r x c is
    drawn from U(-l, l) with l = sqrt(6 / (r + c)), in the table's order.
    ``_from_arrays`` builds a model around given values and draws nothing.
    """

    def __init__(self, num_features: int, num_classes: int, j_max: int = 4,
                 mask_dim: int = 16, kernel_mode: str = "fig3",
                 variant: str = "full", seed: int = 0):
        self._configure(num_features, num_classes, j_max, mask_dim, kernel_mode, variant)
        rng = np.random.default_rng(seed)
        for name, (rows, cols) in self._shapes().items():
            if name.endswith("_b"):
                self.params.add(name, np.zeros((rows, cols)))
            else:
                limit = np.sqrt(6.0 / (rows + cols))
                self.params.add(name, rng.uniform(-limit, limit, size=(rows, cols)))

    @classmethod
    def _from_arrays(cls, fields: dict, arrays: dict[str, np.ndarray]) -> FgGSLModel:
        """The model of the ``_MODEL_FIELDS`` values ``fields``, holding
        ``arrays[name]`` for each parameter in the table's order."""
        model = cls.__new__(cls)
        model._configure(**fields)
        for name in model._shapes():
            model.params.add(name, arrays[name])
        return model

    def _configure(self, num_features: int, num_classes: int, j_max: int, mask_dim: int,
                   kernel_mode: str, variant: str) -> None:
        check_config(variant, kernel_mode, j_max, mask_dim)
        self.num_features = num_features
        self.num_classes = num_classes
        self.j_max = j_max
        self.mask_dim = mask_dim
        self.kernel_mode = kernel_mode
        self.variant = variant
        self.params = ParameterSet()

    def _shapes(self) -> dict[str, tuple[int, int]]:
        return _parameter_shapes(**{key: getattr(self, key) for key in _MODEL_FIELDS})

    def embedding_width(self) -> int:
        return self.params["w_clf"].shape[0]

    def bank(self, kind: str) -> FilterBankSpec:
        return FilterBankSpec(self.j_max, self.kernel_mode, kind)


@dataclass
class ForwardResult:
    yhat: Tensor                 # (n, c) softmax probabilities
    w1_edges: Tensor | None      # homophilic edge weights (|E| x 1), if the variant has them
    w2_edges: Tensor | None      # heterophilic edge weights
    logits: Tensor               # (n, c) pre-softmax
    a_f: CandidateGraph          # the candidate whose edge_pairs() the columns follow

    @property
    def w1(self) -> Tensor | None:
        """The homophilic mask as a dense n x n constant, built on demand."""
        return dense_mask(self.w1_edges, self.a_f)

    @property
    def w2(self) -> Tensor | None:
        """The heterophilic mask as a dense n x n constant, built on demand."""
        return dense_mask(self.w2_edges, self.a_f)

    def edge_columns(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The values of both edge columns, None for a mask the variant lacks."""
        return tuple(None if w is None else w.data for w in (self.w1_edges, self.w2_edges))


def _feature_products(model: FgGSLModel, x: Tensor,
                      classifier: bool) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
    """Every product of the variant with X, from one ``ad.matmul``.

    The product is X [W_net ... | W_1 | ... | W_K]: the weight of each
    mask net in ``BANKS`` order, then, with ``classifier``, the K F-row
    blocks of ``w_clf`` side by side, split evenly across the banks.
    Returns ({bank kind: X W_net of the bank's mask net}, {bank kind:
    Z = [X W_2 | ... | X W_J] of the bank}), the second empty without
    ``classifier``.  The backward of the product is one X^T G.
    """
    if x.shape[1] != model.num_features:
        raise ContractError(
            f"feature width {x.shape[1]} != model width {model.num_features}")
    banks = BANKS[model.variant]
    nets = [kind for kind, net in banks.items() if net]
    weights = [(model.params[f"{banks[kind]}_w"], 1) for kind in nets]
    widths = [model.mask_dim] * len(nets)
    if classifier:
        blocks = model.embedding_width() // model.num_features
        weights.append((model.params["w_clf"], blocks))
        widths += [blocks // len(banks) * model.num_classes] * len(banks)
    if not weights:
        return {}, {}
    xw = ad.matmul(x, ad.side_by_side(weights))
    parts = [ad.block(xw, cols=(end - w, end)) for w, end in zip(widths, np.cumsum(widths))]
    return dict(zip(nets, parts)), dict(zip(banks, parts[len(nets):]))


def _banks(model: FgGSLModel, x: Tensor, a_f: CandidateGraph, classifier: bool):
    """Yield (kind, edge column, spec, T, Z) for each bank of the variant,
    in ``BANKS`` order, building each bank's graph as it goes.

    The edge column is a learned mask from the bank's X W_net, and T is
    the bank's ``operator`` on its ``normalized_laplacian``.  A bank
    without a mask net has no column (None), and its T, on the all-ones
    column (``a_f`` itself), is ``_constant_operator``'s.  With
    ``classifier``, Z = [X W_2 | ... | X W_J] is the bank's block of one
    product with X (``_feature_products``); without, Z is None.
    """
    masks, zs = _feature_products(model, x, classifier)
    for kind, net in BANKS[model.variant].items():
        spec = model.bank(kind)
        if net:
            w = mask_matrix(masks[kind], model.params[f"{net}_b"], a_f)
            t = spec.operator(normalized_laplacian(w, a_f.index), a_f.index)
        else:
            w, t = None, _constant_operator(spec, a_f)
        yield kind, w, spec, t, zs.get(kind)


def _constant_operator(spec: FilterBankSpec, a_f: CandidateGraph) -> ad.EdgeOperator:
    """The bank's T on the all-ones column of ``a_f``, with its dense T held
    (``EdgeOperator.held``).  It is built on first use and kept in
    ``a_f.operators``, so each bank normalises the column and builds T
    once per candidate."""
    key = (spec.mode, spec.kind)
    if key not in a_f.operators:
        ones = ad.constant(np.ones((a_f.num_edges, 1)))
        column = normalized_laplacian(ones, a_f.index)
        a_f.operators[key] = spec.operator(column, a_f.index).held()
    return a_f.operators[key]


def forward(model: FgGSLModel, x: Tensor, a_f: CandidateGraph) -> ForwardResult:
    """Full forward pass; every path is recorded on the autodiff tape.

    The classifier is linear, so it runs before the banks:
    logits = sum over banks and scales of h_j(L) (X W_j), with W_j the
    F-row block of ``w_clf`` that reads scale j.  One product with X
    (``_feature_products``) gives every bank's Z = [X W_2 | ... | X W_J]
    and the mask nets' X W_net.  Per bank, the logits are one polynomial
    in T of Z, sum_s T^s B_s, and ``ad.propagate`` evaluates it in the
    Horner order on one n x C block: a bank costs at most 2^J n^2 C, and
    no product has two n x n operands.
    """
    columns, terms = {}, []
    for kind, w, spec, t, z in _banks(model, x, a_f, classifier=True):
        columns[kind] = w
        terms.append(ad.propagate(t, z, spec.coefficients()[:, :, None]))
    logits = functools.reduce(ad.add, terms)
    return ForwardResult(yhat=ad.softmax_rows(logits), w1_edges=columns.get("low"),
                         w2_edges=columns.get("high"), logits=logits, a_f=a_f)


def embedding(model: FgGSLModel, x: Tensor, a_f: CandidateGraph,
              block: Tensor | None = None) -> Tensor:
    """The filter responses the classifier reads: logits = embedding @ w_clf.

    ``forward`` never builds this n x ``embedding_width()`` matrix; the
    analysis of learned representations computes it on demand.  The masks
    read X, and the banks filter ``block``, X by default.  Any n-row B with
    B B^T = c X X^T, c > 0, gives rows whose cosines are those of the
    embedding of X: ``analysis.embedding_similarity`` passes the n x n
    factor of X X^T where the features are at least twice as wide as the
    graph has nodes, so each bank runs on n columns in place of F.
    """
    block = x if block is None else block
    return ad.side_by_side([(ad.propagate(t, block, spec.coefficients()[:, None, :]), 1)
                            for _, _, spec, t, _ in _banks(model, x, a_f, classifier=False)])


def structural_loss_ho(w1: Tensor, cos: Tensor) -> Tensor:
    """Mean over candidate edges e = (i, j) of w_e * (1 - cos(yhat_i, yhat_j)).

    ``w1`` and ``cos`` are |E| x 1 columns over the same pairs.
    """
    edges = cos.shape[0]
    if edges == 0:
        raise ContractError("structural_loss_ho: empty edge list")
    dissim = ad.sub(ad.constant(np.ones((edges, 1))), cos)
    return ad.scale(1.0 / edges, ad.sum_all(ad.hadamard(w1, dissim)))


def structural_loss_ht(w2: Tensor, cos: Tensor) -> Tensor:
    """Mean over candidate edges e = (i, j) of w_e * cos(yhat_i, yhat_j)."""
    edges = cos.shape[0]
    if edges == 0:
        raise ContractError("structural_loss_ht: empty edge list")
    return ad.scale(1.0 / edges, ad.sum_all(ad.hadamard(w2, cos)))


@dataclass
class LossBreakdown:
    ce: float
    ho: float
    ht: float
    total: float


def total_loss(model: FgGSLModel, graph: LabeledGraph, a_f: CandidateGraph,
               alpha: float, beta: float, train_idx,
               true_labels_on_train: bool = False):
    """Cross-entropy on train rows plus weighted structural losses on all
    candidate edges, evaluated with predicted probabilities.

    A variant that learns no masks has no structural losses: its loss is
    the cross-entropy, and its ``ho`` and ``ht`` read 0.  Returns (loss
    tensor, LossBreakdown, ForwardResult).  With ``true_labels_on_train``
    the similarity source substitutes the known one-hot labels on
    training rows.
    """
    if alpha < 0 or beta < 0:
        raise ContractError(f"total_loss: alpha={alpha}, beta={beta} must be >= 0")
    x = ad.constant(graph.features)
    onehot = ad.constant(graph.labels)
    fwd = forward(model, x, a_f)
    loss = ce = ad.softmax_cross_entropy(fwd.logits, onehot, train_idx)
    ho = ht = zero = ad.constant(0.0)
    if learns_masks(model.variant):
        sim_source = fwd.yhat
        if true_labels_on_train:
            keep = np.ones((graph.n, 1))
            keep[np.asarray(train_idx, dtype=np.intp)] = 0.0
            keep = np.broadcast_to(keep, graph.labels.shape).copy()
            sim_source = ad.add(ad.hadamard(fwd.yhat, ad.constant(keep)),
                                ad.constant(graph.labels * (1.0 - keep)))
        # one cosine per candidate edge, shared by both structural losses
        cos = ad.pair_dots(ad.unit_rows(sim_source, a_f.index, "total_loss"), a_f.index)
        ho = structural_loss_ho(fwd.w1_edges, cos) if fwd.w1_edges is not None else zero
        ht = structural_loss_ht(fwd.w2_edges, cos) if fwd.w2_edges is not None else zero
        loss = ad.add(ce, ad.add(ad.scale(alpha, ho), ad.scale(beta, ht)))
    breakdown = LossBreakdown(ce=ce.item(), ho=ho.item(), ht=ht.item(), total=loss.item())
    return loss, breakdown, fwd


# ---------------------------------------------------------------------------
# checkpoints: JSON header line + concatenated little-endian float64 blobs


# the ``FgGSLModel`` fields that define a model, with their JSON types
_MODEL_FIELDS = {"num_features": int, "num_classes": int, "j_max": int, "mask_dim": int,
                 "kernel_mode": str, "variant": str}


def save_checkpoint(path, model: FgGSLModel, alpha: float, beta: float):
    names = model.params.names()
    header = {"format": CHECKPOINT_FORMAT, "alpha": alpha, "beta": beta,
              **{key: getattr(model, key) for key in _MODEL_FIELDS},
              "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names]}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].data, dtype="<f8").tobytes())


# header key -> accepted JSON types; bool is never accepted for a number
_HEADER_TYPES = {"format": str, **_MODEL_FIELDS, "alpha": (int, float),
                 "beta": (int, float), "params": list}


def _check_header(path, header) -> None:
    """Raise ValidationError unless ``header`` has every key with its type."""
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: not a checkpoint file")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValidationError(f"{path}: unexpected format {header.get('format')!r}")
    for key, kind in _HEADER_TYPES.items():
        if key not in header:
            raise ValidationError(f"{path}: header has no {key!r}")
        value = header[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValidationError(f"{path}: header {key!r} has the wrong type: {value!r}")
    for key in ("alpha", "beta"):
        # json reads NaN and Infinity; an int is always finite
        if isinstance(header[key], float) and not math.isfinite(header[key]):
            raise ValidationError(f"{path}: header {key!r}={header[key]} is not finite")
    for key in ("num_features", "num_classes"):
        if header[key] < 1:
            raise ValidationError(f"{path}: header {key!r}={header[key]} must be >= 1")
    for entry in header["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_shape(entry.get("shape"))):
            raise ValidationError(f"{path}: malformed parameter entry {entry!r}")


def _is_shape(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(d, int) and not isinstance(d, bool) and d >= 0
                    for d in value))


def load_checkpoint(path) -> tuple[FgGSLModel, dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    The header must carry every key with its type, list each parameter
    of the model it describes once, with the model's shape, and the file
    must end right after the last parameter; ``alpha``, ``beta`` and every
    parameter value must be finite.  Anything else raises a
    ValidationError.  All of this is checked against the header's sizes
    before the model is built, so a header that claims large sizes
    allocates nothing of their size.  The model is built around the
    file's values, and no weight is drawn.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"{path}: not a checkpoint file") from exc
        _check_header(path, header)
        body = fh.read()
    fields = {key: header[key] for key in _MODEL_FIELDS}
    try:
        check_config(fields["variant"], fields["kernel_mode"], fields["j_max"],
                     fields["mask_dim"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    expected = _parameter_shapes(**fields)
    names = [entry["name"] for entry in header["params"]]
    for name, entry in zip(names, header["params"]):
        if name not in expected:
            raise ValidationError(f"{path}: unknown parameter {name!r}")
        if names.count(name) > 1:
            raise ValidationError(f"{path}: parameter {name!r} listed twice")
        shape = tuple(entry["shape"])
        if shape != expected[name]:
            raise ValidationError(f"{path}: parameter {name!r} has shape {shape}, "
                                  f"the model's is {expected[name]}")
    for name in expected:
        if name not in names:
            raise ValidationError(f"{path}: missing parameter {name!r}")
    size = 8 * sum(rows * cols for rows, cols in expected.values())
    if len(body) < size:
        raise ValidationError(f"{path}: truncated: {len(body)} bytes of parameters, "
                              f"the header needs {size}")
    if len(body) > size:
        raise ValidationError(f"{path}: trailing bytes after the last parameter")
    arrays, offset = {}, 0
    for name in names:
        rows, cols = expected[name]
        values = np.frombuffer(body, dtype="<f8", count=rows * cols, offset=offset)
        if not np.isfinite(values).all():
            raise ValidationError(f"{path}: parameter {name!r} has a non-finite value")
        arrays[name] = values.reshape(rows, cols).astype(np.float64)
        offset += values.nbytes
    return FgGSLModel._from_arrays(fields, arrays), header
