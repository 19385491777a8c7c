import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fggsl import autodiff as ad
from fggsl import datasets, model, training
from fggsl.errors import ContractError, ValidationError
from fggsl.graphs import normalized_laplacian, symmetric_eig


def _random_graph(seed, n=6, classes=2, f=None):
    g = datasets.gen_synthetic(n, classes, 0.3, 0.5, 0.4, seed=seed, n_splits=1)
    return g


def _random_laplacian(rng, n):
    a = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
    a = a + a.T
    return normalized_laplacian(a)


def _spectral_oracle(lap, x, j, mode, kind):
    """Independent route: U h(Lambda) U^T X from an explicit eigensolve."""
    dec = symmetric_eig(lap)
    hvals = model.kernel_value(j, dec.eigenvalues, mode, kind)
    u = dec.eigenvectors
    return (u * hvals) @ (u.T @ x)


def _scale_response(lap, x, j, mode, kind):
    """h_j(L) @ X: the last column block of the bank whose largest scale is j."""
    bank = model.filter_bank_apply(lap, x, model.FilterBankSpec(j, mode, kind))
    return ad.block(bank, cols=(bank.shape[1] - x.shape[1], bank.shape[1]))


# ---------------------------------------------------------------------------
# kernel_value


def test_kernel_fig3_high_at_zero():
    assert model.kernel_value(2, 0.0, "fig3", "high") == 0.0


def test_kernel_fig3_low_hand_value():
    # t = 0.5 at lam = 1: 0.5^2 - 0.5^4
    assert model.kernel_value(2, 1.0, "fig3", "low") == pytest.approx(0.1875)


def test_kernel_verbatim_low_hand_value():
    # (0.5*2)^2 - 0.5^4 = 1 - 0.0625
    assert model.kernel_value(2, 2.0, "verbatim", "low") == pytest.approx(0.9375)


def test_kernel_rejects_small_j():
    with pytest.raises(ContractError):
        model.kernel_value(1, 0.5, "fig3", "low")


def test_kernel_vectorized_over_lambda():
    lam = np.linspace(0, 2, 5)
    out = model.kernel_value(3, lam, "fig3", "high")
    assert out.shape == lam.shape


@pytest.mark.parametrize("kind", ["low", "high"])
def test_kernel_telescoping(kind):
    # sum_{j=2..J} h_j(lam) = t^2 - t^(2^J) for the fig3 family
    lam = np.linspace(0.0, 2.0, 41)
    t = 1.0 - 0.5 * lam if kind == "low" else 0.5 * lam
    for j_max in (2, 3, 5):
        total = sum(model.kernel_value(j, lam, "fig3", kind)
                    for j in range(2, j_max + 1))
        expected = t ** 2 - t ** (2 ** j_max)
        assert np.max(np.abs(total - expected)) <= 1e-12


@pytest.mark.parametrize("mode", model.KERNEL_MODES)
@pytest.mark.parametrize("kind", model.BANK_KINDS)
def test_bank_coefficients_are_the_kernels_as_polynomials_in_t(mode, kind):
    lam = np.linspace(0.0, 2.0, 33)
    low = (mode == "fig3") == (kind == "low")
    t = 1.0 - 0.5 * lam if low else 0.5 * lam
    spec = model.FilterBankSpec(4, mode, kind)
    table = spec.coefficients()
    assert table.shape == (2 ** 4 + 1, 3)
    for col, j in enumerate(spec.scales()):
        poly = np.polynomial.polynomial.polyval(t, table[:, col])
        assert np.max(np.abs(poly - model.kernel_value(j, lam, mode, kind))) <= 1e-14


# ---------------------------------------------------------------------------
# filter_bank_apply, one scale at a time


def test_filter_apply_fig3_low_annihilates_the_zero_frequency():
    # on a connected graph, L D^1/2 1 = 0: t = 1 there, and t^a - t^(2a) = 0
    n = 7
    a = np.random.default_rng(19).uniform(0.1, 1.0, size=(n, n))
    a = np.triu(a, 1) + np.triu(a, 1).T
    x = np.sqrt(a.sum(axis=1, keepdims=True))
    out = model.filter_bank_apply(ad.constant(normalized_laplacian(a)), ad.constant(x),
                                  model.FilterBankSpec(3, "fig3", "low"))
    assert out.shape == (n, 2)
    assert np.max(np.abs(out.data)) <= 1e-12


def _laplacian_of_a_path(n=4):
    a = np.eye(n, k=1) + np.eye(n, k=-1)
    return normalized_laplacian(a)


def _asymmetric():
    lap = _laplacian_of_a_path()
    lap[0, 1] += 1e-6
    return ad.constant(lap)


def _diagonal_off_one():
    lap = _laplacian_of_a_path()
    lap[2, 2] = 1.0 - 1e-12
    return ad.constant(lap)


@pytest.mark.parametrize("lap, what", [
    (lambda: ad.constant(np.eye(4)[:, :3]), "square"),
    (_asymmetric, "asymmetry"),
    (_diagonal_off_one, "diagonal"),
    (lambda: ad.parameter(_laplacian_of_a_path(), "l"), "grad-tracked"),
], ids=["non-square", "asymmetric", "diagonal", "grad-tracked"])
def test_filter_bank_apply_takes_only_a_constant_normalized_laplacian(lap, what):
    with pytest.raises(ContractError, match=f"filter_bank_apply: .*{what}"):
        model.filter_bank_apply(lap(), ad.constant(np.ones((4, 2))),
                                model.FilterBankSpec(2, "fig3", "low"))


@pytest.mark.parametrize("mode", ["fig3", "verbatim"])
@pytest.mark.parametrize("kind", ["low", "high"])
def test_filter_apply_matches_spectral_oracle(mode, kind):
    rng = np.random.default_rng(17)
    lap = _random_laplacian(rng, 5)
    x = rng.standard_normal((5, 3))
    for j in (2, 3, 4):
        out = _scale_response(ad.constant(lap), ad.constant(x), j, mode, kind)
        expected = _spectral_oracle(lap, x, j, mode, kind)
        assert np.linalg.norm(out.data - expected) <= 1e-8


def test_filter_apply_matches_naive_powers():
    rng = np.random.default_rng(23)
    lap = _random_laplacian(rng, 6)
    x = rng.standard_normal((6, 2))
    t = np.eye(6) - 0.5 * lap
    t4 = t @ t @ t @ t
    t8 = t4 @ t4
    naive = (t4 - t8) @ x
    out = _scale_response(ad.constant(lap), ad.constant(x), 3, "fig3", "low")
    assert np.allclose(out.data, naive, atol=1e-12)


def test_filter_bank_apply_matches_per_scale():
    rng = np.random.default_rng(29)
    lap = ad.constant(_random_laplacian(rng, 5))
    x = ad.constant(rng.standard_normal((5, 3)))
    spec = model.FilterBankSpec(4, "fig3", "high")
    bank = model.filter_bank_apply(lap, x, spec)
    for idx, j in enumerate(spec.scales()):
        single = _scale_response(lap, x, j, "fig3", "high")
        assert np.array_equal(bank.data[:, idx * 3:(idx + 1) * 3], single.data)


def test_filter_bank_width():
    rng = np.random.default_rng(31)
    lap = ad.constant(_random_laplacian(rng, 4))
    x = ad.constant(rng.standard_normal((4, 5)))
    out = model.filter_bank_apply(lap, x, model.FilterBankSpec(4, "verbatim", "low"))
    assert out.shape == (4, 3 * 5)


# ---------------------------------------------------------------------------
# mask_matrix


def _mask_column(m, net, features, cand):
    # ``mask_matrix`` reads the product X W off the forward's one X product
    xw = ad.matmul(ad.constant(features), m.params[f"{net}_w"])
    return model.mask_matrix(xw, m.params[f"{net}_b"], cand)


def test_mask_zero_features_give_half_weights():
    g = _random_graph(0, n=5)
    g.features[:] = 0.0
    net_model = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, seed=1)
    cand = datasets.candidate_graph(g, "full")
    m = model.dense_mask(
        _mask_column(net_model, "mask_ho", g.features, cand), cand)
    off = ~np.eye(5, dtype=bool)
    assert np.all(m.data[off] == 0.5)
    assert np.all(np.diag(m.data) == 0.0)


def test_mask_respects_candidate_zeros():
    g = _random_graph(1, n=6)
    cand = datasets.candidate_graph(g, "given")
    net_model = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, seed=2)
    m = model.dense_mask(
        _mask_column(net_model, "mask_ho", g.features, cand), cand)
    assert np.all(m.data[cand.adjacency == 0] == 0.0)
    on = cand.adjacency > 0
    if np.any(on):
        assert np.all((m.data[on] > 0) & (m.data[on] < 1))


def test_mask_exactly_symmetric():
    rng = np.random.default_rng(3)
    g = _random_graph(2, n=7)
    g.features = rng.standard_normal(g.features.shape)
    cand = datasets.candidate_graph(g, "full")
    net_model = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, seed=3)
    m = model.dense_mask(
        _mask_column(net_model, "mask_ho", g.features, cand), cand)
    assert np.array_equal(m.data, m.data.T)


def test_mask_rejects_a_product_of_another_width():
    g = _random_graph(3, n=5)
    net_model = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, mask_dim=4, seed=4)
    cand = datasets.candidate_graph(g, "full")
    with pytest.raises(ContractError, match="mask_matrix"):
        model.mask_matrix(ad.constant(np.zeros((5, 3))), net_model.params["mask_ho_b"], cand)


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_forward_and_embedding_reject_features_of_another_width(variant):
    g = _random_graph(5, n=5)
    m = model.FgGSLModel(g.num_features + 1, g.num_classes, j_max=2, variant=variant, seed=6)
    cand = datasets.candidate_graph(g, "full")
    for run in (model.forward, model.embedding):
        with pytest.raises(ContractError, match="feature width"):
            run(m, ad.constant(g.features), cand)


# ---------------------------------------------------------------------------
# forward


def test_forward_shapes_full():
    g = datasets.gen_synthetic(5, 2, 0.4, 0.4, 0.3, seed=4, n_splits=1)
    g.features = np.hstack([g.features, g.features[:, :1]])  # F = 3
    m = model.FgGSLModel(3, 2, j_max=3, mask_dim=4, seed=5)
    cand = datasets.candidate_graph(g, "full")
    fwd = model.forward(m, ad.constant(g.features), cand)
    h = model.embedding(m, ad.constant(g.features), cand)
    assert h.shape == (5, 12)  # 2(J-1)F = 2*2*3
    assert fwd.yhat.shape == (5, 2)


def test_forward_rows_sum_to_one():
    g = _random_graph(5, n=6)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=3, seed=6)
    fwd = model.forward(m, ad.constant(g.features), datasets.candidate_graph(g, "full"))
    assert np.allclose(fwd.yhat.data.sum(axis=1), 1.0, atol=1e-12)


def test_forward_single_bank_width():
    g = _random_graph(6, n=6, classes=3)
    for variant, which in (("FBL", "w1"), ("FBH", "w2")):
        m = model.FgGSLModel(g.num_features, g.num_classes, j_max=3,
                             variant=variant, seed=7)
        cand = datasets.candidate_graph(g, "full")
        fwd = model.forward(m, ad.constant(g.features), cand)
        h = model.embedding(m, ad.constant(g.features), cand)
        assert h.shape == (6, (3 - 1) * g.num_features)
        assert getattr(fwd, which) is not None
        other = "w2" if which == "w1" else "w1"
        assert getattr(fwd, other) is None


@pytest.mark.parametrize("mode", model.KERNEL_MODES)
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_forward_logits_equal_embedding_times_classifier(variant, mode):
    g = _random_graph(22, n=12, classes=3)
    rng = np.random.default_rng(23)
    x = ad.constant(np.hstack([g.features, rng.standard_normal((12, 4))]))
    m = model.FgGSLModel(7, 3, j_max=4, mask_dim=4, kernel_mode=mode,
                         variant=variant, seed=24)
    cand = datasets.candidate_graph(g, "given" if variant == "NM" else "full")
    with ad.no_grad():
        logits = model.forward(m, x, cand).logits.data
        expected = model.embedding(m, x, cand).data @ m.params["w_clf"].data
    assert np.linalg.norm(logits - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_training_step_multiplies_no_two_n_by_n_matrices(monkeypatch, variant):
    # n = 9 differs from every other width (F = C = 3, d = 4, (J-1)C = 6)
    g = _random_graph(25, n=9, classes=3)
    m = model.FgGSLModel(3, 3, j_max=3, mask_dim=4, variant=variant, seed=26)
    cand = datasets.candidate_graph(g, "given" if variant == "NM" else "full")
    # operand shapes of every product: the plain ones and the operator
    # and block that the fused propagation multiplies
    shapes = []
    matmul, propagate = ad.matmul, ad.propagate

    def recorded(a, b):
        shapes.append((a.shape, b.shape))
        return matmul(a, b)

    def recorded_propagate(t, z, coeffs):
        shapes.append((t.shape, z.shape))
        return propagate(t, z, coeffs)

    monkeypatch.setattr(ad, "matmul", recorded)
    monkeypatch.setattr(ad, "propagate", recorded_propagate)
    loss, _, _ = model.total_loss(m, g, cand, 1.0, 1.0, g.splits[0][0])
    ad.backward(loss, m.params)
    assert ((9, 9), (9, 6)) in shapes
    assert ((9, 9), (9, 9)) not in shapes


@pytest.mark.parametrize("mode, steps", [("fig3", 8), ("verbatim", 4)])
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_training_step_pushes_c_columns_through_each_operator(
        monkeypatch, counted_operator, variant, mode, steps):
    # J = 3: a fig3 bank runs 2^J steps; verbatim's low bank 2^(J-1), its high 2^J
    g = _random_graph(25, n=9, classes=3)
    m = model.FgGSLModel(3, 3, j_max=3, mask_dim=4, kernel_mode=mode, variant=variant,
                         seed=26)
    cand = datasets.candidate_graph(g, "given" if variant == "NM" else "full")
    dense = ad.EdgeOperator.dense

    def counted(op):
        return dense(op).view(counted_operator)

    monkeypatch.setattr(ad.EdgeOperator, "dense", counted)
    loss, _, _ = model.total_loss(m, g, cand, 1.0, 1.0, g.splits[0][0])
    ad.backward(loss, m.params)
    lengths = {"low": steps, "high": 8}
    # forward and backward each step every bank's chain once, C = 3 columns wide
    assert counted_operator.widths == [3] * 2 * sum(lengths[k] for k in model.BANKS[variant])


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_training_step_and_evaluate_multiply_x_once(monkeypatch, counted_operator, variant):
    # J = 3, C = 3, mask_dim = 4: X W holds 4 columns per mask net and
    # (J - 1) C = 6 per bank, and its backward multiplies X^T once
    g = _random_graph(25, n=9, classes=3)
    m = model.FgGSLModel(3, 3, j_max=3, mask_dim=4, variant=variant, seed=26)
    cand = datasets.candidate_graph(g, "given" if variant == "NM" else "full")
    constant = ad.constant

    def counted(data):
        t = constant(data)
        if data is g.features:
            t.data = t.data.view(counted_operator)
        return t

    monkeypatch.setattr(ad, "constant", counted)
    banks = model.BANKS[variant]
    width = 4 * sum(net is not None for net in banks.values()) + 6 * len(banks)
    loss, _, _ = model.total_loss(m, g, cand, 1.0, 1.0, g.splits[0][0])
    ad.backward(loss, m.params)
    assert counted_operator.widths == [width, width]
    counted_operator.widths.clear()
    bundle = datasets.DatasetBundle(g, "random", False)
    training.evaluate(m, bundle, g.splits[0][2], cand)
    assert counted_operator.widths == [width]


@pytest.mark.parametrize("mode", model.KERNEL_MODES)
@pytest.mark.parametrize("kind", model.BANK_KINDS)
def test_edge_operator_equals_the_dense_laplacian_form(mode, kind):
    g = _random_graph(27, n=15, classes=3)
    cand = datasets.candidate_graph(g, "given")
    i_idx, j_idx = cand.edge_pairs()
    w = np.random.default_rng(28).uniform(0.05, 1.0, size=(cand.num_edges, 1))
    w[(i_idx == 0) | (j_idx == 0)] = 0.0        # node 0 isolated: clamped degree
    dense = np.zeros((15, 15))
    dense[i_idx, j_idx] = dense[j_idx, i_idx] = w[:, 0]
    # I - L/2 (fig3 low, verbatim high) or L/2, from the dense Laplacian
    spec = model.FilterBankSpec(2, mode, kind)
    lap = normalized_laplacian(dense)
    index = ad.PairIndex(i_idx, j_idx, 15)
    op = spec.operator(normalized_laplacian(ad.constant(w), index), index)
    expected = np.eye(15) - 0.5 * lap if op.off > 0 else 0.5 * lap
    t = op.dense()
    assert np.array_equal(t, t.T)
    assert np.max(np.abs(t - expected)) <= 1e-14


@pytest.mark.parametrize("n, p, features, form", [
    (12, 0.3, 4, "direct"), (600, 0.02, 8, "direct"), (600, 0.02, 4, "panels"),
], ids=["direct", "direct-tall", "panels"])
@pytest.mark.parametrize("mode", model.KERNEL_MODES)
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_embedding_blocks_are_filter_bank_apply_on_the_forward_graphs(variant, mode, n, p,
                                                                      features, form):
    # every chain step is F wide.  Each bank's block of the embedding is
    # the oracle-checked filter_bank_apply on the dense Laplacian of the
    # graph that forward ran the bank on: its learned mask, or the
    # candidate's all-ones column for NM
    g = datasets.gen_synthetic(n, features, p, 2 * p, 0.4, seed=30, n_splits=1)
    assert ad._step_form(n, g.num_features) == form
    m = model.FgGSLModel(g.num_features, 4, j_max=3, mask_dim=4, kernel_mode=mode,
                         variant=variant, seed=31)
    cand = model.bank_graph(g, variant, "given")
    x = ad.constant(g.features)
    with ad.no_grad():
        fwd = model.forward(m, x, cand)
        emb = model.embedding(m, x, cand).data
    ones = model.dense_mask(ad.constant(np.ones((cand.num_edges, 1))), cand)
    width = (m.j_max - 1) * g.num_features
    for b, kind in enumerate(model.BANKS[variant]):
        w = {"low": fwd.w1, "high": fwd.w2}[kind] or ones
        expected = model.filter_bank_apply(ad.constant(normalized_laplacian(w.data)), x,
                                           m.bank(kind)).data
        block = emb[:, b * width:(b + 1) * width]
        assert np.max(np.abs(block - expected)) <= 1e-12 * np.max(np.abs(expected)), kind


@pytest.mark.parametrize("variant, banks", [("full", 2), ("FBL", 1), ("FBH", 1), ("NM", 0)])
def test_given_training_step_records_one_n_by_n_node_per_bank(monkeypatch, variant, banks):
    # n = 30 differs from F = C = 3, d = 4 and the stacked step width 2^J C = 24.
    # A bank's one node is its propagation, which holds the operator T it
    # builds from the edge column; no node outputs an n x n array.  The
    # ``banks`` learned columns are tracked; NM's are constants
    g = _random_graph(28, n=30, classes=3)
    m = model.FgGSLModel(3, 3, j_max=3, mask_dim=4, variant=variant, seed=29)
    cand = datasets.candidate_graph(g, "given")
    built, tracked = [], []
    dense, propagate = ad.EdgeOperator.dense, ad.propagate

    def counted_build(op):
        built.append(op.index.n)
        return dense(op)

    def counted_propagate(t, z, coeffs):
        tracked.append(t.w.requires_grad)
        return propagate(t, z, coeffs)

    monkeypatch.setattr(ad.EdgeOperator, "dense", counted_build)
    monkeypatch.setattr(ad, "propagate", counted_propagate)
    with ad.recording() as tape:
        model.total_loss(m, g, cand, 1.0, 1.0, g.splits[0][0])
    square = [out for out, _, _ in tape.nodes() if out.shape == (30, 30)]
    assert square == []
    assert built == [30] * len(model.BANKS[variant])
    assert sum(tracked) == banks


def test_given_training_step_allocates_no_n_by_n_array_but_the_bank_operators():
    # one step of the full variant at n = 800 on 25,365 given edges peaks
    # at 3.43 n^2 float64s: the two bank operators, plus about 36 per edge
    # for the edge columns on the tape, their gradients and one 1 MiB pair
    # block.  With n x n masks, Gram matrices or a dense dT it peaked at
    # 4.12 n^2 = 2 n^2 + 53 per edge, and with three |E|-length columns
    # held by each normalisation's node at 3.67 n^2 = 2 n^2 + 42 per edge
    g = datasets.gen_synthetic(800, 4, 0.02, 0.1, proto_noise=1.0, seed=3)
    cand = datasets.candidate_graph(g, "given")
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=3, mask_dim=8, seed=4)
    cand.edge_pairs()
    tracemalloc.start()
    try:
        loss, _, _ = model.total_loss(m, g, cand, 1.0, 1.0, g.splits[0][0])
        ad.backward(loss, m.params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    banks = len(model.BANKS["full"])
    assert peak < 8 * (banks * g.n ** 2 + 40 * cand.num_edges)


def test_forward_masks_are_the_scattered_edge_columns():
    g = _random_graph(30, n=10, classes=2)
    cand = datasets.candidate_graph(g, "given")
    m = model.FgGSLModel(g.num_features, 2, j_max=2, mask_dim=3, seed=31)
    fwd = model.forward(m, ad.constant(g.features), cand)
    i_idx, j_idx = cand.edge_pairs()
    for dense, col in ((fwd.w1.data, fwd.w1_edges.data), (fwd.w2.data, fwd.w2_edges.data)):
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(dense[i_idx, j_idx], col[:, 0])
        assert np.count_nonzero(dense) == 2 * cand.num_edges


def test_load_checkpoint_draws_no_weight_and_saves_the_same_bytes(tmp_path, monkeypatch):
    m = model.FgGSLModel(7, 3, j_max=3, mask_dim=4, variant="FBH", seed=5)
    first, second = tmp_path / "first.fgck", tmp_path / "second.fgck"
    model.save_checkpoint(first, m, alpha=0.5, beta=2.0)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded, header = model.load_checkpoint(first)
    model.save_checkpoint(second, loaded, alpha=header["alpha"], beta=header["beta"])
    assert second.read_bytes() == first.read_bytes()
    assert loaded.params.names() == m.params.names()
    for name, t in loaded.params:
        assert t.requires_grad and t.name == name and t.data.flags.writeable


def test_forward_nm_ignores_mask_parameters():
    g = _random_graph(7, n=6)
    cand = datasets.candidate_graph(g, "given")
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, variant="NM", seed=8)
    with ad.no_grad():
        before = model.forward(m, ad.constant(g.features), cand).yhat.data
        for name in ("mask_ho_w", "mask_ho_b", "mask_ht_w", "mask_ht_b"):
            m.params[name].data[:] = 0.0
        after = model.forward(m, ad.constant(g.features), cand).yhat.data
    assert np.array_equal(before, after)


def test_forward_permutation_equivariant():
    g = _random_graph(8, n=7, classes=3)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=3, seed=9)
    cand = datasets.candidate_graph(g, "given")
    rng = np.random.default_rng(10)
    perm = rng.permutation(7)
    g_perm = datasets.CandidateGraph(cand.adjacency[np.ix_(perm, perm)], cand.mode)
    with ad.no_grad():
        base = model.forward(m, ad.constant(g.features), cand).yhat.data
        permuted = model.forward(m, ad.constant(g.features[perm]), g_perm).yhat.data
    # bitwise equality is unattainable: permuting nodes reorders the
    # non-associative float reductions inside degree sums and matmuls
    assert np.allclose(permuted, base[perm], atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# structural losses


def _pair_arrays(pairs):
    return (np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


def _cos(yhat, pairs):
    index = ad.PairIndex(*_pair_arrays(pairs), yhat.shape[0])
    return ad.pair_dots(ad.unit_rows(yhat, index, "cosine"), index)


def test_structural_ho_zero_weights():
    yhat = ad.constant(np.array([[0.9, 0.1], [0.2, 0.8]]))
    w = ad.constant(np.zeros((1, 1)))
    out = model.structural_loss_ho(w, _cos(yhat, [(0, 1)]))
    assert out.item() == 0.0


def test_structural_ho_identical_predictions():
    yhat = ad.constant(np.tile([0.3, 0.7], (3, 1)))
    w = ad.constant(np.ones((3, 1)))
    out = model.structural_loss_ho(w, _cos(yhat, [(0, 1), (0, 2), (1, 2)]))
    assert out.item() == pytest.approx(0.0, abs=1e-15)


def test_structural_ho_orthogonal_unit_edge():
    yhat = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    w = ad.constant(np.ones((1, 1)))
    out = model.structural_loss_ho(w, _cos(yhat, [(0, 1)]))
    assert out.item() == pytest.approx(1.0)


def test_structural_ht_cases():
    same = ad.constant(np.array([[1.0, 0.0], [1.0, 0.0]]))
    orth = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    w = ad.constant(np.ones((1, 1)))
    pairs = [(0, 1)]
    assert model.structural_loss_ht(w, _cos(same, pairs)).item() == pytest.approx(1.0)
    assert model.structural_loss_ht(w, _cos(orth, pairs)).item() == pytest.approx(0.0)
    zero_w = ad.constant(np.zeros((1, 1)))
    assert model.structural_loss_ht(zero_w, _cos(same, pairs)).item() == 0.0


def test_structural_losses_reject_empty_edges():
    w = ad.constant(np.zeros((0, 1)))
    empty = ad.constant(np.zeros((0, 1)))
    with pytest.raises(ContractError):
        model.structural_loss_ho(w, empty)
    with pytest.raises(ContractError):
        model.structural_loss_ht(w, empty)


# ---------------------------------------------------------------------------
# total_loss


def test_total_loss_degenerates_to_ce():
    g = _random_graph(11, n=6)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, seed=12)
    cand = datasets.candidate_graph(g, "full")
    train = g.splits[0][0]
    _, breakdown, _ = model.total_loss(m, g, cand, 0.0, 0.0, train)
    assert breakdown.total == breakdown.ce


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.3, 2.0)])
def test_nm_trains_on_cross_entropy_alone(alpha, beta):
    # NM learns no masks, so it carries no edge columns and no structural
    # loss, whatever alpha and beta are
    g = _random_graph(15, n=9, classes=3)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, variant="NM", seed=16)
    cand = datasets.candidate_graph(g, "given")
    with ad.recording():
        loss, b, fwd = model.total_loss(m, g, cand, alpha, beta, g.splits[0][0])
    assert b.ho == b.ht == 0.0
    assert b.total == b.ce == loss.item()
    assert fwd.edge_columns() == (None, None)


def test_total_loss_terms_nonnegative():
    g = _random_graph(12, n=8, classes=3)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=3, seed=13)
    cand = datasets.candidate_graph(g, "full")
    _, breakdown, _ = model.total_loss(m, g, cand, 1.0, 1.0, g.splits[0][0])
    assert breakdown.ho >= 0.0
    assert breakdown.ht >= 0.0


def test_total_loss_breakdown_identity():
    g = _random_graph(13, n=7, classes=3)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=3, seed=14)
    cand = datasets.candidate_graph(g, "full")
    _, b, _ = model.total_loss(m, g, cand, 0.7, 2.5, g.splits[0][0])
    assert abs(b.total - (b.ce + 0.7 * b.ho + 2.5 * b.ht)) <= 1e-12


def test_total_loss_rejects_negative_weights():
    g = _random_graph(14, n=6)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, seed=15)
    cand = datasets.candidate_graph(g, "full")
    with pytest.raises(ContractError):
        model.total_loss(m, g, cand, -1.0, 0.0, g.splits[0][0])


def test_total_loss_gradient_matches_fd_six_nodes():
    g = datasets.gen_synthetic(6, 2, 0.3, 0.6, 0.4, seed=16, n_splits=1)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, mask_dim=3, seed=17)
    cand = datasets.candidate_graph(g, "full")
    train = g.splits[0][0]

    def loss_fn():
        loss, _, _ = model.total_loss(m, g, cand, 1.0, 1.0, train)
        return loss

    assert ad.grad_check(loss_fn, m.params, 1e-5).relative <= 1e-4


def test_total_loss_true_labels_on_train_variant():
    g = _random_graph(18, n=8, classes=2)
    m = model.FgGSLModel(g.num_features, g.num_classes, j_max=2, seed=19)
    cand = datasets.candidate_graph(g, "full")
    train = g.splits[0][0]
    _, b_pred, _ = model.total_loss(m, g, cand, 1.0, 1.0, train)
    _, b_true, _ = model.total_loss(m, g, cand, 1.0, 1.0, train,
                                    true_labels_on_train=True)
    assert b_pred.ce == b_true.ce
    assert (b_pred.ho, b_pred.ht) != (b_true.ho, b_true.ht)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    m = model.FgGSLModel(4, 3, j_max=3, mask_dim=5, kernel_mode="verbatim",
                         variant="FBH", seed=20)
    path = tmp_path / "model.fgck"
    model.save_checkpoint(path, m, alpha=0.5, beta=2.0)
    loaded, header = model.load_checkpoint(path)
    assert header["alpha"] == 0.5 and header["beta"] == 2.0
    assert header["j_max"] == 3 and header["variant"] == "FBH"
    assert loaded.kernel_mode == "verbatim"
    for name in m.params.names():
        assert np.array_equal(loaded.params[name].data, m.params[name].data)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.fgck"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint\n")
    with pytest.raises(ValidationError):
        model.load_checkpoint(path)


def test_only_a_variant_without_mask_nets_runs_on_the_given_graph():
    g = datasets.gen_synthetic(12, 3, 0.2, 0.4, 0.5, seed=7, n_splits=1)
    given = datasets.candidate_graph(g, "given").adjacency
    for variant in model.VARIANTS:
        learns = model.learns_masks(variant)
        assert learns == (variant != "NM")
        a_f = model.bank_graph(g, variant, "knn:3")
        assert a_f.mode == ("knn:3" if learns else "given")
        assert np.array_equal(a_f.adjacency, given) != learns
        # the spec is checked even where it is not used
        with pytest.raises(ValidationError, match="candidate"):
            model.bank_graph(g, variant, "knn:0")


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_model_parameters_are_the_shape_table(variant):
    m = model.FgGSLModel(7, 3, j_max=4, mask_dim=5, variant=variant, seed=1)
    table = model._parameter_shapes(7, 3, 4, 5, "fig3", variant)
    assert [(name, t.shape) for name, t in m.params] == list(table.items())
    assert m.embedding_width() == table["w_clf"][0]


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_the_classifier_width_follows_the_bank_spec(monkeypatch, tmp_path, variant):
    # a spec that lists one more kernel, I - T (label 0), before scales 2..J
    scales = model.FilterBankSpec.scales

    def coefficients(spec):
        table = np.zeros((2 ** spec.j_max + 1, spec.j_max))
        table[:2, 0] = 1.0, -1.0
        for col, j in enumerate(scales(spec), start=1):
            table[2 ** (j - 1), col], table[2 ** j, col] = 1.0, -1.0
        return table

    monkeypatch.setattr(model.FilterBankSpec, "scales", lambda spec: [0, *scales(spec)])
    monkeypatch.setattr(model.FilterBankSpec, "coefficients", coefficients)
    j_max, features = 3, 7
    g = _random_graph(25, n=12, classes=3)
    x = ad.constant(np.hstack([g.features, np.random.default_rng(26).standard_normal((12, 4))]))
    m = model.FgGSLModel(features, 3, j_max=j_max, mask_dim=4, variant=variant, seed=27)
    assert m.embedding_width() == len(model.BANKS[variant]) * j_max * features
    cand = datasets.candidate_graph(g, "given" if variant == "NM" else "full")
    with ad.no_grad():
        logits = model.forward(m, x, cand).logits.data
        expected = model.embedding(m, x, cand).data @ m.params["w_clf"].data
    assert np.linalg.norm(logits - expected) <= 1e-12 * np.linalg.norm(expected)
    path = tmp_path / "model.fgck"
    model.save_checkpoint(path, m, alpha=1.0, beta=1.0)
    loaded, _ = model.load_checkpoint(path)
    assert [(name, t.shape) for name, t in loaded.params] == \
        [(name, t.shape) for name, t in m.params]


def test_model_rejects_unknown_variant():
    with pytest.raises(ValidationError):
        model.FgGSLModel(3, 2, variant="bogus")


@pytest.mark.parametrize("mask_dim", [0, -1])
def test_model_rejects_a_mask_width_below_one(mask_dim):
    with pytest.raises(ValidationError, match=f"^mask_dim={mask_dim} must be >= 1$"):
        model.FgGSLModel(5, 3, mask_dim=mask_dim)


def _checkpoint_bytes() -> bytes:
    m = model.FgGSLModel(3, 2, j_max=2, mask_dim=2, variant="FBL", seed=21)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.fgck"
        model.save_checkpoint(path, m, alpha=1.0, beta=1.0)
        return path.read_bytes()


CHECKPOINT_BYTES = _checkpoint_bytes()


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.integers(0, len(CHECKPOINT_BYTES) - 1).map(lambda k: CHECKPOINT_BYTES[:k]),
    st.binary(min_size=1, max_size=16).map(lambda extra: CHECKPOINT_BYTES + extra)))
def test_checkpoint_rejects_truncated_or_extended_files(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.fgck"
        path.write_bytes(data)
        with pytest.raises(ValidationError):
            model.load_checkpoint(path)


def _claim_a_million_features(header):
    header["num_features"] = 10**6          # the listed shapes stay small


def _claim_and_list_a_million_features(header):
    header["num_features"] = 10**6
    for entry in header["params"]:
        if entry["name"].endswith("_w") or entry["name"] == "w_clf":
            entry["shape"][0] = 10**6


@pytest.mark.parametrize("edit, message", [
    (_claim_a_million_features, "has shape"),
    (_claim_and_list_a_million_features, "truncated"),
], ids=["shapes-disagree", "file-too-short"])
def test_checkpoint_checks_claimed_sizes_before_allocating(tmp_path, edit, message):
    line, _, body = CHECKPOINT_BYTES.partition(b"\n")
    header = json.loads(line)
    edit(header)
    path = tmp_path / "model.fgck"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=message):
            model.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a model of the claimed sizes holds 3 x 10^6 x 2 float64 = 48 MB
    assert peak < 1_000_000


def test_checkpoint_rejects_more_scales_than_max_j(tmp_path):
    # a file of J = 64 scales whose w_clf shape and body agree with its
    # header: only the bound on J rejects it
    line, _, body = CHECKPOINT_BYTES.partition(b"\n")
    header = json.loads(line)
    header["j_max"] = 64
    w_clf = header["params"][-1]
    assert w_clf["name"] == "w_clf"
    rows, cols = w_clf["shape"]
    w_clf["shape"] = [63 * header["num_features"], cols]
    body = body[:-8 * rows * cols] + bytes(8 * 63 * header["num_features"] * cols)
    path = tmp_path / "model.fgck"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(ValidationError, match="j_max"):
        model.load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h.update(params=[{"name": "mask_ho_w"}]),
    lambda h: h.update(params=h["params"] + h["params"][:1]),
    lambda h: h.update(params=h["params"][1:]),
    lambda h: h.update(j_max="2"),
    lambda h: h.update(mask_dim=0),
], ids=["entry-without-shape", "listed-twice", "missing-param", "string-j-max",
        "zero-mask-dim"])
def test_checkpoint_rejects_malformed_headers(tmp_path, edit):
    line, _, body = CHECKPOINT_BYTES.partition(b"\n")
    header = json.loads(line)
    edit(header)
    path = tmp_path / "model.fgck"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(ValidationError):
        model.load_checkpoint(path)


@pytest.mark.parametrize("key, value, message", [
    ("j_max", 1, f"j_max=1 must be in [2, {model.MAX_J}]"),
    ("mask_dim", 0, "mask_dim=0 must be >= 1"),
    ("variant", "XX", "unknown variant 'XX'"),
    ("kernel_mode", "XX", "unknown kernel_mode 'XX'"),
], ids=["j_max", "mask_dim", "variant", "kernel_mode"])
def test_checkpoint_config_errors_name_the_file(tmp_path, key, value, message):
    line, _, body = CHECKPOINT_BYTES.partition(b"\n")
    header = json.loads(line)
    header[key] = value
    path = tmp_path / "model.fgck"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(ValidationError) as info:
        model.load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: {message}")
