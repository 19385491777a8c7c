import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fggsl import autodiff as ad
from fggsl import datasets
from fggsl.errors import ContractError, DimensionError, NumericError


def test_matmul_identity():
    m = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(ad.constant(np.eye(2)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_product():
    out = ad.matmul(ad.constant([[1.0, 2.0], [3.0, 4.0]]), ad.constant([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((2, 2)))
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(a, b)


def test_matmul_gradients():
    a = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]), "a")
    b = ad.parameter(np.array([[5.0], [6.0]]), "b")
    loss = ad.sum_all(ad.matmul(a, b))
    ad.backward(loss, [a, b])
    # d(sum(AB))/dA = 1 b^T stacked, d/dB = A^T 1
    assert np.allclose(a.grad, [[5.0, 6.0], [5.0, 6.0]])
    assert np.allclose(b.grad, [[4.0], [6.0]])


def test_hadamard_identity_and_scale():
    m = ad.constant([[1.0, -2.0], [0.5, 3.0]])
    assert np.array_equal(ad.hadamard(m, ad.constant(np.ones((2, 2)))).data, m.data)
    assert np.array_equal(ad.scale(0.5, ad.constant([[2.0, 4.0]])).data, [[1.0, 2.0]])


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.add(ad.constant(np.zeros((2, 2))), ad.constant(np.zeros((2, 3))))


def test_add_gradient_is_identity():
    a = ad.parameter(np.array([[1.0, 2.0]]), "a")
    b = ad.parameter(np.array([[3.0, 4.0]]), "b")
    loss = ad.sum_all(ad.add(a, b))
    ad.backward(loss, [a, b])
    assert np.array_equal(a.grad, np.ones((1, 2)))
    assert np.array_equal(b.grad, np.ones((1, 2)))


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.constant(0.0)).item() == 0.5


def test_sigmoid_extreme_inputs_finite():
    out = ad.sigmoid(ad.constant([[-1000.0, 1000.0]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert out.data[0, 1] == pytest.approx(1.0, abs=1e-12)


def _sigmoid_three_exps(x):
    """The former formula, which evaluated exp(-|x|) three times."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def test_sigmoid_bitwise_equals_three_exp_formula():
    rng = np.random.default_rng(8)
    x = np.concatenate([[-800.0, 800.0, 0.0, -0.0],
                        rng.standard_normal(500) * 30.0]).reshape(4, -1)
    assert np.array_equal(ad.sigmoid(ad.constant(x)).data, _sigmoid_three_exps(x))


def test_concat_cols_shapes():
    a = ad.constant(np.zeros((4, 2)))
    b = ad.constant(np.zeros((4, 3)))
    assert ad.side_by_side([(a, 1), (b, 1)]).shape == (4, 5)


def test_concat_cols_filter_bank_width():
    # 2(J-1) blocks of N x F concatenate to N x 2(J-1)F
    n, f, j_max = 5, 3, 4
    parts = [ad.constant(np.zeros((n, f))) for _ in range(2 * (j_max - 1))]
    assert ad.side_by_side([(p, 1) for p in parts]).shape == (n, 2 * (j_max - 1) * f)


def test_concat_cols_row_mismatch():
    with pytest.raises(DimensionError):
        ad.side_by_side([(ad.constant(np.zeros((2, 2))), 1),
                         (ad.constant(np.zeros((3, 2))), 1)])


def test_concat_cols_backward_splits_by_column():
    a = ad.parameter(np.ones((2, 1)), "a")
    b = ad.parameter(np.ones((2, 2)), "b")
    cat = ad.side_by_side([(a, 1), (b, 1)])
    w = ad.constant(np.array([[1.0], [2.0], [3.0]]))
    loss = ad.sum_all(ad.matmul(cat, w))
    ad.backward(loss, [a, b])
    assert np.allclose(a.grad, [[1.0], [1.0]])
    assert np.allclose(b.grad, [[2.0, 3.0], [2.0, 3.0]])


def test_block_values_and_full_span():
    m = ad.constant(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(ad.block(m, cols=(2, 4)).data,
                          [[2.0, 3.0], [6.0, 7.0], [10.0, 11.0]])
    assert np.array_equal(ad.block(m, cols=(0, 1)).data, [[0.0], [4.0], [8.0]])
    assert np.array_equal(ad.block(m, cols=(0, 4)).data, m.data)


@pytest.mark.parametrize("cols", [(0, 4), (2, 2), (-1, 2), (3, 1)])
def test_block_rejects_spans_outside_the_tensor(cols):
    with pytest.raises(DimensionError, match="block"):
        ad.block(ad.constant(np.zeros((3, 3))), cols=cols)


def test_block_backward_pads_with_zeros():
    a = ad.parameter(np.ones((3, 4)), "a")
    loss = ad.sum_all(ad.scale(2.0, ad.block(a, cols=(1, 3))))
    ad.backward(loss, [a])
    expected = np.zeros((3, 4))
    expected[:, 1:3] = 2.0
    assert np.array_equal(a.grad, expected)


def test_block_is_a_read_only_view():
    a = ad.parameter(np.arange(12.0).reshape(3, 4), "a")
    out = ad.block(a, cols=(1, 3))
    assert np.shares_memory(out.data, a.data)
    with pytest.raises(ValueError, match="read-only"):
        out.data[0, 0] = 1.0
    assert a.data[0, 1] == 1.0


def test_add_row_adds_the_row_to_every_row():
    out = ad.add_row(ad.constant(np.zeros((3, 2))), ad.constant([[1.0, -2.0]]))
    assert np.array_equal(out.data, [[1.0, -2.0]] * 3)
    with pytest.raises(DimensionError, match="add_row"):
        ad.add_row(ad.constant(np.zeros((3, 2))), ad.constant(np.zeros((1, 3))))


def test_grad_check_add_row():
    rng = np.random.default_rng(5)
    params = ad.ParameterSet()
    w = params.add("w", rng.uniform(-1, 1, size=(3, 4)))
    b = params.add("b", rng.uniform(-1, 1, size=(1, 4)))
    x = ad.constant(rng.uniform(-1, 1, size=(5, 3)))

    def loss_fn():
        h = ad.tanh(ad.add_row(ad.matmul(x, w), b))
        return ad.sum_all(ad.hadamard(h, h))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-6


def test_grad_check_block():
    # overlapping column spans of one side_by_side product, as
    # model._feature_products splits X [W_net | W_clf blocks] into its parts
    rng = np.random.default_rng(4)
    params = ad.ParameterSet()
    v = params.add("v", rng.uniform(-1, 1, size=(2, 2)))
    w = params.add("w", rng.uniform(-1, 1, size=(6, 3)))
    x = ad.constant(rng.uniform(-1, 1, size=(5, 2)))

    def loss_fn():
        xw = ad.matmul(x, ad.side_by_side([(v, 1), (w, 3)]))
        top = ad.tanh(ad.block(xw, cols=(1, 6)))
        return ad.sum_all(ad.hadamard(top, ad.block(xw, cols=(4, 9))))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-6


def test_side_by_side_lays_the_row_blocks_next_to_each_other():
    a, b = np.arange(12.0).reshape(6, 2), -np.arange(6.0).reshape(2, 3)
    out = ad.side_by_side([(ad.constant(b), 1), (ad.constant(a), 3)]).data
    assert np.array_equal(out, np.hstack([b, a[0:2], a[2:4], a[4:6]]))
    assert np.array_equal(ad.side_by_side([(ad.constant(a), 1)]).data, a)


@pytest.mark.parametrize("parts", [
    [], [(np.zeros((6, 2)), 0)], [(np.zeros((6, 2)), 4)],
    [(np.zeros((6, 2)), 3), (np.zeros((3, 2)), 1)],
], ids=["none", "zero-blocks", "uneven", "rows-differ"])
def test_side_by_side_rejects_blocks_that_do_not_line_up(parts):
    with pytest.raises((ContractError, DimensionError), match="side_by_side"):
        ad.side_by_side([(ad.constant(a), k) for a, k in parts])


def test_grad_check_side_by_side():
    # the mask net's weight and the classifier's row blocks in one product
    # with X, as in the forward pass
    rng = np.random.default_rng(6)
    params = ad.ParameterSet()
    w = params.add("w", rng.uniform(-1, 1, size=(6, 2)))
    v = params.add("v", rng.uniform(-1, 1, size=(2, 3)))
    x = ad.constant(rng.uniform(-1, 1, size=(4, 2)))
    weights = ad.constant(rng.standard_normal((4, 9)))

    def loss_fn():
        xw = ad.matmul(x, ad.side_by_side([(v, 1), (w, 3)]))
        return ad.sum_all(ad.hadamard(ad.tanh(xw), weights))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-6


def _ce_scalar_loop(logits, onehot, rows):
    """Independent oracle: direct -sum(y log softmax) with python loops."""
    total = 0.0
    for r in rows:
        exps = [math.exp(v) for v in logits[r]]
        z = sum(exps)
        for c in range(len(logits[r])):
            if onehot[r][c]:
                total -= math.log(exps[c] / z)
    return total / len(rows)


def test_softmax_ce_uniform_two_classes():
    logits = ad.constant(np.zeros((3, 2)))
    onehot = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    loss = ad.softmax_cross_entropy(logits, onehot, [0, 1, 2])
    probs = ad.softmax_rows(logits)
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(probs.data, 0.5)


def test_softmax_ce_huge_margin_goes_to_zero():
    logits = ad.constant(np.array([[50.0, 0.0], [0.0, 50.0]]))
    onehot = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = ad.softmax_cross_entropy(logits, onehot, [0, 1])
    assert loss.item() < 1e-20


def test_softmax_ce_matches_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    onehot = np.eye(3)[labels]
    rows = [0, 2, 3]
    loss = ad.softmax_cross_entropy(ad.constant(logits), ad.constant(onehot), rows)
    probs = ad.softmax_rows(ad.constant(logits))
    assert loss.item() == pytest.approx(_ce_scalar_loop(logits, onehot, rows), rel=1e-12)
    assert np.allclose(probs.data, _naive_softmax(logits))


def _naive_softmax(x):
    e = np.exp(x)
    return e / e.sum(axis=1, keepdims=True)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(3)
    p = ad.softmax_rows(ad.constant(rng.standard_normal((6, 4)) * 10)).data
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(p > 0)


def test_softmax_ce_empty_rows_rejected():
    logits = ad.constant(np.zeros((2, 2)))
    onehot = ad.constant(np.eye(2))
    with pytest.raises(ContractError):
        ad.softmax_cross_entropy(logits, onehot, [])


def test_softmax_ce_bad_label_row_rejected():
    logits = ad.constant(np.zeros((2, 2)))
    bad = ad.constant(np.array([[1.0, 0.0], [0.5, 0.0]]))
    with pytest.raises(ContractError, match="row 1"):
        ad.softmax_cross_entropy(logits, bad, [0, 1])


def _cosines(a, pairs):
    index = ad.PairIndex(*pairs, a.shape[0])
    return ad.pair_dots(ad.unit_rows(a, index, "cosine"), index)


def test_cosine_rows_one_hot_cases():
    m = ad.constant(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    out = _cosines(m, ([0, 0], [1, 2]))
    assert out.data[0, 0] == pytest.approx(1.0)
    assert out.data[1, 0] == pytest.approx(0.0)


def test_cosine_rows_hand_value():
    # (0.9, 0.1) vs (0.1, 0.9): dot 0.18, squared norms 0.82 each
    m = ad.constant(np.array([[0.9, 0.1], [0.1, 0.9]]))
    out = _cosines(m, ([0], [1]))
    assert out.data[0, 0] == pytest.approx(0.18 / 0.82, abs=1e-12)


def test_cosine_rows_zero_norm_names_row():
    m = ad.constant(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ContractError, match="row 1"):
        _cosines(m, ([0], [1]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unit_rows_scales_a_row_whose_norm_overflows():
    # the squares of 1e308 overflow, so the row is scaled by its largest
    # entry first; its norm stays inf, so its gradient is zero
    a = ad.parameter(np.array([[1e308, 1e308, 1e308], [3.0, 4.0, 0.0]]), "a")
    index = ad.PairIndex([0], [1], 2)
    u = ad.unit_rows(a, index, "cosine")
    assert np.allclose(u.data, [[3 ** -0.5] * 3, [0.6, 0.8, 0.0]], rtol=0, atol=1e-15)
    ad.backward(ad.sum_all(ad.pair_dots(u, index)), [a])
    assert not np.any(a.grad[0])
    # (I - u1 u1^T) u0 / |a1| with u0 = (1, 1, 1) / sqrt(3), u1 = (0.6, 0.8, 0)
    assert np.allclose(a.grad[1], np.array([0.032, -0.024, 0.2]) / 3 ** 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unit_rows_scales_a_row_whose_norm_underflows():
    # the squares of 1e-170 underflow to 0, so the row is scaled by its
    # largest entry first and keeps its true norm
    a = ad.constant(np.array([[1e-170, 1e-170, 1e-170], [3.0, 4.0, 0.0]]))
    u = ad.unit_rows(a, ad.PairIndex([0], [1], 2), "cosine")
    assert np.allclose(u.data, [[3 ** -0.5] * 3, [0.6, 0.8, 0.0]], rtol=0, atol=1e-15)
    units, norms = ad.row_units(a.data, 2)
    assert norms[0] == pytest.approx(3 ** 0.5 * 1e-170, rel=1e-15)
    assert np.array_equal(units, u.data)


def _cosine_vjp_closed_form(a, i_idx, j_idx, g):
    """The gathered-pairs VJP, summed pair by pair, as a reference.

    It runs in 40-digit decimal arithmetic, so its own round-off is far
    below the bound.  In float64 a self pair's two terms, which cancel,
    left round-off past it: 1.1e-14 for n=1 and eleven (0, 0) pairs,
    whose true VJP is zero.
    """
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        rows = [[D(float(x)) for x in row] for row in a]
        norms = [sum(x * x for x in row).sqrt() for row in rows]
        ga = [[D(0)] * a.shape[1] for _ in rows]
        for i, j, gk in zip(i_idx, j_idx, g):
            u, v, nu, nv = rows[i], rows[j], norms[i], norms[j]
            c = sum(x * y for x, y in zip(u, v)) / (nu * nv)
            gk = D(float(gk))
            for k in range(a.shape[1]):
                ga[i][k] += (v[k] / (nu * nv) - c * u[k] / (nu * nu)) * gk
                ga[j][k] += (u[k] / (nu * nv) - c * v[k] / (nv * nv)) * gk
        return np.array([[float(x) for x in row] for row in ga])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), width=st.integers(1, 5),
       pairs=st.integers(1, 30))
def test_cosine_rows_vjp_equals_closed_form(seed, n, width, pairs):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.uniform(0.1, 1.0, size=(n, width)), "a")
    i_idx = rng.integers(0, n, size=pairs)   # repeats on purpose
    j_idx = rng.integers(0, n, size=pairs)
    g = rng.standard_normal(pairs)
    ad.backward(ad.sum_all(ad.hadamard(_cosines(a, (i_idx, j_idx)),
                                       ad.constant(g.reshape(-1, 1)))), [a])
    want = _cosine_vjp_closed_form(a.data, i_idx, j_idx, g)
    assert np.linalg.norm(a.grad - want) <= 1e-14 * max(np.linalg.norm(want), 1.0)


def test_cosine_rows_gradient_matches_fd_with_repeated_pairs():
    rng = np.random.default_rng(12)
    params = ad.ParameterSet()
    a = params.add("a", rng.uniform(0.2, 1.0, size=(4, 3)))
    pairs = ([0, 0, 2, 2, 3], [1, 1, 0, 2, 0])

    def loss_fn():
        cos = _cosines(a, pairs)
        return ad.sum_all(ad.hadamard(cos, ad.tanh(cos)))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-4


def test_cosine_rows_zero_norm_names_the_first_pair():
    # rows 1 and 2 are zero; the first pair using one is (3, 2)
    m = ad.constant(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ContractError, match=r"^cosine: zero-norm row 2$"):
        _cosines(m, ([0, 3, 1], [3, 2, 0]))


def test_cosine_rows_gradient_matches_fd():
    rng = np.random.default_rng(11)
    params = ad.ParameterSet()
    a = params.add("a", rng.uniform(0.2, 1.0, size=(4, 3)))

    def loss_fn():
        return ad.sum_all(_cosines(a, ([0, 1, 2], [1, 2, 3])))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-4


def test_backward_sum_gives_ones():
    w = ad.parameter(np.array([[2.0, -1.0], [0.0, 5.0]]), "w")
    ad.backward(ad.sum_all(w), [w])
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_backward_squared_norm():
    w = ad.parameter(np.array([[3.0]]), "w")
    ad.backward(ad.sum_all(ad.hadamard(w, w)), [w])
    assert np.array_equal(w.grad, [[6.0]])


def test_backward_rejects_non_scalar():
    w = ad.parameter(np.ones((2, 2)), "w")
    out = ad.scale(2.0, w)
    with pytest.raises(ContractError):
        ad.backward(out, [w])


def test_backward_rejects_off_tape_loss():
    w = ad.parameter(np.ones((1, 1)), "w")
    with pytest.raises(ContractError):
        ad.backward(ad.constant(1.0), [w])


def test_backward_linearity():
    rng = np.random.default_rng(5)
    w_init = rng.standard_normal((3, 3))

    def grads_of(alpha, beta):
        w = ad.parameter(w_init.copy(), "w")
        f = ad.sum_all(ad.hadamard(w, w))
        g = ad.sum_all(ad.sigmoid(w))
        loss = ad.add(ad.scale(alpha, f), ad.scale(beta, g))
        ad.backward(loss, [w])
        return w.grad

    ga = grads_of(2.0, 0.0)
    gb = grads_of(0.0, 3.0)
    gab = grads_of(2.0, 3.0)
    assert np.allclose(gab, ga + gb, atol=1e-12)


def test_shared_input_gradient_accumulates():
    # loss = sum(w + w) must give gradient 2, not 1 (aliasing regression test)
    w = ad.parameter(np.ones((2, 2)), "w")
    ad.backward(ad.sum_all(ad.add(w, w)), [w])
    assert np.array_equal(w.grad, 2.0 * np.ones((2, 2)))


def test_grad_check_quadratic_is_exact():
    params = ad.ParameterSet()
    w = params.add("w", np.array([[1.5, -0.5], [2.0, 0.25]]))

    def loss_fn():
        return ad.sum_all(ad.hadamard(w, w))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-8


def test_grad_check_sigmoid_chain():
    rng = np.random.default_rng(2)
    params = ad.ParameterSet()
    w = params.add("w", rng.uniform(-1, 1, size=(3, 2)))
    x = ad.constant(rng.uniform(-1, 1, size=(4, 3)))

    def loss_fn():
        return ad.sum_all(ad.sigmoid(ad.matmul(x, ad.tanh(w))))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-4


def test_grad_check_constant_loss():
    params = ad.ParameterSet()
    params.add("w", np.ones((2, 2)))

    def loss_fn():
        return ad.add(ad.constant(3.0),
                      ad.hadamard(ad.constant(0.0), ad.sum_all(params["w"])))

    # both analytic and numeric gradients vanish
    assert ad.grad_check(loss_fn, params, 1e-5).relative == 0.0


def test_grad_check_reports_the_absolute_error_beside_the_relative_one():
    params = ad.ParameterSet()
    w = params.add("w", np.array([[1.0, -2.0]]))

    def loss_fn():
        # value 2 w, with the VJP of w: every gradient is off by exactly 1
        doubled = ad._emit(2.0 * w.data, (w,), lambda g: (g,))
        return ad.sum_all(doubled)

    errors = ad.grad_check(loss_fn, params, 1e-5)
    assert errors.relative == pytest.approx(0.5, abs=1e-9)
    assert errors.absolute == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_random_op_chains_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = ad.ParameterSet()
    w1 = params.add("w1", rng.uniform(-1, 1, size=(3, 4)))
    w2 = params.add("w2", rng.uniform(-1, 1, size=(4, 2)))
    x = ad.constant(rng.uniform(-1, 1, size=(5, 3)))
    onehot = ad.constant(np.eye(2)[rng.integers(0, 2, size=5)])

    def loss_fn():
        h = ad.tanh(ad.matmul(x, w1))
        z = ad.matmul(h, w2)
        ce = ad.softmax_cross_entropy(z, onehot, [0, 2, 4])
        probs = ad.softmax_rows(z)
        cos = _cosines(probs, ([0, 1], [2, 3]))
        pair_w = ad.sigmoid(ad.pair_dots(z, ad.PairIndex([0, 1], [2, 3], 5)))
        return ad.add(ce, ad.scale(0.5, ad.sum_all(ad.hadamard(pair_w, cos))))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-4


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(42)
        params = ad.ParameterSet()
        w = params.add("w", rng.standard_normal((4, 4)))
        x = ad.constant(rng.standard_normal((4, 4)))
        loss = ad.sum_all(ad.sigmoid(ad.matmul(x, ad.tanh(w))))
        ad.backward(loss, params)
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_no_grad_suppresses_tape():
    w = ad.parameter(np.ones((2, 2)), "w")
    before = len(ad.tape())
    with ad.no_grad():
        out = ad.sigmoid(ad.matmul(w, w))
    assert not out.requires_grad
    assert len(ad.tape()) == before


def test_backward_clears_tape():
    w = ad.parameter(np.ones((2, 2)), "w")
    loss = ad.sum_all(w)
    ad.backward(loss, [w])
    assert len(ad.tape()) == 0


def test_recording_restores_the_previous_tape_when_the_block_raises():
    w = ad.parameter(np.ones((2, 2)), "w")
    with ad.recording() as outer:
        ad.sum_all(w)
        with pytest.raises(ContractError):
            with ad.recording() as inner:
                ad.sum_all(ad.matmul(w, w))
                assert ad.tape() is inner and len(inner) == 2
                raise ContractError("step failed after recording nodes")
        assert ad.tape() is outer and len(outer) == 1


def test_no_grad_and_recording_nest_either_way():
    w = ad.parameter(np.ones((2, 2)), "w")
    with ad.recording() as outer:
        with ad.no_grad():
            assert ad.tape() is None
            assert not ad.sum_all(w).requires_grad
            with ad.recording() as inner:
                loss = ad.sum_all(ad.matmul(w, w))
                assert len(inner) == 2
                ad.backward(loss, [w])
            assert ad.tape() is None
        assert ad.tape() is outer and len(outer) == 0
    assert np.array_equal(w.grad, np.full((2, 2), 4.0))


def test_backward_under_no_grad_raises_one_contract_error():
    w = ad.parameter(np.ones((2, 2)), "w")
    with ad.recording():
        loss = ad.sum_all(w)
        with ad.no_grad(), pytest.raises(ContractError) as info:
            ad.backward(loss, [w])
    assert str(info.value) == "backward: loss was not produced on the current tape"
    assert w.grad is None


def test_grad_check_leaves_the_callers_tape_alone():
    w = ad.parameter(np.ones((2, 2)), "w")
    params = ad.ParameterSet()
    params.add("v", np.array([[0.5, -1.0]]))
    with ad.recording() as caller:
        loss = ad.sum_all(ad.matmul(w, w))
        ad.grad_check(lambda: ad.sum_all(ad.tanh(params["v"])), params)
        assert ad.tape() is caller and len(caller) == 2
        ad.backward(loss, [w])
    assert np.array_equal(w.grad, np.full((2, 2), 4.0))


def test_grad_check_restores_the_parameter_when_loss_fn_raises():
    params = ad.ParameterSet()
    w = params.add("w", np.array([[1.0, 2.0]]))

    def loss_fn():
        if w.data[0, 0] > 1.0 + 1e-7:
            raise NumericError("loss overflowed")
        return ad.sum_all(ad.hadamard(w, w))

    with pytest.raises(NumericError):
        ad.grad_check(loss_fn, params)
    assert np.array_equal(w.data, [[1.0, 2.0]])


def test_parameter_set_round_trip():
    params = ad.ParameterSet()
    params.add("a", np.ones((2, 2)))
    snap = params.snapshot()
    params["a"].data[:] = 0.0
    params.restore(snap)
    assert np.array_equal(params["a"].data, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# propagate


def _edge_column(rng, n, edges):
    """``edges`` distinct undirected pairs on n nodes, each i < j, in
    row-major order, with weights in (0.1, 0.5)."""
    iu, ju = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(iu.size, size=edges, replace=False))
    return (iu[pick], ju[pick]), rng.uniform(0.1, 0.5, size=(edges, 1))


def _random_operator(rng, n):
    """(pairs, weights, diag, off) of a random symmetric operator
    T = diag I + off W of spectral norm at most 0.9: up to 4n pairs,
    weights of either sign, a diagonal in (-0.45, 0.45) and either sign
    of off, with |off| ||W|| < 0.45."""
    pairs, w = _edge_column(rng, n, int(rng.integers(0, min(n * (n - 1) // 2, 4 * n) + 1)))
    w *= rng.choice([-1.0, 1.0], size=w.shape)
    # the largest absolute row sum bounds the norm of the symmetric W
    rows = (np.bincount(pairs[0], np.abs(w[:, 0]), n)
            + np.bincount(pairs[1], np.abs(w[:, 0]), n))
    w /= max(rows.max(initial=0.0), 1.0)
    return pairs, w, rng.uniform(-0.45, 0.45), rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.45)


def _explicit_polynomial(t, z, coeffs):
    """sum_s T^s Z (coeffs[s] kron I_w), with explicit matrix powers."""
    powers, k_in, m_out = coeffs.shape
    w = z.shape[1] // k_in
    out = np.zeros((t.shape[0], m_out * w))
    power = np.eye(t.shape[0])
    for s in range(powers):
        out += power @ z @ np.kron(coeffs[s], np.eye(w))
        power = power @ t
    return out


def _explicit_gradients(t, z, coeffs, g):
    """(dT, dZ) of <G, sum_s T^s Z K_s> with K_s = coeffs[s] kron I_w for a
    symmetric T, from explicit matrix powers: dZ = sum_s T^s G K_s^T and
    dT = sum_s sum_(r < s) T^r G K_s^T Z^T T^(s-1-r)."""
    powers, k_in, _ = coeffs.shape
    w = z.shape[1] // k_in
    power = [np.eye(t.shape[0])]
    for _ in range(powers - 1):
        power.append(power[-1] @ t)
    dt, dz = np.zeros_like(t), np.zeros_like(z)
    for s in range(powers):
        gk = g @ np.kron(coeffs[s], np.eye(w)).T
        dz += power[s] @ gk
        for r in range(s):
            dt += power[r] @ gk @ z.T @ power[s - 1 - r]
    return dt, dz


# (K, M) pairs: K < M and K = M run the chain order, K > M the Horner order
ORDERS = ((1, 3), (2, 2), (3, 1))
# the rows from which ``ad._step`` multiplies a block 2 to 7 columns wide
# in row panels; fewer rows, and one-column or wider blocks, stay on T @ Y
TALL = 512


def test_step_orientation_rule_boundaries():
    assert ad._step_form(TALL, 2) == ad._step_form(TALL, 7) == "panels"
    assert ad._step_form(TALL, 8) == ad._step_form(TALL, 128) == "direct"
    assert ad._step_form(TALL + 4, 129) == "direct"
    assert ad._step_form(TALL, 1) == ad._step_form(TALL, 129) == "direct"
    assert ad._step_form(TALL - 1, 2) == ad._step_form(TALL - 1, 8) == "direct"
    assert ad._step_form(9, 3) == "direct"


@pytest.mark.parametrize("n, w, form", [
    (9, 3, "direct"), (TALL - 1, 5, "direct"), (TALL, 1, "direct"), (TALL, 129, "direct"),
    (TALL, 2, "panels"), (TALL, 7, "panels"), (TALL + 3, 5, "panels"), (1000, 5, "panels"),
    (TALL, 8, "direct"), (TALL, 128, "direct"),
])
def test_step_forms_equal_the_product(n, w, form):
    # TALL + 3 = 2 * 254 + 7 and 1000 = 7 * 131 + 83 rows: the last panel
    # is shorter than the others
    assert ad._step_form(n, w) == form
    rng = np.random.default_rng(n + w)
    t = rng.standard_normal((n, n))
    t = t + t.T
    y = rng.standard_normal((n, w))
    out = ad._step(t, y)
    expected = np.asarray(t) @ y
    assert out.shape == (n, w)
    assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)
    assert not np.shares_memory(out, t) and not np.shares_memory(out, y)
    # every form returns a fresh C-contiguous product
    assert out.flags.c_contiguous


def test_step_panels_give_a_column_slice_the_bits_of_its_contiguous_copy():
    # training steps C-contiguous blocks; a strided block is copied once,
    # before the panels, and gives the same bits
    rng = np.random.default_rng(600)
    t = rng.standard_normal((600, 600))
    t = t + t.T
    y = rng.standard_normal((600, 12))[:, 3:8]
    assert ad._step_form(600, 5) == "panels" and not y.flags.c_contiguous
    assert np.array_equal(ad._step(t, y), ad._step(t, np.ascontiguousarray(y)))


@pytest.mark.parametrize("tracked", ["w", "z", "both"])
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), width=st.integers(1, 60),
       k_in=st.integers(1, 3), m_out=st.integers(1, 3), powers=st.integers(1, 17))
def test_propagate_gives_the_same_bits_recorded_and_unrecorded(tracked, seed, n, width, k_in,
                                                               m_out, powers):
    # widths up to 60 on at most 12 nodes: many blocks are 2n wide and
    # wider, so an unrecorded op never takes another order than a recorded
    # one, whichever input is tracked
    rng = np.random.default_rng(seed)
    pairs, w, diag, off = _random_operator(rng, n)
    index = ad.PairIndex(*pairs, n)
    z = rng.standard_normal((n, k_in * width))
    coeffs = rng.standard_normal((powers, k_in, m_out))
    plain = ad.propagate(ad.EdgeOperator(ad.constant(w), index, diag, off), ad.constant(z),
                         coeffs).data
    with ad.recording():
        wt = ad.parameter(w, "w") if tracked != "z" else ad.constant(w)
        zt = ad.parameter(z, "z") if tracked != "w" else ad.constant(z)
        out = ad.propagate(ad.EdgeOperator(wt, index, diag, off), zt, coeffs)
        assert out.requires_grad
    assert np.array_equal(plain, out.data)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.one_of(st.integers(1, 9), st.integers(TALL, TALL + 3)),
       width=st.integers(1, 3), k_in=st.integers(1, 3), m_out=st.integers(1, 3),
       powers=st.integers(1, 9), lead=st.integers(0, 3), trail=st.integers(0, 3))
def test_propagate_equals_explicit_powers(seed, n, width, k_in, m_out, powers, lead, trail):
    # at n >= TALL, a step block min(K, M) * width wide runs in row panels
    # if it is 2 to 7 wide, with a shorter last panel at n > TALL, and as
    # T @ Y if it is 1, 8 or 9 wide
    rng = np.random.default_rng(seed)
    pairs, w, diag, off = _random_operator(rng, n)
    op = ad.EdgeOperator(ad.constant(w), ad.PairIndex(*pairs, n), diag, off)
    z = rng.standard_normal((n, k_in * width))
    coeffs = rng.standard_normal((powers, k_in, m_out))
    coeffs[:lead] = 0.0                          # zero leading powers
    coeffs[max(powers - trail, 0):] = 0.0        # zero trailing powers, possibly all
    out = ad.propagate(op, ad.constant(z), coeffs).data
    expected = _explicit_polynomial(op.dense(), z, coeffs)
    assert out.shape == (n, m_out * width)
    assert np.linalg.norm(out - expected) <= 1e-12 * max(np.linalg.norm(expected), 1e-300)


# (n, block width, step form): a step is min(K, M) blocks wide, one or two
# in ORDERS, and runs in the same form for every order
FORMS = [(5, 3, "direct"), (TALL, 8, "direct"), (TALL, 3, "panels")]
FORM_IDS = ["direct", "direct-tall", "panels"]


@pytest.mark.parametrize("n, width, form", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("k_in, m_out", ORDERS)
def test_propagate_gradient_along_random_directions(n, width, form, k_in, m_out):
    # a full finite-difference check at n = TALL would take 2 (|E| + n w)
    # loss evaluations; the directional derivative checks the edge column
    # and Z in two each
    rng = np.random.default_rng(44)
    pairs, w0, diag, off = _random_operator(rng, n)
    w = ad.parameter(w0, "w")
    z = ad.parameter(rng.standard_normal((n, width * k_in)), "z")
    assert ad._step_form(n, width * min(k_in, m_out)) == form
    coeffs = rng.standard_normal((5, k_in, m_out))
    weights = ad.constant(rng.standard_normal((n, width * m_out)))

    def loss_fn():
        out = ad.propagate(ad.EdgeOperator(w, ad.PairIndex(*pairs, n), diag, off), z, coeffs)
        return ad.sum_all(ad.hadamard(ad.tanh(out), weights))

    ad.backward(loss_fn(), [w, z])
    step = 1e-6
    for p in (w, z):
        direction = rng.standard_normal(p.shape)
        base = p.data
        values = []
        for sign in (1.0, -1.0):
            p.data = base + sign * step * direction
            with ad.no_grad():
                values.append(loss_fn().item())
        p.data = base
        numeric = (values[0] - values[1]) / (2.0 * step)
        analytic = float(np.sum(p.grad * direction))
        assert abs(analytic - numeric) <= 1e-6 * max(abs(numeric), 1.0), p.name


@pytest.mark.parametrize("tracked", [0, 1], ids=["t", "z"])
def test_propagate_backward_with_one_tracked_input(tracked):
    # T's edge column or Z tracked alone; at n = TALL every step runs in row panels
    for (k_in, m_out), n in itertools.product(ORDERS, (4, TALL)):
        rng = np.random.default_rng(40)
        pairs, w0, diag, off = _random_operator(rng, n)
        values = [w0, rng.standard_normal((n, 3 * k_in))]
        coeffs = rng.standard_normal((5, k_in, m_out))

        def backward(inputs, params):
            op = ad.EdgeOperator(inputs[0], ad.PairIndex(*pairs, n), diag, off)
            ad.backward(ad.sum_all(ad.propagate(op, inputs[1], coeffs)), params)

        both = [ad.parameter(v, "p") for v in values]
        backward(both, both)
        one = [ad.parameter(v, "p") if k == tracked else ad.constant(v)
               for k, v in enumerate(values)]
        backward(one, [one[tracked]])
        assert np.array_equal(one[tracked].grad, both[tracked].grad), (k_in, m_out, n)


@pytest.mark.parametrize("k_in, m_out", ORDERS)
def test_propagate_drops_trailing_zero_powers_and_steps_the_narrower_side(
        monkeypatch, counted_operator, k_in, m_out):
    # blocks 2 min(K, M) wide on 6 rows and 8 min(K, M) wide on TALL rows
    # run as T @ Y, 3 min(K, M) wide on TALL rows in row panels; the
    # operator view counts each step once, whichever form it runs
    dense = ad.EdgeOperator.dense
    monkeypatch.setattr(ad.EdgeOperator, "dense",
                        lambda op: dense(op).view(counted_operator))
    for n, width, form in ((6, 2, "direct"), (TALL, 3, "panels"), (TALL, 8, "direct")):
        assert ad._step_form(n, width * min(k_in, m_out)) == form
        rng = np.random.default_rng(41)
        pairs, w0, diag, off = _random_operator(rng, n)
        w = ad.parameter(w0, "w")
        z = ad.parameter(rng.standard_normal((n, width * k_in)), "z")
        coeffs = rng.standard_normal((9, k_in, m_out))
        coeffs[5:] = 0.0                         # powers 5..8 are dropped
        counted_operator.widths.clear()
        out = ad.propagate(ad.EdgeOperator(w, ad.PairIndex(*pairs, n), diag, off), z, coeffs)
        ad.backward(ad.sum_all(out), [w, z])
        # four products forward and four backward, each min(K, M) blocks wide
        assert counted_operator.widths == [width * min(k_in, m_out)] * 8, n


def test_propagate_with_no_steps_scales_the_input():
    rng = np.random.default_rng(42)
    pairs, w0, diag, off = _random_operator(rng, 4)
    w = ad.parameter(w0, "w")
    z = ad.parameter(rng.standard_normal((4, 2)), "z")
    coeffs = np.zeros((3, 2, 1))
    coeffs[0] = [[2.0], [-1.0]]
    out = ad.propagate(ad.EdgeOperator(w, ad.PairIndex(*pairs, 4), diag, off), z, coeffs)
    assert np.array_equal(out.data, 2.0 * z.data[:, :1] - z.data[:, 1:])
    ad.backward(ad.sum_all(out), [w, z])
    assert np.array_equal(w.grad, np.zeros(w0.shape))
    assert np.array_equal(z.grad, np.tile([2.0, -1.0], (4, 1)))


# T = I on three nodes, with no edges
IDENTITY = ad.EdgeOperator(ad.constant(np.ones((0, 1))),
                           ad.PairIndex(np.array([], dtype=int), np.array([], dtype=int), 3),
                           1.0, 0.5)


def test_propagate_rejects_an_operator_of_another_size():
    with pytest.raises(DimensionError, match="propagate"):
        ad.propagate(IDENTITY, ad.constant(np.ones((4, 2))), np.ones((2, 1, 1)))


@pytest.mark.parametrize("coeffs, error", [
    (np.ones((2, 1)), ContractError),            # not powers x inputs x outputs
    (np.ones((0, 1, 1)), ContractError),         # no powers
    (np.ones((3, 0, 1)), ContractError),         # no input blocks
    (np.ones((2, 3, 1)), DimensionError),        # 4 columns in 3 blocks
])
def test_propagate_rejects_a_malformed_coefficient_table(coeffs, error):
    with pytest.raises(error, match="propagate"):
        ad.propagate(IDENTITY, ad.constant(np.ones((3, 4))), coeffs)


# ---------------------------------------------------------------------------
# pair and edge-column ops


# pairs with a repeat and an (i, i) pair; the scatters must sum repeats
REPEATED = (np.array([0, 2, 2, 4, 1, 3]), np.array([1, 3, 3, 0, 1, 4]))
# an undirected edge list: i < j, each pair once
EDGES = (np.array([0, 0, 1, 2, 3]), np.array([1, 4, 2, 4, 4]))


def test_pair_dots_reads_the_gram_matrix():
    rng = np.random.default_rng(50)
    a = rng.standard_normal((5, 3))
    out = ad.pair_dots(ad.constant(a), ad.PairIndex(*REPEATED, 5)).data
    i_idx, j_idx = REPEATED
    expected = np.sum(a[i_idx] * a[j_idx], axis=1, keepdims=True)
    assert out.shape == (6, 1)
    assert np.max(np.abs(out - expected)) <= 1e-14


def test_grad_check_pair_dots():
    rng = np.random.default_rng(51)
    params = ad.ParameterSet()
    a = params.add("a", rng.uniform(-1, 1, size=(5, 3)))

    def loss_fn():
        s = ad.sigmoid(ad.pair_dots(a, ad.PairIndex(*REPEATED, 5)))
        return ad.sum_all(ad.hadamard(s, s))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-6


def test_grad_check_edge_normalize():
    rng = np.random.default_rng(52)
    params = ad.ParameterSet()
    w = params.add("w", rng.uniform(0.1, 1, size=(6, 1)))

    def loss_fn():
        return ad.sum_all(ad.tanh(ad.edge_normalize(w, ad.PairIndex(*REPEATED, 5))))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-6


@pytest.mark.parametrize("weight", [0.0, 1e-10])
def test_edge_normalize_passes_no_gradient_through_a_clamped_degree(weight):
    # nodes 2 and 3 touch only the edge (2, 3), whose weight keeps their
    # degrees below the clamp: their scale is the constant 1/sqrt(eps)
    w = ad.parameter(np.array([[1.0], [weight]]), "w")
    a = ad.edge_normalize(w, ad.PairIndex(np.array([0, 2]), np.array([1, 3]), 4))
    ad.backward(ad.sum_all(a), [w])
    r = 1.0 / np.sqrt(ad.DEGREE_EPS)
    assert np.array_equal(a.data[:, 0], [1.0, r * r * weight])
    # a_01 = w_01 / d = 1 whatever w_01; a_23 = w_23 / eps
    assert np.array_equal(w.grad[:, 0], [0.0, r * r])


def test_edge_operator_is_exactly_symmetric_with_its_diagonal():
    w = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    t = ad.EdgeOperator(ad.constant(w), ad.PairIndex(*EDGES, 6), 0.5, -0.25).dense()
    expected = 0.5 * np.eye(6)
    for (i, j), v in zip(zip(*EDGES), w[:, 0]):
        expected[i, j] = expected[j, i] = -0.25 * v
    assert np.array_equal(t, expected)


@pytest.mark.parametrize("shape", [(4, 1), (5, 2), (5,)])
def test_an_edge_operator_of_weights_of_another_shape_is_refused(shape):
    # at construction, so a propagation with no step refuses it too
    with pytest.raises(DimensionError, match="EdgeOperator"):
        ad.EdgeOperator(ad.constant(np.ones(shape)), ad.PairIndex(*EDGES, 6), 0.5, 0.5)


def test_grad_check_edge_operator():
    # the edge form's per-edge T gradient, both signs of A, J = 0..4 (2^J
    # steps), with Z tracked and untracked, in every order at n = 6; at
    # n = TALL every step runs in row panels, and Z stays off the checked set
    # (2 n w entries to probe).  The step is 1e-5: at 1e-6 the central
    # difference's round-off, about 1e-9, exceeds the bound on entries as
    # small as 1e-4
    cases = [(6, 5, j_max, order) for j_max in range(5) for order in ORDERS]
    cases += [(TALL, 12, j_max, ORDERS[j_max % 3]) for j_max in range(5)]
    for (n, edges, j_max, (k_in, m_out)), off, z_tracked in itertools.product(
            cases, (0.5, -0.5), (True, False)):
        rng = np.random.default_rng(60 + j_max)
        pairs, w0 = _edge_column(rng, n, edges)
        params = ad.ParameterSet()
        w = params.add("w", w0)
        z0 = rng.standard_normal((n, 3 * k_in))
        if not z_tracked:
            z = ad.constant(z0)
        elif n == TALL:
            z = ad.parameter(z0, "z")
        else:
            z = params.add("z", z0)
        assert ad._step_form(n, 3 * min(k_in, m_out)) == ("panels" if n == TALL else "direct")
        coeffs = rng.standard_normal((2 ** j_max + 1, k_in, m_out))
        weights = ad.constant(rng.standard_normal((n, 3 * m_out)))

        def loss_fn():
            out = ad.propagate(ad.EdgeOperator(w, ad.PairIndex(*pairs, n), 0.5, off), z, coeffs)
            return ad.sum_all(ad.hadamard(ad.tanh(out), weights))

        errors = ad.grad_check(loss_fn, params, 1e-5)
        assert errors.relative <= 1e-6, (n, j_max, k_in, m_out, off, z_tracked)


@pytest.mark.parametrize("n, width, form", FORMS, ids=FORM_IDS)
@pytest.mark.parametrize("k_in, m_out", ORDERS)
def test_edge_operator_propagates_like_its_dense_form(n, width, form, k_in, m_out):
    # the Z gradient is that of the polynomial in the dense T, and the
    # edge column's gradient is off * (dT[i, j] + dT[j, i]), both from
    # explicit matrix powers
    rng = np.random.default_rng(61)
    pairs, w0 = _edge_column(rng, n, 2 * n)
    assert ad._step_form(n, width * min(k_in, m_out)) == form
    coeffs = rng.standard_normal((5, k_in, m_out))
    z0 = rng.standard_normal((n, width * k_in))
    g = rng.standard_normal((n, width * m_out))
    w, z = ad.parameter(w0, "w"), ad.parameter(z0, "z")
    op = ad.EdgeOperator(w, ad.PairIndex(*pairs, n), 0.5, -0.5)
    ad.backward(ad.sum_all(ad.hadamard(ad.propagate(op, z, coeffs), ad.constant(g))), [w, z])
    dt, dz = _explicit_gradients(op.dense(), z0, coeffs, g)
    i_idx, j_idx = pairs
    per_edge = -0.5 * (dt[i_idx, j_idx] + dt[j_idx, i_idx])
    assert np.max(np.abs(w.grad[:, 0] - per_edge)) <= 1e-12 * np.max(np.abs(per_edge))
    assert np.max(np.abs(z.grad - dz)) <= 1e-12 * np.max(np.abs(dz))


class _SymmetricPart:
    """T = (S + S^T) / 2 of one n x n input S: a second operator form for
    ``propagate``, dense, whose input is not an edge column."""

    def __init__(self, s):
        self.w, self.shape = s, s.shape

    def step(self, y):
        return 0.5 * (self.w.data + self.w.data.T) @ y

    def grad(self, backward_steps, forward_steps):
        dt = backward_steps @ forward_steps.T
        return 0.5 * (dt + dt.T)


@pytest.mark.parametrize("k_in, m_out", ORDERS)
def test_propagate_runs_a_second_operator_form(k_in, m_out):
    # S is the edge operator's T plus an antisymmetric part, so both forms
    # have one T; the edge column's gradient off * (dT[i, j] + dT[j, i])
    # is then 2 off dS[i, j]
    rng = np.random.default_rng(63)
    n = 7
    pairs, w0, diag, off = _random_operator(rng, n)
    edge = ad.EdgeOperator(ad.parameter(w0, "w"), ad.PairIndex(*pairs, n), diag, off)
    b = rng.standard_normal((n, n))
    s0 = edge.dense() + (b - b.T)
    z0 = rng.standard_normal((n, 2 * k_in))
    coeffs = rng.standard_normal((5, k_in, m_out))
    g = ad.constant(rng.standard_normal((n, 2 * m_out)))
    results = []
    for make in (lambda: edge, lambda: _SymmetricPart(ad.parameter(s0, "s"))):
        op, z = make(), ad.parameter(z0, "z")
        out = ad.propagate(op, z, coeffs)
        ad.backward(ad.sum_all(ad.hadamard(out, g)), [op.w, z])
        results.append((out.data, z.grad, op.w.grad))
    (out_e, dz_e, dw), (out_s, dz_s, ds) = results
    for a, b in ((out_s, out_e), (dz_s, dz_e), (2.0 * off * ds[pairs], dw[:, 0])):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    params = ad.ParameterSet()
    s, z = params.add("s", s0), params.add("z", z0)

    def loss_fn():
        out = ad.propagate(_SymmetricPart(s), z, coeffs)
        return ad.sum_all(ad.hadamard(ad.tanh(out), g))

    assert ad.grad_check(loss_fn, params, 1e-5).relative <= 1e-6


def test_an_operator_builds_its_t_once_for_every_propagation(monkeypatch):
    # T is read off the column on the first propagation and kept, read-only:
    # a second propagation of the same operator, and the backward of both,
    # build no other
    rng = np.random.default_rng(62)
    n = 12
    pairs, w0 = _edge_column(rng, n, 2 * n)
    built, dense = [], ad.EdgeOperator.dense

    def counted(op):
        built.append(op.index.n)
        return dense(op)

    monkeypatch.setattr(ad.EdgeOperator, "dense", counted)
    w, z = ad.parameter(w0, "w"), ad.constant(rng.standard_normal((n, 2)))
    op = ad.EdgeOperator(w, ad.PairIndex(*pairs, n), 0.5, -0.5)
    coeffs = rng.standard_normal((3, 1, 1))
    first, second = [ad.propagate(op, z, coeffs) for _ in range(2)]
    ad.backward(ad.sum_all(ad.add(first, second)), [w])
    assert built == [n]
    assert not op.matrix.flags.writeable
    assert np.array_equal(first.data, second.data)


def test_pair_layer_gives_the_one_block_results_in_many_blocks(monkeypatch):
    # 30 nodes: one block by default, blocks of three rows at 100 entries;
    # the pairs are unsorted, repeated, given in both orientations and
    # include self pairs, and the edge list is shuffled and half flipped
    n = 30
    rng = np.random.default_rng(62)
    a0 = rng.standard_normal((n, 4))
    i_idx, j_idx = rng.integers(0, n, 60), rng.integers(0, n, 60)
    pairs = (np.concatenate([i_idx, j_idx[:10], [7, 7]]),
             np.concatenate([j_idx, i_idx[:10], [7, 7]]))
    (ei, ej), w0 = _edge_column(rng, n, 80)
    shuffle, flip = rng.permutation(80), rng.random(80) < 0.5
    ei, ej = ei[shuffle], ej[shuffle]
    edges = (np.where(flip, ej, ei), np.where(flip, ei, ej))
    w0 = w0[shuffle]
    z0 = rng.standard_normal((n, 6))
    coeffs = rng.standard_normal((9, 2, 1))
    pair_weights = ad.constant(rng.standard_normal((pairs[0].size, 1)))
    out_weights = ad.constant(rng.standard_normal((n, 3)))

    def results():
        a, w, z = ad.parameter(a0, "a"), ad.parameter(w0, "w"), ad.parameter(z0, "z")
        dots = ad.pair_dots(a, ad.PairIndex(*pairs, n))
        out = ad.propagate(ad.EdgeOperator(w, ad.PairIndex(*edges, n), 0.5, 0.5), z, coeffs)
        loss = ad.add(ad.sum_all(ad.hadamard(ad.tanh(dots), pair_weights)),
                      ad.sum_all(ad.hadamard(ad.tanh(out), out_weights)))
        ad.backward(loss, [a, w, z])
        return [dots.data, out.data, a.grad, w.grad, z.grad]

    assert len(ad.PairIndex(*pairs, n).blocks) == 1
    one = results()
    monkeypatch.setattr(ad, "BLOCK_ENTRIES", 100)
    assert len(ad.PairIndex(*pairs, n).blocks) > 5
    assert len(ad.PairIndex(*edges, n).blocks) > 5
    many = results()
    for x, y in zip(one, many):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))


def test_pair_rows_skip_blocks_without_a_pair(monkeypatch):
    # rows 0-2 and 9-11 hold pairs; rows 3-8 and 12-29 none
    monkeypatch.setattr(ad, "BLOCK_ENTRIES", 90)
    rows = ad.PairIndex(np.array([10, 1, 2]), np.array([11, 20, 0]), 30)
    assert [block[:2] for block in rows.blocks] == [(0, 3), (9, 12)]


def _index_and_tuple(kind, n):
    """A PairIndex over n nodes and the index arrays it was built from: a
    candidate's (its own index), or the ``given`` pairs shuffled, with
    about half of them swapped to (j, i)."""
    graph = datasets.gen_synthetic(n, 3, 0.15, 0.3, 0.4, seed=71, n_splits=1)
    if kind != "unsorted":
        cand = datasets.candidate_graph(graph, kind)
        return cand.edges.index, cand.edge_pairs()
    i_idx, j_idx = graph.edges.pairs
    rng = np.random.default_rng(72)
    order, flip = rng.permutation(i_idx.size), rng.random(i_idx.size) < 0.5
    pairs = np.where(flip, j_idx, i_idx)[order], np.where(flip, i_idx, j_idx)[order]
    return ad.PairIndex(*pairs, n), pairs


@pytest.mark.parametrize("kind", ["full", "given", "knn:5", "unsorted"])
def test_pair_ops_give_the_same_bits_from_an_index_and_from_its_tuple(kind):
    # the scatter through the index's flat offsets writes what 2-D
    # indexing with its index arrays writes
    n = 40
    index, pairs = _index_and_tuple(kind, n)
    assert (index.order is not None) == (kind == "unsorted")
    w0 = np.random.default_rng(73).uniform(0.1, 1.0, size=(index.size, 1))
    i_idx, j_idx = pairs
    t = np.zeros((n, n))
    t[i_idx, j_idx] = t[j_idx, i_idx] = -0.5 * w0[:, 0]
    np.fill_diagonal(t, 0.5)
    assert np.array_equal(ad.EdgeOperator(ad.constant(w0), index, 0.5, -0.5).dense(), t)


def test_a_pair_index_over_other_nodes_or_out_of_range_pairs_is_refused():
    index = ad.PairIndex(*EDGES, 6)
    a = ad.constant(np.ones((7, 2)))
    for op in (lambda: ad.pair_dots(a, index), lambda: ad.unit_rows(a, index, "cosine")):
        with pytest.raises(DimensionError, match="over 6 nodes, not 7"):
            op()
    for bad in ((np.array([0, 6]), np.array([1, 2])), (np.array([0, -1]), np.array([1, 2]))):
        with pytest.raises(DimensionError, match=r"^PairIndex: a pair lies outside \[0, 6\)$"):
            ad.PairIndex(*bad, 6)


def test_a_pair_index_of_arrays_of_two_lengths_is_refused():
    with pytest.raises(DimensionError, match="^PairIndex: pair index arrays differ in length$"):
        ad.PairIndex(np.array([0, 1]), np.array([2]), 6)


@pytest.mark.parametrize("op", [
    lambda w: ad.edge_normalize(w, ad.PairIndex(*EDGES, 6)),
    lambda w: ad.propagate(ad.EdgeOperator(w, ad.PairIndex(*EDGES, 6), 0.5, 0.5),
                           ad.constant(np.ones((6, 1))), np.ones((2, 1, 1))),
], ids=["normalize", "operator"])
def test_edge_ops_reject_a_column_of_another_length(op):
    with pytest.raises(DimensionError):
        op(ad.constant(np.ones((4, 1))))
