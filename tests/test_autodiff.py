"""Finite-difference checks for every tape operation."""

import numpy as np
import pytest

from neca import autodiff as ad


def fd_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def check(build, x0, tol=1e-6):
    """Compare tape gradient of scalar build(Var) against finite differences."""
    v = ad.Var(x0.copy())
    out = build(v)
    ad.backward(out)
    numeric = fd_grad(lambda x: float(build(ad.Var(x)).value), x0.copy())
    np.testing.assert_allclose(v.grad, numeric, rtol=1e-5, atol=tol)


def linear(x, w):
    """sum(w * x) as a tape op, whose gradient is ``w``: reduces an op's output to
    the scalar ``check`` differentiates."""
    return ad.Var((x.value * w).sum(), (x,), lambda g: ad._acc(x, g * w))


rng = np.random.default_rng(0)

MASK = np.array([[True, True, False, True],
                 [False, True, False, False],    # a one-neighbor row
                 [True, False, True, True],
                 [True, True, False, True]])


def pairs(mask):
    """The neighborhoods of the pairs a (n, n) mask keeps."""
    return ad.neighborhoods(*np.nonzero(mask), len(mask))


NBHD = pairs(MASK)
W_ATTENTION, W_ELU = rng.standard_normal((2, 3, 3)), rng.standard_normal((4, 3))


@pytest.mark.parametrize("build", [
    lambda v: linear(ad.elu(v, 0.5), W_ELU),
    # the chain rule through two elementwise ops
    lambda v: linear(ad.elu(ad.elu(v, 1.0), 0.5), W_ELU),
    lambda v: linear(ad.attention(ad.reshape(v, (2, 2, 3)), pairs(np.ones((3, 3), bool)), 0.2),
                     W_ATTENTION),
    lambda v: linear(ad.elu(v, 1.0), W_ELU),
])
def test_elementwise_ops(build):
    check(build, rng.standard_normal((4, 3)))


def test_matmul_2d_2d():
    b, w = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
    check(lambda v: linear(ad.matmul(v, b), w), rng.standard_normal((4, 3)))


def test_matmul_gradient_wrt_second_operand():
    a, w = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
    check(lambda v: linear(ad.matmul(a, v), w), rng.standard_normal((3, 2)))


def test_batched_matmul_both_operands():
    a = rng.standard_normal((2, 4, 3))
    b = rng.standard_normal((2, 3, 5))
    w = rng.standard_normal((2, 4, 5))
    check(lambda v: linear(ad.matmul(v, b), w), a.copy())
    check(lambda v: linear(ad.matmul(a, v), w), b.copy())
    # a product of an operand with its own transpose (the Gram matrix)
    check(lambda v: linear(ad.matmul(v, ad.transpose(v)), w[0, :, :4]),
          rng.standard_normal((4, 3)))


def test_matmul_rejects_mismatched_batches():
    with pytest.raises(ValueError, match="batch"):
        ad.matmul(np.ones((2, 3, 4)), np.ones((3, 4, 2)))
    with pytest.raises(ValueError, match="ranks"):
        ad.matmul(np.ones(3), np.ones((3, 2)))


def test_transpose_reshape_slice():
    w = rng.standard_normal((4, 3))
    check(lambda v: linear(ad.transpose(v), w), rng.standard_normal((3, 4)))
    # on a stack, transpose swaps the last two axes only
    w = rng.standard_normal((2, 3, 4))
    assert ad.transpose(ad.Var(w)).shape == (2, 4, 3)
    check(lambda v: linear(ad.transpose(v), w.swapaxes(1, 2)), w.copy())
    w = rng.standard_normal(6)
    check(lambda v: linear(ad.reshape(v, (6,)), w), rng.standard_normal((2, 3)))
    # attention slices its (K, 2, n) scores into the target row 0 and the
    # neighbor row 1.  A target score shifts all of its row's logits
    # together, so while they keep one sign it leaves the weights alone and
    # its gradient is 0; only the neighbor row gets one.
    weights = rng.standard_normal((2, 4, 4))
    check(lambda v: linear(ad.attention(v, NBHD, 0.2), weights), rng.standard_normal((2, 2, 4)))
    scores = ad.Var(rng.uniform(1.0, 2.0, size=(2, 2, 4)))
    ad.backward(linear(ad.attention(scores, NBHD, 0.2), weights))
    np.testing.assert_allclose(scores.grad[:, 0], 0.0, atol=1e-12)
    assert np.abs(scores.grad[:, 1]).max() > 1e-3


def test_heads_to_columns():
    x = rng.standard_normal((3, 4, 2))
    out = ad.heads_to_columns(ad.Var(x)).value
    assert out.shape == (4, 6)
    for k in range(3):
        np.testing.assert_array_equal(out[:, 2 * k:2 * k + 2], x[k])
    weights = rng.standard_normal((4, 6))
    check(lambda v: linear(ad.heads_to_columns(v), weights), x.copy())


def fusion_inputs(gammas):
    """(inter, intra, w2, b, s) with ``s`` solved so the two importances are ``gammas``."""
    r = np.random.default_rng(7)
    inter, intra = r.standard_normal((2, 5, 4))
    w2, b = r.standard_normal((3, 4)), r.standard_normal(3)
    means = np.array([np.tanh(x @ w2.T + b).mean(axis=0) for x in (inter, intra)])
    return [inter, intra, w2, b, np.linalg.lstsq(means, np.array(gammas), rcond=None)[0]]


# gammas near 100 as well as near 0: the max shift is part of the forward
# pass, and the gradient must not depend on it
@pytest.mark.parametrize("gammas", [(0.3, -0.2), (100.0, 101.0)])
@pytest.mark.parametrize("which", ["inter", "intra", "w2", "b", "s"])
def test_fusion_gradient(which, gammas):
    inputs = fusion_inputs(gammas)
    k = ["inter", "intra", "w2", "b", "s"].index(which)
    weights = rng.standard_normal((5, 4))

    def build(v):
        return linear(ad.fusion(*inputs[:k], v, *inputs[k + 1:])[0], weights)

    check(build, inputs[k].copy())


def test_fusion_weights_are_a_softmax_of_the_importances():
    inter, intra, w2, b, s = fusion_inputs((0.3, -0.2))
    fused, gammas, betas = ad.fusion(inter, intra, w2, b, s)
    np.testing.assert_allclose(gammas, (0.3, -0.2), atol=1e-12)
    assert sum(betas) == pytest.approx(1.0, abs=1e-15)
    assert betas[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.5)), rel=1e-12)
    np.testing.assert_array_equal(fused.value, inter * betas[0] + intra * betas[1])
    # exp(-800) underflows to 0, so only the shift keeps the weights finite
    _, gammas, far = ad.fusion(*fusion_inputs((-800.0, -800.5)))
    assert np.exp(gammas).sum() == 0.0
    assert far == pytest.approx(betas, rel=1e-9) and sum(far) == pytest.approx(1.0, abs=1e-15)


def leaky_logits(scores, slope=0.2):
    """(K, n, n) LeakyReLU logits of (K, 2, n) target and neighbor scores."""
    z = scores[:, 0, :, None] + scores[:, 1, None, :]
    return np.where(z >= 0, z, slope * z)


def test_masked_softmax_sums_to_one_and_grad():
    w = ad.attention(ad.Var(rng.standard_normal((2, 2, 4))), NBHD, 0.2).value
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(w[:, ~MASK] == 0.0)
    assert np.all(w[:, 1, 1] == 1.0)
    weights = rng.standard_normal((2, 4, 4))
    check(lambda v: linear(ad.attention(v, NBHD, 0.2), weights), rng.standard_normal((2, 2, 4)))


def test_masked_softmax_matches_softmax_over_the_kept_entries():
    scores = rng.standard_normal((1, 2, 4))
    w = ad.attention(ad.Var(scores), NBHD, 0.2).value[0]
    logits = leaky_logits(scores)[0]
    for row, keep in enumerate(MASK):
        e = np.exp(logits[row, keep])
        np.testing.assert_allclose(w[row, keep], e / e.sum(), rtol=1e-14)


def test_masked_softmax_large_logits_stable():
    # logits near +-700, where exp without the shift overflows or underflows;
    # the masked-out entry of row 0 (705) must not set that row's shift
    scores = np.array([[[700.0, 3.0, -3500.0, 10.0],
                        [0.0, 1.0, 5.0, 2.0]]])
    w = ad.attention(ad.Var(scores), NBHD, 0.2).value[0]
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    e = np.exp([-2.0, -1.0, 0.0])
    np.testing.assert_allclose(w[0, [0, 1, 3]], e / e.sum(), rtol=1e-14)
    assert w[1, 1] == 1.0
    assert leaky_logits(scores)[0, 2].max() == pytest.approx(-699.0)
    weights = rng.standard_normal((1, 4, 4))
    check(lambda v: linear(ad.attention(v, NBHD, 0.2), weights), scores)


def test_attention_masked_scores_far_above_kept_ones():
    # a neighbor no row keeps, scored about 1e300 above the rest: its logits
    # are never exponentiated, so nothing overflows and the weights and the
    # gradients are exactly those of an ordinary score there
    mask = MASK.copy()
    mask[:, 2] = False
    weights = rng.standard_normal((2, 4, 4))
    ordinary = rng.standard_normal((2, 2, 4))
    far = ordinary.copy()
    far[:, 1, 2] = 1e300
    runs = []
    with np.errstate(over="raise", invalid="raise"):
        for scores in (ordinary, far):
            v = ad.Var(scores)
            alpha = ad.attention(v, pairs(mask), 0.2)
            ad.backward(linear(alpha, weights))
            runs.append((alpha.value, v.grad))
    (w0, g0), (w1, g1) = runs
    assert np.array_equal(w0, w1) and np.array_equal(g0, g1)
    assert not w1[:, :, 2].any() and not g1[:, 1, 2].any()
    np.testing.assert_allclose(w1.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_attention_gradient_over_random_masks(seed):
    r = np.random.default_rng(seed)
    heads, n = int(r.integers(1, 4)), int(r.integers(2, 7))
    spread = (0.1, 1.0, 3.0, 10.0, 30.0, 60.0)[seed]
    mask = r.random((n, n)) < r.random()
    mask[np.arange(n), r.integers(n, size=n)] = True
    mask[0] = np.arange(n) == r.integers(n)     # a one-neighbor row
    scores = r.uniform(-spread, spread, size=(heads, 2, n))
    weights = r.standard_normal((heads, n, n))
    w = ad.attention(ad.Var(scores), pairs(mask), 0.2).value
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    assert not w[:, ~mask].any() and np.all(w[:, 0, mask[0]] == 1.0)
    check(lambda v: linear(ad.attention(v, pairs(mask), 0.2), weights), scores)


def test_attention_weighs_outside_pairs_zero_and_single_pairs_one():
    # scores far apart, so a pair outside the neighborhood would take every
    # row's weight if it were computed; rows 1 and 3 keep one pair each
    mask = np.array([[True, False, True, False, True],
                     [False, False, False, True, False],
                     [True, True, False, False, True],
                     [False, False, True, False, False],
                     [True, False, True, True, False]])
    scores = np.zeros((3, 2, 5))
    scores[:, 1] = [-50.0, 400.0, -30.0, 0.0, 10.0]
    scores[:, 0] = rng.uniform(-20.0, 20.0, size=(3, 5))
    w = ad.attention(ad.Var(scores), pairs(mask), 0.2).value
    assert np.all(w[:, ~mask] == 0.0)
    assert np.all(w[:, 1, 3] == 1.0) and np.all(w[:, 3, 2] == 1.0)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_neighborhoods_reject_a_target_without_pairs_and_repeated_pairs():
    with pytest.raises(ValueError, match="node 2"):
        ad.neighborhoods(np.array([0, 1, 3]), np.array([1, 0, 0]), 4)
    with pytest.raises(ValueError, match="repeats"):
        ad.neighborhoods(np.array([0, 1, 0]), np.array([1, 0, 1]), 2)


@pytest.mark.parametrize("rows", [31, 32, 33, 65])
def test_chunked_product_matches_one_product(rows):
    a, b = rng.standard_normal((rows, 40)), rng.standard_normal((40, 7))
    np.testing.assert_allclose(ad._product(a, b), a @ b, rtol=1e-13, atol=1e-13)
    # a stack, and a transposed view on either side
    a3, b3 = rng.standard_normal((3, rows, 40)), rng.standard_normal((3, 7, 40))
    bt = np.swapaxes(b3, -1, -2)
    np.testing.assert_allclose(ad._product(a3, bt), a3 @ bt, rtol=1e-13, atol=1e-13)
    at = np.swapaxes(rng.standard_normal((3, 40, rows)), -1, -2)
    np.testing.assert_allclose(ad._product(at, bt), at @ bt, rtol=1e-13, atol=1e-13)
    # an inner axis longer than INNER_CHUNK is summed in pieces
    long_a, long_b = rng.standard_normal((rows, 600)), rng.standard_normal((600, 40))
    np.testing.assert_allclose(ad._product(long_a, long_b), long_a @ long_b,
                               rtol=1e-13, atol=1e-12)


def test_diamond_reuse_accumulates():
    # f(x) = sum(w * x x^T) uses x twice on separate paths; df/dx = (w + w^T) x
    v = ad.Var(np.array([[1.0, -2.0]]))
    ad.backward(linear(ad.matmul(v, ad.transpose(v)), np.array([[3.0]])))
    np.testing.assert_array_equal(v.grad, [[6.0, -12.0]])


def test_backward_requires_scalar_root():
    v = ad.Var(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.elu(v, 1.0))
