"""Finite-difference checks for every tape operation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    return ad.Var((x.value * w).sum(), (x,), lambda g: (g * w,))


rng = np.random.default_rng(0)

MASK = np.array([[True, True, False, True],
                 [False, True, False, False],    # a one-neighbor row
                 [True, False, True, True],
                 [True, True, False, True]])


def pairs(mask):
    """The neighborhoods of the pairs a (n, n) mask keeps."""
    return ad.neighborhoods(*np.nonzero(mask), len(mask))


NBHD = pairs(MASK)


def columns(x):
    """(K, n, c) per-head values as ``gat``'s (n, K*c) head-major columns."""
    return np.swapaxes(x, 0, 1).reshape(x.shape[1], -1)


def attention(attn, nbhd, slope=0.2):
    """``gat``'s attention weights, in columns, as a tape value of its (K, 2n) ``attn``.

    With identity projections (d = n) the scores are the rows of ``attn``
    and each head aggregates its own weights, which the ELU passes unchanged
    since they are >= 0.  So ``gat`` returns ``columns`` of the (K, n, n)
    weights exactly, and its ``attn`` gradient is the scores' gradient.
    """
    k, n = attn.shape[0], attn.shape[1] // 2
    return ad.gat(ad.Var(np.tile(np.eye(n), (k, 1, 1))), attn, nbhd, slope, 1.0)


def check_attention(scores, nbhd, weights):
    """Finite-difference check of the scores' gradient of sum(weights * attention)."""
    k, _, n = scores.shape
    check(lambda v: linear(attention(v, nbhd), columns(weights)), scores.reshape(k, 2 * n))


ATTN = ad.Var(rng.standard_normal((2, 6)))          # 2 heads of width 3
W_COLS = rng.standard_normal((4, 6))                # weights of gat's (4, 2 * 3) output
W_ATTENTION = rng.standard_normal((3, 6))           # weights of 2 heads' (3, 3) attention
FULL = pairs(np.ones((3, 3), bool))


# The elementwise nonlinearities inside ``gat``, each case a (build, x0) pair
# for ``check``: the ELU's negative branch alone (every projection, so every
# aggregate, below 0), both of its branches, and the LeakyReLU of mixed-sign
# and of negative logits.
@pytest.mark.parametrize("case", [
    lambda: (lambda v: linear(ad.gat(v, ATTN, NBHD, 0.2, 0.5), W_COLS),
             -rng.uniform(0.1, 1.0, size=(2, 3, 4))),
    lambda: (lambda v: linear(ad.gat(v, ATTN, NBHD, 0.2, 1.0), W_COLS),
             rng.standard_normal((2, 3, 4))),
    lambda: (lambda v: linear(attention(v, FULL), W_ATTENTION), rng.standard_normal((2, 6))),
    lambda: (lambda v: linear(attention(v, FULL), W_ATTENTION),
             -rng.uniform(0.1, 1.0, size=(2, 6))),
])
def test_elementwise_ops(case):
    check(*case())


def ring_with_chords(n, seed):
    """The pair mask of an n-node graph: a ring, random chords and no self
    pairs, where node 0 has one neighbor."""
    r = np.random.default_rng(seed)
    mask = r.random((n, n)) < 0.3
    mask[np.arange(n), (np.arange(n) + 1) % n] = True
    np.fill_diagonal(mask, False)
    mask[0] = False
    mask[0, 5] = True
    return mask


def without_source(mask, node):
    """``mask`` where ``node`` is no pair's source; a target this leaves
    without pairs gets the node two past it."""
    mask = mask.copy()
    mask[:, node] = False
    empty = np.flatnonzero(~mask.any(axis=1))
    mask[empty, (empty + 2) % len(mask)] = True
    return mask


# 40 nodes: the products' 32-row tiles split the nodes in two.  Node 5, node
# 0's one neighbor, feeds no pair in the second graph, so its neighbor score
# gets no gradient and its projection reaches no aggregate; node 0 gets node 2.
RING = ring_with_chords(40, 3)


@pytest.mark.parametrize("mask", [RING, without_source(RING, 5)], ids=["ring", "no-source"])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("which", ["w1", "attn"])
def test_gat_gradient(which, alpha, mask):
    r = np.random.default_rng(3)
    nbhd = pairs(mask)
    assert nbhd.counts.all()
    inputs = {"w1": r.uniform(-1.0, 1.0, size=(2, 3, 40)), "attn": r.standard_normal((2, 6))}
    weights = r.standard_normal((40, 6))

    def build(v):
        args = {name: ad.Var(x) for name, x in inputs.items()}
        return linear(ad.gat(**{**args, which: v}, nbhd=nbhd, slope=0.2, alpha=alpha), weights)

    out = ad.gat(ad.Var(inputs["w1"]), ad.Var(inputs["attn"]), nbhd, 0.2, alpha).value
    assert (out < 0).any() and (out > 0).any()
    check(build, inputs[which].copy())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1.0, -1.0]))
def test_target_scores_get_no_gradient_while_logits_keep_sign(seed, sign):
    # A target score shifts all of its pairs' logits together, so while they
    # keep one sign the LeakyReLU is linear there, the weights do not move
    # and the target half of attn gets no gradient.
    r = np.random.default_rng(seed)
    heads, dim, n = (int(x) for x in r.integers(1, 5, size=3))
    mask = r.random((n, n)) < r.random()
    mask[np.arange(n), r.integers(n, size=n)] = True
    # nonnegative projections and attn of one sign give scores of that sign
    w1 = ad.Var(r.uniform(0.0, 1.0, size=(heads, dim, n)))
    attn = ad.Var(sign * r.uniform(0.1, 2.0, size=(heads, 2 * dim)))
    ad.backward(linear(ad.gat(w1, attn, pairs(mask), 0.2, 1.0), r.standard_normal((n, heads * dim))))
    np.testing.assert_allclose(attn.grad[:, :dim], 0.0, atol=1e-12)


def test_heads_to_columns():
    # head k of gat is the one-head gat of w1[k] and attn[k], in columns
    # k*d to (k+1)*d
    w1, attn = rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 4))
    out = ad.gat(ad.Var(w1), ad.Var(attn), NBHD, 0.2, 1.0).value
    assert out.shape == (4, 6)
    for k in range(3):
        head = ad.gat(ad.Var(w1[k:k + 1]), ad.Var(attn[k:k + 1]), NBHD, 0.2, 1.0)
        np.testing.assert_array_equal(out[:, 2 * k:2 * k + 2], head.value)
    # with identity projections, the columns are the weights pair_softmax gives
    scores = rng.standard_normal((2, 2, 4))
    w = ad.pair_softmax(scores, NBHD, 0.2)[0]
    assert np.array_equal(attention(ad.Var(scores.reshape(2, 8)), NBHD).value, columns(w))


def fusion_arrays(gammas):
    """(inter, intra, w2, b, s) with ``s`` solved so the two importances are ``gammas``."""
    r = np.random.default_rng(7)
    inter, intra = r.standard_normal((2, 5, 4))
    w2, b = r.standard_normal((3, 4)), r.standard_normal(3)
    means = np.array([np.tanh(x @ w2.T + b).mean(axis=0) for x in (inter, intra)])
    return [inter, intra, w2, b, np.linalg.lstsq(means, np.array(gammas), rcond=None)[0]]


def fusion_inputs(gammas):
    """``fusion_arrays`` with w2, b and s as leaves."""
    inter, intra, *params = fusion_arrays(gammas)
    return [inter, intra, *map(ad.Var, params)]


# gammas near 100 as well as near 0: the max shift is part of the forward
# pass, and the gradient must not depend on it
@pytest.mark.parametrize("gammas", [(0.3, -0.2), (100.0, 101.0)])
@pytest.mark.parametrize("which", ["inter", "intra", "w2", "b", "s"])
def test_fusion_gradient(which, gammas):
    inputs = fusion_arrays(gammas)
    k = ["inter", "intra", "w2", "b", "s"].index(which)
    weights = rng.standard_normal((5, 4))

    def build(v):
        args = [ad.Var(x) for x in inputs]
        return linear(ad.fusion(*args[:k], v, *args[k + 1:])[0], weights)

    check(build, inputs[k].copy())


def test_fusion_weights_are_a_softmax_of_the_importances():
    inter, intra, w2, b, s = fusion_inputs((0.3, -0.2))
    fused, gammas, betas = ad.fusion(ad.Var(inter), ad.Var(intra), w2, b, s)
    np.testing.assert_allclose(gammas, (0.3, -0.2), atol=1e-12)
    assert sum(betas) == pytest.approx(1.0, abs=1e-15)
    assert betas[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.5)), rel=1e-12)
    np.testing.assert_array_equal(fused.value, inter * betas[0] + intra * betas[1])
    # exp(-800) underflows to 0, so only the shift keeps the weights finite
    _, gammas, far = ad.fusion(*map(ad.Var, fusion_arrays((-800.0, -800.5))))
    assert np.exp(gammas).sum() == 0.0
    assert far == pytest.approx(betas, rel=1e-9) and sum(far) == pytest.approx(1.0, abs=1e-15)


def leaky_logits(scores, slope=0.2):
    """(K, n, n) LeakyReLU logits of (K, 2, n) target and neighbor scores."""
    z = scores[:, 0, :, None] + scores[:, 1, None, :]
    return np.where(z >= 0, z, slope * z)


def test_masked_softmax_sums_to_one_and_grad():
    w = ad.pair_softmax(rng.standard_normal((2, 2, 4)), NBHD, 0.2)[0]
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(w[:, ~MASK] == 0.0)
    assert np.all(w[:, 1, 1] == 1.0)
    weights = rng.standard_normal((2, 4, 4))
    check_attention(rng.standard_normal((2, 2, 4)), NBHD, weights)


def test_masked_softmax_matches_softmax_over_the_kept_entries():
    scores = rng.standard_normal((1, 2, 4))
    w = ad.pair_softmax(scores, NBHD, 0.2)[0][0]
    logits = leaky_logits(scores)[0]
    for row, keep in enumerate(MASK):
        e = np.exp(logits[row, keep])
        np.testing.assert_allclose(w[row, keep], e / e.sum(), rtol=1e-14)


def test_masked_softmax_large_logits_stable():
    # logits near +-700, where exp without the shift overflows or underflows;
    # the masked-out entry of row 0 (705) must not set that row's shift
    scores = np.array([[[700.0, 3.0, -3500.0, 10.0],
                        [0.0, 1.0, 5.0, 2.0]]])
    w = ad.pair_softmax(scores, NBHD, 0.2)[0][0]
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    e = np.exp([-2.0, -1.0, 0.0])
    np.testing.assert_allclose(w[0, [0, 1, 3]], e / e.sum(), rtol=1e-14)
    assert w[1, 1] == 1.0
    assert leaky_logits(scores)[0, 2].max() == pytest.approx(-699.0)
    weights = rng.standard_normal((1, 4, 4))
    check_attention(scores, NBHD, weights)


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
            v = ad.Var(scores.reshape(2, 8))
            ad.backward(linear(attention(v, pairs(mask)), columns(weights)))
            runs.append((ad.pair_softmax(scores, pairs(mask), 0.2)[0], v.grad.reshape(2, 2, 4)))
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
    w = ad.pair_softmax(scores, pairs(mask), 0.2)[0]
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    assert not w[:, ~mask].any() and np.all(w[:, 0, mask[0]] == 1.0)
    check_attention(scores, pairs(mask), weights)


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
    w = ad.pair_softmax(scores, pairs(mask), 0.2)[0]
    assert np.all(w[:, ~mask] == 0.0)
    assert np.all(w[:, 1, 3] == 1.0) and np.all(w[:, 3, 2] == 1.0)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_neighborhoods_reject_a_target_without_pairs_and_repeated_pairs():
    # a target without pairs is counted, and the graph rejects it by name
    # (test_model.py::TestEmbedNetwork::test_isolated_node_rejected)
    nbhd = ad.neighborhoods(np.array([0, 1, 3]), np.array([1, 0, 0]), 4)
    assert nbhd.counts.tolist() == [1, 1, 0, 1]
    none = np.array([], dtype=np.int64)
    assert ad.neighborhoods(none, none, 3).counts.tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="repeats"):
        ad.neighborhoods(np.array([0, 1, 0]), np.array([1, 0, 1]), 2)
    # an id outside [0, num) would read and write another pair's entry
    # (source -1 of target 1 is pair (0, 2)), or another head's source sum
    for tgt, src, bad in [([0, 1, 2], [1, -1, 0], -1), ([0, 1, 3], [1, 0, 0], 3),
                          ([0, 1, 2], [1, 3, 0], 3), ([-1, 1, 2], [1, 0, 0], -1)]:
        with pytest.raises(ValueError, match=rf"node id {bad} is outside \[0, 3\)"):
            ad.neighborhoods(np.array(tgt), np.array(src), 3)


def test_segment_softmax_over_targets_in_input_order():
    # ``order`` carries values given with the input pairs into pair order
    tgt, src = np.array([2, 0, 2, 1, 0]), np.array([0, 2, 1, 2, 1])
    nbhd = ad.neighborhoods(tgt, src, 3)
    np.testing.assert_array_equal(nbhd.flat, (tgt * 3 + src)[nbhd.order])
    raw = np.array([1.0, 3.0, 800.0, -2.0, 0.5])
    p = ad.segment_softmax(raw[None, nbhd.order], nbhd)[0]
    for t in range(3):
        mine = tgt[nbhd.order] == t
        e = np.exp(raw[nbhd.order][mine] - raw[nbhd.order][mine].max())
        np.testing.assert_allclose(p[mine], e / e.sum(), rtol=1e-15)


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
    # fusion(x, x) uses x on two paths.  Its two importances are equal, so
    # each beta is 1/2 and the betas' gradient cancels; df/dx = w comes half
    # from each path
    inter, _, w2, b, s = fusion_inputs((0.3, -0.2))
    v, w = ad.Var(inter), rng.standard_normal((5, 4))
    ad.backward(linear(ad.fusion(v, v, w2, b, s)[0], w))
    np.testing.assert_array_equal(v.grad, w)


def test_backward_requires_scalar_root():
    inter, _, w2, b, s = fusion_inputs((0.3, -0.2))
    v = ad.Var(inter)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.fusion(v, v, w2, b, s)[0])


def test_second_backward_and_shared_op_raise():
    # each op's backward runs once and is dropped: a second backward of one
    # root would otherwise add the leaves' gradients again
    inter, _, w2, b, s = fusion_inputs((0.3, -0.2))
    v, w = ad.Var(inter), rng.standard_normal((5, 4))
    loss = linear(ad.fusion(v, ad.Var(inter), w2, b, s)[0], w)
    ad.backward(loss)
    first = v.grad.copy()
    with pytest.raises(ValueError, match="already run"):
        ad.backward(loss)
    np.testing.assert_array_equal(v.grad, first)
    # the tape is a tree: an op's output feeds one op
    y = ad.gat(*map(ad.Var, (rng.standard_normal((2, 2, 4)), rng.standard_normal((2, 4)))),
               NBHD, 0.2, 1.0)
    with pytest.raises(ValueError, match="already run"):
        ad.backward(linear(ad.fusion(y, y, *fusion_inputs((0.3, -0.2))[2:])[0], w[:4]))
