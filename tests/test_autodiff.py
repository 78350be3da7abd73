import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upre import autodiff as ad
from upre.errors import ContractError, DomainError, ShapeError, StateError
from upre.rng import Rng

finite_vec = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=32
)


def test_cosine_similarity_values():
    assert ad.cosine_similarity(ad.constant([1.0, 0.0]), ad.constant([1.0, 0.0])).item() == pytest.approx(1.0)
    assert ad.cosine_similarity(ad.constant([1.0, 0.0]), ad.constant([0.0, 1.0])).item() == pytest.approx(0.0)
    # dot = 24, norms 5*5
    assert ad.cosine_similarity(ad.constant([3.0, 4.0]), ad.constant([4.0, 3.0])).item() == pytest.approx(0.96)


def test_cosine_zero_norm_rejected():
    with pytest.raises(DomainError):
        ad.cosine_similarity(ad.constant([0.0, 0.0]), ad.constant([1.0, 0.0]))


@given(finite_vec)
def test_cosine_self_is_one(vals):
    v = np.asarray(vals, dtype=np.float64)
    if np.linalg.norm(v) < 1e-6:
        return
    assert abs(ad.cosine_similarity(ad.constant(v), ad.constant(v)).item() - 1.0) < 1e-12


def test_softmax_values():
    out = ad.softmax(ad.constant([0.0, 0.0, 0.0])).values
    assert np.allclose(out, [1 / 3] * 3)
    out = ad.softmax(ad.constant([1.0, 0.0])).values
    e = math.e
    assert out[0] == pytest.approx(e / (e + 1))
    assert out[1] == pytest.approx(1 / (e + 1))
    assert ad.softmax(ad.constant([5.0])).values[0] == pytest.approx(1.0)


def test_softmax_empty_rejected():
    with pytest.raises(DomainError):
        ad.softmax(ad.constant(np.zeros(0)))


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-600, max_value=600, allow_nan=False), min_size=1, max_size=1024))
def test_softmax_sums_to_one(vals):
    out = ad.softmax(ad.constant(vals)).values
    assert abs(out.sum() - 1.0) < 1e-12


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-300, max_value=300, allow_nan=False), min_size=1, max_size=256))
def test_softmax_entries_positive(vals):
    # positivity holds whenever the logit spread stays below the exp underflow edge
    out = ad.softmax(ad.constant(vals)).values
    assert np.all(out > 0)


def test_l1_distance_values():
    a = ad.constant([0.6, 0.8])
    b = ad.constant([0.8, 0.6])
    assert ad.l1_distance(a, a).item() == 0.0
    assert ad.l1_distance(a, b).item() == pytest.approx(0.4)
    assert ad.l1_distance(ad.constant([1.0, 1.0, 1.0]), ad.constant([0.0, 0.0, 0.0])).item() == pytest.approx(3.0)
    with pytest.raises(ShapeError):
        ad.l1_distance(ad.constant([1.0]), ad.constant([1.0, 2.0]))


def test_sgd_momentum_single_step():
    p = ad.parameter([1.0])
    p.grad = np.array([1.0])
    st_ = ad.OptimState(np.zeros(1), learning_rate=0.1)
    ad.sgd_momentum_step(p, st_)
    assert p.values[0] == pytest.approx(0.9)
    assert p.grad is None


def test_sgd_momentum_unrolled_two_steps():
    p = ad.parameter([0.0])
    st_ = ad.OptimState(np.zeros(1), learning_rate=1.0, momentum=0.5)
    p.grad = np.array([1.0])
    ad.sgd_momentum_step(p, st_)
    assert p.values[0] == pytest.approx(-1.0)
    p.grad = np.array([1.0])
    ad.sgd_momentum_step(p, st_)
    # velocity 1.0 then 1.5
    assert p.values[0] == pytest.approx(-2.5)


def test_sgd_zero_grad_zero_velocity_is_bit_exact_identity():
    rng = Rng(7)
    vals = rng.normal((3, 4))
    p = ad.parameter(vals.copy())
    p.grad = np.zeros_like(vals)
    st_ = ad.OptimState(np.zeros_like(vals), learning_rate=0.37, momentum=0.9)
    ad.sgd_momentum_step(p, st_)
    assert p.values.tobytes() == vals.tobytes()


def test_sgd_missing_grad_raises():
    p = ad.parameter([1.0])
    with pytest.raises(StateError):
        ad.sgd_momentum_step(p, ad.OptimState(np.zeros(1), learning_rate=0.1))


def test_grad_check_quadratic_exact():
    x = ad.parameter([1.0])
    res = ad.grad_check(lambda t: ad.tsum(ad.mul(t, t)), [x], eps=1e-5, tol=1e-4)
    assert res.passed
    assert res.max_rel_error < 1e-9


def test_grad_check_rejects_bad_eps_and_nonscalar():
    x = ad.parameter([1.0, 2.0])
    with pytest.raises(ContractError):
        ad.grad_check(lambda t: ad.tsum(t), [x], eps=1e-2)
    with pytest.raises(ContractError):
        ad.grad_check(lambda t: ad.mul(t, t), [x])


def test_grad_check_detects_wrong_gradient():
    # A deliberately corrupted op must fail the check.
    def bad_square(t):
        out = ad.mul(t, t)
        wrong = ad.Tensor(out.values, requires_grad=True, _parents=(t,), _vjp=lambda g: ad._accum(t, 3.0 * g))
        return ad.tsum(wrong)

    x = ad.parameter([2.0])
    res = ad.grad_check(bad_square, [x])
    assert not res.passed


OPS_FOR_GRAD = []


def _weighted(fn, weights):
    w = ad.constant(weights)

    def scalarized(*ts):
        out = fn(*ts)
        if out.values.ndim == 0:
            return out
        return ad.tsum(ad.mul(ad.reshape(out, (-1,)), w))

    return scalarized


@pytest.mark.parametrize("seed", range(10))
def test_grad_check_core_ops(seed):
    rng = Rng(1000 + seed)
    a = ad.parameter(rng.normal(6))
    b = ad.parameter(rng.normal(6))
    m = ad.parameter(rng.normal((4, 6)))
    w6 = rng.normal(6)
    w4 = rng.normal(4)
    big = ad.parameter(rng.normal((3, 4, 5)))

    checks = [
        (_weighted(ad.add, w6), [a, b]),
        (_weighted(ad.mul, w6), [a, b]),
        (_weighted(lambda t: ad.scale(t, -2.5), w6), [a]),
        (_weighted(ad.matmul, w4), [m, a]),
        (lambda x, y: ad.dot(x, y), [a, b]),
        (lambda t: ad.tmean(t), [big]),
        (_weighted(lambda t: ad.tmean(t, (1, 2)), np.array([1.0, -2.0, 0.5])), [big]),
        (lambda t: ad.tsum(ad.relu(t)), [a]),
        (_weighted(ad.softmax, w6), [a]),
        (lambda x, y: ad.l1_distance(x, y), [a, b]),
        (lambda x, y: ad.cosine_similarity(x, y), [a, b]),
        (_weighted(ad.l2_normalize, w6), [a]),
        (lambda x, y: ad.smooth_l1(x, y), [a, b]),
        (lambda t: ad.pick(ad.log(ad.softmax(t)), 2), [a]),
    ]
    for fn, inputs in checks:
        # keep kinked ops (l1, smooth-l1, relu) away from their ties
        vals = [t.values for t in inputs]
        if len(vals) == 2 and vals[0].shape == vals[1].shape:
            close = np.abs(vals[0] - vals[1]) < 1e-3
            vals[0][close] += 5e-3
        res = ad.grad_check(fn, inputs, eps=1e-5, tol=1e-4)
        assert res.passed, f"{fn} max rel err {res.max_rel_error:.3e}"


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_structural_ops(seed):
    rng = Rng(77 + seed)
    img = ad.parameter(rng.normal((2, 9, 9)))
    patches = ad.parameter(rng.normal((2, 3, 3)))
    blocks = [ad.parameter(rng.normal((2, 4))), ad.parameter(rng.normal((3, 4)))]
    w = rng.normal(2 * 5 * 5)
    wp = rng.normal(2 * 9 * 9)
    wc = rng.normal(20)

    def resample(t):
        sy = np.linspace(0, 8, 5)
        sx = np.linspace(0.3, 7.7, 5)
        return ad.tsum(ad.mul(ad.reshape(ad.bilinear_resample(t, sy, sx), (-1,)), ad.constant(w)))

    def bcast(t):
        iy = np.minimum(np.arange(9) // 3, 2)
        return ad.tsum(ad.mul(ad.reshape(ad.patch_broadcast(t, iy, iy), (-1,)), ad.constant(wp)))

    def cat(x, y):
        return ad.tsum(ad.mul(ad.reshape(ad.concat_rows([x, y]), (-1,)), ad.constant(wc)))

    for fn, inputs in [(resample, [img]), (bcast, [patches]), (cat, blocks)]:
        res = ad.grad_check(fn, inputs, eps=1e-5, tol=1e-4)
        assert res.passed, f"{fn.__name__} max rel err {res.max_rel_error:.3e}"


def test_backward_requires_scalar():
    t = ad.parameter([1.0, 2.0])
    with pytest.raises(ContractError):
        ad.mul(t, t).backward()


def test_rng_is_reproducible_and_bernoulli_consumes_one_draw():
    r1, r2 = Rng(42), Rng(42)
    assert np.array_equal(r1.normal((4, 4)), r2.normal((4, 4)))
    assert r1.uniform(8).tobytes() == r2.uniform(8).tobytes()
    r3 = Rng(9)
    r4 = Rng(9)
    r3.bernoulli(0.5)
    r4.uniform(1)
    assert np.array_equal(r3.uniform(4), r4.uniform(4))


def test_rng_split_streams_differ():
    base = Rng(5)
    sa = base.split("a").uniform(6)
    sb = base.split("b").uniform(6)
    assert not np.array_equal(sa, sb)


def _box_coords(rng, n, size=9.0):
    """(n, 5) row and column sample coordinates inside a size x size map."""
    lo = rng.uniform(2 * n).reshape(n, 2) * (size - 3.0)
    hi = lo + 1.0 + rng.uniform(2 * n).reshape(n, 2) * 2.0
    t = np.linspace(0.0, 1.0, 5)
    return lo[:, :1] + t * (hi[:, :1] - lo[:, :1]), lo[:, 1:] + t * (hi[:, 1:] - lo[:, 1:])


def test_stacked_bilinear_resample_matches_single_grids():
    rng = Rng(90)
    img = ad.parameter(rng.normal((3, 9, 9)))
    sy, sx = _box_coords(rng, 4)
    stack = ad.bilinear_resample(img, sy, sx)
    assert stack.shape == (4, 3, 5, 5)
    singles = [ad.bilinear_resample(img, sy[n], sx[n]) for n in range(4)]
    for n, single in enumerate(singles):
        assert single.shape == (3, 5, 5)
        assert stack.values[n].tobytes() == single.values.tobytes()
    w = rng.normal((4, 3, 5, 5))
    ad.tsum(ad.mul(stack, ad.constant(w))).backward()
    batched_grad = img.grad.copy()
    img.grad = None
    for n in range(4):
        ad.tsum(ad.mul(ad.bilinear_resample(img, sy[n], sx[n]), ad.constant(w[n]))).backward()
    assert np.allclose(batched_grad, img.grad, rtol=0.0, atol=1e-12)
    with pytest.raises(ShapeError):
        ad.bilinear_resample(img, sy, sx[:3])


def test_avg_pool2_matches_mean_over_pooled_axes():
    rng = Rng(91)
    x = rng.normal((2, 3, 14, 14)) * 1e3
    pooled = ad.avg_pool2(ad.constant(x)).values
    assert pooled.tobytes() == x.reshape(2, 3, 7, 2, 7, 2).mean(axis=(3, 5)).tobytes()
    with pytest.raises(ShapeError):
        ad.avg_pool2(ad.constant(np.zeros((2, 3, 5))))


def test_row_ops_match_their_one_row_forms():
    rng = Rng(92)
    x = rng.normal((4, 6))
    w = rng.normal((5, 6))
    lin = ad.linear_rows(ad.constant(x), ad.constant(w)).values
    assert np.allclose(lin, np.stack([w @ row for row in x]), rtol=0.0, atol=1e-12)
    norm = ad.l2_normalize_rows(ad.constant(x)).values
    soft = ad.softmax_rows(ad.constant(x)).values
    for n, row in enumerate(x):
        assert np.allclose(norm[n], ad.l2_normalize(ad.constant(row)).values, rtol=0.0, atol=1e-15)
        assert np.allclose(soft[n], ad.softmax(ad.constant(row)).values, rtol=0.0, atol=1e-15)
    picked = ad.pick_rows(ad.constant(x), [5, 0, 2, 2]).values
    assert picked.tolist() == [x[0, 5], x[1, 0], x[2, 2], x[3, 2]]
    assert ad.gather_rows(ad.constant(x), [3, 1, 3]).values.tolist() == x[[3, 1, 3]].tolist()


def test_row_ops_reject_bad_input():
    x = ad.constant(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        ad.linear_rows(x, ad.constant(np.ones((2, 5))))
    with pytest.raises(ShapeError):
        ad.pick_rows(x, [0, 1])
    with pytest.raises(ShapeError):
        ad.pick_rows(x, [0, 1, 4])
    with pytest.raises(ShapeError):
        ad.gather_rows(x, [3])
    with pytest.raises(DomainError):
        ad.l2_normalize_rows(ad.constant(np.array([[1.0, 0.0], [0.0, 0.0]])))
    with pytest.raises(DomainError):
        ad.softmax_rows(ad.constant(np.ones(3)))
