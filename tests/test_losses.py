import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upre import autodiff as ad
from upre import losses as ls
from upre.errors import ConfigError, InputError, ShapeError
from upre.rng import Rng

import pns_reference


def unit(v) -> ad.Tensor:
    v = np.asarray(v, dtype=np.float64)
    return ad.constant(v / np.linalg.norm(v))


def random_unit(rng: Rng, d: int = 8) -> ad.Tensor:
    return unit(rng.normal(d))


def make_table(rng: Rng, k: int = 7, d: int = 8) -> ls.PromptTable:
    cats = tuple(f"cat{i}" for i in range(k))
    embs = [random_unit(rng, d) for _ in range(k)]
    return ls.PromptTable(cats, embs, random_unit(rng, d))


def test_detect_prob_symmetry_and_known_values():
    rng = Rng(1)
    table = make_table(rng, 7)
    e = random_unit(rng)
    # equidistant case: identical entries
    shared = random_unit(rng)
    same = ls.PromptTable(tuple(f"c{i}" for i in range(7)), [shared] * 7, shared)
    probs = ls.detect_prob(e, same).values
    assert np.allclose(probs, 1 / 8)
    assert abs(probs.sum() - 1.0) < 1e-12
    # two entries with sims (1, 0): orthogonal construction
    e2 = unit([1.0, 0.0])
    t2 = ls.PromptTable(("a",), [unit([1.0, 0.0])], unit([0.0, 1.0]))
    p2 = ls.detect_prob(e2, t2).values
    assert p2[0] == pytest.approx(math.e / (math.e + 1))
    assert p2[1] == pytest.approx(1 / (math.e + 1))
    probs_real = ls.detect_prob(e, table).values
    assert abs(probs_real.sum() - 1.0) < 1e-12
    assert np.all((probs_real > 0) & (probs_real < 1))


def test_positive_prob_excludes_background():
    rng = Rng(2)
    table = make_table(rng, 3)
    e = random_unit(rng)
    probs = ls.positive_prob(e, table).values
    assert probs.shape == (3,)
    shared = random_unit(rng)
    same = ls.PromptTable(("a", "b", "c"), [shared] * 3, random_unit(rng))
    assert np.allclose(ls.positive_prob(shared, same).values, 1 / 3)


def test_negative_prob_full_table_and_monotonicity():
    rng = Rng(3)
    table = make_table(rng, 7)
    e = random_unit(rng)
    probs = ls.negative_prob(e, table).values
    assert probs.shape == (8,)
    assert abs(probs.sum() - 1.0) < 1e-12
    # raising cos(e, bg) raises the background probability, other sims fixed
    sims = np.array([float(e.values @ t.values) for t in table.embeddings])

    def bg_prob(bg_sim):
        logits = np.concatenate([sims, [bg_sim]])
        z = np.exp(logits - logits.max())
        return (z / z.sum())[-1]

    grid = np.linspace(-0.9, 0.9, 7)
    vals = [bg_prob(s) for s in grid]
    assert np.all(np.diff(vals) > 0)


def test_loss_align_anchors():
    t = unit([1.0, 0.0, 0.0])
    batch = ls.RddBatch([t], [t], t, t)
    assert ls.loss_align(batch).item() == pytest.approx(0.0, abs=1e-12)
    anti = unit([-1.0, 0.0, 0.0])
    batch = ls.RddBatch([t], [anti], t, t)
    assert ls.loss_align(batch).item() == pytest.approx(2.0)
    orth = unit([0.0, 1.0, 0.0])
    batch = ls.RddBatch([t], [orth], t, t)
    assert ls.loss_align(batch).item() == pytest.approx(1.0)


def test_loss_semantic_values_and_batch_mean():
    a = unit([0.6, 0.8])
    b = unit([0.8, 0.6])
    t = unit([1.0, 0.0])
    assert ls.loss_semantic(ls.RddBatch([a], [a], t, t)).item() == 0.0
    assert ls.loss_semantic(ls.RddBatch([a], [b], t, t)).item() == pytest.approx(0.4)
    two = ls.RddBatch([a, a], [a, b], t, t)
    assert ls.loss_semantic(two).item() == pytest.approx(0.2)


def test_loss_relative_values_and_invariance():
    rng = Rng(4)
    e_s = random_unit(rng, 6)
    t_s = random_unit(rng, 6)
    t_t = random_unit(rng, 6)
    # offsets match exactly -> zero
    e_st_match = ad.constant(e_s.values - (t_s.values - t_t.values))
    batch = ls.RddBatch([e_s], [e_st_match], t_s, t_t, validate=False)
    assert ls.loss_relative(batch).item() == pytest.approx(0.0, abs=1e-12)
    # explicit arithmetic case
    e1 = ad.constant([0.6, 0.8])
    e2 = ad.constant([0.5, 0.9])  # e1 - e2 = (0.1, -0.1)
    tt = unit([0.0, 1.0])
    batch = ls.RddBatch([e1], [e2], tt, tt, validate=False)
    assert ls.loss_relative(batch).item() == pytest.approx(0.2)
    # common translation of both visual embeddings cancels
    shift = rng.normal(6)
    b1 = ls.RddBatch([e_s], [random_unit(rng, 6)], t_s, t_t, validate=False)
    b2 = ls.RddBatch(
        [ad.constant(e_s.values + shift)],
        [ad.constant(b1.e_i_st[0].values + shift)],
        t_s,
        t_t,
        validate=False,
    )
    assert ls.loss_relative(b1).item() == pytest.approx(ls.loss_relative(b2).item(), abs=1e-12)


def test_loss_positive_values():
    cats = ("a", "b", "c")
    probs = ad.constant([1 / 3, 1 / 3, 1 / 3])
    assert ls.loss_positive(probs, "b", cats).item() == pytest.approx(math.log(3))
    sure = ad.constant([1.0, 0.0 + 1e-300, 0.0 + 1e-300])
    assert ls.loss_positive(sure, "a", cats).item() == pytest.approx(0.0)
    with pytest.raises(InputError):
        ls.loss_positive(probs, "zzz", cats)
    # monotone: higher true-class probability, lower loss
    lo = ls.loss_positive(ad.constant([0.2, 0.4, 0.4]), "a", cats).item()
    hi = ls.loss_positive(ad.constant([0.6, 0.2, 0.2]), "a", cats).item()
    assert hi < lo


def test_loss_background_variants():
    y = 1 / 3
    probs = ad.constant([0.5, 0.25, 0.25])
    hinge = ls.loss_background(probs, y, "hinge_positive_diff").item()
    assert hinge == pytest.approx(1 / 6)
    uniform8 = ad.constant(np.full(8, 1 / 8))
    ce = ls.loss_background(uniform8, 1 / 8, "eq12_uniform_ce").item()
    assert ce == pytest.approx(math.log(8))
    # hinge is exactly zero iff probabilities are uniform at y_bg
    assert ls.loss_background(ad.constant([y, y, y]), y, "hinge_positive_diff").item() == 0.0
    off = ad.constant([y + 0.01, y - 0.02, y + 0.01])
    assert ls.loss_background(off, y, "hinge_positive_diff").item() > 0.0
    with pytest.raises(ConfigError):
        ls.loss_background(probs, y, "bogus")


def test_loss_background_detpro_variants():
    probs = ad.constant([0.2, 0.3, 0.5])
    got = ls.loss_background(probs, 1 / 3, "detpro_binary", background_index=2).item()
    want = -math.log(0.5) - math.log(1 - 0.2) - math.log(1 - 0.3)
    assert got == pytest.approx(want)
    fg = ad.constant([0.25, 0.75])
    got = ls.loss_background(fg, 1 / 3, "detpro_uniform_fg").item()
    assert got == pytest.approx(-(math.log(0.25) + math.log(0.75)) / 2)


def test_rdd_total_additivity_and_mask():
    rng = Rng(5)
    batch = ls.RddBatch(
        [random_unit(rng) for _ in range(3)],
        [random_unit(rng) for _ in range(3)],
        random_unit(rng),
        random_unit(rng),
    )
    full = ls.rdd_total(batch, mask=("align", "semantic", "relative")).item()
    parts = (
        ls.loss_align(batch).item()
        + ls.loss_semantic(batch).item()
        + ls.loss_relative(batch).item()
    )
    assert full == pytest.approx(parts, abs=1e-12)
    aligned = ls.RddBatch([batch.t_i_t], [batch.t_i_t], batch.t_i_s, batch.t_i_t)
    assert ls.rdd_total(aligned, mask=("align",)).item() == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ConfigError):
        ls.rdd_total(batch, mask=())
    with pytest.raises(ConfigError):
        ls.rdd_total(batch, mask=("nope",))
    weighted = ls.rdd_total(batch, weights={"align": 2.0}, mask=("align",)).item()
    assert weighted == pytest.approx(2 * ls.loss_align(batch).item())


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rdd_structure_properties(seed):
    rng = Rng(seed)
    batch = ls.RddBatch(
        [random_unit(rng) for _ in range(2)],
        [random_unit(rng) for _ in range(2)],
        random_unit(rng),
        random_unit(rng),
    )
    la = ls.loss_align(batch).item()
    assert 0.0 <= la <= 2.0
    assert ls.loss_semantic(batch).item() >= 0.0
    assert ls.loss_relative(batch).item() >= 0.0


@pytest.mark.parametrize("seed", range(10))
def test_grad_check_rdd_losses(seed):
    rng = Rng(300 + seed)
    raw = [ad.parameter(rng.normal(8)) for _ in range(6)]

    def build(*ts):
        e_s = [ad.l2_normalize(ts[0]), ad.l2_normalize(ts[1])]
        e_st = [ad.l2_normalize(ts[2]), ad.l2_normalize(ts[3])]
        return ls.RddBatch(e_s, e_st, ad.l2_normalize(ts[4]), ad.l2_normalize(ts[5]))

    for loss_fn in (ls.loss_align, ls.loss_semantic, ls.loss_relative):
        res = ad.grad_check(lambda *ts: loss_fn(build(*ts)), raw, eps=1e-5, tol=1e-4)
        assert res.passed, f"{loss_fn.__name__}: {res.max_rel_error:.2e}"
    res = ad.grad_check(lambda *ts: ls.rdd_total(build(*ts)), raw, eps=1e-5, tol=1e-4)
    assert res.passed, res.max_rel_error


@pytest.mark.parametrize("seed", range(10))
def test_grad_check_instance_losses(seed):
    rng = Rng(600 + seed)
    cats = tuple("abcd")
    e_raw = ad.parameter(rng.normal(8))
    table_raw = [ad.parameter(rng.normal(8)) for _ in range(5)]

    def pos_loss(e, *tr):
        table = ls.PromptTable(cats, [ad.l2_normalize(t) for t in tr[:4]], ad.l2_normalize(tr[4]))
        probs = ls.positive_prob(ad.l2_normalize(e), table)
        return ls.loss_positive(probs, "c", cats)

    res = ad.grad_check(pos_loss, [e_raw, *table_raw], eps=1e-5, tol=1e-4)
    assert res.passed, res.max_rel_error

    for variant in ("eq12_uniform_ce", "hinge_positive_diff", "detpro_binary"):

        def neg_loss(e, *tr):
            table = ls.PromptTable(cats, [ad.l2_normalize(t) for t in tr[:4]], ad.l2_normalize(tr[4]))
            probs = ls.negative_prob(ad.l2_normalize(e), table)
            return ls.loss_background(probs, 1 / 5, variant, table.background_index)

        res = ad.grad_check(neg_loss, [e_raw, *table_raw], eps=1e-5, tol=1e-4)
        assert res.passed, f"{variant}: {res.max_rel_error:.2e}"


def test_instance_objective_variants():
    rng = Rng(8)
    table = make_table(rng, 4)
    pos = [random_unit(rng) for _ in range(2)]
    neg = [random_unit(rng) for _ in range(2)]
    batch = ls.PnsBatch(pos, ["cat0", "cat2"], neg, table)
    assert batch.y_bg == pytest.approx(1 / 5)
    full = ls.instance_objective(batch, "bg_and_c").item()
    c_only = ls.instance_objective(batch, "c_only").item()
    bg_only = ls.instance_objective(batch, "bg_only").item()
    assert full == pytest.approx(c_only + bg_only, abs=1e-12)
    ce = ls.instance_objective(batch, "ce").item()
    assert ce > 0
    with pytest.raises(ConfigError):
        ls.instance_objective(batch, "nope")
    empty = ls.PnsBatch([], [], [], table)
    assert ls.instance_objective(empty, "bg_and_c") is None


def test_pns_batch_validates_labels_and_norms():
    rng = Rng(9)
    table = make_table(rng, 3)
    with pytest.raises(InputError):
        ls.PnsBatch([random_unit(rng)], ["missing"], [], table)
    with pytest.raises(InputError):
        ls.PnsBatch([ad.constant([3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])], ["cat0"], [], table)


def test_heads_take_a_stack_of_embeddings():
    rng = Rng(14)
    table = make_table(rng, 5)
    rows = np.stack([random_unit(rng).values * (1.0 + i) for i in range(4)])
    for head, width in ((ls.detect_prob, 6), (ls.positive_prob, 5), (ls.negative_prob, 6)):
        stack = head(ad.constant(rows), table, 0.7).values
        assert stack.shape == (4, width)
        assert np.allclose(stack.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        for n in range(4):
            single = head(ad.constant(rows[n]), table, 0.7).values
            assert single.shape == (width,)
            assert np.allclose(stack[n], single, rtol=0.0, atol=1e-15)


# ------------------------------------------------ stacked PNS losses ---


def _prob_stack(rng: Rng, n: int, k: int) -> np.ndarray:
    z = np.exp(rng.normal((n, k)))
    return z / z.sum(axis=1, keepdims=True)


def test_loss_positive_stack_matches_list():
    rng = Rng(15)
    cats = ("a", "b", "c", "d")
    rows = _prob_stack(rng, 5, 4)
    labels = ["b", "a", "d", "b", "c"]
    stack = ls.loss_positive(ad.constant(rows), labels, cats).item()
    listed = ls.loss_positive([ad.constant(r) for r in rows], labels, cats).item()
    want = np.mean([-math.log(r[cats.index(c)]) for r, c in zip(rows, labels)])
    assert stack == listed
    assert stack == pytest.approx(want, rel=0.0, abs=1e-14)
    with pytest.raises(ShapeError):
        ls.loss_positive(ad.constant(rows), labels[:4], cats)


@pytest.mark.parametrize("variant", ls.BG_VARIANTS)
def test_loss_background_stack_matches_list(variant):
    rng = Rng(16)
    rows = _prob_stack(rng, 6, 5)
    y_bg = 1 / 5
    stack = ls.loss_background(ad.constant(rows), y_bg, variant, 4).item()
    listed = ls.loss_background([ad.constant(r) for r in rows], y_bg, variant, 4).item()
    want = np.mean([pns_reference.background_term(ad.constant(r), y_bg, variant, 4).item() for r in rows])
    assert stack == listed
    assert stack == pytest.approx(want, rel=0.0, abs=1e-14)
    # one vector runs as a stack of one
    one = ls.loss_background(ad.constant(rows[2]), y_bg, variant, 4).item()
    assert one == pytest.approx(pns_reference.background_term(ad.constant(rows[2]), y_bg, variant, 4).item(), abs=1e-15)
    if variant == "detpro_binary":
        for bad in (5, -1):
            with pytest.raises(ShapeError):
                ls.loss_background(ad.constant(rows), y_bg, variant, bad)


@pytest.mark.parametrize("n_pos,n_neg", [(3, 4), (0, 4), (3, 0), (1, 1)])
@pytest.mark.parametrize(
    "pns_variant,bg_variant",
    [("bg_and_c", v) for v in ls.BG_VARIANTS] + [("ce", "hinge_positive_diff"), ("c_only", "hinge_positive_diff"), ("bg_only", "detpro_binary")],
)
def test_instance_objective_stack_matches_list_and_per_entry(n_pos, n_neg, pns_variant, bg_variant):
    rng = Rng(17)
    table = make_table(rng, 4)
    pos = [random_unit(rng) for _ in range(n_pos)]
    neg = [random_unit(rng) for _ in range(n_neg)]
    labels = [f"cat{i % 4}" for i in range(n_pos)]

    def stacked(rows):
        return ad.constant(np.stack([e.values for e in rows])) if rows else []

    listed = ls.instance_objective(ls.PnsBatch(pos, labels, neg, table), pns_variant, bg_variant, 0.8)
    stack = ls.instance_objective(ls.PnsBatch(stacked(pos), labels, stacked(neg), table), pns_variant, bg_variant, 0.8)
    ref = pns_reference.instance_objective(pos, labels, neg, table, pns_variant, bg_variant, 0.8)
    if ref is None:
        assert listed is None and stack is None
        return
    assert listed.item() == stack.item()
    assert listed.item() == pytest.approx(ref.item(), rel=0.0, abs=1e-13)


def test_instance_objective_gradients_match_per_entry():
    rng = Rng(18)
    cats = tuple("abcd")
    pos = ad.parameter(rng.normal((3, 8)))
    neg = ad.parameter(rng.normal((2, 8)))
    for pns_variant, bg_variant in [("bg_and_c", v) for v in ls.BG_VARIANTS] + [("ce", "hinge_positive_diff")]:
        table_raw = [ad.parameter(rng.normal(8)) for _ in range(5)]
        labels = ["c", "a", "c"]
        grads = []
        for build in ("stack", "per_entry"):
            for t in [pos, neg, *table_raw]:
                t.zero_grad()
            table = ls.PromptTable(cats, [ad.l2_normalize(t) for t in table_raw[:4]], ad.l2_normalize(table_raw[4]))
            if build == "stack":
                batch = ls.PnsBatch(ad.l2_normalize_rows(pos), labels, ad.l2_normalize_rows(neg), table)
                out = ls.instance_objective(batch, pns_variant, bg_variant)
            else:
                pos_e = [ad.l2_normalize(ad.gather_rows(pos, [i])) for i in range(3)]
                pos_e = [ad.reshape(e, (8,)) for e in pos_e]
                neg_e = [ad.reshape(ad.l2_normalize(ad.gather_rows(neg, [i])), (8,)) for i in range(2)]
                out = pns_reference.instance_objective(pos_e, labels, neg_e, table, pns_variant, bg_variant)
            out.backward()
            # detpro_uniform_fg never reaches the background entry
            grads.append([np.zeros(8) if t.grad is None else t.grad.copy() for t in [pos, neg, *table_raw]])
        for got, want in zip(*grads):
            assert np.abs(got - want).max() <= 1e-13, (pns_variant, bg_variant)


def test_pns_batch_rejects_a_non_unit_row_in_a_stack():
    rng = Rng(19)
    table = make_table(rng, 3)
    rows = np.stack([random_unit(rng).values for _ in range(4)])
    ls.PnsBatch(ad.constant(rows[:2]), ["cat0", "cat1"], ad.constant(rows[2:]), table)
    bad = rows.copy()
    bad[3] *= 1.0 + 1e-4
    with pytest.raises(InputError, match="negative embedding"):
        ls.PnsBatch(ad.constant(bad[:2]), ["cat0", "cat1"], ad.constant(bad[2:]), table)
    with pytest.raises(InputError, match="positive embedding"):
        ls.PnsBatch(ad.constant(bad[2:]), ["cat0", "cat1"], [], table)
    # within the tolerance
    ok = rows.copy()
    ok[0] *= 1.0 + 1e-7
    ls.PnsBatch(ad.constant(ok), ["cat0", "cat1", "cat2", "cat0"], [], table)
    with pytest.raises(ShapeError):
        ls.PnsBatch(ad.constant(rows), ["cat0"], [], table)
