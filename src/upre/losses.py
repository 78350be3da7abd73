"""Probability heads and training losses.

Classification heads are softmaxes over cosine similarities between a
proposal embedding and a table of prompt embeddings, with a shared
temperature.  Each head takes one embedding or a stack of them, one
probability row per embedding.  The foreground head excludes the
background entry from its denominator; the detection and background heads
include it.

Image-level terms, each a batch mean:

    align:     1 - cos(e_st, t_t)
    semantic:  ||e_s - e_st||_1
    relative:  ||(e_s - e_st) - (t_s - t_t)||_1

Instance-level terms: cross-entropy at the true category for positives;
for negatives one of four schemes over the uniform target
``y_bg = 1 / (#categories + 1)``:

    eq12_uniform_ce    -sum_c y_bg * log P_c
    hinge_positive_diff sum_c max(0, P_c - y_bg)      (default; penalizes
                        only entries above the uniform level)
    detpro_binary      binary CE against the background indicator
    detpro_uniform_fg  uniform CE over foreground-only probabilities

The instance-level losses work on stacks: ``loss_positive`` and
``loss_background`` take (N, K) probabilities, one row per proposal (a
(K,) vector, or a list of them, runs as a stack), and ``PnsBatch`` holds
each polarity's embeddings as one (N, d) stack, so ``instance_objective``
makes at most one head call per polarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError, ShapeError

BG_VARIANTS = ("eq12_uniform_ce", "hinge_positive_diff", "detpro_binary", "detpro_uniform_fg")
RDD_TERMS = ("align", "semantic", "relative")
PNS_VARIANTS = ("bg_and_c", "ce", "c_only", "bg_only")

UNIT_NORM_TOL = 1e-6


def _check_unit(t: Tensor, what: str) -> None:
    n = float(np.linalg.norm(t.values))
    if abs(n - 1.0) > UNIT_NORM_TOL:
        raise InputError(f"{what} must be unit-norm, got ||.|| = {n!r}")


@dataclass
class PromptTable:
    """Ordered category prompt embeddings plus one background embedding."""

    categories: tuple[str, ...]
    embeddings: list[Tensor]
    background: Tensor

    def __post_init__(self):
        if len(self.categories) != len(self.embeddings):
            raise ShapeError("prompt table: one embedding per category required")
        if not self.categories:
            raise InputError("prompt table: empty category set")

    def full(self) -> list[Tensor]:
        return list(self.embeddings) + [self.background]

    def index_of(self, category: str) -> int:
        try:
            return self.categories.index(category)
        except ValueError:
            raise InputError(f"category {category!r} not in prompt table") from None

    @property
    def background_index(self) -> int:
        return len(self.categories)

    @property
    def y_bg(self) -> float:
        return 1.0 / (len(self.categories) + 1)


def _sim_softmax(e: Tensor, entries: Sequence[Tensor], temperature: float) -> Tensor:
    """Softmax over the cosine similarities of each embedding with each entry.

    ``e`` is one (d,) embedding, giving (K,) probabilities, or an (N, d)
    stack, giving (N, K), one row per embedding.  A single embedding runs as
    a stack of one.
    """
    if len(entries) == 0:
        raise InputError("empty embedding table")
    if temperature <= 0.0:
        raise ConfigError("softmax temperature must be positive")
    single = e.values.ndim == 1
    rows = ad.reshape(e, (1, e.shape[0])) if single else e
    table = ad.l2_normalize_rows(ad.stack(list(entries)))
    sims = ad.linear_rows(ad.l2_normalize_rows(rows), table)
    probs = ad.softmax_rows(ad.scale(sims, 1.0 / temperature))
    return ad.reshape(probs, (len(entries),)) if single else probs


def detect_prob(e_p: Tensor, table: PromptTable, temperature: float = 1.0) -> Tensor:
    """Probabilities over categories + background, per embedding row."""
    return _sim_softmax(e_p, table.full(), temperature)


def positive_prob(e_p: Tensor, table: PromptTable, temperature: float = 1.0) -> Tensor:
    """Foreground-only probabilities; background excluded from the denominator."""
    return _sim_softmax(e_p, table.embeddings, temperature)


def negative_prob(e_n: Tensor, table: PromptTable, temperature: float = 1.0) -> Tensor:
    """Probabilities over the full category-plus-background table."""
    return _sim_softmax(e_n, table.full(), temperature)


@dataclass
class RddBatch:
    """Image-level embeddings: per-scene visual pairs plus the two prompt embeddings."""

    e_i_s: list[Tensor]
    e_i_st: list[Tensor]
    t_i_s: Tensor
    t_i_t: Tensor
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        if len(self.e_i_s) != len(self.e_i_st) or not self.e_i_s:
            raise ShapeError("RddBatch: e_i_s and e_i_st must be equal-length, non-empty")
        if self.validate:
            for e in self.e_i_s:
                _check_unit(e, "e_i_s")
            for e in self.e_i_st:
                _check_unit(e, "e_i_st")
            _check_unit(self.t_i_s, "t_i_s")
            _check_unit(self.t_i_t, "t_i_t")

    def __len__(self) -> int:
        return len(self.e_i_s)


def _batch_mean(terms: list[Tensor]) -> Tensor:
    if len(terms) == 1:
        return terms[0]
    return ad.tmean(ad.stack(terms))


def loss_align(batch: RddBatch) -> Tensor:
    """Mean of 1 - cos(e_st, t_t); lives in [0, 2]."""
    return _batch_mean(
        [ad.add_scalar(ad.neg(ad.cosine_similarity(e, batch.t_i_t)), 1.0) for e in batch.e_i_st]
    )


def loss_semantic(batch: RddBatch) -> Tensor:
    """Mean L1 distance between source and enhanced embeddings."""
    return _batch_mean([ad.l1_distance(s, st) for s, st in zip(batch.e_i_s, batch.e_i_st)])


def loss_relative(batch: RddBatch) -> Tensor:
    """Mean L1 mismatch of visual offset (e_s - e_st) vs prompt offset (t_s - t_t)."""
    prompt_offset = ad.sub(batch.t_i_s, batch.t_i_t)
    return _batch_mean(
        [ad.l1_distance(ad.sub(s, st), prompt_offset) for s, st in zip(batch.e_i_s, batch.e_i_st)]
    )


RDD_LOSSES = {"align": loss_align, "semantic": loss_semantic, "relative": loss_relative}


def rdd_total(batch: RddBatch, weights: dict[str, float] | None = None, mask: Sequence[str] = RDD_TERMS) -> Tensor:
    """Weighted sum of the selected image-level terms."""
    mask = tuple(mask)
    if not mask:
        raise ConfigError("rdd_total: empty loss mask")
    for term in mask:
        if term not in RDD_LOSSES:
            raise ConfigError(f"rdd_total: unknown term {term!r}")
    weights = weights or {}
    total: Tensor | None = None
    for term in mask:
        part = ad.scale(RDD_LOSSES[term](batch), float(weights.get(term, 1.0)))
        total = part if total is None else ad.add(total, part)
    return total


def _as_list(x):
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _prob_rows(probs) -> Tensor:
    """Probabilities as an (N, K) stack.

    ``probs`` is an (N, K) stack, one (K,) vector, or a list of them; a
    single vector runs as a stack of one.
    """
    if isinstance(probs, (list, tuple)):
        return ad.stack(list(probs))
    if probs.values.ndim == 1:
        return ad.reshape(probs, (1, probs.shape[0]))
    return probs


def loss_positive(probs, true_category, categories: Sequence[str]) -> Tensor:
    """Mean -log P at the true category over foreground-only probabilities, one row each."""
    rows = _prob_rows(probs)
    cats = _as_list(true_category)
    if rows.shape[0] != len(cats):
        raise ShapeError("loss_positive: one label per probability vector")
    categories = list(categories)
    for c in cats:
        if c not in categories:
            raise InputError(f"category {c!r} not in category set")
    picked = ad.pick_rows(rows, [categories.index(c) for c in cats])
    return ad.tmean(ad.neg(ad.log(picked)))


def loss_background(probs, y_bg: float, variant: str = "hinge_positive_diff", background_index: int | None = None) -> Tensor:
    """Mean background-proposal loss under the chosen scheme, one row per proposal."""
    if variant not in BG_VARIANTS:
        raise ConfigError(f"unknown background loss variant {variant!r}")
    p = _prob_rows(probs)
    if variant == "eq12_uniform_ce":
        per_row = ad.scale(ad.tsum(ad.log(p), 1), -y_bg)
    elif variant == "hinge_positive_diff":
        per_row = ad.tsum(ad.relu(ad.add_scalar(p, -y_bg)), 1)
    elif variant == "detpro_binary":
        # binary CE against the background indicator: the mask keeps P at the
        # background column and 1 - P everywhere else
        bg = background_index if background_index is not None else p.shape[1] - 1
        if not 0 <= bg < p.shape[1]:
            raise ShapeError(f"loss_background: background index {bg} out of range {p.shape[1]}")
        mask = np.zeros(p.shape)
        mask[:, bg] = 1.0
        complement = ad.add_scalar(ad.neg(p), 1.0)
        target = ad.add(ad.mul(p, ad.constant(mask)), ad.mul(complement, ad.constant(1.0 - mask)))
        per_row = ad.neg(ad.tsum(ad.log(target), 1))
    else:
        # detpro_uniform_fg expects foreground-only probabilities of the negatives
        per_row = ad.scale(ad.tsum(ad.log(p), 1), -1.0 / p.shape[1])
    return ad.tmean(per_row)


def _embedding_rows(embeddings, d: int, what: str) -> Tensor:
    """Embeddings as an (N, d) stack; a list of (d,) tensors is stacked, an empty one gives (0, d)."""
    if not isinstance(embeddings, Tensor):
        embeddings = ad.stack(list(embeddings)) if len(embeddings) else ad.constant(np.zeros((0, d)))
    if embeddings.values.ndim != 2:
        raise ShapeError(f"PnsBatch: {what}s must be an (N, d) stack, got shape {embeddings.shape}")
    return embeddings


def _check_unit_rows(t: Tensor, what: str) -> None:
    norms = np.sqrt((t.values * t.values).sum(axis=1))
    bad = np.abs(norms - 1.0) > UNIT_NORM_TOL
    if bad.any():
        raise InputError(f"{what} must be unit-norm, got ||.|| = {float(norms[bad.argmax()])!r}")


@dataclass
class PnsBatch:
    """Instance-level batch: labeled positive embeddings, negative embeddings, a prompt table.

    Embeddings are (N, d) stacks, one row per proposal.  A list of (d,)
    tensors is stacked once when the batch is built.
    """

    pos_embeddings: Tensor
    pos_labels: list[str]
    neg_embeddings: Tensor
    prompt_table: PromptTable
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        d = self.prompt_table.background.shape[0]
        self.pos_embeddings = _embedding_rows(self.pos_embeddings, d, "positive embedding")
        self.neg_embeddings = _embedding_rows(self.neg_embeddings, d, "negative embedding")
        self.pos_labels = list(self.pos_labels)
        if self.pos_embeddings.shape[0] != len(self.pos_labels):
            raise ShapeError("PnsBatch: one label per positive embedding")
        if self.validate:
            _check_unit_rows(self.pos_embeddings, "positive embedding")
            _check_unit_rows(self.neg_embeddings, "negative embedding")
        for c in self.pos_labels:
            self.prompt_table.index_of(c)

    @property
    def y_bg(self) -> float:
        return self.prompt_table.y_bg


def instance_objective(batch: PnsBatch, pns_variant: str = "bg_and_c", bg_variant: str = "hinge_positive_diff", temperature: float = 1.0) -> Tensor | None:
    """Compose the instance-level objective for one batch; None when it has no term.

    Each polarity goes through its head as one stack.
    """
    if pns_variant not in PNS_VARIANTS:
        raise ConfigError(f"unknown instance objective variant {pns_variant!r}")
    table = batch.prompt_table
    if pns_variant == "ce":
        # vanilla detection cross-entropy over categories + background,
        # positives then negatives in one head call
        labels = [table.index_of(c) for c in batch.pos_labels]
        labels += [table.background_index] * batch.neg_embeddings.shape[0]
        if not labels:
            return None
        rows = ad.concat_rows([batch.pos_embeddings, batch.neg_embeddings])
        probs = detect_prob(rows, table, temperature)
        return ad.tmean(ad.neg(ad.log(ad.pick_rows(probs, labels))))
    parts: list[Tensor] = []
    if pns_variant in ("bg_and_c", "c_only") and batch.pos_labels:
        probs = positive_prob(batch.pos_embeddings, table, temperature)
        parts.append(loss_positive(probs, batch.pos_labels, table.categories))
    if pns_variant in ("bg_and_c", "bg_only") and batch.neg_embeddings.shape[0]:
        if bg_variant == "detpro_uniform_fg":
            probs = positive_prob(batch.neg_embeddings, table, temperature)
            parts.append(loss_background(probs, batch.y_bg, bg_variant))
        else:
            probs = negative_prob(batch.neg_embeddings, table, temperature)
            parts.append(loss_background(probs, batch.y_bg, bg_variant, table.background_index))
    if not parts:
        return None
    total = parts[0]
    for p in parts[1:]:
        total = ad.add(total, p)
    return total
