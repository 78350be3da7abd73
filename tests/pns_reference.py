"""Per-entry reference for the instance-level (PNS) objective.

Each embedding goes through its head on its own, and each loss term is
built from one probability vector with ``pick`` and ``tsum``, one graph
per proposal.  Tests compare the stacked losses in ``upre.losses`` and the
batched stage-1 step against it.
"""

from __future__ import annotations

from upre import autodiff as ad
from upre.losses import detect_prob, negative_prob, positive_prob


def _mean(terms):
    return terms[0] if len(terms) == 1 else ad.tmean(ad.stack(terms))


def positive_term(p, index):
    return ad.neg(ad.log(ad.pick(p, index)))


def background_term(p, y_bg, variant, background_index):
    if variant == "eq12_uniform_ce":
        return ad.scale(ad.tsum(ad.log(p)), -y_bg)
    if variant == "hinge_positive_diff":
        return ad.tsum(ad.relu(ad.add_scalar(p, -y_bg)))
    if variant == "detpro_binary":
        total = ad.neg(ad.log(ad.pick(p, background_index)))
        for i in range(p.shape[0]):
            if i != background_index:
                total = ad.add(total, ad.neg(ad.log(ad.add_scalar(ad.neg(ad.pick(p, i)), 1.0))))
        return total
    if variant == "detpro_uniform_fg":
        return ad.scale(ad.tsum(ad.log(p)), -1.0 / p.shape[0])
    raise ValueError(variant)


def instance_objective(pos_e, pos_y, neg_e, table, pns_variant="bg_and_c", bg_variant="hinge_positive_diff", temperature=1.0):
    """The objective of ``upre.losses.instance_objective`` over lists of (d,) embeddings."""
    if pns_variant == "ce":
        items = [(e, table.index_of(c)) for e, c in zip(pos_e, pos_y)]
        items += [(e, table.background_index) for e in neg_e]
        if not items:
            return None
        return _mean([positive_term(detect_prob(e, table, temperature), idx) for e, idx in items])
    parts = []
    if pns_variant in ("bg_and_c", "c_only") and pos_e:
        parts.append(
            _mean([positive_term(positive_prob(e, table, temperature), table.index_of(c)) for e, c in zip(pos_e, pos_y)])
        )
    if pns_variant in ("bg_and_c", "bg_only") and neg_e:
        if bg_variant == "detpro_uniform_fg":
            probs = [positive_prob(e, table, temperature) for e in neg_e]
        else:
            probs = [negative_prob(e, table, temperature) for e in neg_e]
        parts.append(_mean([background_term(p, table.y_bg, bg_variant, table.background_index) for p in probs]))
    if not parts:
        return None
    total = parts[0]
    for p in parts[1:]:
        total = ad.add(total, p)
    return total
