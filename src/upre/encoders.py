"""Frozen text/image encoder stand-ins and the tokenizer.

All encoder parameters are fixed random draws from the SplitMix64
generator, so the same ``(seed, d_tok, d_emb, channels)`` always yields
bit-identical parameters.  Outputs are L2-normalized.

Text path: token rows are pooled twice with fixed position weights --
front-loaded ``1/(1+i)`` (prepended context rows dominate) and
back-loaded ``1/(n-i)`` (trailing content words dominate) -- and the two
pooled vectors couple through one fixed multiplicative gate,
``front (.) (M @ back)``, before the output projection and
normalization.  The gate is the cheapest stand-in for attention-style
token interaction; a purely linear pooling head would let a shared
context block shift every assembly's embedding only by one common
vector, which freezes out prompt learning entirely.

Image path: a feature map is bilinearly resized to 21x21, average-pooled
3x3 (stride 3) down to 7x7, mean-pooled over space, projected, normalized.
Region blocks are 14x14, average-pooled 2x2 to 7x7, then projected the
same way through a separate fixed map; a stack of blocks projects in one
pass, one embedding row per block.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, ShapeError
from .rng import Rng, derive_seed
from .templates import DEFAULT_TEMPLATES, NEGATIVE_TEMPLATE, POSITIVE_TEMPLATE

UNK_TOKEN = "<unk>"
_TOKEN_CLEAN = re.compile(r"[^a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation/underscores, split on whitespace."""
    if not text or not text.strip():
        raise InputError("tokenize: empty text")
    return [t for t in _TOKEN_CLEAN.sub(" ", text.lower()).split() if t]


@dataclass(frozen=True)
class EncoderConfig:
    seed: int = 0
    d_tok: int = 32
    d_emb: int = 64
    channels: int = 16


@dataclass
class Vocabulary:
    """Token-to-id map plus a fixed random embedding table."""

    token_to_id: dict[str, int]
    embedding_table: np.ndarray

    @classmethod
    def build(cls, sources: list[str], seed: int, d_tok: int) -> "Vocabulary":
        tokens: set[str] = set()
        for text in sources:
            tokens.update(tokenize(text))
        ordered = [UNK_TOKEN] + sorted(tokens)
        table = Rng(derive_seed(seed, "vocab_table")).normal((len(ordered), d_tok)) / np.sqrt(d_tok)
        return cls({tok: i for i, tok in enumerate(ordered)}, table)

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, 0)

    def encode(self, text: str) -> list[int]:
        return [self.id_for(t) for t in tokenize(text)]

    def rows_for_ids(self, ids: list[int]) -> np.ndarray:
        return self.embedding_table[np.asarray(ids, dtype=np.int64)]


def default_vocab_sources(categories=(), domains=()) -> list[str]:
    sources = list(DEFAULT_TEMPLATES) + [POSITIVE_TEMPLATE, NEGATIVE_TEMPLATE]
    sources += [str(c) for c in categories] + [str(d) for d in domains]
    return sources


class EncoderStub:
    """Immutable encoder pair; no method mutates any parameter."""

    def __init__(self, config: EncoderConfig, vocab_sources: list[str] | None = None):
        self.config = config
        sources = vocab_sources if vocab_sources is not None else default_vocab_sources()
        self.vocab = Vocabulary.build(sources, config.seed, config.d_tok)
        d_tok, d_emb, ch = config.d_tok, config.d_emb, config.channels
        self.text_projection = Rng(derive_seed(config.seed, "text_proj")).normal((d_emb, d_tok)) / np.sqrt(d_tok)
        self.text_mixing = Rng(derive_seed(config.seed, "text_mix")).normal((d_tok, d_tok))
        self.image_projection = Rng(derive_seed(config.seed, "image_proj")).normal((d_emb, ch)) / np.sqrt(ch)
        self.roi_projection = Rng(derive_seed(config.seed, "roi_proj")).normal((d_emb, ch)) / np.sqrt(ch)
        self._resize_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def d_emb(self) -> int:
        return self.config.d_emb

    @property
    def channels(self) -> int:
        return self.config.channels

    def params_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.vocab.embedding_table.tobytes())
        h.update(self.text_projection.tobytes())
        h.update(self.text_mixing.tobytes())
        h.update(self.image_projection.tobytes())
        h.update(self.roi_projection.tobytes())
        return h.hexdigest()

    def token_rows(self, text: str) -> np.ndarray:
        return self.vocab.rows_for_ids(self.vocab.encode(text))

    def text_encode(self, rows: Tensor | np.ndarray) -> Tensor:
        """Gated pooled projection of a (len, d_tok) row matrix, unit-normalized."""
        if not isinstance(rows, Tensor):
            rows = ad.constant(rows)
        if rows.values.ndim != 2 or rows.shape[1] != self.config.d_tok:
            raise ShapeError(f"text_encode: rows must be (len, {self.config.d_tok})")
        n = rows.shape[0]
        if n == 0:
            raise InputError("text_encode: zero-length sequence")
        d = self.config.d_tok
        front_w = 1.0 / (1.0 + np.arange(n))
        back_w = 1.0 / (n - np.arange(n, dtype=np.float64))
        front_w /= front_w.sum()
        back_w /= back_w.sum()
        front = ad.l2_normalize(ad.reshape(ad.matmul(ad.constant(front_w[None, :]), rows), (d,)))
        back = ad.l2_normalize(ad.reshape(ad.matmul(ad.constant(back_w[None, :]), rows), (d,)))
        gated = ad.mul(front, ad.matmul(ad.constant(self.text_mixing), back))
        return ad.l2_normalize(ad.matmul(ad.constant(self.text_projection), gated))

    def encode_text(self, text: str) -> Tensor:
        return self.text_encode(self.token_rows(text))

    def _resize_coords(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        key = (h, w)
        if key not in self._resize_cache:
            sy = np.linspace(0.0, h - 1.0, 21) if h > 1 else np.zeros(21)
            sx = np.linspace(0.0, w - 1.0, 21) if w > 1 else np.zeros(21)
            self._resize_cache[key] = (sy, sx)
        return self._resize_cache[key]

    def image_encode(self, feature_map: Tensor | np.ndarray) -> Tensor:
        """Resize to 21x21, 3x3/stride-3 pool to 7x7, mean-pool, project, normalize."""
        if not isinstance(feature_map, Tensor):
            feature_map = ad.constant(feature_map)
        if feature_map.values.ndim != 3 or feature_map.shape[0] != self.channels:
            raise ShapeError(f"image_encode: expected ({self.channels}, H, W)")
        _, h, w = feature_map.shape
        if h < 3 or w < 3:
            raise ShapeError("image_encode: spatial dims must be at least 3x3")
        sy, sx = self._resize_coords(h, w)
        grid = ad.bilinear_resample(feature_map, sy, sx)
        pooled = ad.tmean(ad.reshape(grid, (self.channels, 7, 3, 7, 3)), (2, 4))
        vec = ad.tmean(pooled, (1, 2))
        return ad.l2_normalize(ad.matmul(ad.constant(self.image_projection), vec))

    def roi_project(self, block: Tensor | np.ndarray, projection: Tensor | None = None) -> Tensor:
        """2x2 pool ROI blocks to 7x7, mean-pool, project, normalize.

        One (C, 14, 14) block gives a (d_emb,) embedding; an (N, C, 14, 14)
        stack gives (N, d_emb), one row per block.  A single block runs as
        a stack of one.  ``projection`` overrides the frozen map with a
        trainable copy (detector fine-tuning); the stub itself is never
        mutated.
        """
        if not isinstance(block, Tensor):
            block = ad.constant(block)
        single = block.values.ndim == 3
        shape = (1, *block.shape) if single else block.shape
        if len(shape) != 4 or shape[1] != self.channels or shape[2:] != (14, 14):
            raise ShapeError(
                f"roi_project: expected ({self.channels}, 14, 14) or (N, {self.channels}, 14, 14), got {block.shape}"
            )
        blocks = ad.reshape(block, shape) if single else block
        vec = ad.tmean(ad.avg_pool2(blocks), (2, 3))
        proj = projection if projection is not None else ad.constant(self.roi_projection)
        emb = ad.l2_normalize_rows(ad.linear_rows(vec, proj))
        return ad.reshape(emb, (self.d_emb,)) if single else emb
