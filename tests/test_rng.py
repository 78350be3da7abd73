import hashlib

import numpy as np
import pytest

from upre.encoders import EncoderConfig
from upre.rng import Rng, normals
from upre.world import WorldConfig, generate_world, propose, sample_scene

# SIMD widths and their tails, a few sizes past them, and a scene's background
LENGTHS = list(range(1, 34)) + [63, 64, 65, 127, 128, 129, 255, 257, 1000, 1023, 12544]


@pytest.mark.parametrize("fn", [np.log, np.cos, np.sin], ids=lambda f: f.__name__)
def test_transcendentals_give_the_same_bits_at_any_offset(fn):
    """Batched Box-Muller relies on each value not depending on its array position."""
    rng = Rng(4242)
    # u1 in (0, 1] for the log, 2 pi u2 in [0, 2 pi) for cos and sin
    values = rng.uniform(4096) + 2.0**-53 if fn is np.log else rng.uniform(4096) * (2.0 * np.pi)
    full = fn(values)
    for length in LENGTHS:
        for offset in (0, 1, 2, 3, 5, 7, 8, 13):
            if offset + length > values.size:
                continue
            part = fn(values[offset : offset + length])
            assert part.tobytes() == full[offset : offset + length].tobytes(), (length, offset)
    big = rng.uniform(12544) + 2.0**-53 if fn is np.log else rng.uniform(12544) * (2.0 * np.pi)
    assert fn(big[1:]).tobytes() == fn(big)[1:].tobytes()
    for i in (0, 1, 7, 100, 4095):
        assert fn(values[i]).tobytes() == full[i].tobytes()
        assert fn(float(values[i])).tobytes() == full[i].tobytes()
        assert fn(np.array(values[i])).tobytes() == full[i : i + 1].tobytes()


def test_draws_match_recorded_digest():
    """Values and counters of every draw, as recorded before scene draws were batched."""
    h = hashlib.sha256()
    for seed in (0, 1, 2**63 + 5):
        r = Rng(seed)
        for shape in ((), 1, 2, 3, 4, 7, (3, 5), (16, 28, 28), (3, 9, 11)):
            h.update(np.asarray(r.normal(shape), dtype=np.float64).tobytes())
        h.update(r.uniform(9).tobytes())
        h.update(r.integers(3, 17, 6).tobytes())
        h.update(r.integers(-5, 2**40, 3).tobytes())
        h.update(str((r.choice(7), r.bernoulli(0.3), r._counter)).encode())
    assert h.hexdigest() == "8435fde5fe64de8c29f86c424162119eb3a80bb50b5b966cff259a5a5cb48d47"


def test_scenes_and_proposals_match_recorded_digest():
    h = hashlib.sha256()
    for channels in (16, 3):
        world = generate_world(WorldConfig(encoder=EncoderConfig(channels=channels)), seed=3)
        for d in world.domains:
            for i in range(5):
                r = Rng(1000 * i + len(d))
                s = sample_scene(world, d, r)
                h.update(s.features.values.tobytes())
                h.update(repr(s.objects).encode())
                h.update(repr(propose(s, r, 7)).encode())
                h.update(str(r._counter).encode())
    assert h.hexdigest() == "2cf6a94515df8c14426202b8e8ba33f5c7afffcb1a32ba8242c4886753479cc9"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_counter_consumption_contract(n):
    r = Rng(9)
    r.normal(n)
    assert r._counter == 2 * ((n + 1) // 2)
    r = Rng(9)
    r.integers(0, 5, n)
    r.uniform(n)
    r.raw(n)
    r.choice(3)
    r.bernoulli(0.5)
    assert r._counter == 3 * n + 2


def test_block_normals_match_one_normal_per_block():
    blocks = [(0, 7), (8, 1), (11, 12), (23, 3)]  # values 9-10 and 27 are skipped
    out = normals(Rng(31).raw(28), blocks)
    for (offset, n), z in zip(blocks, out):
        r = Rng(31)
        r.raw(offset)
        assert z.tobytes() == r.normal(n).tobytes()


def test_int_ahead_is_the_integers_draw_without_advancing():
    r = Rng(77)
    r.raw(3)
    ahead = [r.int_ahead(k, -2, 9) for k in range(50)]
    assert r._counter == 3
    assert ahead == r.integers(-2, 9, 50).tolist()
    with pytest.raises(ValueError):
        Rng(0).integers(3, 3)
