import numpy as np
import pytest

from upre import autodiff as ad
from upre.encoders import EncoderConfig, EncoderStub, Vocabulary, tokenize
from upre.errors import InputError, ShapeError
from upre.rng import Rng
from upre.templates import PLACEHOLDER, TemplateBank


@pytest.fixture(scope="module")
def stub():
    return EncoderStub(EncoderConfig(seed=3))


def test_tokenize_basics():
    assert tokenize("A photo taken in a fog.") == ["a", "photo", "taken", "in", "a", "fog"]
    assert tokenize("NIGHT Rainy") == tokenize("night rainy")
    assert tokenize("night_rainy") == ["night", "rainy"]
    with pytest.raises(InputError):
        tokenize("   ")


def test_unknown_token_maps_to_unk(stub):
    ids = stub.vocab.encode("xylophoneqq street")
    assert ids[0] == 0
    assert ids[1] != 0


def test_template_bank_contract():
    bank = TemplateBank.default()
    assert len(bank.templates) == 90
    assert len(set(bank.templates)) == 90
    for t in bank.templates:
        assert t.count(PLACEHOLDER) == 1
    assert bank.fill(0, "night rainy") == "A photo taken in a night rainy."


def test_template_bank_roundtrip_from_file(tmp_path):
    p = tmp_path / "bank.txt"
    p.write_text("\n".join(TemplateBank.default().templates), encoding="utf-8")
    assert TemplateBank.from_file(p).templates == TemplateBank.default().templates
    p.write_text("only one [domain] line\n", encoding="utf-8")
    with pytest.raises(InputError):
        TemplateBank.from_file(p)


def test_vocabulary_bit_identical_across_builds():
    a = Vocabulary.build(["a photo of a car", "night"], seed=9, d_tok=16)
    b = Vocabulary.build(["a photo of a car", "night"], seed=9, d_tok=16)
    assert a.token_to_id == b.token_to_id
    assert a.embedding_table.tobytes() == b.embedding_table.tobytes()


def test_stub_determinism_and_freeze(stub):
    other = EncoderStub(EncoderConfig(seed=3))
    assert stub.params_hash() == other.params_hash()
    before = stub.params_hash()
    rng = Rng(0)
    stub.encode_text("a photo taken in a night rainy")
    stub.image_encode(rng.normal((16, 28, 28)))
    stub.roi_project(rng.normal((16, 14, 14)))
    assert stub.params_hash() == before


def test_text_encode_unit_norm_and_determinism(stub):
    e1 = stub.encode_text("a photo taken in a dusk rainy")
    e2 = stub.encode_text("a photo taken in a dusk rainy")
    assert abs(np.linalg.norm(e1.values) - 1.0) < 1e-9
    assert e1.values.tobytes() == e2.values.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_text_encode_sensitive_to_one_context_row(seed):
    stub = EncoderStub(EncoderConfig(seed=seed))
    rng = Rng(1234 + seed)
    ctx = rng.normal((4, 32)) * 0.02
    suffix = stub.token_rows("a photo taken in a night rainy")
    rows = np.concatenate([ctx, suffix])
    e1 = stub.text_encode(rows)
    ctx2 = ctx.copy()
    ctx2[1] = rng.normal(32) * 0.02
    e2 = stub.text_encode(np.concatenate([ctx2, suffix]))
    assert float(e1.values @ e2.values) < 1.0 - 1e-6


def test_image_encode_contract(stub):
    rng = Rng(5)
    fmap = rng.normal((16, 28, 28))
    e = stub.image_encode(fmap)
    assert abs(np.linalg.norm(e.values) - 1.0) < 1e-9
    with pytest.raises(ShapeError):
        stub.image_encode(rng.normal((16, 2, 2)))
    # constant map == its constant 7x7 reduction
    const = np.tile(rng.normal(16)[:, None, None], (1, 28, 28))
    e_big = stub.image_encode(const)
    e_small = ad.l2_normalize(
        ad.matmul(ad.constant(stub.image_projection), ad.constant(const[:, 0, 0]))
    )
    assert np.allclose(e_big.values, e_small.values, atol=1e-9)


def test_image_encode_identity_resize_at_21(stub):
    rng = Rng(6)
    fmap = rng.normal((16, 21, 21))
    via_pipeline = stub.image_encode(fmap)
    pooled = fmap.reshape(16, 7, 3, 7, 3).mean(axis=(2, 4)).mean(axis=(1, 2))
    direct = ad.l2_normalize(ad.matmul(ad.constant(stub.image_projection), ad.constant(pooled)))
    assert np.allclose(via_pipeline.values, direct.values, atol=1e-12)


def test_roi_project_contract(stub):
    rng = Rng(7)
    block = rng.normal((16, 14, 14))
    e1 = stub.roi_project(block)
    e2 = stub.roi_project(block)
    assert abs(np.linalg.norm(e1.values) - 1.0) < 1e-9
    assert e1.values.tobytes() == e2.values.tobytes()
    # positive global scaling is absorbed by normalization
    e3 = stub.roi_project(3.7 * block)
    assert np.allclose(e1.values, e3.values, atol=1e-12)
    with pytest.raises(ShapeError):
        stub.roi_project(rng.normal((16, 7, 7)))
    const = np.tile(rng.normal(16)[:, None, None], (1, 14, 14))
    e_big = stub.roi_project(const)
    e_small = ad.l2_normalize(
        ad.matmul(ad.constant(stub.roi_projection), ad.constant(const[:, 0, 0]))
    )
    assert np.allclose(e_big.values, e_small.values, atol=1e-9)


def test_image_encode_gradient_flows(stub):
    rng = Rng(8)
    fmap = ad.parameter(rng.normal((16, 6, 6)))
    w = rng.normal(64)

    def fn(t):
        return ad.tsum(ad.mul(stub.image_encode(t), ad.constant(w)))

    small = EncoderStub(EncoderConfig(seed=11, channels=2))
    fmap2 = ad.parameter(Rng(9).normal((2, 5, 5)))
    w2 = Rng(10).normal(64)
    res = ad.grad_check(lambda t: ad.tsum(ad.mul(small.image_encode(t), ad.constant(w2))), [fmap2])
    assert res.passed, res.max_rel_error
    assert fn(fmap).item() == pytest.approx(fn(fmap).item())


def test_roi_project_stack_matches_single_blocks(stub):
    rng = Rng(12)
    blocks = rng.normal((5, 16, 14, 14))
    projection = ad.parameter(stub.roi_projection * 1.1)
    for proj in (None, projection):
        stack = stub.roi_project(blocks, projection=proj)
        assert stack.shape == (5, stub.d_emb)
        for n in range(5):
            single = stub.roi_project(blocks[n], projection=proj)
            assert single.shape == (stub.d_emb,)
            assert np.allclose(stack.values[n], single.values, rtol=0.0, atol=1e-15)
    with pytest.raises(ShapeError):
        stub.roi_project(rng.normal((5, 16, 7, 7)))
    with pytest.raises(ShapeError):
        stub.roi_project(rng.normal((2, 5, 16, 14, 14)))
