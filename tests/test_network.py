"""Network wiring: shapes, determinism, checkpoint round trips, gradients."""

import numpy as np
import pytest

from radfiner import autodiff as ad
from radfiner import checkpoint
from radfiner.attention import TILE_ROWS
from radfiner.errors import ConfigError, DataFormatError
from radfiner.gradcheck import gradient_check
from radfiner.network import NetworkConfig, RadFinerNet, toy_config
from radfiner.scans import NUM_CLASSES


def _scan(seed=0, n=7):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-5, 5, size=(n, 2))
    feats = np.zeros((n, 5))
    feats[:, 0:2] = coords
    feats[:, 3] = rng.normal(size=n)
    feats[:, 4] = rng.normal(size=n)
    return coords, feats


def test_config_validation_and_head_widths():
    cfg = NetworkConfig(d1=64, d2=256)
    assert cfg.head_widths() == (128, 64, 32)
    assert NetworkConfig(d1=32, d2=64).head_widths() == (32, 16, 8)
    assert NetworkConfig(d2=4).head_widths() == (2, 1, 1)
    with pytest.raises(ConfigError):
        NetworkConfig(radius=-1.0)
    with pytest.raises(ConfigError):
        NetworkConfig(n_max=0)
    with pytest.raises(ConfigError):
        NetworkConfig(attn_pad="nope")
    with pytest.raises(ConfigError):
        NetworkConfig(d1=0)


def test_forward_shapes_and_empty_input():
    net = RadFinerNet(toy_config())
    coords, feats = _scan()
    logits = net.forward(coords, feats, training=True)
    assert logits.shape == (7, 6)
    assert np.all(np.isfinite(logits.data))
    empty = net.forward(np.zeros((0, 2)), np.zeros((0, 5)))
    assert empty.shape == (0, 6)
    codes = net.predict(coords, feats)
    assert codes.shape == (7,)
    assert codes.dtype == np.int64
    assert np.all((codes >= 0) & (codes < 6))
    with pytest.raises(ConfigError):
        net.forward(coords, np.zeros((7, 4)))


def test_init_is_seed_deterministic():
    a = RadFinerNet(toy_config(seed=5))
    b = RadFinerNet(toy_config(seed=5))
    c = RadFinerNet(toy_config(seed=6))
    for pa, pb in zip(a.params(), b.params()):
        assert pa.name == pb.name
        assert np.array_equal(pa.data, pb.data)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.params(), c.params()))
    names = [p.name for p in a.params()]
    assert len(names) == len(set(names))
    # attribute order defines parameter order (and so every parameter
    # hash and optimizer pairing); a reordered constructor must fail here
    net = RadFinerNet(toy_config(head_norm="bn"))
    assert [p.name for p in net.params()] == [
        "embed.lin1.weight", "embed.lin1.bias", "embed.lin2.weight",
        "embed.lin2.bias", "block1.pre.lin1.weight", "block1.pre.lin1.bias",
        "block1.pre.lin2.weight", "block1.pre.lin2.bias", "block1.attn.wq",
        "block1.attn.wk", "block1.attn.wv", "block1.attn.pos.w1",
        "block1.attn.pos.bn.gamma", "block1.attn.pos.bn.beta", "block1.attn.pos.w2",
        "block1.attn.mlp_w1", "block1.attn.mlp_bn1.gamma",
        "block1.attn.mlp_bn1.beta", "block1.attn.mlp_w2",
        "block1.attn.mlp_bn2.gamma", "block1.attn.mlp_bn2.beta",
        "block1.post.lin1.weight", "block1.post.lin1.bias",
        "block1.post.lin2.weight", "block1.post.lin2.bias",
        "block2.pre.lin1.weight", "block2.pre.lin1.bias", "block2.pre.lin2.weight",
        "block2.pre.lin2.bias", "block2.attn.wq", "block2.attn.wk",
        "block2.attn.wv", "block2.attn.pos.w1", "block2.attn.pos.bn.gamma",
        "block2.attn.pos.bn.beta", "block2.attn.pos.w2", "block2.attn.mlp_w1",
        "block2.attn.mlp_bn1.gamma", "block2.attn.mlp_bn1.beta",
        "block2.attn.mlp_w2", "block2.attn.mlp_bn2.gamma",
        "block2.attn.mlp_bn2.beta", "block2.post.lin1.weight",
        "block2.post.lin1.bias", "block2.post.lin2.weight", "block2.post.lin2.bias",
        "head1.lin1.weight", "head1.bn.gamma", "head1.bn.beta", "head1.lin2.weight",
        "head1.lin2.bias", "head2.lin1.weight", "head2.bn.gamma", "head2.bn.beta",
        "head2.lin2.weight", "head2.lin2.bias", "head3.lin1.weight",
        "head3.bn.gamma", "head3.bn.beta", "head3.lin2.weight", "head3.lin2.bias"]
    assert [bn.name for bn in net.bn_layers()] == [
        "block1.attn.pos.bn", "block1.attn.mlp_bn1", "block1.attn.mlp_bn2",
        "block2.attn.pos.bn", "block2.attn.mlp_bn1", "block2.attn.mlp_bn2",
        "head1.bn", "head2.bn", "head3.bn"]


def test_checkpoint_round_trip(tmp_path):
    cfg = toy_config(seed=3)
    net = RadFinerNet(cfg)
    coords, feats = _scan(1)
    net.forward(coords, feats, training=True)  # move the BN running stats
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    net.save(p1)
    restored = RadFinerNet.load(p1, cfg)
    restored.save(p2)
    assert p1.read_bytes() == p2.read_bytes()  # byte-identical round trip
    assert np.array_equal(net.predict(coords, feats), restored.predict(coords, feats))
    la = net.forward(coords, feats).data
    lb = restored.forward(coords, feats).data
    assert np.array_equal(la, lb)
    text = p1.read_text().splitlines()
    assert text[0] == "#radfiner-ckpt v1"
    names = [line.split()[0] for line in text[1:]]
    assert names == sorted(names)
    assert any(name.endswith("running_mean") for name in names)


def test_checkpoint_mismatches_rejected(tmp_path):
    cfg = toy_config()
    net = RadFinerNet(cfg)
    path = tmp_path / "net.ckpt"
    net.save(path)
    with pytest.raises(ConfigError):
        RadFinerNet.load(path, toy_config(d1=6))
    entries = checkpoint.load_entries(path)
    entries.pop(net.params()[0].name)
    path2 = tmp_path / "short.ckpt"
    checkpoint.save_entries(path2, entries)
    with pytest.raises(ConfigError):
        RadFinerNet.load(path2, cfg)
    bad = tmp_path / "bad.ckpt"
    for entry in ("w 2 2 2 1.0 2.0 3.0",
                  "w 2 -2 -3 1.0 2.0 3.0 4.0 5.0 6.0",  # product matches the count
                  "w 2 4294967296 4294967296"):  # product wraps to 0 in int64
        bad.write_text(f"#radfiner-ckpt v1\n{entry}\n")
        with pytest.raises(DataFormatError):
            checkpoint.load_entries(bad)
    bad.write_text("#other\n")
    with pytest.raises(DataFormatError):
        checkpoint.load_entries(bad)


def test_argmax_prefers_lowest_code_on_ties():
    # the prediction rule is np.argmax row-wise; verify the tie convention
    logits = np.array([[1.0, 1.0, 0.0, 1.0, 0.0, 0.0]])
    assert int(np.argmax(logits, axis=1)[0]) == 0


@pytest.mark.parametrize("cfg", [
    toy_config(seed=3),
    toy_config(head_norm="bn", seed=4),
    toy_config(attn_pad="zeropad", head_norm="bn", seed=5),
    NetworkConfig(d1=32, d2=64, seed=6),
])
def test_infer_matches_tape_forward(cfg):
    # the fast single-precision path must agree with the tape forward in
    # eval mode up to float32 round-off, on perturbed running statistics
    # and then also on perturbed gamma/beta (at gamma=1, beta=0 a fold
    # that drops either one would still agree); the sizes around one and
    # two attention tiles catch a tile that drops or repeats a row
    net = RadFinerNet(cfg)
    tile = max(1, TILE_ROWS // cfg.n_max)
    rng = np.random.default_rng(11)
    for bn in net.bn_layers():
        bn.running_mean = rng.normal(0.0, 0.05, bn.width)
        bn.running_var = np.exp(rng.normal(0.0, 0.1, bn.width))
    for affine in (False, True):
        if affine:
            for bn in net.bn_layers():
                bn.gamma.data = np.exp(rng.normal(0.0, 0.2, bn.width))
                bn.beta.data = rng.normal(0.0, 0.2, bn.width)
        for n in (1, 5, 33, tile - 1, tile, tile + 1, 2 * tile + 1):
            coords, feats = _scan(seed=n, n=n)
            with ad.no_grad():
                ref = net.forward(coords, feats, training=False).data
            fast = net.infer(coords, feats)
            assert fast.dtype == np.float32
            assert np.allclose(fast, ref, rtol=1e-3, atol=1e-4)


def test_infer_calls_every_stage_once():
    # the benchmark times these stages by wrapping each one's `infer` on
    # the instance; a stage that `net.infer` bypasses would read 0 calls
    net = RadFinerNet(toy_config(head_norm="bn"))
    stages = {"embed": net.embed, "block1": net.block1, "block1.attn": net.block1.attn,
              "block2": net.block2, "block2.attn": net.block2.attn,
              "head1": net.head1, "head2": net.head2, "head3": net.head3}
    calls = dict.fromkeys(stages, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, stage in stages.items():
        stage.infer = counting(name, stage.infer)
    coords, feats = _scan(seed=3, n=12)
    net.infer(coords, feats)
    assert calls == dict.fromkeys(stages, 1)


def test_infer_empty_input():
    net = RadFinerNet(toy_config())
    out = net.infer(np.zeros((0, 2)), np.zeros((0, 5)))
    assert out.shape == (0, NUM_CLASSES)


def test_network_gradients_spot_check():
    cfg = toy_config(seed=2)
    net = RadFinerNet(cfg)
    coords, feats = _scan(4, n=6)
    rng = np.random.default_rng(8)
    w = rng.normal(size=(6, 6))
    subset = [p for p in net.params() if p.name in {
        "embed.lin1.weight", "block1.attn.wq", "block1.attn.pos.w1",
        "block2.attn.mlp_bn1.beta", "block2.post.lin2.bias",
        "head1.lin1.weight", "head2.lin2.bias", "head3.lin2.weight"}]
    assert len(subset) == 8

    def loss_fn():
        return ad.reduce_sum(net.forward(coords, feats, training=True) * w)

    report = gradient_check(loss_fn, subset, h=1e-5)
    assert report.max_rel_error < 1e-5


def test_residual_path_isolation():
    # with W_V = 0 and the positional projection W_p2 = 0, the attention
    # output is exactly 0, so a block collapses to post(pre(x))
    from radfiner.autodiff import Tensor
    from radfiner.neighborhood import ball_query

    cfg = toy_config(seed=9)
    net = RadFinerNet(cfg)
    coords, feats = _scan(2, n=8)
    net.block1.attn.wv.data[:] = 0.0
    net.block1.attn.pos.w2.data[:] = 0.0
    x = net.embed(Tensor(feats))
    h1 = net.block1.pre(x)
    expected = net.block1.post(h1)
    nb = ball_query(coords, cfg.radius, cfg.n_max)
    got = net.block1(x, nb, training=False)
    assert np.array_equal(got.data, expected.data)
