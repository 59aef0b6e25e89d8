"""Augmentation statistics, loss bookkeeping, and the training loop."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radfiner
from radfiner import blas, pipeline, training
from radfiner.errors import ConfigError, NumericsError
from radfiner.network import RadFinerNet, toy_config
from radfiner.scans import RadarScan, SemanticClass
from radfiner.synthdata import (SceneConfig, SurrogateConfig, generate_corpus,
                                generate_scene, surrogate_corpus)
from radfiner.training import (BOUNDARY_SIGMA, AugmentConfig, TrainConfig, _epoch_lr,
                               augment_scan, scan_rng, train)

CAR = int(SemanticClass.CAR)


def _one_instance_scan(n_static=5) -> RadarScan:
    # 3-point car plus a handful of statics to donate features from
    rng = np.random.default_rng(0)
    car = np.array([20.0, 0.0]) + rng.normal(0, 0.5, (3, 2))
    statics = np.array([15.0, 5.0]) + rng.normal(0, 3.0, (n_static, 2))
    xy = np.vstack([car, statics])
    sem = np.concatenate([np.full(3, CAR), np.zeros(n_static, dtype=np.int64)])
    inst = np.concatenate([np.ones(3, dtype=np.int64), np.zeros(n_static, dtype=np.int64)])
    dop = np.concatenate([np.full(3, 6.0), np.zeros(n_static)])
    rcs = np.concatenate([np.full(3, 5.0), np.full(n_static, -8.0)])
    return RadarScan("one", xy, rcs, dop, sem, inst)


# -- configs ------------------------------------------------------------------

def test_augment_config_validation():
    with pytest.raises(ConfigError):
        AugmentConfig(p_instance=1.5)
    with pytest.raises(ConfigError):
        AugmentConfig(p_scan=-0.1)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_drop_epoch=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)


def test_schedule_default_drop():
    cfg = TrainConfig()  # 80 epochs, drop after 60
    assert _epoch_lr(cfg, 60) == 0.001
    assert _epoch_lr(cfg, 61) == 0.0001
    assert _epoch_lr(cfg, 80) == 0.0001


# -- augment_scan -------------------------------------------------------------

def test_zero_rates_reproduce_moving_subset():
    scan = generate_scene(SceneConfig(seed=1), 0)
    cfg = AugmentConfig(p_instance=0.0, p_scan=0.0)
    sample = augment_scan(scan, cfg, np.random.default_rng(0))
    moving = scan.moving_mask()
    assert sample.n_original == moving.sum() == len(sample)
    assert np.array_equal(sample.coords, scan.xy[moving])
    assert np.array_equal(sample.features, scan.features()[moving])
    assert np.array_equal(sample.targets, scan.sem[moving])
    assert np.array_equal(sample.instance_ids, scan.instance[moving])


def test_originals_stay_a_prefix():
    scan = generate_scene(SceneConfig(seed=2), 3)
    cfg = AugmentConfig(p_instance=1.0, p_scan=1.0)
    sample = augment_scan(scan, cfg, np.random.default_rng(1))
    moving = scan.moving_mask()
    n = int(moving.sum())
    assert sample.n_original == n
    assert np.array_equal(sample.coords[:n], scan.xy[moving])
    assert np.array_equal(sample.targets[:n], scan.sem[moving])
    # injected rows are static-targeted and ungrouped
    assert np.all(sample.targets[n:] == 0)
    assert np.all(sample.instance_ids[n:] == 0)


def test_boundary_point_lands_within_three_sigma():
    scan = _one_instance_scan()
    cfg = AugmentConfig(p_instance=1.0, p_scan=0.0)
    inst_pts = scan.xy[scan.instance == 1]
    hits = 0
    draws = 10000
    for k in range(draws):
        sample = augment_scan(scan, cfg, np.random.default_rng(k))
        added = sample.coords[sample.n_original:]
        assert len(added) == 1  # exactly one point per triggered instance
        d = np.sqrt(((inst_pts - added[0]) ** 2).sum(axis=1)).min()
        hits += d <= 3.0 * BOUNDARY_SIGMA
    assert hits / draws >= 0.99


def test_clutter_trigger_fraction_is_binomial():
    scan = _one_instance_scan()
    cfg = AugmentConfig(p_instance=0.0, p_scan=0.4)
    triggered = 0
    draws = 10000
    for k in range(draws):
        sample = augment_scan(scan, cfg, np.random.default_rng(k))
        added = len(sample) - sample.n_original
        if added:
            assert 1 <= added <= 5
            triggered += 1
    assert abs(triggered / draws - 0.4) <= 0.015


def test_boundary_features_copied_from_real_static():
    scan = _one_instance_scan()
    cfg = AugmentConfig(p_instance=1.0, p_scan=0.0)
    sample = augment_scan(scan, cfg, np.random.default_rng(3))
    added = sample.features[sample.n_original:]
    donors = scan.features()[scan.sem == 0]
    # rcs and doppler columns must match one donor row exactly
    assert any(np.array_equal(added[0, 3:], d[3:]) for d in donors)


def test_synthetic_fallback_without_statics():
    scan = _one_instance_scan(n_static=0)
    # with no static donor a boundary point takes the instance's median rcs
    cfg = AugmentConfig(p_instance=1.0, p_scan=0.0)
    sample = augment_scan(scan, cfg, np.random.default_rng(4))
    added = sample.features[sample.n_original:]
    assert len(added) == 1
    assert added[0, 4] == 0.0  # zero doppler
    assert added[0, 3] == np.median(scan.rcs[scan.instance == 1])


def test_scan_rng_is_stable():
    a = scan_rng(7, 3, "scan_012").normal(size=4)
    b = scan_rng(7, 3, "scan_012").normal(size=4)
    c = scan_rng(7, 4, "scan_012").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- train loop ----------------------------------------------------------------

def _tiny_setup():
    scans = generate_corpus(SceneConfig(seed=9), 2)
    net = RadFinerNet(toy_config(head_norm="bn", seed=1))
    return scans, net


def test_loss_decreases_over_steps():
    scans, net = _tiny_setup()
    tcfg = TrainConfig(epochs=6, batch_size=2, lr=0.003, lr_drop_epoch=5, seed=0)
    net, hist = train(scans, net, tcfg, AugmentConfig())
    assert hist[5]["total"] < hist[0]["total"]


def test_identical_seeds_identical_history(tmp_path):
    scans, _ = _tiny_setup()
    tcfg = TrainConfig(epochs=3, batch_size=2, lr=0.001, lr_drop_epoch=2, seed=4)
    for sub in ("a", "b"):
        train(scans, RadFinerNet(toy_config(head_norm="bn", seed=1)),
              tcfg, AugmentConfig(), out_dir=tmp_path / sub)
    assert ((tmp_path / "a" / "history.csv").read_bytes()
            == (tmp_path / "b" / "history.csv").read_bytes())
    assert ((tmp_path / "a" / "ckpt_epoch03").read_bytes()
            == (tmp_path / "b" / "ckpt_epoch03").read_bytes())


def test_history_lr_column_tracks_drop():
    scans, net = _tiny_setup()
    tcfg = TrainConfig(epochs=4, batch_size=2, lr=0.001, lr_drop_epoch=2, seed=0)
    _, hist = train(scans, net, tcfg, AugmentConfig())
    assert [row["lr"] for row in hist] == [0.001, 0.001, 0.0001, 0.0001]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_guard_reports_position():
    scans, net = _tiny_setup()
    # an absurd learning rate reliably blows the loss up
    tcfg = TrainConfig(epochs=8, batch_size=1, lr=1e6, lr_drop_epoch=7, seed=0)
    with pytest.raises(NumericsError, match="epoch"):
        train(scans, net, tcfg, AugmentConfig())


def test_nonfinite_gradient_reports_position(monkeypatch):
    class PoisonedAdamW(training.AdamW):
        def step(self):
            if self.t == 2:
                self.params[0].grad = np.full_like(self.params[0].data, np.inf)
            super().step()

    monkeypatch.setattr(training, "AdamW", PoisonedAdamW)
    scans, net = _tiny_setup()
    # two scans, one per batch: the third step is epoch 2, batch 0
    tcfg = TrainConfig(epochs=2, batch_size=1, lr=0.001, lr_drop_epoch=1, seed=0)
    with pytest.raises(NumericsError, match=r"non-finite gradient .*\(epoch 2, batch 0\)"):
        train(scans, net, tcfg, AugmentConfig())


def test_checkpoints_and_history_written(tmp_path):
    scans, net = _tiny_setup()
    tcfg = TrainConfig(epochs=2, batch_size=2, lr=0.001, lr_drop_epoch=1, seed=0)
    _, history = train(scans, net, tcfg, AugmentConfig(), out_dir=tmp_path)
    assert len(history) == 2
    for row in history:  # the reported total is the exact sum of the parts
        assert row["total"] == row["ce"] + row["lovasz"] + row["consistency"]
    assert (tmp_path / "history.csv").exists()
    assert (tmp_path / "ckpt_epoch01").exists()
    assert (tmp_path / "ckpt_epoch02").exists()
    header = (tmp_path / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,ce,lovasz,consistency,total,val_PQ,val_mIoU,lr"


def test_train_pins_blas_threads_and_restores_them(monkeypatch):
    lib = blas._openblas()
    if lib is None:
        pytest.skip("no OpenBLAS thread symbols in this numpy")
    get, put = lib
    seen = []
    loss = training.total_loss

    def spy(*args, **kwargs):
        seen.append(get())
        return loss(*args, **kwargs)

    monkeypatch.setattr(training, "total_loss", spy)
    old = get()
    put(2)
    try:
        before = get()
        scans, net = _tiny_setup()
        train(scans, net, TrainConfig(epochs=1, batch_size=2), AugmentConfig())
        assert get() == before
    finally:
        put(old)
    assert seen and set(seen) == {blas.BLAS_THREADS}


def test_predict_split_pins_blas_threads_in_every_worker(monkeypatch):
    lib = blas._openblas()
    if lib is None:
        pytest.skip("no OpenBLAS thread symbols in this numpy")
    get, put = lib
    # each scan's "prediction" is the thread count it ran under
    monkeypatch.setattr(pipeline, "predict_panoptic", lambda *args, **kwargs: get())
    scans = generate_corpus(SceneConfig(seed=3), 4)
    preds = surrogate_corpus(scans, SurrogateConfig(seed=3))
    old = get()
    put(2)
    try:
        before = get()
        for workers in (1, 2):
            results = pipeline.predict_split(scans, preds, net=object(), workers=workers)
            assert [n for _, n in results] == [blas.BLAS_THREADS] * len(scans), workers
            assert get() == before
    finally:
        put(old)


_TRAIN_BYTES = """
import hashlib
from radfiner.network import NetworkConfig, RadFinerNet
from radfiner.synthdata import SceneConfig, generate_corpus
from radfiner.training import AugmentConfig, TrainConfig, train
net = RadFinerNet(NetworkConfig(d1=16, d2=32, seed=0))
train(generate_corpus(SceneConfig(seed=5), 2), net,
      TrainConfig(epochs=1, batch_size=2), AugmentConfig())
digest = hashlib.sha256()
for p in net.params():
    digest.update(p.data.tobytes())
print(digest.hexdigest())
"""


def test_training_bytes_do_not_depend_on_blas_threads():
    # widths at which two OpenBLAS threads change the last bits of a product
    src = str(Path(radfiner.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _TRAIN_BYTES], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]
