"""Release gate: the nine headline checks, one test per criterion.

Each test prints one summary line with the measured numbers.  The
end-to-end criteria (6a, 6b, 7) share one module-scoped fixture that
generates the reference corpus and trains the three arms; everything is
seeded, so the numbers here reproduce bit-for-bit on rerun.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from radfiner import autodiff as ad
from radfiner import cli, configio
from radfiner.attention import RadiusAttention
from radfiner.autodiff import Tensor
from radfiner.gradcheck import full_network_check
from radfiner.losses import (consistency_hard, cross_entropy, lovasz_softmax,
                             softmax_probs)
from radfiner.metrics import (PanopticStats, accumulate, mean_iou,
                              panoptic_quality, scan_stats)
from radfiner.neighborhood import ball_query, ball_query_bruteforce
from radfiner.network import NetworkConfig, RadFinerNet, toy_config
from radfiner.pipeline import bench_pipeline, evaluate_split
from radfiner.refinement import refine_instances
from radfiner.synthdata import (SceneConfig, SurrogateConfig, generate_corpus,
                                surrogate_corpus)
from radfiner.training import AugmentConfig, TrainConfig, train

from test_metrics import oracle_scan

C = 6


def report(line: str) -> None:
    print(f"\n{line}")


# -- criterion 1: gradient fidelity ------------------------------------------


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    rep = full_network_check(config=toy_config(), seed=1, n_points=20, h=1e-5)
    elapsed = time.perf_counter() - t0
    assert rep.max_rel_error < 1e-4, (
        f"max relative gradient error {rep.max_rel_error:.3e} >= 1e-4")
    assert elapsed < 120.0, f"gradient check took {elapsed:.0f}s >= 120s"
    report(f"[criterion 1] PASS gradient fidelity: max rel err "
           f"{rep.max_rel_error:.2e} < 1e-4 over {len(rep.per_param)} "
           f"tensors in {elapsed:.1f}s")


# -- criterion 2: attention contracts -----------------------------------------


def _attention_sample(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    pts = rng.uniform(-6.0, 6.0, (n, 2))
    x = rng.normal(size=(n, 8))
    radius = float(rng.uniform(1.5, 4.0))
    n_max = int(rng.integers(2, 9))
    return pts, x, radius, n_max


def test_criterion_2_attention_contracts():
    worst_sum = 0.0
    checked_locality = 0
    for seed in range(100):
        pts, x, radius, n_max = _attention_sample(seed)
        nb = ball_query(pts, radius, n_max)

        # (c) grid index equals the quadratic oracle, arrays and all
        ref = ball_query_bruteforce(pts, radius, n_max)
        assert np.array_equal(nb.indices, ref.indices)
        assert np.array_equal(nb.valid, ref.valid)
        assert np.array_equal(nb.rel_pos, ref.rel_pos)

        attn = RadiusAttention("a", 8, np.random.default_rng(seed))
        with ad.no_grad():
            out, weights = attn(Tensor(x), nb, training=False,
                                return_weights=True)

        # (a) per (anchor, channel) the valid slots form a distribution
        sums = weights.sum(axis=1)
        worst_sum = max(worst_sum, float(np.max(np.abs(sums - 1.0))))
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(weights[~nb.valid] == 0.0)

        # (b) locality: a point outside the anchor's ball cannot move it
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        far = np.argwhere(d > radius)
        if len(far):
            anchor, outsider = far[np.random.default_rng(1000 + seed)
                                   .integers(len(far))]
            x2 = x.copy()
            x2[outsider] += np.random.default_rng(2000 + seed).normal(size=8)
            with ad.no_grad():
                out2 = attn(Tensor(x2), nb, training=False)
            assert np.array_equal(out.data[anchor], out2.data[anchor])
            checked_locality += 1
    assert checked_locality >= 90
    report(f"[criterion 2] PASS attention contracts on 100 sets: weight sums "
           f"within {worst_sum:.1e} of 1, locality exact on "
           f"{checked_locality} pairs, ball_query == oracle")


# -- criterion 3: loss value table ---------------------------------------------


def test_criterion_3_loss_value_table():
    # pure instance -> 0; the {car,truck} + {bike} example -> 0.25;
    # three distinct classes in one instance -> 2/3
    assert consistency_hard([1, 1, 1], [4, 4, 4]) == 0.0
    mixed = consistency_hard([1, 5, 4], [1, 1, 2])
    assert mixed == 0.25
    tri = consistency_hard([1, 2, 3], [7, 7, 7])
    assert abs(tri - 2.0 / 3.0) < 1e-15

    logits = Tensor(np.zeros((4, C)))
    ce = cross_entropy(logits, np.array([0, 3, 5, 2]))
    assert abs(ce.data - np.log(C)) <= 1e-12

    hard = np.array([0, 1, 2, 3, 4, 5, 1, 0])
    one_hot = np.full((8, C), -40.0)
    one_hot[np.arange(8), hard] = 40.0
    lov = lovasz_softmax(softmax_probs(Tensor(one_hot)), hard)
    assert abs(lov.data) <= 1e-12
    report(f"[criterion 3] PASS loss table: consistency 0 / 0.25 / 2/3 exact, "
           f"uniform CE = ln6 ({float(ce.data):.12f}), perfect Lovasz "
           f"{float(lov.data):.1e}")


# -- criterion 4: metrics oracle -----------------------------------------------


def _micro_scans():
    """Ten tiny labelings covering matches, misses, merges, splits,
    semantic confusion and degenerate cases; at most one matching pair
    per class per scan so the oracle's float sums line up exactly."""
    s = [
        # perfect two-instance scan
        ([0, 1, 1, 2], [0, 1, 1, 2], [0, 1, 1, 2], [0, 1, 1, 2]),
        # boundary point flips to static: IoU 2/3 keeps the match
        ([1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0]),
        # exactly half overlap is NOT a match (IoU 0.5)
        ([1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]),
        # two instances merged into one prediction
        ([1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 1, 1], [3, 3, 3, 3]),
        # one instance split into two predictions
        ([5, 5, 5, 5], [1, 1, 1, 1], [5, 5, 5, 5], [1, 1, 2, 2]),
        # semantic confusion: right grouping, wrong class
        ([2, 2, 0, 0], [4, 4, 0, 0], [3, 3, 0, 0], [4, 4, 0, 0]),
        # spurious prediction in an absent class
        ([0, 0, 0, 0], [0, 0, 0, 0], [0, 4, 4, 0], [0, 9, 9, 0]),
        # all static both sides
        ([0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]),
        # missed instance next to a matched one
        ([1, 1, 1, 3, 3], [1, 1, 1, 2, 2], [1, 1, 1, 0, 0], [7, 7, 7, 0, 0]),
        # id values do not matter, only the grouping
        ([0, 2, 2, 5], [0, 8, 8, 3], [0, 2, 2, 5], [0, 1, 1, 9]),
    ]
    return [tuple(np.asarray(a, dtype=np.int64) for a in scan) for scan in s]


def test_criterion_4_metrics_oracle():
    stats = PanopticStats()
    tp = np.zeros(C, dtype=np.int64)
    fp = np.zeros(C, dtype=np.int64)
    fn = np.zeros(C, dtype=np.int64)
    tp_iou = np.zeros(C)
    conf = np.zeros((C, C), dtype=np.int64)
    for gt_c, gt_i, pr_c, pr_i in _micro_scans():
        accumulate(stats, gt_c, gt_i, pr_c, pr_i)
        otp, ofp, ofn, oiou, oconf = oracle_scan(gt_c, gt_i, pr_c, pr_i)
        tp += otp
        fp += ofp
        fn += ofn
        tp_iou += oiou
        conf += oconf
    assert np.array_equal(stats.tp, tp)
    assert np.array_equal(stats.fp, fp)
    assert np.array_equal(stats.fn, fn)
    assert np.array_equal(stats.tp_iou, tp_iou)
    assert np.array_equal(stats.confusion, conf)
    pq_micro, _ = panoptic_quality(stats)
    miou_micro, _ = mean_iou(stats)

    # worked PQ case: TP=1 at IoU 4/5, one FP -> 0.8 / (1 + 0.5) = 0.5333...
    ex = PanopticStats()
    accumulate(ex,
               np.array([1, 1, 1, 1, 1, 0, 0]),
               np.array([1, 1, 1, 1, 1, 0, 0]),
               np.array([1, 1, 1, 1, 0, 1, 1]),
               np.array([1, 1, 1, 1, 0, 9, 9]))
    pq, _ = panoptic_quality(ex)
    assert abs(pq[1] - 0.8 / 1.5) < 1e-9
    assert abs(pq[1] - 0.53333333) < 1e-6

    # id-bijection invariance on fuzzed scans, bitwise
    from test_metrics import random_labeling
    rng = np.random.default_rng(12)
    for _ in range(100):
        gt_c, gt_i = random_labeling(rng, 30)
        pr_c, pr_i = random_labeling(rng, 30)
        a = scan_stats(gt_c, gt_i, pr_c, pr_i)
        remap = rng.permutation(2 ** 16)[pr_i] + 1
        b = scan_stats(gt_c, gt_i, pr_c, np.where(pr_i > 0, remap, 0))
        assert np.array_equal(a.tp_iou, b.tp_iou)
        assert np.array_equal(a.tp, b.tp) and np.array_equal(a.fp, b.fp)
        assert np.array_equal(a.fn, b.fn)
    report(f"[criterion 4] PASS metrics oracle: 10 micro-scans exact "
           f"(PQ {pq_micro[1]:.4f}..., mIoU mean {miou_micro[1]:.4f}), "
           f"0.8/1.5 case {pq[1]:.9f}, bijection invariance on 100 scans")


# -- criterion 5: refinement properties ----------------------------------------


def test_criterion_5_refinement_properties():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        ids = rng.integers(0, 6, n)
        classes = rng.integers(0, C, n)  # deliberately uncorrelated with ids
        out_c, out_i = refine_instances(ids, classes, "split")

        assert len(out_c) == n and len(out_i) == n  # conservation
        assert np.all((out_i > 0) == (out_c > 0))   # static <=> id 0
        for k in np.unique(out_i[out_i > 0]):       # purity
            assert len(np.unique(out_c[out_i == k])) == 1
        for k in np.unique(out_i[out_i > 0]):       # never merges
            assert len(np.unique(ids[out_i == k])) == 1
        again = refine_instances(out_i, out_c, "split")  # idempotence
        assert np.array_equal(again[0], out_c)
        assert np.array_equal(again[1], out_i)
    report("[criterion 5] PASS refinement properties: purity, no merges, "
           "conservation and idempotence on 1000 fuzzed inputs")


# -- criteria 6 and 7: end-to-end value ----------------------------------------

DESK_EPS = dict(eps_boundary=0.15, eps_clutter=0.2, eps_merge=0.2,
                eps_miss=0.05)


def _desk_arm(train_scans, test_scans, test_preds, net_kwargs, aug_kwargs):
    """Train one desk arm and return its refined test PQ."""
    net = RadFinerNet(NetworkConfig(d1=32, d2=64, seed=0, **net_kwargs))
    tcfg = TrainConfig(epochs=40, batch_size=4, lr=0.001,
                       lr_drop_epoch=32, seed=0)
    net, _ = train(train_scans, net, tcfg, AugmentConfig(**aug_kwargs))
    stats = evaluate_split(test_scans, test_preds, net=net, refine=True)
    return panoptic_quality(stats)[1]


@pytest.fixture(scope="module")
def desk_runs():
    """Reference corpus and the three desk trainings shared by 6a/6b/7.

    The arms train in two spawned worker processes.  `train` and
    `evaluate_split` run OpenBLAS on `blas.BLAS_THREADS` (one) threads:
    the last bits of a BLAS product depend on its thread count, so the
    PQs do not depend on the machine's core count, and one thread per
    arm leaves the second core to the other arm.
    """
    t0 = time.perf_counter()
    train_scans = generate_corpus(SceneConfig(seed=1), 250)
    test_scans = generate_corpus(SceneConfig(seed=2), 50)
    train_preds = surrogate_corpus(train_scans, SurrogateConfig(seed=3, **DESK_EPS))
    test_preds = surrogate_corpus(test_scans, SurrogateConfig(seed=4, **DESK_EPS))

    arms = {
        "refined": ({}, dict(p_instance=0.4, p_scan=0.4)),
        "refined_noaug": ({}, dict(p_instance=0.0, p_scan=0.0)),
        "refined_nmax4": (dict(n_max=4), dict(p_instance=0.4, p_scan=0.4)),
    }
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        futures = {name: pool.submit(_desk_arm, train_scans, test_scans,
                                     test_preds, *kwargs)
                   for name, kwargs in arms.items()}
        base = panoptic_quality(evaluate_split(test_scans, test_preds, net=None))[1]
        runs = {name: f.result() for name, f in futures.items()}
    return {"baseline": base, **runs, "runtime": time.perf_counter() - t0}


def test_criterion_6_end_to_end_refinement_value(desk_runs):
    r = desk_runs
    gain = r["refined"] - r["baseline"]
    aug_gain = r["refined"] - r["refined_noaug"]
    assert gain >= 0.02, (
        f"refined {r['refined']:.4f} vs baseline {r['baseline']:.4f}: "
        f"gain {gain:+.4f} < +0.02")
    assert aug_gain >= 0.01, (
        f"with-aug {r['refined']:.4f} vs without {r['refined_noaug']:.4f}: "
        f"gain {aug_gain:+.4f} < +0.01")
    assert r["runtime"] < 2700.0, f"desk runs took {r['runtime']:.0f}s"
    report(f"[criterion 6] PASS end-to-end: baseline PQ {r['baseline']:.4f}, "
           f"refined {r['refined']:.4f} ({gain:+.4f} >= +0.02); "
           f"no-aug {r['refined_noaug']:.4f} ({aug_gain:+.4f} >= +0.01); "
           f"total {r['runtime']:.0f}s")


def test_criterion_7_neighbor_cap_direction(desk_runs):
    r = desk_runs
    cap_gain = r["refined"] - r["refined_nmax4"]
    assert cap_gain >= 0.01, (
        f"nmax24 {r['refined']:.4f} vs nmax4 {r['refined_nmax4']:.4f}: "
        f"gain {cap_gain:+.4f} < +0.01")
    report(f"[criterion 7] PASS neighbor cap: nmax24 {r['refined']:.4f} vs "
           f"nmax4 {r['refined_nmax4']:.4f} ({cap_gain:+.4f} >= +0.01)")


# -- criterion 8: throughput ----------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown cpu"


def test_criterion_8_throughput():
    mapping = configio.load_config(Path(__file__).parent.parent
                                   / "configs" / "bench.cfg")
    scans = generate_corpus(configio.scene_config(mapping, seed=9), 20)
    preds = surrogate_corpus(scans, configio.surrogate_config(mapping, seed=9))
    sizes = np.array([len(s) for s in scans])
    net = RadFinerNet(configio.net_config(mapping))
    assert (net.config.d1, net.config.d2) == (64, 256)
    assert (net.config.radius, net.config.n_max) == (5.0, 24)

    times = bench_pipeline(net, scans, preds, repetitions=50)
    assert len(times) == 1000
    mean_ms = 1e3 * float(times.mean())
    machine = (f"{_cpu_model()} ({os.cpu_count()} cpus, OPENBLAS_NUM_THREADS="
               f"{os.environ.get('OPENBLAS_NUM_THREADS', 'default')})")
    assert mean_ms < 50.0, f"mean latency {mean_ms:.1f} ms >= 50 ms on {machine}"

    # radius search: KD-tree vs the quadratic oracle at N=2000
    pts = np.random.default_rng(5).uniform([0, -30], [60, 30], (2000, 2))
    t_tree = min(_timed(ball_query, pts) for _ in range(3))
    t_brute = min(_timed(ball_query_bruteforce, pts) for _ in range(3))
    assert t_tree * 5.0 <= t_brute, (
        f"ball_query {1e3 * t_tree:.1f} ms not 5x faster than brute "
        f"{1e3 * t_brute:.1f} ms")
    report(f"[criterion 8] PASS throughput on {machine}: mean "
           f"{mean_ms:.1f} ms (p95 {1e3 * np.percentile(times, 95):.1f} ms) "
           f"over 1000 samples of ~{sizes.mean():.0f}-point scans; "
           f"ball_query {t_brute / t_tree:.1f}x faster than brute force")


def _timed(fn, pts) -> float:
    t0 = time.perf_counter()
    fn(pts, 5.0, 24)
    return time.perf_counter() - t0


# -- criterion 9: determinism ----------------------------------------------------


def _tree_bytes(root: Path, names) -> dict[str, bytes]:
    return {n: (root / n).read_bytes() for n in names}


def test_criterion_9_determinism(tmp_path):
    gen = ["--count", "12", "--seed", "21", "--surrogate-seed", "22"]
    for sub, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        rc = cli.main(["generate", "--out", str(tmp_path / "data" / sub),
                       *gen, "--workers", workers])
        assert rc == 0
    names = ["scans.txt", "surrogate.txt"]
    a = _tree_bytes(tmp_path / "data" / "a", names)
    assert a == _tree_bytes(tmp_path / "data" / "b", names), "workers changed data"
    assert a == _tree_bytes(tmp_path / "data" / "c", names), "rerun changed data"

    data = str(tmp_path / "data" / "a")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("d1 = 8\nd2 = 16\ntrain.epochs = 2\ntrain.batch_size = 2\n"
                   "train.seed = 5\n")
    for sub in ("ra", "rb"):
        rc = cli.main(["train", "--data", data, "--out", str(tmp_path / sub),
                       "--config", str(cfg), "--quiet"])
        assert rc == 0
    train_names = ["history.csv", "ckpt_epoch02", "net.cfg"]
    assert _tree_bytes(tmp_path / "ra", train_names) == \
        _tree_bytes(tmp_path / "rb", train_names), "rerun changed training"

    for sub, workers in (("ea", "1"), ("eb", "4")):
        rc = cli.main(["eval", "--data", data,
                       "--checkpoint", str(tmp_path / "ra" / "ckpt_epoch02"),
                       "--refine", "--workers", workers,
                       "--out", str(tmp_path / sub)])
        assert rc == 0
    eval_names = ["metrics.csv", "refined.txt"]
    assert _tree_bytes(tmp_path / "ea", eval_names) == \
        _tree_bytes(tmp_path / "eb", eval_names), "workers changed metrics"

    for sub in ("ga", "gb"):
        rc = cli.main(["gradcheck", "--out", str(tmp_path / sub)])
        assert rc == 0
    assert _tree_bytes(tmp_path / "ga", ["gradcheck.txt"]) == \
        _tree_bytes(tmp_path / "gb", ["gradcheck.txt"])
    report("[criterion 9] PASS determinism: generate/train/eval/gradcheck "
           "byte-identical across reruns and --workers 1 vs 4")
