"""End-to-end plumbing: evaluation pipeline, CLI contracts, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

import radfiner.cli as cli
from radfiner.configio import (augment_config, known_keys, load_config,
                               net_config, parse_config, scene_config,
                               surrogate_config, train_config,
                               write_net_config)
from radfiner.errors import ConfigError, DataFormatError
from radfiner.metrics import panoptic_quality
from radfiner.network import NetworkConfig, RadFinerNet, toy_config
from radfiner.pipeline import evaluate_split, pair_predictions
from radfiner.scans import (SemanticClass, load_predictions, load_scans,
                            select_moving)
from radfiner.synthdata import (SceneConfig, SurrogateConfig, generate_corpus,
                                surrogate_corpus)
from radfiner.training import AugmentConfig, TrainConfig

CONFIGS = Path(__file__).parent.parent / "configs"
BUILDERS = ((net_config, NetworkConfig), (scene_config, SceneConfig),
            (surrogate_config, SurrogateConfig), (train_config, TrainConfig),
            (augment_config, AugmentConfig))


@pytest.fixture(scope="module")
def small_split():
    scans = generate_corpus(SceneConfig(seed=51), 12)
    preds = surrogate_corpus(scans, SurrogateConfig(
        eps_boundary=0.15, eps_clutter=0.2, eps_merge=0.2, eps_miss=0.05, seed=7))
    return scans, preds


# -- pipeline ------------------------------------------------------------------

def test_perfect_surrogate_scores_unity(small_split):
    scans, _ = small_split
    preds = surrogate_corpus(scans, SurrogateConfig(seed=0))
    stats = evaluate_split(scans, preds)
    pq, mean = panoptic_quality(stats)
    assert mean == 1.0


def test_worker_counts_agree(small_split):
    scans, preds = small_split
    a = evaluate_split(scans, preds, workers=1)
    b = evaluate_split(scans, preds, workers=2)
    assert np.array_equal(a.tp, b.tp)
    assert np.array_equal(a.fp, b.fp)
    assert np.array_equal(a.fn, b.fn)
    assert np.array_equal(a.confusion, b.confusion)
    # float sums must agree bitwise thanks to fixed merge order
    assert np.array_equal(a.tp_iou, b.tp_iou)


def test_worker_counts_agree_with_network(small_split):
    scans, preds = small_split
    net = RadFinerNet(toy_config(head_norm="bn", seed=2))
    a = evaluate_split(scans, preds, net=net, refine=True, workers=1)
    b = evaluate_split(scans, preds, net=net, refine=True, workers=2)
    assert np.array_equal(a.tp_iou, b.tp_iou)
    assert np.array_equal(a.confusion, b.confusion)


def test_pair_predictions_rejects_missing(small_split):
    scans, preds = small_split
    from radfiner.errors import ValidationError
    with pytest.raises(ValidationError):
        pair_predictions(scans, preds[:-1])


# -- config files --------------------------------------------------------------

def test_parse_config_comments_and_duplicates():
    text = "# comment\nd1 = 8\nd2= 16 # trailing note\n"
    cfg = parse_config(text, "inline")
    assert cfg == {"d1": "8", "d2": "16"}
    with pytest.raises(DataFormatError, match="duplicate"):
        parse_config("a=1\na=2\n", "inline")
    with pytest.raises(DataFormatError, match=":2:"):
        parse_config("a=1\nnot a pair\n", "inline")


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("d1=8\nmystery=1\n")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(p)


def test_default_cfg_lists_every_key_at_its_default():
    mapping = load_config(CONFIGS / "default.cfg")
    assert set(mapping) == known_keys()
    for build, cls in BUILDERS:
        assert build(mapping) == build({}) == cls()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_build(path):
    mapping = load_config(path)
    for build, cls in BUILDERS:
        assert isinstance(build(mapping), cls)


def test_config_values_cast_from_default_types():
    scene = scene_config({"scene.instances": "2:9", "scene.truck.speed": "1:4",
                          "scene.fov_deg": "90"})
    assert scene.instances_per_scan == (2, 9) and scene.fov_deg == 90.0
    assert scene.profiles[SemanticClass.TRUCK].speed == (1.0, 4.0)
    for mapping in ({"scene.instances": "3"}, {"scene.instances": "1:2:3"},
                    {"scene.instances": "1.5:3"}, {"scene.car.extent": "wide"}):
        with pytest.raises(ConfigError, match="scene"):
            scene_config(mapping)
    with pytest.raises(ConfigError, match="nmax"):
        net_config({"nmax": "24.0"})


def test_net_config_roundtrip(tmp_path):
    cfg = net_config({"d1": "8", "d2": "16", "radius": "4.0", "nmax": "6",
                      "head_norm": "none"})
    assert cfg.d1 == 8 and cfg.n_max == 6 and cfg.head_norm == "none"
    p = tmp_path / "net.cfg"
    from radfiner.configio import write_net_config
    write_net_config(p, cfg)
    again = net_config(load_config(p))
    # the writer freezes the derived head widths; everything else matches
    assert again.head_widths() == cfg.head_widths()
    assert (again.d1, again.d2, again.radius, again.n_max) == \
           (cfg.d1, cfg.d2, cfg.radius, cfg.n_max)
    assert (again.attn_pad, again.head_norm, again.seed) == \
           (cfg.attn_pad, cfg.head_norm, cfg.seed)


# -- CLI end to end ------------------------------------------------------------

def test_generate_count_zero_header_only(tmp_path):
    out = tmp_path / "empty"
    rc = cli.main(["generate", "--out", str(out), "--count", "0"])
    assert rc == 0
    assert load_scans(out / "scans.txt") == []
    assert load_predictions(out / "surrogate.txt") == []


def test_generate_twice_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["generate", "--out", str(out), "--count", "6",
                         "--seed", "3"]) == 0
    assert (a / "scans.txt").read_bytes() == (b / "scans.txt").read_bytes()
    assert (a / "surrogate.txt").read_bytes() == (b / "surrogate.txt").read_bytes()


def test_generate_workers_match(tmp_path):
    a, b = tmp_path / "w1", tmp_path / "w4"
    assert cli.main(["generate", "--out", str(a), "--count", "8", "--seed", "5",
                     "--workers", "1"]) == 0
    assert cli.main(["generate", "--out", str(b), "--count", "8", "--seed", "5",
                     "--workers", "4"]) == 0
    assert (a / "scans.txt").read_bytes() == (b / "scans.txt").read_bytes()
    assert (a / "surrogate.txt").read_bytes() == (b / "surrogate.txt").read_bytes()


def _flat_keys(prefix: str, tree: dict) -> set[str]:
    return {k for key, value in tree.items()
            for k in (_flat_keys(f"{prefix}{key}.", value) if isinstance(value, dict)
                      else {prefix + key})}


def test_full_cli_cycle(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "8",
                     "--seed", "21"]) == 0

    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--epochs", "1", "--batch-size", "4",
                     "--d1", "8", "--d2", "16", "--quiet"]) == 0
    history = (run / "history.csv").read_text().splitlines()
    assert len(history) == 2  # header + 1 row
    # the two manifests together record every config key
    resolved = {**json.loads((data / "manifest_generate.json").read_text())["resolved"],
                **json.loads((run / "manifest_train.json").read_text())["resolved"]}
    recorded = set().union(*(_flat_keys(prefix, resolved[name]) for prefix, name in (
        ("", "net"), ("scene.", "scene"), ("surrogate.", "surrogate"),
        ("train.", "train"), ("augment.", "augment"))))
    assert recorded == known_keys()

    assert cli.main(["eval", "--data", str(data), "--source", "surrogate"]) == 0
    table = capsys.readouterr().out
    assert "static" in table and "PQ" in table

    out = tmp_path / "scored"
    assert cli.main(["eval", "--data", str(data), "--source", "checkpoint",
                     "--checkpoint", str(run / "ckpt_epoch01"),
                     "--refine", "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "refined.txt").exists()
    assert (out / "manifest_eval.json").exists()

    assert cli.main(["bench", "--data", str(data),
                     "--checkpoint", str(run / "ckpt_epoch01"),
                     "--repetitions", "1"]) == 0
    bench_out = capsys.readouterr().out
    assert "mean" in bench_out


def test_eval_refine_changes_labels_not_points(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "4",
                     "--seed", "9"]) == 0
    before = load_scans(data / "scans.txt")
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--epochs", "1", "--batch-size", "4",
                     "--d1", "8", "--d2", "16", "--quiet"]) == 0
    out = tmp_path / "scored"
    assert cli.main(["eval", "--data", str(data), "--source", "checkpoint",
                     "--checkpoint", str(run / "ckpt_epoch01"),
                     "--refine", "--out", str(out)]) == 0
    after = load_scans(data / "scans.txt")
    for s0, s1 in zip(before, after):
        assert np.array_equal(s0.xy, s1.xy)
        assert np.array_equal(s0.rcs, s1.rcs)
        assert np.array_equal(s0.doppler, s1.doppler)


def test_eval_refine_out_classifies_each_scan_once(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "6",
                     "--seed", "4"]) == 0
    run = tmp_path / "run"
    run.mkdir()
    write_net_config(run / "net.cfg", toy_config(head_norm="bn"))
    RadFinerNet(toy_config(head_norm="bn")).save(run / "ckpt")
    selected = sum(select_moving(s, p)[2].size > 0 for s, p in zip(
        load_scans(data / "scans.txt"), load_predictions(data / "surrogate.txt")))
    assert selected > 0

    calls = []
    infer = RadFinerNet.infer

    def counted(self, *args, **kwargs):
        calls.append(1)
        return infer(self, *args, **kwargs)

    monkeypatch.setattr(RadFinerNet, "infer", counted)
    out = tmp_path / "scored"
    assert cli.main(["eval", "--data", str(data), "--source", "checkpoint",
                     "--checkpoint", str(run / "ckpt"), "--refine",
                     "--out", str(out)]) == 0
    assert len(calls) == selected
    assert len(load_predictions(out / "refined.txt")) == 6


def test_usage_errors_exit_one(tmp_path):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["generate", "--count", "3"]) == 1  # --out missing
    assert cli.main(["eval", "--data", str(tmp_path), "--source", "checkpoint"]) == 1


def test_missing_data_exits_two(tmp_path):
    rc = cli.main(["eval", "--data", str(tmp_path / "nowhere"),
                   "--source", "surrogate"])
    assert rc == 2


def test_forged_point_count_exits_two(tmp_path, capsys):
    # a count far past the end of the file must not be allocated up front
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "2"]) == 0
    for name, header in (("scans.txt", "#radfiner-scans v1"),
                         ("surrogate.txt", "#radfiner-pred v1")):
        good = (data / name).read_text()
        (data / name).write_text(f"{header}\nscan 0 100000000000\n0 0\n")
        assert cli.main(["eval", "--data", str(data), "--source", "surrogate"]) == 2
        assert f"{name}:2: point count 100000000000 runs past" in capsys.readouterr().err
        (data / name).write_text(good)


def test_forged_checkpoint_shape_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "1"]) == 0
    run = tmp_path / "run"
    run.mkdir()
    write_net_config(run / "net.cfg", toy_config())
    forged = run / "forged.ckpt"
    for entry in ("w 2 -2 -3 1.0 2.0 3.0 4.0 5.0 6.0", "w 2 4294967296 4294967296"):
        forged.write_text(f"#radfiner-ckpt v1\n{entry}\n")
        assert cli.main(["eval", "--data", str(data), "--source", "checkpoint",
                         "--checkpoint", str(forged)]) == 2
        assert "forged.ckpt:2:" in capsys.readouterr().err


def test_bad_config_file_exits_two(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "1"]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key=1\n")
    rc = cli.main(["generate", "--out", str(tmp_path / "x"), "--count", "1",
                   "--config", str(cfg)])
    assert rc == 2


def test_gradcheck_cli_passes_and_fails(tmp_path, capsys):
    # default flags are the frozen passing recipe
    assert cli.main(["gradcheck", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert (tmp_path / "gradcheck.txt").exists()
    # an unattainable tolerance must fail with the numerics exit code
    assert cli.main(["gradcheck", "--points", "12", "--tol", "1e-16"]) == 3


def test_bench_repetitions_sample_count(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "10",
                     "--seed", "2"]) == 0
    from radfiner.configio import write_net_config
    write_net_config(tmp_path / "net.cfg", toy_config(head_norm="bn"))
    assert cli.main(["bench", "--data", str(data), "--repetitions", "1",
                     "--net-config", str(tmp_path / "net.cfg")]) == 0
    out = capsys.readouterr().out
    assert "10 samples over 10 scans" in out
