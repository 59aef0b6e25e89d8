"""End-to-end plumbing: evaluation pipeline, CLI contracts, exit codes."""

import argparse
import json
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import radfiner.cli as cli
from radfiner import blas, training
from radfiner.checkpoint import save_entries
from radfiner.configio import (augment_config, known_keys, load_config,
                               net_config, parse_config, scene_config,
                               surrogate_config, train_config,
                               write_net_config)
from radfiner.errors import ConfigError, DataFormatError
from radfiner.metrics import panoptic_quality
from radfiner.network import NetworkConfig, RadFinerNet, toy_config
from radfiner.pipeline import evaluate_split, pair_predictions, predict_panoptic
from radfiner.scans import (NUM_CLASSES, MovingPrediction, SemanticClass,
                            load_predictions, load_scans, select_moving)
from radfiner.synthdata import (SceneConfig, SurrogateConfig, generate_corpus,
                                surrogate_corpus)
from radfiner.training import AugmentConfig, TrainConfig

CONFIGS = Path(__file__).parent.parent / "configs"
BUILDERS = ((net_config, NetworkConfig), (scene_config, SceneConfig),
            (surrogate_config, SurrogateConfig), (train_config, TrainConfig),
            (augment_config, AugmentConfig))
# one epoch of a narrow network, so a `train` run takes a second
TINY = "d1 = 8\nd2 = 16\ntrain.epochs = 1\n"


def _tiny_cfg(tmp_path, extra: str = "") -> str:
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY + extra)
    return str(path)


@pytest.fixture(scope="module")
def small_split():
    scans = generate_corpus(SceneConfig(seed=51), 12)
    preds = surrogate_corpus(scans, SurrogateConfig(
        eps_boundary=0.15, eps_clutter=0.2, eps_merge=0.2, eps_miss=0.05, seed=7))
    return scans, preds


def test_every_export_resolves_once():
    import radfiner
    assert len(set(radfiner.__all__)) == len(radfiner.__all__)
    assert [name for name in radfiner.__all__ if not hasattr(radfiner, name)] == []


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


def _assert_instance_vote(pan, scan, pred, classes) -> bool:
    """`pan` gives each backbone instance the majority of `classes` over
    its points (ties to the lowest code), keeps the grouping, and leaves
    unflagged points (static, 0).  Returns whether the vote changed a class."""
    _, _, index_map = select_moving(scan, pred)
    rest = np.ones(len(scan), dtype=bool)
    rest[index_map] = False
    assert not pan.sem[rest].any() and not pan.instance[rest].any()
    ids, inst = pred.instance[index_map], pan.instance[index_map]
    voted = classes.copy()
    for iid in np.unique(ids[ids > 0]):
        member = ids == iid
        voted[member] = np.argmax(np.bincount(classes[member], minlength=NUM_CLASSES))
    assert np.array_equal(pan.sem[index_map], voted)
    thing = voted != SemanticClass.STATIC
    assert np.array_equal(inst > 0, thing)
    # one output id per (backbone id, class) group, and the other way round
    groups = np.unique(np.stack([ids, voted])[:, thing], axis=1).shape[1]
    assert groups == len(np.unique(inst[thing]))
    assert groups == np.unique(np.stack([ids, voted, inst])[:, thing], axis=1).shape[1]
    return not np.array_equal(voted, classes)


def test_each_output_votes_per_instance_as_documented(small_split):
    scans, preds = small_split
    net = RadFinerNet(toy_config(head_norm="bn", seed=2))
    true_changed = net_changed = False
    for scan, pred in zip(scans, preds):
        coords, feats, index_map = select_moving(scan, pred)
        base = predict_panoptic(None, scan, pred, refine=True)
        same = predict_panoptic(None, scan, pred, refine=False)
        assert np.array_equal(base.sem, same.sem)
        assert np.array_equal(base.instance, same.instance)
        true_changed |= _assert_instance_vote(base, scan, pred, scan.sem[index_map])
        voted = predict_panoptic(net, scan, pred, refine=False)
        net_changed |= _assert_instance_vote(voted, scan, pred,
                                             net.predict(coords, feats))
    # the faulted split has mixed instances, so both votes had work to do
    assert true_changed and net_changed


def test_empty_selection_never_reaches_the_network(small_split, monkeypatch):
    scan = small_split[0][0]
    none = np.zeros(len(scan), dtype=np.int64)
    pred = MovingPrediction(scan.scan_id, none.astype(bool), none)
    net = RadFinerNet(toy_config())

    def refuse(*args, **kwargs):
        raise AssertionError("infer called on an empty selection")

    monkeypatch.setattr(RadFinerNet, "infer", refuse)
    for refine in (True, False):
        pan = predict_panoptic(net, scan, pred, refine=refine)
        assert not pan.sem.any() and not pan.instance.any()


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
    scene = scene_config({"scene.instances": "2:9", "scene.max_range": "90"})
    assert scene.instances_per_scan == (2, 9) and scene.max_range == 90.0
    for mapping in ({"scene.instances": "3"}, {"scene.instances": "1:2:3"},
                    {"scene.instances": "1.5:3"}, {"scene.max_range": "far"}):
        with pytest.raises(ConfigError, match="scene"):
            scene_config(mapping)
    with pytest.raises(ConfigError, match="nmax"):
        net_config({"nmax": "24.0"})


def test_net_config_roundtrip(tmp_path):
    cfg = net_config({"d1": "8", "d2": "16", "radius": "4.0", "nmax": "6",
                      "head_norm": "none"})
    assert cfg.d1 == 8 and cfg.n_max == 6 and cfg.head_norm == "none"
    p = tmp_path / "net.cfg"
    write_net_config(p, cfg)
    assert net_config(load_config(p)) == cfg


# -- CLI options ---------------------------------------------------------------

def _options(parser) -> list[tuple[str, str]]:
    """(subcommand, dest) of every option of every subcommand."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.dest) for name, p in sub.choices.items()
            for action in p._actions if action.option_strings and action.dest != "help"]


def test_no_option_mirrors_a_config_key():
    names = {f.name for _, cls in BUILDERS for f in fields(cls)}
    for key in known_keys():
        names |= {key.rpartition(".")[2], key.replace(".", "_")}
    # generate makes a recipe's train and test corpora from one config file;
    # gradcheck's --seed draws the point cloud it checks on, which no key sets
    allowed = {("generate", "seed"), ("generate", "surrogate_seed"), ("gradcheck", "seed")}
    mirrored = [opt for opt in _options(cli._build_parser())
                if opt[1] in names and opt not in allowed]
    assert mirrored == []


def test_commands_quoted_in_the_configs_parse():
    parser = cli._build_parser()
    quoted = [line.split("radfiner", 1)[1].split()
              for path in sorted(CONFIGS.glob("*.cfg"))
              for line in path.read_text().splitlines()
              if re.match(r"#\s+radfiner ", line)]
    assert len(quoted) >= 5
    for argv in quoted:
        parser.parse_args(argv)  # an unknown flag raises a usage error


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


def test_full_cli_cycle(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "8",
                     "--seed", "21"]) == 0

    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--quiet",
                     "--config", _tiny_cfg(tmp_path, "train.batch_size = 4\n")]) == 0
    history = (run / "history.csv").read_text().splitlines()
    assert len(history) == 2  # header + 1 row
    # the two manifests together record every config key
    resolved = {**json.loads((data / "manifest_generate.json").read_text())["resolved"],
                **json.loads((run / "manifest_train.json").read_text())["resolved"]}
    recorded = set().union(*({prefix + key for key in resolved[name]} for prefix, name in (
        ("", "net"), ("scene.", "scene"), ("surrogate.", "surrogate"),
        ("train.", "train"), ("augment.", "augment"))))
    assert recorded == known_keys()
    assert resolved["blas_threads"] == blas.BLAS_THREADS or not blas.can_set_threads()

    # without a checkpoint, eval scores the backbone predictions as they are
    assert cli.main(["eval", "--data", str(data)]) == 0
    table = capsys.readouterr().out
    assert "static" in table and "PQ" in table

    out = tmp_path / "scored"
    assert cli.main(["eval", "--data", str(data), "--checkpoint",
                     str(run / "ckpt_epoch01"), "--refine", "--out", str(out)]) == 0
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
    assert cli.main(["train", "--data", str(data), "--out", str(run), "--quiet",
                     "--config", _tiny_cfg(tmp_path, "train.batch_size = 4\n")]) == 0
    out = tmp_path / "scored"
    assert cli.main(["eval", "--data", str(data), "--checkpoint",
                     str(run / "ckpt_epoch01"), "--refine", "--out", str(out)]) == 0
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
    assert cli.main(["eval", "--data", str(data), "--checkpoint", str(run / "ckpt"),
                     "--refine", "--out", str(out)]) == 0
    assert len(calls) == selected
    assert len(load_predictions(out / "refined.txt")) == 6


def test_usage_errors_exit_one(tmp_path):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["generate", "--count", "3"]) == 1  # --out missing
    # flags that only mirrored a config key are gone; the value goes in --config
    assert cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                     "--epochs", "1"]) == 1
    assert cli.main(["eval", "--data", str(tmp_path), "--source", "surrogate"]) == 1
    assert not (tmp_path / "run").exists()


def test_missing_data_exits_two(tmp_path):
    rc = cli.main(["eval", "--data", str(tmp_path / "nowhere")])
    assert rc == 2


def test_forged_point_count_exits_two(tmp_path, capsys):
    # a count far past the end of the file must not be allocated up front
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "2"]) == 0
    for name, header in (("scans.txt", "#radfiner-scans v1"),
                         ("surrogate.txt", "#radfiner-pred v1")):
        good = (data / name).read_text()
        (data / name).write_text(f"{header}\nscan 0 100000000000\n0 0\n")
        assert cli.main(["eval", "--data", str(data)]) == 2
        assert f"{name}:2: point count 100000000000 runs past" in capsys.readouterr().err
        (data / name).write_text(good)


def test_integer_outside_int64_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "2"]) == 0
    for name, header, row in (("scans.txt", "#radfiner-scans v1", "1.0 2.0 0.0 3.0 4.0 1"),
                              ("surrogate.txt", "#radfiner-pred v1", "1")):
        good = (data / name).read_text()
        (data / name).write_text(f"{header}\nscan 0 1\n{row} {2 ** 70}\n")
        assert cli.main(["eval", "--data", str(data)]) == 2
        assert f"{name}:3: unparseable fields" in capsys.readouterr().err
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
        assert cli.main(["eval", "--data", str(data), "--checkpoint", str(forged)]) == 2
        assert "forged.ckpt:2:" in capsys.readouterr().err
    # well-formed file, but a running statistic of the wrong length
    entries = RadFinerNet(toy_config()).state_entries()
    name = "block1.attn.mlp_bn1.running_mean"
    assert entries[name].shape == (8,)
    entries[name] = np.zeros(3)
    save_entries(forged, entries)
    assert cli.main(["eval", "--data", str(data), "--checkpoint", str(forged)]) == 2
    assert name in capsys.readouterr().err


def test_bad_config_file_exits_two(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "1"]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key=1\n")
    rc = cli.main(["generate", "--out", str(tmp_path / "x"), "--count", "1",
                   "--config", str(cfg)])
    assert rc == 2
    assert cli.main(["generate", "--out", str(tmp_path / "neg"), "--count", "-1"]) == 2
    assert not (tmp_path / "neg").exists()


def test_non_finite_values_exit_two(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "2"]) == 0
    run = tmp_path / "run"
    for line in ("train.lr = nan\n", "radius = inf\n"):
        assert cli.main(["train", "--data", str(data), "--out", str(run), "--quiet",
                         "--config", _tiny_cfg(tmp_path, line)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not run.exists()
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("scene.max_range = nan\n")
    assert cli.main(["generate", "--out", str(tmp_path / "gen"), "--count", "1",
                     "--config", str(cfg)]) == 2
    assert "scene.max_range must be finite" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()
    # a checkpoint holding a nan
    write_net_config(tmp_path / "net.cfg", toy_config())
    entries = RadFinerNet(toy_config()).state_entries()
    entries["embed.lin1.bias"][0] = np.nan
    save_entries(tmp_path / "nan.ckpt", entries)
    assert cli.main(["eval", "--data", str(data),
                     "--checkpoint", str(tmp_path / "nan.ckpt")]) == 2
    assert "embed.lin1.bias holds a non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("train", "scene.max_range = nan\nsurrogate.eps_miss = inf\n"),
    ("eval", "d1 = 8\nd2 = 16\nsurrogate.eps_miss = 2\n"),
    ("train", "seed = -1\n"),
    ("train", "scene.seed = -1\n"),
    ("train", "surrogate.seed = -1\n"),
    ("train", "train.seed = -1\n"),
], ids=["train-unused-sections", "eval-net-config",
        "negative-net-seed", "negative-scene-seed", "negative-surrogate-seed",
        "negative-train-seed"])
def test_bad_value_in_any_config_section_exits_two(tmp_path, capsys, command, text):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "2"]) == 0
    cfg = tmp_path / "bad.cfg"
    run = tmp_path / "run"
    if command == "train":
        cfg.write_text(TINY + text)
        argv = ["train", "--data", str(data), "--out", str(run), "--config", str(cfg),
                "--quiet"]
    else:
        cfg.write_text(text)
        argv = ["eval", "--data", str(data), "--net-config", str(cfg),
                "--checkpoint", str(tmp_path / "never-read.ckpt")]
    assert cli.main(argv) == 2
    assert f"error: {cfg}: " in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("key, field", [("instances", "instances_per_scan"),
                                        ("clutter_points", "clutter_points")])
def test_huge_scene_count_range_exits_two(tmp_path, capsys, key, field):
    huge = (0, 2 ** 63 - 1)
    named = f"{field} {huge}"
    # the config object refuses it first, so a missing bound fails here
    # instead of generating a scan of 2**63 points
    with pytest.raises(ConfigError, match=re.escape(named)):
        SceneConfig(**{field: huge})
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"scene.{key} = {huge[0]}:{huge[1]}\n")
    t0 = time.perf_counter()
    assert cli.main(["generate", "--out", str(tmp_path / "gen"), "--count", "1",
                     "--config", str(cfg)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert named in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()


HUGE = 2 ** 63 - 1


@pytest.mark.parametrize("line, cls, field, value", [
    (f"scene.clusters = 1:{HUGE}", SceneConfig, "clusters", (1, HUGE)),
    (f"nmax = {HUGE}", NetworkConfig, "n_max", HUGE),
    (f"d1 = {HUGE}", NetworkConfig, "d1", HUGE),
    (f"d2 = {HUGE}", NetworkConfig, "d2", HUGE),
], ids=["clusters", "nmax", "d1", "d2"])
def test_oversized_config_value_exits_two(tmp_path, capsys, line, cls, field, value):
    named = rf"\b{line.split()[0].split('.')[-1]}\b.*{HUGE}"
    # the config object refuses it first, so a missing bound fails here
    # instead of allocating for it
    with pytest.raises(ConfigError, match=named):
        cls(**{field: value})
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(line + "\n")
    t0 = time.perf_counter()
    assert cli.main(["generate", "--out", str(tmp_path / "gen"), "--count", "1",
                     "--config", str(cfg)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert re.search(named, capsys.readouterr().err)
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("target", ["config", "scans", "predictions", "checkpoint"])
def test_non_utf8_input_exits_two(tmp_path, capsys, target):
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--count", "2"]) == 0
    write_net_config(tmp_path / "net.cfg", toy_config())
    RadFinerNet(toy_config()).save(tmp_path / "ckpt")
    path = {"config": tmp_path / "net.cfg", "scans": data / "scans.txt",
            "predictions": data / "surrogate.txt", "checkpoint": tmp_path / "ckpt"}[target]
    head, tail = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head + b"\n\xff" + tail)
    assert cli.main(["eval", "--data", str(data), "--checkpoint", str(tmp_path / "ckpt")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")


class _PoisonedAdamW(training.AdamW):
    """AdamW whose first step meets a non-finite gradient."""

    def step(self):
        self.params[0].grad = np.full_like(self.params[0].data, np.nan)
        super().step()


@pytest.mark.parametrize("argv, poison, code", [
    (["gradcheck", "--points", "-1"], False, 2),
    (["gradcheck", "--h", "0"], False, 2),
    (["gradcheck", "--tol", "nan"], False, 2),
    (["gradcheck", "--tol", "inf"], False, 2),
    (["gradcheck", "--tol", "-1"], False, 2),
    (["gradcheck", "--tol", "0"], False, 2),
    (["gradcheck", "--seed", "-1"], False, 2),
    (["gradcheck", "--net-config", "{tmp}/neg-net-seed.cfg"], False, 2),
    (["generate", "--out", "{tmp}/gen", "--count", "2", "--workers", "0"], False, 2),
    (["generate", "--out", "{tmp}/gen", "--count", "2", "--seed", "-1"], False, 2),
    (["generate", "--out", "{tmp}/gen", "--count", "2", "--surrogate-seed", "-1"], False, 2),
    (["train", "--data", "{tmp}/data", "--out", "{tmp}/run", "--quiet",
      "--config", "{tmp}/neg-train-seed.cfg"], False, 2),
    (["train", "--data", "{tmp}/data", "--out", "{tmp}/run", "--quiet",
      "--config", "{tmp}/neg-net-seed.cfg"], False, 2),
    (["train", "--data", "{tmp}/data", "--out", "{tmp}/run", "--quiet",
      "--config", "{tmp}/tiny.cfg"], True, 3),
    (["eval", "--data", "{tmp}/data", "--refine"], False, 1),
    (["eval", "--data", "{tmp}/data", "--net-config", "{tmp}/tiny.cfg"], False, 1),
], ids=["gradcheck-points", "gradcheck-h", "gradcheck-tol-nan", "gradcheck-tol-inf",
        "gradcheck-tol-negative", "gradcheck-tol-zero", "gradcheck-seed",
        "gradcheck-net-seed", "generate-workers", "generate-seed", "generate-surrogate-seed",
        "train-seed", "train-net-seed", "adamw-nan-grad", "eval-refine-no-checkpoint",
        "eval-net-config-no-checkpoint"])
def test_failures_end_in_their_exit_code(tmp_path, monkeypatch, argv, poison, code):
    assert cli.main(["generate", "--out", str(tmp_path / "data"), "--count", "2"]) == 0
    for name, extra in (("tiny", ""), ("neg-train-seed", "train.seed = -1\n"),
                        ("neg-net-seed", "seed = -1\n")):
        (tmp_path / f"{name}.cfg").write_text(TINY + extra)
    if poison:
        monkeypatch.setattr(training, "AdamW", _PoisonedAdamW)
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == code
    assert not (tmp_path / "gen").exists()


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
