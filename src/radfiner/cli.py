"""Command line front end.

Subcommands: generate (scenes + surrogate predictions), train, eval,
gradcheck, bench.  Network, scene, schedule and augmentation settings come
from the --config / --net-config file alone (see configio).  Every run
writes a JSON manifest holding the resolved configuration, seeds, paths,
version and wall-clock timings, so it can be reproduced exactly.  Exit
codes: 0 success, 1 usage error, 2 data or validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, blas, configio
from .errors import ConfigError, DataError, NumericsError
from .gradcheck import full_network_check
from .metrics import format_report, mean_iou, panoptic_quality, write_metrics_csv
from .network import RadFinerNet, toy_config
from .pipeline import bench_pipeline, predict_split, score_split
from .scans import (MovingPrediction, load_predictions, load_scans,
                    save_predictions, save_scans)
from .synthdata import generate_corpus, generate_scene, surrogate_corpus
from .training import train

SCANS_FILE = "scans.txt"
PREDS_FILE = "surrogate.txt"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the documented contract is 1
    def error(self, message):
        raise _UsageError(message)


def _write_manifest(out_dir: Path, command: str, resolved: dict,
                    timings: dict) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "resolved": resolved,
        "timings_s": timings,
        "hardware": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor() or "unknown",
            "python": platform.python_version(),
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"manifest_{command}.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _blas_threads():
    """The OpenBLAS thread count that train and eval pin, for their manifests."""
    return (blas.BLAS_THREADS if blas.can_set_threads() else
            "not pinned: no OpenBLAS set_num_threads symbol")


def _load_split(data_dir: Path):
    scans = load_scans(data_dir / SCANS_FILE)
    preds = load_predictions(data_dir / PREDS_FILE)
    return scans, preds


def _net_from_args(args, checkpoint: Path | None = None) -> RadFinerNet:
    """Network for eval/bench: explicit --net-config wins, else the
    net.cfg written next to the checkpoint by `train`."""
    if args.net_config is not None:
        mapping = configio.load_config(args.net_config)
    elif checkpoint is not None and (checkpoint.parent / "net.cfg").exists():
        mapping = configio.load_config(checkpoint.parent / "net.cfg")
    else:
        raise ConfigError("need --net-config (no net.cfg found beside the checkpoint)")
    cfg = configio.net_config(mapping)
    if checkpoint is not None:
        return RadFinerNet.load(checkpoint, cfg)
    return RadFinerNet(cfg)


# -- generate -----------------------------------------------------------------


def _scan_svg(scan) -> str:
    colors = ("#999999", "#d62728", "#1f77b4", "#17becf", "#2ca02c", "#ff7f0e")
    lo = scan.xy.min(axis=0) - 2.0
    hi = scan.xy.max(axis=0) + 2.0
    span = np.maximum(hi - lo, 1e-6)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
             f'viewBox="0 0 640 640"><rect width="640" height="640" fill="white"/>']
    for i in range(len(scan)):
        x = 620.0 * (scan.xy[i, 0] - lo[0]) / span[0] + 10.0
        y = 630.0 - (620.0 * (scan.xy[i, 1] - lo[1]) / span[1] + 10.0)
        c = colors[int(scan.sem[i]) % len(colors)]
        r = 2.0 if scan.sem[i] == 0 else 3.5
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{c}"/>')
    parts.append("</svg>")
    return "".join(parts)


def _cmd_generate(args) -> int:
    t0 = time.perf_counter()
    if args.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {args.workers}")
    mapping = configio.load_config(args.config) if args.config else {}
    scene_cfg = configio.scene_config(mapping, seed=args.seed)
    surr_cfg = configio.surrogate_config(mapping, seed=args.surrogate_seed)
    if args.workers > 1 and args.count > 1:
        from multiprocessing import get_context
        with get_context("fork").Pool(args.workers) as pool:
            scans = pool.map(functools.partial(generate_scene, scene_cfg),
                             range(args.count))
    else:
        scans = generate_corpus(scene_cfg, args.count)
    preds = surrogate_corpus(scans, surr_cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_scans(scans, out_dir / SCANS_FILE)
    save_predictions(preds, out_dir / PREDS_FILE)
    if args.emit_svg and scans:
        (out_dir / "scene.svg").write_text(_scan_svg(scans[0]))
    _write_manifest(out_dir, "generate",
                    {"config": args.config, "count": args.count,
                     "scene": configio.section(scene_cfg),
                     "surrogate": configio.section(surr_cfg),
                     "out": str(out_dir), "workers": args.workers},
                    {"total": time.perf_counter() - t0})
    print(f"wrote {len(scans)} scans to {out_dir}")
    return 0


# -- train --------------------------------------------------------------------


def _cmd_train(args) -> int:
    t0 = time.perf_counter()
    mapping = configio.load_config(args.config) if args.config else {}
    net_cfg = configio.net_config(mapping)
    tcfg = configio.train_config(mapping)
    acfg = configio.augment_config(mapping)

    train_scans = load_scans(Path(args.data) / SCANS_FILE)
    val_scans = val_preds = None
    if args.val:
        val_scans, val_preds = _load_split(Path(args.val))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    configio.write_net_config(out_dir / "net.cfg", net_cfg)
    net = RadFinerNet(net_cfg)
    net, history = train(train_scans, net, tcfg, acfg, out_dir=out_dir,
                         val_scans=val_scans, val_preds=val_preds,
                         log=(None if args.quiet else print))
    _write_manifest(out_dir, "train",
                    {"config": args.config, "data": args.data, "val": args.val,
                     "net": configio.section(net_cfg),
                     "train": configio.section(tcfg),
                     "augment": configio.section(acfg),
                     "out": str(out_dir), "blas_threads": _blas_threads()},
                    {"total": time.perf_counter() - t0})
    last = history[-1]
    print(f"trained {tcfg.epochs} epochs; final total {last['total']:.4f}, "
          f"val_PQ {last['val_PQ']:.4f}")
    return 0


# -- eval ---------------------------------------------------------------------


def _cmd_eval(args) -> int:
    """Scores the network of --checkpoint, or without one the backbone
    predictions as they are."""
    t0 = time.perf_counter()
    if not args.checkpoint and (args.refine or args.net_config):
        raise _UsageError("--refine and --net-config need --checkpoint")
    scans, preds = _load_split(Path(args.data))
    net = _net_from_args(args, Path(args.checkpoint)) if args.checkpoint else None
    results = predict_split(scans, preds, net, refine=args.refine, workers=args.workers)
    stats = score_split(results)
    report = format_report(stats)
    print(report)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(stats, out_dir / "metrics.csv")
        (out_dir / "report.txt").write_text(report + "\n")
        if args.refine:
            save_predictions([MovingPrediction(scan.scan_id, pan.instance > 0,
                                               pan.instance, pan.sem)
                              for scan, pan in results], out_dir / "refined.txt")
        _write_manifest(out_dir, "eval",
                        {"data": args.data, "checkpoint": args.checkpoint,
                         "refine": args.refine, "workers": args.workers,
                         "blas_threads": _blas_threads(), "out": str(out_dir)},
                        {"total": time.perf_counter() - t0})
    pq, mean_pq = panoptic_quality(stats)
    _, miou = mean_iou(stats)
    print(f"mean PQ {mean_pq:.4f}  mIoU {miou:.4f}")
    return 0


# -- gradcheck ----------------------------------------------------------------


def _cmd_gradcheck(args) -> int:
    t0 = time.perf_counter()
    if not (args.tol > 0.0 and np.isfinite(args.tol)):
        raise ConfigError(f"tolerance must be positive and finite, got {args.tol}")
    if args.net_config is not None:
        cfg = configio.net_config(configio.load_config(args.net_config))
    else:
        cfg = toy_config()
    report = full_network_check(cfg, seed=args.seed, n_points=args.points, h=args.h)
    print(report.format_table())
    elapsed = time.perf_counter() - t0
    status = "PASS" if report.passed(args.tol) else "FAIL"
    print(f"{status}: max relative error {report.max_rel_error:.3e} "
          f"(tolerance {args.tol:g}, h={args.h:g}, {elapsed:.1f}s)")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "gradcheck.txt").write_text(report.format_table() + "\n")
        _write_manifest(out_dir, "gradcheck",
                        {"seed": args.seed, "points": args.points,
                         "d1": cfg.d1, "d2": cfg.d2, "h": args.h, "tol": args.tol},
                        {"total": elapsed})
    if not report.passed(args.tol):
        raise NumericsError(f"gradient check failed: {report.max_rel_error:.3e}")
    return 0


# -- bench --------------------------------------------------------------------


def _cmd_bench(args) -> int:
    t0 = time.perf_counter()
    net = _net_from_args(args, Path(args.checkpoint) if args.checkpoint else None)
    scans, preds = _load_split(Path(args.data))
    times = bench_pipeline(net, scans, preds, repetitions=args.repetitions)
    ms = times * 1e3
    points = np.array([len(s) for s in scans])
    moving = np.array([int(np.sum(p.moving)) for p in preds])
    summary = {
        "samples": int(ms.size),
        "mean_ms": float(np.mean(ms)),
        "median_ms": float(np.median(ms)),
        "p95_ms": float(np.percentile(ms, 95)),
        "scan_points_mean": float(points.mean()),
        "moving_points_mean": float(moving.mean()),
    }
    print(f"{summary['samples']} samples over {len(scans)} scans "
          f"(avg {summary['scan_points_mean']:.0f} points, "
          f"{summary['moving_points_mean']:.0f} selected)")
    print(f"latency ms: mean {summary['mean_ms']:.2f}  "
          f"median {summary['median_ms']:.2f}  p95 {summary['p95_ms']:.2f}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "latency.csv", "w") as fh:
            fh.write("sample_ms\n")
            fh.writelines(f"{repr(float(v))}\n" for v in ms)
        _write_manifest(out_dir, "bench",
                        {"checkpoint": args.checkpoint, "data": args.data,
                         "repetitions": args.repetitions, **summary},
                        {"total": time.perf_counter() - t0})
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="radfiner",
                     description="Panoptic refinement of radar point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic corpus and "
                                        "surrogate predictions")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None, help="scene seed override")
    p.add_argument("--surrogate-seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--emit-svg", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train the classifier head")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--val", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--net-config", default=None)
    p.add_argument("--refine", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every "
                                         "parameter tensor")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--net-config", default=None)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("bench", help="per-scan latency of select+forward+refine")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--net-config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # unreadable or missing files are data errors, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
