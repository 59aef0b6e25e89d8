"""Tour of the synthetic data: build one scene, look at its physics, then
let the fault-injecting backbone stand-in loose on it and tally the damage.

    python demos/scene_tour.py [--seed N] [--svg out.svg]
"""

import argparse

import numpy as np

from radfiner.scans import CLASS_NAMES, NUM_CLASSES
from radfiner.synthdata import (SceneConfig, SurrogateConfig, generate_scene,
                                radial_doppler, surrogate_backbone)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--svg", default=None, help="optionally render the scene")
    args = ap.parse_args()

    scan = generate_scene(SceneConfig(), seed=args.seed)
    print(f"scan {scan.scan_id!r}: {len(scan)} points, "
          f"{scan.instance.max()} moving instances\n")

    print("class composition")
    for code in range(NUM_CLASSES):
        n = int(np.sum(scan.sem == code))
        if n:
            print(f"  {CLASS_NAMES[code]:>16}: {n:4d} points")

    # Doppler is the radial projection of each object's velocity, so points
    # of one rigid object agree with a single velocity vector.
    print("\nper-instance Doppler consistency (fit residual vs noise floor)")
    for iid in range(1, int(scan.instance.max()) + 1):
        sel = scan.instance == iid
        pts, dop = scan.xy[sel], scan.doppler[sel]
        name = CLASS_NAMES[int(scan.sem[sel][0])]
        if np.sum(sel) >= 2:
            los = pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-9)
            v, *_ = np.linalg.lstsq(los, dop, rcond=None)
            resid = float(np.sqrt(np.mean((radial_doppler(pts, v) - dop) ** 2)))
            print(f"  instance {iid:2d} ({name:>16}): "
                  f"|v|={np.linalg.norm(v):5.2f} m/s, residual {resid:.3f} m/s")
        else:
            print(f"  instance {iid:2d} ({name:>16}): "
                  f"single point, Doppler {dop[0]:+.2f} m/s")

    static_dop = scan.doppler[scan.sem == 0]
    print(f"  static returns: |Doppler| p99 = "
          f"{np.percentile(np.abs(static_dop), 99):.3f} m/s")

    # now the stand-in backbone with the desk-recipe error rates
    cfg = SurrogateConfig(eps_boundary=0.15, eps_clutter=0.2,
                          eps_merge=0.2, eps_miss=0.05, seed=1)
    pred = surrogate_backbone(scan, cfg, seed=args.seed)
    gt_moving = scan.instance > 0
    fp = pred.moving & ~gt_moving
    fn = ~pred.moving & gt_moving
    print("\nbackbone stand-in at desk error rates:")
    print(f"  selected {int(pred.moving.sum())} points "
          f"({int(fp.sum())} false positives, {int(fn.sum())} missed)")
    gt_ids = {int(i) for i in np.unique(scan.instance[gt_moving])}
    pred_ids = {int(i) for i in np.unique(pred.instance[pred.moving])}
    merged = len(gt_ids) - len({int(i) for i in
                                np.unique(pred.instance[pred.moving & gt_moving])})
    print(f"  {len(gt_ids)} true instances -> {len(pred_ids)} predicted ids "
          f"({max(merged, 0)} lost to merges/misses, "
          f"{len(pred_ids - gt_ids)} spurious)")

    if args.svg:
        from radfiner.cli import _scan_svg
        with open(args.svg, "w") as fh:
            fh.write(_scan_svg(scan))
        print(f"\nwrote {args.svg}")


if __name__ == "__main__":
    main()
