"""End-to-end value story at desk scale: score the raw backbone stand-in
with perfect majority voting, then train the classifier and show what
refinement adds on a held-out split.

    python demos/end_to_end.py            # ~3 min on one core
    python demos/end_to_end.py --fast     # smaller corpus, ~40 s
"""

import argparse

from radfiner.metrics import format_report, panoptic_quality
from radfiner.network import NetworkConfig, RadFinerNet
from radfiner.pipeline import evaluate_split
from radfiner.synthdata import (SceneConfig, SurrogateConfig, generate_corpus,
                                surrogate_corpus)
from radfiner.training import AugmentConfig, TrainConfig, train


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fast", action="store_true")
    args = ap.parse_args()
    n_train, n_test, epochs = (60, 20, 10) if args.fast else (250, 50, 40)

    eps = dict(eps_boundary=0.15, eps_clutter=0.2, eps_merge=0.2, eps_miss=0.05)
    train_scans = generate_corpus(SceneConfig(seed=1), n_train)
    test_scans = generate_corpus(SceneConfig(seed=2), n_test)
    train_preds = surrogate_corpus(train_scans, SurrogateConfig(seed=3, **eps))
    test_preds = surrogate_corpus(test_scans, SurrogateConfig(seed=4, **eps))

    print(f"{n_train} train / {n_test} test scans; backbone stand-in at "
          f"boundary 0.15, clutter 0.2, merge 0.2, miss 0.05\n")

    base = evaluate_split(test_scans, test_preds, net=None)
    print("majority-true ceiling of the raw backbone output:")
    print(format_report(base))

    net = RadFinerNet(NetworkConfig(d1=32, d2=64, seed=0))
    tcfg = TrainConfig(epochs=epochs, batch_size=4, lr=0.001,
                       lr_drop_epoch=max(int(epochs * 0.8), 1), seed=0)
    print(f"\ntraining d1=32/d2=64 for {epochs} epochs ...")
    net, hist = train(train_scans, net, tcfg, AugmentConfig())
    print(f"  loss {hist[0]['total']:.3f} -> {hist[-1]['total']:.3f}")

    unref = evaluate_split(test_scans, test_preds, net=net, refine=False)
    ref = evaluate_split(test_scans, test_preds, net=net, refine=True)
    print("\nclassifier + majority vote (grouping untouched):")
    print(format_report(unref))
    print("\nclassifier + split refinement:")
    print(format_report(ref))

    pq = [panoptic_quality(s)[1] for s in (base, unref, ref)]
    print(f"\nPQ: backbone ceiling {pq[0]:.3f}  ->  classified {pq[1]:.3f}"
          f"  ->  refined {pq[2]:.3f}   (refinement margin {pq[2] - pq[0]:+.3f})")


if __name__ == "__main__":
    main()
