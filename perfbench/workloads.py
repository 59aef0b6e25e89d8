"""The three workloads: inputs made from the seed, one closed-loop op,
output checks and the span targets of the traced run.

Every op calls the program through the module attribute its own callers
use (`pipeline.predict_panoptic`, `rscans.load_scans`, ...), so a traced
run that replaces those attributes sees the same calls the timed run
makes.  Checks run after the timed loop, on outputs kept in memory.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from radfiner import autodiff, configio, pipeline, training
from radfiner import network as rnetwork
from radfiner import scans as rscans
from radfiner.metrics import PanopticStats
from radfiner.network import RadFinerNet
from radfiner.neighborhood import ball_query, ball_query_bruteforce
from radfiner.synthdata import generate_corpus, surrogate_corpus

from tracing import Tracer, tape_size

# tolerance of tests/test_network.py::test_infer_matches_tape_forward
INFER_RTOL, INFER_ATOL = 1e-3, 1e-4
# float64 training over one epoch: reordered sums move the loss by far
# less than this, a changed gradient by far more
LOSS_RTOL = 1e-6
CHECK_SCANS = 3

SCALES = {
    # crowded: scans per block (criterion 8 uses 20) and blocks per pass;
    # sparse: split size and setup-training scans; desk: training pool and
    # scans per train() call
    "full": dict(crowded=20, crowded_blocks=4, sparse_split=60, sparse_train=64,
                 desk_pool=480, desk_chunk=32),
    "tiny": dict(crowded=2, crowded_blocks=2, sparse_split=4, sparse_train=4,
                 desk_pool=8, desk_chunk=4),
}

REFERENCE_FILE = Path(__file__).with_name("reference_losses.json")

SPANS = (
    "scans.select_moving", "neighborhood.ball_query", "network.infer",
    "network.embed", "network.block1", "network.block1.attn",
    "network.block2", "network.block2.attn", "network.heads",
    "refinement.refine_instances", "refinement.assemble_panoptic",
    "metrics.scan_stats", "scans.load_scans", "scans.load_predictions",
    "pipeline.evaluate_split", "training.augment_scan", "network.forward",
    "losses.total_loss", "autodiff.backward", "losses.consistency_hard",
    "optim.step", "checkpoint.save",
)

# spans that wrap other spans around glue code: their self time is
# whatever their children do not cover
ENCLOSING_SPANS = ("network.infer", "pipeline.evaluate_split")


def sub_seed(seed: int, tag: int) -> int:
    """Independent derived seed, so the inputs of one workload never
    repeat those of another."""
    return int(np.random.SeedSequence((int(seed), tag)).generate_state(1)[0])


def check_panoptic(scan, pred, pan) -> str | None:
    """Panoptic invariants of one refined scan: static points carry id 0,
    every id has one class, and no id spans two backbone instances."""
    if pan.scan_id != scan.scan_id or len(pan.sem) != len(scan):
        return f"scan {scan.scan_id}: output does not align with its scan"
    if np.any(pan.instance[pan.sem == 0] != 0):
        return f"scan {scan.scan_id}: static point with nonzero id"
    ids = pan.instance
    for iid in np.unique(ids[ids > 0]):
        member = ids == iid
        if np.unique(pan.sem[member]).size != 1:
            return f"scan {scan.scan_id}: id {iid} carries two classes"
        if np.unique(pred.instance[member]).size != 1:
            return f"scan {scan.scan_id}: id {iid} spans two backbone instances"
    return None


def check_layers(net: RadFinerNet, coords, feats) -> list[str]:
    """The fast paths against their references: `infer` against the tape
    forward in eval mode, `ball_query` against the brute-force oracle."""
    errors = []
    if len(coords) == 0:
        return errors
    fast = ball_query(coords, net.config.radius, net.config.n_max)
    slow = ball_query_bruteforce(coords, net.config.radius, net.config.n_max)
    if not (np.array_equal(fast.indices, slow.indices)
            and np.array_equal(fast.valid, slow.valid)
            and np.array_equal(fast.rel_pos, slow.rel_pos)):
        errors.append(f"ball_query differs from brute force on {len(coords)} points")
    with autodiff.no_grad():
        ref = net.forward(coords, feats, training=False).data
    got = net.infer(coords, feats)
    if got.shape != ref.shape or not np.allclose(got, ref, rtol=INFER_RTOL,
                                                 atol=INFER_ATOL):
        worst = float(np.max(np.abs(got - ref))) if got.shape == ref.shape else float("inf")
        errors.append(f"infer differs from forward(training=False) by up to {worst:.3g}")
    return errors


def _infer_spans(tracer: Tracer, net: RadFinerNet) -> None:
    tracer.patch("network.infer", net, "infer")
    tracer.patch("network.embed", getattr(net, "embed", None), "infer")
    for block in ("block1", "block2"):
        mod = getattr(net, block, None)
        tracer.patch(f"network.{block}", mod, "infer")
        tracer.patch(f"network.{block}.attn", getattr(mod, "attn", None), "infer")
    for head in ("head1", "head2", "head3"):
        tracer.patch("network.heads", getattr(net, head, None), "infer")


def _count_neighbors(tracer: Tracer):
    def after(nb):
        tracer.count("neighborhood.calls", 1)
        tracer.count("neighborhood.points", nb.valid.shape[0])
        tracer.count("neighborhood.valid_slots", int(nb.valid.sum()))
        tracer.count("neighborhood.slots", nb.valid.size)
    return after


def _pipeline_spans(tracer: Tracer) -> None:
    tracer.patch("scans.select_moving", pipeline, "select_moving")
    tracer.patch("neighborhood.ball_query", rnetwork, "ball_query",
                 after=_count_neighbors(tracer))
    tracer.patch("refinement.refine_instances", pipeline, "refine_instances")
    tracer.patch("refinement.assemble_panoptic", pipeline, "assemble_panoptic")
    tracer.patch("metrics.scan_stats", pipeline, "scan_stats")


class Workload:
    name = ""
    pass_ops = 1  # ops per pass over the input set; runs end on a pass boundary

    def __init__(self, root: Path, seed: int, scale: str, work_dir: Path):
        self.root = Path(root)
        self.seed = int(seed)
        self.size = SCALES[scale]
        self.scale = scale
        self.work_dir = Path(work_dir)
        self.notes: dict = {}

    def config(self, name: str) -> dict[str, str]:
        return configio.load_config(self.root / "configs" / name)

    def setup(self) -> None:
        """Build every input from the seed and warm up; timed as setup_s."""
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def units(self, k: int) -> int:
        """Scans one op processes."""
        return 1

    def check_op(self, k: int, out) -> str | None:
        return None

    def timing_notes(self, ks: list[int], times: list[float]) -> dict:
        """Notes on the raw op times of the untraced phase."""
        return {}

    def check_run(self) -> list[str]:
        """Checks on the run as a whole; any failure fails every op."""
        return []

    def install_spans(self, tracer: Tracer) -> None:
        raise NotImplementedError


class InferCrowded(Workload):
    """One scan per op, cycling over blocks of criterion-8 scans.  Block 0
    is criterion 8's scan set for the seed; the other blocks are drawn from
    the same distribution, so that one pass's cost varies less by seed."""

    name = "infer-crowded"

    def setup(self):
        mapping = self.config("bench.cfg")
        self.scans, self.preds = [], []
        for block in range(self.size["crowded_blocks"]):
            seed = self.seed if block == 0 else sub_seed(self.seed, 10 + block)
            scans = generate_corpus(configio.scene_config(mapping, seed=seed),
                                    self.size["crowded"])
            self.scans += scans
            self.preds += surrogate_corpus(scans,
                                           configio.surrogate_config(mapping, seed=seed))
        self.net = RadFinerNet(configio.net_config(mapping))
        self.pass_ops = len(self.scans)
        for k in range(min(8, len(self.scans))):
            self.op(k)

    def op(self, k):
        i = k % len(self.scans)
        return pipeline.predict_panoptic(self.net, self.scans[i], self.preds[i])

    def check_op(self, k, out):
        i = k % len(self.scans)
        return check_panoptic(self.scans[i], self.preds[i], out)

    def timing_notes(self, ks, times):
        block0 = [t for k, t in zip(ks, times) if k % len(self.scans) < self.size["crowded"]]
        return {"criterion8_block_raw_mean_ms": 1e3 * float(np.mean(block0))}

    def check_run(self):
        errors = []
        for scan, pred in list(zip(self.scans, self.preds))[:CHECK_SCANS]:
            coords, feats, _ = rscans.select_moving(scan, pred)
            errors += check_layers(self.net, coords, feats)
        return errors

    def install_spans(self, tracer):
        _pipeline_spans(tracer)
        _infer_spans(tracer, self.net)


class EvalSparse(Workload):
    """Load a written split and score it with refinement, one op per split."""

    name = "eval-sparse"

    def setup(self):
        mapping = self.config("desk.cfg")
        train_scans = generate_corpus(
            configio.scene_config(mapping, seed=sub_seed(self.seed, 1)),
            self.size["sparse_train"])
        self.net = RadFinerNet(configio.net_config(mapping))
        training.train(train_scans, self.net, configio.train_config(mapping, epochs=1),
                       configio.augment_config(mapping))
        self.scans = generate_corpus(
            configio.scene_config(mapping, seed=sub_seed(self.seed, 2)),
            self.size["sparse_split"])
        self.preds = surrogate_corpus(
            self.scans, configio.surrogate_config(mapping, seed=sub_seed(self.seed, 3)))
        split = self.work_dir / "eval-sparse"
        split.mkdir(parents=True, exist_ok=True)
        self.scans_path = split / "scans.txt"
        self.preds_path = split / "surrogate.txt"
        rscans.save_scans(self.scans, self.scans_path)
        rscans.save_predictions(self.preds, self.preds_path)
        self.op(0)

    def op(self, k):
        scans = rscans.load_scans(self.scans_path)
        preds = rscans.load_predictions(self.preds_path)
        return pipeline.evaluate_split(scans, preds, self.net, refine=True, workers=1)

    def units(self, k):
        return len(self.scans)

    def check_run(self):
        """Score the in-memory split scan by scan, checking each refined
        scan, into the reference every op's stats must equal."""
        errors = []
        stats = PanopticStats()
        for i, (scan, pred) in enumerate(zip(self.scans, self.preds)):
            pan = pipeline.predict_panoptic(self.net, scan, pred, refine=True)
            err = check_panoptic(scan, pred, pan)
            if err:
                errors.append(err)
            stats.merge(pipeline.score_scan(scan, pan))
            if i < CHECK_SCANS:
                coords, feats, _ = rscans.select_moving(scan, pred)
                errors += check_layers(self.net, coords, feats)
        self.reference = stats
        return errors

    def check_op(self, k, out):
        same = all(np.array_equal(getattr(out, f), getattr(self.reference, f))
                   for f in ("tp_iou", "tp", "fp", "fn", "confusion"))
        return None if same else "split stats differ from the scan-by-scan reference"

    def install_spans(self, tracer):
        _pipeline_spans(tracer)
        _infer_spans(tracer, self.net)
        tracer.patch("scans.load_scans", rscans, "load_scans")
        tracer.patch("scans.load_predictions", rscans, "load_predictions")
        tracer.patch("pipeline.evaluate_split", pipeline, "evaluate_split")


class TrainDesk(Workload):
    """train() with the desk recipe, one epoch over a new chunk of the
    pool per op, writing history and checkpoints as the CLI does."""

    name = "train-desk"

    def setup(self):
        mapping = self.config("desk.cfg")
        self.pool = generate_corpus(
            configio.scene_config(mapping, seed=sub_seed(self.seed, 4)),
            self.size["desk_pool"])
        self.net = RadFinerNet(configio.net_config(mapping))
        self.tcfg = configio.train_config(mapping, epochs=1)
        self.acfg = configio.augment_config(mapping)
        self.out_dir = self.work_dir / "train-desk"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        configio.write_net_config(self.out_dir / "net.cfg", self.net.config)
        self.first = self.op(0)

    def chunk(self, k):
        c = self.size["desk_chunk"]
        start = (k * c) % len(self.pool)
        return self.pool[start:start + c]

    def op(self, k):
        _, history = training.train(self.chunk(k), self.net, self.tcfg, self.acfg,
                                    out_dir=self.out_dir)
        return history

    def units(self, k):
        return len(self.chunk(k))

    def check_op(self, k, out):
        for row in out:
            for col in ("ce", "lovasz", "consistency", "total"):
                if not np.isfinite(row[col]):
                    return f"non-finite {col} loss in epoch {row['epoch']}"
        return None

    def check_run(self):
        errors = []
        refs = json.loads(REFERENCE_FILE.read_text())[self.scale]
        first = self
        if str(self.seed) not in refs:
            # no stored value for this seed: replay the reference seed
            first = TrainDesk(self.root, 0, self.scale, self.work_dir / "reference")
            first.setup()
        want = refs[str(first.seed)]
        got = first.first[-1]["total"]
        drift = abs(got - want) / abs(want)
        self.notes["loss_reference"] = {"seed": first.seed, "expected": want,
                                        "observed": got, "relative_drift": drift,
                                        "rtol": LOSS_RTOL}
        if not drift <= LOSS_RTOL:
            errors.append(f"final loss {got!r} drifted {drift:.3g} from the "
                          f"reference {want!r} of seed {first.seed}")
        for scan in self.pool[:CHECK_SCANS]:
            sample = training.augment_scan(scan, self.acfg,
                                           training.scan_rng(self.tcfg.seed, 1, scan.scan_id))
            errors += check_layers(self.net, sample.coords, sample.features)
        return errors

    def install_spans(self, tracer):
        def count_sample(sample):
            tracer.count("training.scans", 1)
            tracer.count("training.points", len(sample))

        def count_tape(args):
            tracer.count("autodiff.backward_calls", 1)
            tracer.count("autodiff.tape_nodes", tape_size(args[0]))

        tracer.patch("training.augment_scan", training, "augment_scan",
                     after=count_sample)
        tracer.patch("neighborhood.ball_query", training, "ball_query",
                     after=_count_neighbors(tracer))
        tracer.patch("network.forward", self.net, "forward")
        tracer.patch("losses.total_loss", training, "total_loss")
        tracer.patch("autodiff.backward", autodiff, "backward", before=count_tape)
        tracer.patch("losses.consistency_hard", training, "consistency_hard")
        tracer.patch("optim.step", training.AdamW, "step")
        tracer.patch("checkpoint.save", self.net, "save")


WORKLOADS = {w.name: w for w in (InferCrowded, EvalSparse, TrainDesk)}
