"""Finite-difference verification of tape gradients.

Used both as a unit-test helper and behind the `gradcheck` CLI command:
perturb every parameter entry by +-h, compare (f(x+h)-f(x-h))/2h
against the analytic gradient, and report the worst relative error per
parameter.

At a kink (a ReLU input at exactly 0, a Lovász sort order that flips in
the step) the central difference averages two one-sided slopes and
matches neither.  On a smooth loss the one-sided differences
(f(x+h)-f(x))/h and (f(x)-f(x-h))/h differ by |f''| * h; where they
differ by more than `KINK_CURVATURE * h * max(1, |f(x)|)`, the entry is
taken as a kink and scored against whichever of the three differences
lies nearest the analytic value; the table counts the entries scored
against a one-sided one.  It still counts in `max_rel_error`, so a
subgradient that matches none of them fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Param
from .errors import ConfigError, NumericsError

# Largest |f''| per unit of loss that counts as curvature.  On the toy
# network's check (seeds 1-6, 2-20 points, h = 1e-5), in units of
# max(1, |f(x)|), the smooth entries read at most 1.6 (2.6 where a kink
# lies inside the step) and the ReLU inputs at exactly 0 at least 20.
KINK_CURVATURE = 5.0


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_param: dict[str, float] = field(default_factory=dict)
    kinks: dict[str, int] = field(default_factory=dict)

    def passed(self, tol: float) -> bool:
        return self.max_rel_error < tol

    def format_table(self) -> str:
        width = max((len(n) for n in self.per_param), default=10)
        lines = [f"{'parameter':<{width}}  max_rel_error"]
        for name in sorted(self.per_param):
            kinks = self.kinks.get(name, 0)
            mark = f"  kinks: {kinks}" if kinks else ""
            lines.append(f"{name:<{width}}  {self.per_param[name]:.3e}{mark}")
        lines.append(f"{'WORST':<{width}}  {self.max_rel_error:.3e}")
        return "\n".join(lines)


def gradient_check(loss_fn, params: list[Param], h: float = 1e-5) -> GradCheckReport:
    """loss_fn() -> scalar Tensor, recomputed from current param values.

    The analytic pass must be deterministic given parameter values:
    anything stochastic (augmentation draws, dropout-style masks) has
    to be frozen inside loss_fn before calling this.
    """
    if not (h > 0.0 and np.isfinite(h)):
        raise ConfigError(f"finite-difference step h must be positive and finite, got {h}")
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    f0 = float(loss.data)
    if not np.isfinite(f0):
        raise NumericsError("gradcheck loss is non-finite")
    ad.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}
    kink_gap = KINK_CURVATURE * h * max(1.0, abs(f0))

    report = GradCheckReport(max_rel_error=0.0)
    for p in params:
        flat = p.data.reshape(-1)
        ana = analytic[p.name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f1 = float(loss_fn().data)
            flat[i] = orig - h
            f2 = float(loss_fn().data)
            flat[i] = orig
            if not (np.isfinite(f1) and np.isfinite(f2)):
                raise NumericsError(f"non-finite loss while perturbing {p.name}")
            num = (f1 - f2) / (2.0 * h)
            fwd, bwd = (f1 - f0) / h, (f0 - f2) / h
            side = min(fwd, bwd, key=lambda d: abs(ana[i] - d))
            if abs(fwd - bwd) > kink_gap and abs(ana[i] - side) < abs(ana[i] - num):
                num = side
                report.kinks[p.name] = report.kinks.get(p.name, 0) + 1
            denom = max(abs(ana[i]), abs(num), 1e-8)
            worst = max(worst, abs(ana[i] - num) / denom)
        report.per_param[p.name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
    return report


def full_network_check(config=None, seed: int = 1, n_points: int = 20,
                       h: float = 1e-5) -> GradCheckReport:
    """End-to-end check of every parameter tensor through the summed
    training objective on one small random sample.

    The sample recipe is fixed: coordinates uniform in [-3, 3]^2 so the
    cluster is dense under the default toy radius, RCS/Doppler normal
    with scale 10 (the network conditions its inputs by 0.1, so this
    keeps post-conditioning activations near unit size where the
    finite-difference step is accurate), random targets over all
    `NUM_CLASSES` classes and random instance groupings.  Norm layers run
    on batch statistics: a training forward updates the running
    estimates but never reads them, so every norm parameter participates
    and repeated forwards are bitwise identical.
    """
    from .losses import total_loss
    from .neighborhood import ball_query
    from .network import RadFinerNet, toy_config
    from .scans import NUM_CLASSES, feature_matrix

    if n_points < 1:
        raise ConfigError(f"gradcheck needs at least one point, got {n_points}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if config is None:
        config = toy_config()
    net = RadFinerNet(config)

    rng = np.random.default_rng(seed)
    coords = rng.uniform(-3.0, 3.0, (n_points, 2))
    rcs = rng.normal(size=n_points) * 10.0
    doppler = rng.normal(size=n_points) * 10.0
    features = feature_matrix(coords * 10.0, rcs, doppler)
    targets = rng.integers(0, NUM_CLASSES, n_points)
    instance_ids = rng.integers(0, 4, n_points)
    nb = ball_query(coords, config.radius, config.n_max)

    def loss_fn():
        logits = net.forward(coords, features, training=True, nb=nb)
        total, _ = total_loss(logits, targets, instance_ids)
        return total

    return gradient_check(loss_fn, net.params(), h=h)
