"""The point classification network.

Architecture, widths D1 (block 1) and D2 (block 2):

  embed     5 -> D1            MLP, linear-GELU-linear
  block 1   D1 -> D1           pre-MLP, radius attention, residual, post-MLP
  block 2   D1 -> D2           same, pre-MLP raises the width
  heads     D2 -> D2 -> H1     three MLPs, each linear-BN-GELU-linear,
            H1 -> H1 -> H2     the last one halving the width before the
            H2 -> H3 -> C      C-way logits

with H1, H2, H3 = D2/2, D2/4, D2/8 and C = scans.NUM_CLASSES (static
plus the five moving classes).  Every MLP is one `MLP` class: embed,
pre and post build it without the norm, the heads with `head_norm`.

Both transformer blocks share one neighborhood (the ball query depends
only on coordinates).  The residual sits around the attention:
post_mlp(attention(pre_mlp(x)) + pre_mlp(x)).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import autodiff as ad
from . import checkpoint
from .attention import RadiusAttention
from .autodiff import Tensor
from .errors import ConfigError
from .layers import BatchNorm, Linear, Module
from .neighborhood import Neighborhood, ball_query
from .scans import N_FEATURES, NUM_CLASSES

HEAD_NORMS = ("bn", "none")
# widest d1/d2 a config may ask for: 16x the paper's 256, where head 1's
# d2 x d2 weight matrix alone is already 128 MB of float64
MAX_WIDTH = 4096
# most neighbor slots a config may ask for: 10x the paper's 24; every
# anchor carries each slot through both attention layers
MAX_NEIGHBORS = 256


@dataclass(frozen=True)
class NetworkConfig:
    d1: int = 64                 # embedding and block 1 width
    d2: int = 256                # block 2 width; the heads halve it three times
    radius: float = 5.0
    n_max: int = 24
    head_norm: str = "bn"
    seed: int = 0

    def __post_init__(self):
        for name in ("d1", "d2"):
            if not 1 <= getattr(self, name) <= MAX_WIDTH:
                raise ConfigError(f"{name} must be in [1, {MAX_WIDTH}], "
                                  f"got {getattr(self, name)}")
        if self.radius <= 0.0:
            raise ConfigError(f"radius must be positive, got {self.radius}")
        if not 1 <= self.n_max <= MAX_NEIGHBORS:
            raise ConfigError(f"nmax must be in [1, {MAX_NEIGHBORS}], got {self.n_max}")
        if self.head_norm not in HEAD_NORMS:
            raise ConfigError(f"head_norm must be one of {HEAD_NORMS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def head_widths(self) -> tuple[int, int, int]:
        """H1, H2, H3: d2/2, d2/4 and d2/8, each at least 1."""
        h1 = max(self.d2 // 2, 1)
        h2 = max(h1 // 2, 1)
        return h1, h2, max(h2 // 2, 1)


class MLP(Module):
    """linear -> [BN] -> GELU -> linear; `norm` is "bn" or "none".

    With the norm present the first linear drops its bias: BN's beta
    would absorb it, leaving a parameter with an identically zero
    gradient.
    """

    def __init__(self, name: str, d_in: int, d_mid: int, d_out: int,
                 rng: np.random.Generator, norm: str):
        self.lin1 = Linear(f"{name}.lin1", d_in, d_mid, rng, bias=(norm != "bn"))
        self.bn = BatchNorm(f"{name}.bn", d_mid) if norm == "bn" else None
        self.lin2 = Linear(f"{name}.lin2", d_mid, d_out, rng)

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        h = self.lin1(x)
        if self.bn is not None:
            h = self.bn(h, training=training)
        return self.lin2(ad.gelu(h))

    def infer(self, x: np.ndarray) -> np.ndarray:
        h = self.lin1.infer(x, self.bn)
        h *= 0.5 * (1.0 + erf(h * np.float32(np.sqrt(0.5))))  # exact GELU, as the tape's
        return self.lin2.infer(h)


class TransformerBlock(Module):
    def __init__(self, name: str, d_in: int, d_model: int, rng: np.random.Generator):
        self.pre = MLP(f"{name}.pre", d_in, d_model, d_model, rng, "none")
        self.attn = RadiusAttention(f"{name}.attn", d_model, rng)
        self.post = MLP(f"{name}.post", d_model, d_model, d_model, rng, "none")

    def __call__(self, x: Tensor, nb: Neighborhood, training: bool) -> Tensor:
        h = self.pre(x)
        return self.post(self.attn(h, nb, training) + h)

    def infer(self, x: np.ndarray, nb: Neighborhood) -> np.ndarray:
        h = self.pre.infer(x)
        return self.post.infer(self.attn.infer(h, nb) + h)


class RadFinerNet(Module):
    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        h1, h2, h3 = config.head_widths()
        self.embed = MLP("embed", N_FEATURES, config.d1, config.d1, rng, "none")
        self.block1 = TransformerBlock("block1", config.d1, config.d1, rng)
        self.block2 = TransformerBlock("block2", config.d1, config.d2, rng)
        self.head1 = MLP("head1", config.d2, config.d2, h1, rng, config.head_norm)
        self.head2 = MLP("head2", h1, h1, h2, rng, config.head_norm)
        self.head3 = MLP("head3", h2, h3, NUM_CLASSES, rng, config.head_norm)

    # -- forward ---------------------------------------------------------
    def _conditioned(self, coords: np.ndarray, features: np.ndarray,
                     nb: Neighborhood | None):
        """Validate input and apply the constant preprocessing: the
        ground-plane columns are shifted to the sample centroid (the
        class of an object does not depend on where in the field of view
        it sits) and every column is scaled to roughly unit range.  Not
        part of the differentiated graph."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != N_FEATURES:
            raise ConfigError(f"features must be (N, {N_FEATURES}), got {features.shape}")
        if len(features) == 0:
            return features, nb
        if nb is None:
            nb = ball_query(coords, self.config.radius, self.config.n_max)
        if nb.n_points != len(features):
            raise ConfigError("neighborhood does not match feature count")
        features = features.copy()
        features[:, 0:2] -= features[:, 0:2].mean(axis=0)
        features *= 0.1
        return features, nb

    def forward(self, coords: np.ndarray, features: np.ndarray,
                training: bool = False, nb: Neighborhood | None = None) -> Tensor:
        """Per-point class logits in float64.

        Training mode records the autodiff tape (training and gradient
        checking).  The eval forward (training=False) is tape-free: it
        runs under `autodiff.no_grad` on the running statistics and is
        the float64 reference of `infer`, the fast evaluation path.
        """
        features, nb = self._conditioned(coords, features, nb)
        if len(features) == 0:
            return Tensor(np.zeros((0, NUM_CLASSES)))
        with contextlib.nullcontext() if training else ad.no_grad():
            x = self.embed(Tensor(features))
            x = self.block1(x, nb, training)
            x = self.block2(x, nb, training)
            x = self.head1(x, training)
            x = self.head2(x, training)
            return self.head3(x, training)

    def infer(self, coords: np.ndarray, features: np.ndarray,
              nb: Neighborhood | None = None) -> np.ndarray:
        """Eval-mode logits in single precision without the tape.

        Same architecture and running statistics as
        forward(training=False); differs only in float precision, in
        each eval-mode norm folded into the linear map beside it, and in
        the attention running over padded tiles of anchors rather than
        over runs of selected pairs.  This is what evaluation and
        benchmarks run.
        """
        features, nb = self._conditioned(coords, features, nb)
        if len(features) == 0:
            return np.zeros((0, NUM_CLASSES), dtype=np.float32)
        x = self.embed.infer(features.astype(np.float32))
        x = self.block1.infer(x, nb)
        x = self.block2.infer(x, nb)
        x = self.head1.infer(x)
        x = self.head2.infer(x)
        return self.head3.infer(x)

    def predict(self, coords: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Inference-mode class codes; argmax ties resolve to the lowest code."""
        return np.argmax(self.infer(coords, features), axis=1).astype(np.int64)

    # -- state and checkpoints -------------------------------------------
    def state_entries(self) -> dict[str, np.ndarray]:
        """Checkpoint name -> the live array, for saving and loading alike."""
        entries = {p.name: p.data for p in self.params()}
        for bn in self.bn_layers():
            entries[f"{bn.name}.running_mean"] = bn.running_mean
            entries[f"{bn.name}.running_var"] = bn.running_var
        return entries

    def save(self, path) -> None:
        checkpoint.save_entries(path, self.state_entries())

    def load_entries(self, entries: dict[str, np.ndarray]) -> None:
        """Load every entry in place; a missing, extra or misshapen one is a ConfigError."""
        expected = self.state_entries()
        missing = sorted(set(expected) - set(entries))
        extra = sorted(set(entries) - set(expected))
        if missing or extra:
            raise ConfigError(
                f"checkpoint mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
        for name, target in expected.items():
            value = np.asarray(entries[name], dtype=np.float64)
            if value.shape != target.shape:
                raise ConfigError(
                    f"checkpoint shape for {name}: {value.shape} != {target.shape}")
            target[...] = value

    @classmethod
    def load(cls, path, config: NetworkConfig) -> "RadFinerNet":
        net = cls(config)
        net.load_entries(checkpoint.load_entries(path))
        return net


def toy_config(**overrides) -> NetworkConfig:
    """Small widths for gradient checking; full architecture preserved.

    Head norm is off here: a norm layer makes the bias of the linear
    map feeding it (even across module boundaries) mathematically
    inert, and finite differences cannot meaningfully compare an
    exactly-zero gradient against float noise.  The equation-level
    norms inside the attention layer stay on and are fully checked.
    """
    base = dict(d1=8, d2=16, radius=4.0, n_max=6, seed=0, head_norm="none")
    base.update(overrides)
    return NetworkConfig(**base)
