"""Synthetic ratings and features with known truth.

The generative model is y_ij = mu + img_i + rater_j + eps_ij truncated
to [0, 100], with independent normal effects. When a feature dimension
is requested, image effects are an exact linear function of standard
normal feature vectors through the true weights, scaled so their
variance matches the requested image variance. Optional outlier raters
get a constant offset added before truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .ingest import FeatureTable, RatingsTable
from .rng import substream

__all__ = ["SynthSpec", "GroundTruth", "generate"]


@dataclass(frozen=True)
class SynthSpec:
    n_images: int
    n_raters: int
    var_image: float = 100.0
    var_rater: float = 25.0
    var_residual: float = 25.0
    mu: float = 50.0
    n_outliers: int = 0
    outlier_offset: float = 0.0
    feature_dim: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_images", "n_raters"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}", field=name)
        for name in ("var_image", "var_rater", "var_residual", "mu", "outlier_offset"):
            value = getattr(self, name)
            if not math.isfinite(value) or (name.startswith("var_") and value < 0):
                bound = " and >= 0" if name.startswith("var_") else ""
                raise InputError(f"{name} must be finite{bound}, got {value}", field=name)
        if not 0 <= self.n_outliers < self.n_raters:
            raise InputError("outlier count must be < n_raters", field="n_outliers")
        if self.feature_dim < 0:
            raise InputError("feature_dim must be >= 0", field="feature_dim")


@dataclass(frozen=True)
class GroundTruth:
    image_effects: dict[str, float]
    rater_effects: dict[str, float]
    outlier_ids: frozenset[str]
    weights: np.ndarray | None = field(default=None, compare=False)
    mu: float = 50.0


def _id(prefix: str, index: int, width: int) -> str:
    return f"{prefix}{index:0{width}d}"


def generate(spec: SynthSpec) -> tuple[RatingsTable, FeatureTable | None, GroundTruth]:
    """Draw a complete rating table (every rater rates every image once)."""
    img_width = max(3, len(str(spec.n_images - 1)))
    rat_width = max(3, len(str(spec.n_raters - 1)))
    image_ids = [_id("img", i, img_width) for i in range(spec.n_images)]
    rater_ids = [_id("p", j, rat_width) for j in range(spec.n_raters)]

    features: FeatureTable | None = None
    weights: np.ndarray | None = None
    if spec.feature_dim > 0:
        feat_rng = substream(spec.seed, "synth.features")
        X = feat_rng.standard_normal((spec.n_images, spec.feature_dim))
        w_rng = substream(spec.seed, "synth.weights")
        weights = w_rng.standard_normal(spec.feature_dim)
        norm = float(np.linalg.norm(weights))
        if norm == 0.0:
            weights = np.ones(spec.feature_dim)
            norm = float(np.sqrt(spec.feature_dim))
        img_effects = np.sqrt(spec.var_image) * (X @ weights) / norm
        features = FeatureTable.from_array(image_ids, X)
    else:
        img_rng = substream(spec.seed, "synth.image")
        img_effects = np.sqrt(spec.var_image) * img_rng.standard_normal(spec.n_images)

    rater_rng = substream(spec.seed, "synth.rater")
    rater_effects = np.sqrt(spec.var_rater) * rater_rng.standard_normal(spec.n_raters)

    outliers: frozenset[str] = frozenset()
    offsets = np.zeros(spec.n_raters)
    if spec.n_outliers > 0:
        pick_rng = substream(spec.seed, "synth.outliers")
        chosen = np.sort(pick_rng.choice(spec.n_raters, size=spec.n_outliers, replace=False))
        offsets[chosen] = spec.outlier_offset
        outliers = frozenset(rater_ids[j] for j in chosen)

    noise_rng = substream(spec.seed, "synth.noise")
    noise = np.sqrt(spec.var_residual) * noise_rng.standard_normal(
        (spec.n_images, spec.n_raters)
    )
    raw = spec.mu + img_effects[:, None] + rater_effects[None, :] + noise
    raw += offsets[None, :]
    values = np.clip(raw, 0.0, 100.0)

    # rater-major rows; zero-padded ids sort in index order
    table = RatingsTable.from_codes(
        rater_ids, np.repeat(np.arange(spec.n_raters), spec.n_images),
        image_ids, np.tile(np.arange(spec.n_images), spec.n_raters),
        np.ones(values.size, dtype=np.int64), values.T.reshape(-1),
    )
    truth = GroundTruth(
        image_effects={im: float(img_effects[i]) for i, im in enumerate(image_ids)},
        rater_effects={ra: float(rater_effects[j]) for j, ra in enumerate(rater_ids)},
        outlier_ids=outliers,
        weights=weights,
        mu=spec.mu,
    )
    return table, features, truth
