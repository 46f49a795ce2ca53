"""Shared builders for the test suite."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from dimsift import (
    Dataset,
    NoiseSpec,
    RegressionHead,
    Sample,
    SynthConfig,
    generate_synthetic,
)
from dimsift.data import teacher_head


# Odd strings for ids, dimension names and manifest keys: commas, quotes,
# backslashes, line breaks and non-ASCII text all survive the JSON escaping.
ODD_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def peak_traced_bytes(fn, *args) -> int:
    """Peak traced Python allocation while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def teacher_labels(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """The features and clean labels of cfg's whole corpus, drawn in one shot: the stream's oracle.

    The features, then the label noise, from default_rng(sample_seed); each
    label is the teacher's product plus its bias, plus the scaled noise. A
    one-dimension corpus's product is an einsum, as the library forms it.
    """
    w_star, b_star = teacher_head(cfg)
    rng = np.random.default_rng(cfg.sample_seed)
    features = rng.standard_normal((cfg.n_samples, cfg.feature_dim))
    noise = rng.standard_normal((cfg.n_samples, cfg.n_dims))
    product = np.einsum("ij,kj->ik", features, w_star) if cfg.n_dims == 1 else features @ w_star.T
    return features, product + b_star + noise * cfg.noise_vector()


def matrix_copy(ds):
    """ds as a dataset of user data: its features as a matrix and its ids as str.

    Such a dataset's row table keeps its feature column, where a synthetic
    corpus's rows stay in its sample stream, through select and file alike.
    """
    return Dataset(list(ds.ids), ds.features, ds.labels, ds.dim_names, ds.corruption_mask, ds.manifest)


def random_head(rng, n_dims, feature_dim, hidden_dim=None):
    """Random head, optionally with a shared hidden layer in front."""
    if hidden_dim is None:
        return RegressionHead(
            weights=rng.normal(size=(n_dims, feature_dim)),
            biases=rng.normal(size=n_dims),
        )
    return RegressionHead(
        weights=rng.normal(size=(n_dims, hidden_dim)),
        biases=rng.normal(size=n_dims),
        shared_weight=rng.normal(size=(hidden_dim, feature_dim)),
        shared_bias=rng.normal(size=hidden_dim),
    )


def random_sample(rng, feature_dim, n_dims, sid="z"):
    return Sample(sid, rng.normal(size=feature_dim), rng.normal(size=n_dims))


@pytest.fixture(scope="session")
def noisy_corpus():
    """400-sample corpus with 10% corruption in every dimension."""
    cfg = SynthConfig(400, 6, 3, label_noise_sd=0.1, teacher_seed=0, sample_seed=1)
    return NoiseSpec(rate=0.1, dims=tuple(range(3)), seed=2).apply(generate_synthetic(cfg))


@pytest.fixture(scope="session")
def clean_corpus():
    cfg = SynthConfig(250, 5, 3, label_noise_sd=0.05, teacher_seed=4, sample_seed=5)
    return generate_synthetic(cfg)
