"""Per-dimension gradients, self-influence, and the disentangled matrix.

The load-bearing identities here are checked through two independent routes:
the closed form against explicitly assembled gradients, and the aggregated
scalar influence against the sum of the per-dimension matrix entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dimsift.influence as influence_mod
from conftest import random_head, random_sample
from dimsift import (
    Dataset,
    InfluenceConfig,
    RegressionHead,
    Sample,
    Scope,
    SynthConfig,
    disentangled_matrix,
    generate_synthetic,
    global_tracin_self,
    grad_per_dimension,
    inject_dimension_noise,
    row_sum_scores,
    scalar_influence,
    self_influence_closed_form,
    self_influence_explicit,
)
from dimsift.influence import SelfInfluenceTable, scope_dim


HEAD_CFG = InfluenceConfig(scope=Scope.HEAD_ONLY)
TWO_CFG = InfluenceConfig(scope=Scope.LAST_TWO_LAYERS)


def head_from_flat(theta, template, scope):
    """Rebuild a head from the documented flat parameter layout."""
    k, p = template.weights.shape
    sw, sb = template.shared_weight, template.shared_bias
    off = 0
    if scope is Scope.LAST_TWO_LAYERS:
        m, d = sw.shape
        sw = theta[: m * d].reshape(m, d)
        sb = theta[m * d : m * d + m]
        off = m * d + m
    weights = np.empty((k, p))
    biases = np.empty(k)
    for j in range(k):
        block = theta[off + j * (p + 1) : off + (j + 1) * (p + 1)]
        weights[j] = block[:p]
        biases[j] = block[p]
    return RegressionHead(weights=weights, biases=biases, shared_weight=sw, shared_bias=sb)


def flat_from_head(head, scope):
    parts = []
    if scope is Scope.LAST_TWO_LAYERS:
        parts += [head.shared_weight.ravel(), head.shared_bias]
    for j in range(head.n_dims):
        parts += [head.weights[j], head.biases[j : j + 1]]
    return np.concatenate(parts)


# ------------------------------------------------------------ raw gradients

def test_gradient_hand_case():
    # zero weights, bias 2, target 0: residual 2, head input (3, 4)
    head = RegressionHead(weights=np.zeros((2, 2)), biases=np.array([2.0, -1.0]))
    z = Sample("z", np.array([3.0, 4.0]), np.array([0.0, 0.0]))
    g = grad_per_dimension(head, z, HEAD_CFG)
    assert g.shape == (2, 6)
    assert np.array_equal(g[0], [6.0, 8.0, 2.0, 0.0, 0.0, 0.0])
    assert np.array_equal(g[1], [0.0, 0.0, 0.0, -3.0, -4.0, -1.0])


def test_gradient_zero_residual_row_is_zero():
    head = RegressionHead(weights=np.array([[1.0, 0.0], [0.0, 1.0]]), biases=np.zeros(2))
    z = Sample("z", np.array([3.0, 4.0]), np.array([3.0, 4.0]))
    assert np.all(grad_per_dimension(head, z, HEAD_CFG) == 0.0)


@pytest.mark.parametrize("scope,hidden", [(Scope.HEAD_ONLY, None), (Scope.HEAD_ONLY, 3), (Scope.LAST_TWO_LAYERS, 3)])
def test_gradient_matches_finite_differences(scope, hidden):
    rng = np.random.default_rng(12)
    head = random_head(rng, 3, 4, hidden)
    z = random_sample(rng, 4, 3)
    cfg = InfluenceConfig(scope=scope)
    analytic = grad_per_dimension(head, z, cfg)
    theta = flat_from_head(head, scope)
    assert theta.size == scope_dim(head, scope)
    h = 1e-6
    fd = np.zeros_like(analytic)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        for j in range(3):
            ru = head_from_flat(up, head, scope).predict(z.features)[j] - z.labels[j]
            rd = head_from_flat(down, head, scope).predict(z.features)[j] - z.labels[j]
            fd[j, i] = (0.5 * ru**2 - 0.5 * rd**2) / (2 * h)
    rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1.0)
    assert rel.max() < 1e-6


# ----------------------------------------------------------- self-influence

def test_closed_form_hand_case():
    # residual 2, features (3, 4): 4 * (9 + 16 + 1) = 104
    head = RegressionHead(weights=np.zeros((1, 2)), biases=np.array([2.0]))
    corpus_like = _one_sample_dataset(np.array([3.0, 4.0]), np.array([0.0]))
    table = self_influence_closed_form(head, corpus_like, HEAD_CFG)
    assert table.scores[0, 0] == pytest.approx(104.0, abs=1e-12)


def _one_sample_dataset(x, y):
    from dimsift import Dataset

    return Dataset(["a"], x[None, :], y[None, :], [f"dim{i}" for i in range(y.size)])


def test_closed_form_equals_explicit_gradient_norms(noisy_corpus):
    rng = np.random.default_rng(3)
    head = random_head(rng, 3, 6)
    fast = self_influence_closed_form(head, noisy_corpus, HEAD_CFG)
    slow = self_influence_explicit(head, noisy_corpus, HEAD_CFG)
    rel = np.abs(fast.scores - slow.scores) / np.maximum.reduce(
        [np.abs(fast.scores), np.abs(slow.scores), np.ones_like(fast.scores)]
    )
    assert rel.max() < 1e-12
    assert np.all(fast.scores >= 0.0)


def test_closed_form_head_only_scope_on_two_layer_head(noisy_corpus):
    # head-only scoring of a deeper model: closed form stays valid because the
    # head input just moves from x to the hidden representation
    rng = np.random.default_rng(4)
    head = random_head(rng, 3, 6, hidden_dim=5)
    fast = self_influence_closed_form(head, noisy_corpus, HEAD_CFG)
    slow = self_influence_explicit(head, noisy_corpus, HEAD_CFG)
    assert np.abs(fast.scores - slow.scores).max() < 1e-10 * max(1.0, np.abs(slow.scores).max())


def test_closed_form_rejects_two_layer_scope(noisy_corpus):
    rng = np.random.default_rng(5)
    head = random_head(rng, 3, 6, hidden_dim=5)
    with pytest.raises(ValueError):
        self_influence_closed_form(head, noisy_corpus, TWO_CFG)


def test_closed_form_never_assembles_gradients(noisy_corpus, monkeypatch):
    # the whole point of the closed form and the batched scorers is O(N d)
    # scoring without per-sample gradient vectors; fail loudly if one ever
    # falls back to them
    rng = np.random.default_rng(6)
    head = random_head(rng, 3, 6)
    shared = random_head(rng, 3, 6, hidden_dim=4)

    def boom(*args, **kwargs):
        raise AssertionError("batched scoring must not assemble gradients")

    monkeypatch.setattr(influence_mod, "grad_per_dimension", boom)
    table = self_influence_closed_form(head, noisy_corpus, HEAD_CFG)
    assert np.all(np.isfinite(table.scores))
    for score in (self_influence_explicit, global_tracin_self, row_sum_scores):
        for h, cfg in ((head, HEAD_CFG), (shared, TWO_CFG)):
            score(h, noisy_corpus, cfg)
    # the per-sample route still assembles them, so the patch is live
    with pytest.raises(AssertionError):
        disentangled_matrix(head, noisy_corpus.sample(0), noisy_corpus.sample(1), HEAD_CFG)


def test_self_influence_ignores_lambdas(noisy_corpus):
    rng = np.random.default_rng(7)
    head = random_head(rng, 3, 6)
    a = self_influence_closed_form(head, noisy_corpus, HEAD_CFG)
    b = self_influence_closed_form(head, noisy_corpus, InfluenceConfig(lambdas=(9.0, 1.0, 0.5)))
    assert np.array_equal(a.scores, b.scores)


# ------------------------------------------------------ disentangled matrix

def test_scalar_influence_equals_matrix_total():
    # the aggregated inner product must equal the sum of the K x K entries
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(40):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(3, 9))
        hidden = int(rng.integers(3, 7)) if trial % 2 else None
        scope = Scope.LAST_TWO_LAYERS if hidden else Scope.HEAD_ONLY
        head = random_head(rng, k, d, hidden)
        lam = rng.uniform(0.5, 2.0, size=k)
        cfg = InfluenceConfig(scope=scope, lambdas=tuple(lam))
        zt = random_sample(rng, d, k, "train")
        zv = random_sample(rng, d, k, "test")
        total = disentangled_matrix(head, zt, zv, cfg).total()
        scalar = scalar_influence(head, zt, zv, cfg)
        worst = max(worst, abs(total - scalar) / max(abs(total), abs(scalar), 1e-300))
    assert worst < 1e-10


def test_head_only_matrix_is_exactly_diagonal():
    rng = np.random.default_rng(9)
    head = random_head(rng, 4, 5)
    zt = random_sample(rng, 5, 4, "t")
    zv = random_sample(rng, 5, 4, "v")
    phi = disentangled_matrix(head, zt, zv, InfluenceConfig(lambdas=(1.0, 2.0, 0.5, 1.5))).phi
    off = phi[~np.eye(4, dtype=bool)]
    assert np.all(off == 0.0)


def test_two_layer_matrix_has_cross_dimension_mass():
    rng = np.random.default_rng(10)
    head = random_head(rng, 4, 5, hidden_dim=6)
    zt = random_sample(rng, 5, 4, "t")
    zv = random_sample(rng, 5, 4, "v")
    phi = disentangled_matrix(head, zt, zv, TWO_CFG).phi
    off = phi[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() > 1e-6


def test_matrix_diagonal_at_self_is_lambda_scaled_self_influence(noisy_corpus):
    rng = np.random.default_rng(11)
    head = random_head(rng, 3, 6)
    lam = np.array([2.0, 1.0, 0.25])
    cfg = InfluenceConfig(lambdas=tuple(lam))
    table = self_influence_closed_form(head, noisy_corpus, cfg)
    for i in [0, 7, 399]:
        z = noisy_corpus.sample(i)
        phi = disentangled_matrix(head, z, z, cfg).phi
        assert np.abs(np.diag(phi) - lam**2 * table.scores[i]).max() < 1e-9


def test_matrix_is_symmetric_in_train_and_test():
    rng = np.random.default_rng(13)
    head = random_head(rng, 3, 5, hidden_dim=4)
    za = random_sample(rng, 5, 3, "a")
    zb = random_sample(rng, 5, 3, "b")
    ab = disentangled_matrix(head, za, zb, TWO_CFG).phi
    ba = disentangled_matrix(head, zb, za, TWO_CFG).phi
    assert np.abs(ab - ba.T).max() < 1e-12


def test_scalar_influence_zero_residual_test_point():
    rng = np.random.default_rng(14)
    head = random_head(rng, 2, 4)
    zt = random_sample(rng, 4, 2, "t")
    x = rng.normal(size=4)
    zv = Sample("v", x, head.predict(x))  # fits the model exactly
    assert scalar_influence(head, zt, zv, HEAD_CFG) == pytest.approx(0.0, abs=1e-12)


def test_self_scalar_influence_is_nonnegative():
    rng = np.random.default_rng(15)
    for _ in range(20):
        head = random_head(rng, 3, 4, hidden_dim=3)
        z = random_sample(rng, 4, 3)
        assert scalar_influence(head, z, z, TWO_CFG) >= 0.0


def test_lambda_rescaling_scales_matrix_rows_and_columns():
    rng = np.random.default_rng(16)
    head = random_head(rng, 3, 4)
    zt = random_sample(rng, 4, 3, "t")
    zv = random_sample(rng, 4, 3, "v")
    base = disentangled_matrix(head, zt, zv, InfluenceConfig(lambdas=(1.0, 1.0, 1.0))).phi
    scaled = disentangled_matrix(head, zt, zv, InfluenceConfig(lambdas=(1.0, 3.0, 1.0))).phi
    expect = base * np.outer([1.0, 3.0, 1.0], [1.0, 3.0, 1.0])
    assert np.abs(scaled - expect).max() < 1e-12


# ------------------------------------------------------- aggregate scores

def test_global_tracin_is_lambda_weighted_score_sum(noisy_corpus):
    rng = np.random.default_rng(17)
    head = random_head(rng, 3, 6)
    lam = np.array([1.5, 1.0, 0.5])
    cfg = InfluenceConfig(lambdas=tuple(lam))
    table = self_influence_closed_form(head, noisy_corpus, cfg)
    g = global_tracin_self(head, noisy_corpus, cfg)
    assert np.abs(g - table.scores @ lam**2).max() < 1e-9


def test_table_global_scores_hold_for_head_only_tables(noisy_corpus):
    rng = np.random.default_rng(20)
    cfg = InfluenceConfig(lambdas=(1.5, 1.0, 0.5))
    head = random_head(rng, 3, 6)
    table = self_influence_explicit(head, noisy_corpus, cfg)
    g = global_tracin_self(head, noisy_corpus, cfg)
    assert np.allclose(table.global_scores(), g, rtol=1e-12, atol=0.0)
    shared = random_head(rng, 3, 6, hidden_dim=4)
    cfg = InfluenceConfig(scope=Scope.LAST_TWO_LAYERS)
    with pytest.raises(ValueError, match="last_two_layers"):
        self_influence_explicit(shared, noisy_corpus, cfg).global_scores()


def test_row_sums_head_only_reduce_to_scaled_self_influence(noisy_corpus):
    rng = np.random.default_rng(18)
    head = random_head(rng, 3, 6)
    lam = np.array([1.5, 1.0, 0.5])
    cfg = InfluenceConfig(lambdas=tuple(lam))
    rows = row_sum_scores(head, noisy_corpus, cfg)
    table = self_influence_closed_form(head, noisy_corpus, cfg)
    assert np.abs(rows - lam**2 * table.scores).max() < 1e-9


def test_row_sums_two_layer_match_matrix_rows(noisy_corpus):
    rng = np.random.default_rng(19)
    head = random_head(rng, 3, 6, hidden_dim=4)
    rows = row_sum_scores(head, noisy_corpus, TWO_CFG)
    for i in [0, 123]:
        z = noisy_corpus.sample(i)
        phi = disentangled_matrix(head, z, z, TWO_CFG).phi
        assert np.abs(rows[i] - phi.sum(axis=1)).max() < 1e-9


def _oracle_sums(head, ds, cfg):
    """Self-influence, global and row-sum scores summed from per-sample gradients,
    with the sum of the absolute terms behind each entry as its error scale."""
    lam = cfg.resolved_lambdas(head.n_dims)
    out = {name: ([], []) for name in ("explicit", "global", "row_sum")}
    for i in range(len(ds)):
        g = grad_per_dimension(head, ds.sample(i), cfg)
        terms = np.outer(lam, lam) * (g @ g.T)
        for name, value, scale in (
            ("explicit", (g * g).sum(axis=1), (g * g).sum(axis=1)),
            ("global", float((lam @ g) @ (lam @ g)), np.abs(terms).sum()),
            ("row_sum", terms.sum(axis=1), np.abs(terms).sum(axis=1)),
        ):
            out[name][0].append(value)
            out[name][1].append(scale)
    return {name: (np.array(v), np.array(s)) for name, (v, s) in out.items()}


# Values are 0 or at least 1e-3 in magnitude, so no product reaches the
# subnormal range, where a relative tolerance cannot hold.
_finite = st.just(0.0) | st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3)


@st.composite
def _scoring_cases(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    hidden = draw(st.none() | st.integers(1, 5))
    scope = Scope.HEAD_ONLY if hidden is None else draw(st.sampled_from(Scope))
    width = d if hidden is None else hidden
    head = RegressionHead(
        weights=draw(hnp.arrays(np.float64, (k, width), elements=_finite)),
        biases=draw(hnp.arrays(np.float64, k, elements=_finite)),
        shared_weight=None if hidden is None else draw(hnp.arrays(np.float64, (hidden, d), elements=_finite)),
        shared_bias=None if hidden is None else draw(hnp.arrays(np.float64, hidden, elements=_finite)),
    )
    ds = Dataset(
        [f"s{i}" for i in range(n)],
        draw(hnp.arrays(np.float64, (n, d), elements=_finite)),
        draw(hnp.arrays(np.float64, (n, k), elements=_finite)),
        [f"dim{j}" for j in range(k)],
    )
    lam = draw(st.lists(st.just(0.0) | st.floats(1e-3, 4.0), min_size=k, max_size=k))
    return head, ds, InfluenceConfig(scope=scope, lambdas=tuple(lam))


@settings(max_examples=150, deadline=None)
@given(_scoring_cases())
def test_batched_scores_equal_gradient_oracle(case):
    head, ds, cfg = case
    want = _oracle_sums(head, ds, cfg)
    got = {
        "explicit": self_influence_explicit(head, ds, cfg).scores,
        "global": global_tracin_self(head, ds, cfg),
        "row_sum": row_sum_scores(head, ds, cfg),
    }
    for name, (value, scale) in want.items():
        assert got[name].shape == value.shape, name
        assert np.all(np.abs(got[name] - value) <= 1e-10 * scale), name


def test_zero_lambda_silences_a_dimension(noisy_corpus):
    rng = np.random.default_rng(20)
    head = random_head(rng, 3, 6, hidden_dim=4)
    cfg = InfluenceConfig(scope=Scope.LAST_TWO_LAYERS, lambdas=(1.0, 0.0, 1.0))
    rows = row_sum_scores(head, noisy_corpus, cfg)
    assert np.all(rows[:, 1] == 0.0)


# ------------------------------------------------------------------- io

def test_score_table_round_trips(noisy_corpus, tmp_path):
    rng = np.random.default_rng(21)
    head = random_head(rng, 3, 6)
    table = self_influence_closed_form(head, noisy_corpus, HEAD_CFG)
    path = tmp_path / "scores.jsonl"
    table.to_jsonl(path)
    back = SelfInfluenceTable.load(path)
    assert np.array_equal(back.scores, table.scores)
    assert back.sample_ids == table.sample_ids
    assert back.dim_names == table.dim_names
    assert back.scope == table.scope
    assert np.array_equal(back.lambdas, table.lambdas)


def test_score_table_csv_layout(noisy_corpus, tmp_path):
    rng = np.random.default_rng(22)
    head = random_head(rng, 3, 6)
    table = self_influence_closed_form(head, noisy_corpus, HEAD_CFG)
    path = tmp_path / "scores.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,dim,score"
    assert len(lines) == 1 + 400 * 3
    sid, dim, score = lines[1].split(",")
    assert sid == noisy_corpus.ids[0] and dim == "dim0"
    assert float(score) == table.scores[0, 0]
