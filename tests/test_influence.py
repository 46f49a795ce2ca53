"""Per-dimension gradients, self-influence, and the disentangled matrix.

The load-bearing identities here are checked through two independent routes:
the closed form against explicitly assembled gradients, and the aggregated
scalar influence against the sum of the per-dimension matrix entries.
"""

import locale
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dimsift.data as data_mod
import dimsift.influence as influence_mod
from conftest import ODD_TEXT, matrix_copy, peak_traced_bytes, random_head, random_sample
from dimsift import (
    DataError,
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
from dimsift.influence import SelfInfluenceTable, scope_dim, self_and_global_scores


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
    slow = _oracle_sums(head, noisy_corpus, HEAD_CFG)["explicit"][0]
    rel = np.abs(fast.scores - slow) / np.maximum.reduce(
        [np.abs(fast.scores), np.abs(slow), np.ones_like(slow)]
    )
    assert rel.max() < 1e-12
    assert np.all(fast.scores >= 0.0)


def test_closed_form_head_only_scope_on_two_layer_head(noisy_corpus):
    # head-only scoring of a deeper model: closed form stays valid because the
    # head input just moves from x to the hidden representation
    rng = np.random.default_rng(4)
    head = random_head(rng, 3, 6, hidden_dim=5)
    fast = self_influence_closed_form(head, noisy_corpus, HEAD_CFG)
    slow = _oracle_sums(head, noisy_corpus, HEAD_CFG)["explicit"][0]
    assert np.abs(fast.scores - slow).max() < 1e-10 * max(1.0, np.abs(slow).max())


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


def test_score_table_is_read_only_and_ranks_once_per_rho(noisy_corpus):
    head = random_head(np.random.default_rng(7), 3, 6)
    table = self_influence_explicit(head, noisy_corpus, HEAD_CFG)
    with pytest.raises(ValueError):
        table.scores[0, 0] = 1.0
    assert table.top_sets(0.05) is table.top_sets(0.05)
    assert table.top_sets(0.1).shape == (3, 40)


def test_score_table_refuses_repeated_dimension_names():
    with pytest.raises(ValueError, match="repeated dimension name 'b'"):
        SelfInfluenceTable(np.ones((2, 3)), ["s0", "s1"], ["b", "a", "b"], Scope.HEAD_ONLY, np.ones(3))


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


def _one_expression_scores(head, ds, cfg):
    """The batched scores written as single expressions, one temporary per operation."""
    x = ds.features
    u = head.head_inputs(x)
    r = u @ head.weights.T + head.biases - ds.labels
    b = np.einsum("ij,ij->i", u, u) + 1.0
    two = cfg.scope == Scope.LAST_TWO_LAYERS
    a = np.einsum("ij,ij->i", x, x) + 1.0 if two else np.zeros(len(ds))
    gram = head.weights @ head.weights.T
    rho = cfg.resolved_lambdas(head.n_dims) * r
    glob = np.einsum("ij,ij->i", rho, rho) * b
    if two:
        v = rho @ head.weights
        glob += np.einsum("ij,ij->i", v, v) * a
    return {
        "explicit": r * r * (np.diag(gram) * a[:, None] + b[:, None]),
        "global": glob,
        "row_sum": rho * ((rho @ gram) * a[:, None] + rho * b[:, None]) if two else rho * b[:, None] * rho,
    }


@settings(max_examples=150, deadline=None)
@given(_scoring_cases())
def test_in_place_scores_are_the_one_expression_scores_bit_for_bit(case):
    head, ds, cfg = case
    want = _one_expression_scores(head, ds, cfg)
    got = {
        "explicit": self_influence_explicit(head, ds, cfg).scores,
        "global": global_tracin_self(head, ds, cfg),
        "row_sum": row_sum_scores(head, ds, cfg),
    }
    for name, value in want.items():
        assert got[name].tobytes() == value.tobytes(), name


# a small block size keeps the per-sample oracle cheap at every boundary;
# a head with a shared layer is scored in chunks of an eighth of a block
_CHUNK = 8


@pytest.mark.parametrize(
    "n",
    [1, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, 3 * _CHUNK + 5,
     8 * _CHUNK - 1, 8 * _CHUNK, 16 * _CHUNK - 1, 16 * _CHUNK, 24 * _CHUNK + 5],
    ids=["1", "C-1", "C", "2C-1", "2C", "3C+5", "8C-1", "8C", "16C-1", "16C", "24C+5"],
)
@pytest.mark.parametrize(
    "hidden, scope",
    [(None, Scope.HEAD_ONLY), (4, Scope.HEAD_ONLY), (4, Scope.LAST_TWO_LAYERS)],
    ids=["head-only", "shared-head-only", "last-two-layers"],
)
def test_scores_match_the_one_shot_scores_at_every_block_boundary(monkeypatch, n, hidden, scope):
    # the scorers run a row chunk at a time; every chunk has at least _CHUNK
    # rows, or all of them, so each matches the one-shot expressions bit for
    # bit
    monkeypatch.setattr(data_mod, "CHUNK_ROWS", _CHUNK)
    assert max(stop - start for start, stop in data_mod._row_chunks(n)) < 2 * _CHUNK
    rng = np.random.default_rng(n)
    k = 4
    head = random_head(rng, k, 6, hidden_dim=hidden)
    ds = Dataset([f"s{i}" for i in range(n)], rng.normal(size=(n, 6)), rng.normal(size=(n, k)),
                 [f"dim{j}" for j in range(k)])
    lam = rng.uniform(0.1, 3.0, k)
    lam[rng.integers(k)] = 0.0
    cfg = InfluenceConfig(scope=scope, lambdas=tuple(lam))
    got = {
        "explicit": self_influence_explicit(head, ds, cfg).scores,
        "global": global_tracin_self(head, ds, cfg),
        "row_sum": row_sum_scores(head, ds, cfg),
    }
    # one pass gives the table and the global scores of the two scorers bit for bit
    table, glob = self_and_global_scores(head, ds, cfg)
    assert table.scores.tobytes() == got["explicit"].tobytes()
    assert glob.tobytes() == got["global"].tobytes()
    for name, value in _one_expression_scores(head, ds, cfg).items():
        assert got[name].tobytes() == value.tobytes(), name
    for name, (value, scale) in _oracle_sums(head, ds, cfg).items():
        assert np.all(np.abs(got[name] - value) <= 1e-10 * scale), name


def test_zero_lambda_silences_a_dimension(noisy_corpus):
    rng = np.random.default_rng(20)
    head = random_head(rng, 3, 6, hidden_dim=4)
    cfg = InfluenceConfig(scope=Scope.LAST_TWO_LAYERS, lambdas=(1.0, 0.0, 1.0))
    rows = row_sum_scores(head, noisy_corpus, cfg)
    assert np.all(rows[:, 1] == 0.0)


def test_a_head_only_zero_lambda_column_is_positive_zero(noisy_corpus):
    # head-only row sums leave out the (rho G) a term, whose zero factor a
    # gave a zero lambda's scores the sign of (rho G): -0.0 in about half the rows
    rng = np.random.default_rng(21)
    head = random_head(rng, 3, 6)
    rows = row_sum_scores(head, noisy_corpus, InfluenceConfig(lambdas=(1.0, 0.0, 2.0)))
    assert np.all(rows[:, 1] == 0.0) and not np.signbit(rows[:, 1]).any()


# ------------------------------------------------------------------- io

def test_score_table_round_trips(noisy_corpus, tmp_path):
    rng = np.random.default_rng(21)
    head = random_head(rng, 3, 6)
    table = self_influence_closed_form(head, noisy_corpus, HEAD_CFG)
    path = tmp_path / "scores.jsonl"
    table.to_jsonl(path)
    back = SelfInfluenceTable.load(path)
    assert np.array_equal(back.scores, table.scores)
    assert tuple(back.sample_ids) == table.sample_ids
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


NONNEG = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    return SelfInfluenceTable(
        scores=draw(hnp.arrays(np.float64, (n, k), elements=NONNEG)),
        sample_ids=draw(st.lists(ODD_TEXT, min_size=n, max_size=n, unique=True)),
        dim_names=draw(st.lists(ODD_TEXT, min_size=k, max_size=k, unique=True)),
        scope=draw(st.sampled_from(Scope)),
        lambdas=draw(hnp.arrays(np.float64, k, elements=NONNEG)),
    )


def _same_table(a, b):
    assert a.sample_ids == b.sample_ids and a.dim_names == b.dim_names and a.scope == b.scope
    assert a.scores.tobytes() == b.scores.tobytes()
    assert a.lambdas.tobytes() == b.lambdas.tobytes()


def _csv_reference(table):
    """The long CSV built as one string: the reference for the line-by-line writer."""
    lines = ["id,dim,score"]
    for i, sid in enumerate(table.sample_ids):
        for k, name in enumerate(table.dim_names):
            lines.append(f"{sid},{name},{float(table.scores[i, k])!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(_tables(), st.data())
def test_score_file_and_text_round_trips_agree(table, data):
    text = table.dumps()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.jsonl"
        table.to_jsonl(path)
        assert path.read_bytes() == text.encode()
        _same_table(SelfInfluenceTable.load(path), table)
        _same_table(SelfInfluenceTable.loads(text), table)
        csv = Path(tmp) / "scores.csv"
        table.to_csv(csv)
        assert csv.read_bytes() == _csv_reference(table).encode(locale.getpreferredencoding(False))
        # a file cut at any byte either loads or is a DataError, never another exception
        cut = data.draw(st.integers(0, len(text)), label="cut")
        path.write_text(text[:cut])
        for load, src in ((SelfInfluenceTable.load, path), (SelfInfluenceTable.loads, text[:cut])):
            try:
                load(src)
            except DataError:
                pass


@pytest.fixture(scope="module")
def big_table():
    n, k = 20_000, 5
    rng = np.random.default_rng(23)
    return SelfInfluenceTable(rng.uniform(0.0, 2.0, size=(n, k)), [f"s{i:05d}" for i in range(n)],
                              [f"dim{j}" for j in range(k)], Scope.HEAD_ONLY, np.ones(k))


@pytest.mark.parametrize("writer", ["to_jsonl", "to_csv"])
def test_score_writers_stream(big_table, tmp_path, writer):
    # one line at a time: no whole-file string, no list of lines
    peak = peak_traced_bytes(getattr(big_table, writer), tmp_path / "scores")
    assert peak < 0.1 * big_table.scores.nbytes


def test_score_load_holds_little_beyond_the_array(big_table, tmp_path):
    # the score array plus ids and buffer slack; no text, line list or Python floats
    path = tmp_path / "scores.jsonl"
    big_table.to_jsonl(path)
    peak = peak_traced_bytes(SelfInfluenceTable.load, path)
    assert peak < 5 * big_table.scores.nbytes


@pytest.fixture(scope="module")
def big_corpus():
    cfg = SynthConfig(20_000, 16, 5, label_noise_sd=0.1, teacher_seed=0, sample_seed=1)
    return inject_dimension_noise(generate_synthetic(cfg), 0.1, range(5), 2)


@pytest.mark.parametrize(
    "hidden, scope, bound",
    [
        pytest.param(None, Scope.HEAD_ONLY, 1.3, id="head-only"),
        pytest.param(8, Scope.LAST_TWO_LAYERS, 2.9, id="last-two-layers"),
    ],
)
def test_self_influence_builds_its_scores_in_place(big_corpus, hidden, scope, bound):
    # each block's residuals are written into its rows of the score matrix.
    # Measured peak over N x K float64 at 20k rows (blocks of 8192 and 11808
    # rows): 1.20x head-only (the scores plus one block's per-row factors),
    # 2.50x with a shared layer (plus a block's activations and factor
    # matrix); the whole-matrix residuals measured 1.33x and 3.48x, and
    # building each operation's result in a new array 4.49x for both. The
    # rows are a feature matrix here, whose blocks are views; the block a
    # synthetic corpus's rows gather is test_a_scorer_holds_its_output_and_two_blocks's
    corpus = matrix_copy(big_corpus)
    head = random_head(np.random.default_rng(0), 5, 16, hidden_dim=hidden)
    peak = peak_traced_bytes(self_influence_explicit, head, corpus, InfluenceConfig(scope=scope))
    assert peak < bound * corpus.labels.nbytes


def _table_and_global(head, ds, cfg):
    table, glob = self_and_global_scores(head, ds, cfg)
    return table.scores, glob


@pytest.mark.parametrize("scorer", [global_tracin_self, row_sum_scores, _table_and_global])
@pytest.mark.parametrize(
    "hidden, scope",
    [(None, Scope.HEAD_ONLY), (8, Scope.LAST_TWO_LAYERS)],
    ids=["head-only", "last-two-layers"],
)
def test_a_scorer_holds_its_output_and_two_blocks(monkeypatch, big_corpus, scorer, hidden, scope):
    # 2048-row chunks, so a chunk is a tenth of the rows: a block here is one
    # chunk of the dataset's features and labels, the features gathered from
    # the sample stream, 2048 rows at a time. Measured beyond the output:
    # 1.39 blocks head-only (1.25 for the table and global scores together),
    # 1.69 (global and row sums) and 1.58 (both) with a shared layer; from a
    # feature matrix, whose chunks are views, 0.77 to 0.88 blocks less.
    # Whole-matrix residuals measured 1.6 and 1.7 head-only, 4.5 and 3.3
    # with a shared layer, from a matrix
    monkeypatch.setattr(data_mod, "CHUNK_ROWS", 2048)
    rows = max(stop - start for start, stop in data_mod._row_chunks(len(big_corpus)))
    block = rows * (big_corpus.feature_dim + big_corpus.n_dims) * 8
    head = random_head(np.random.default_rng(0), 5, 16, hidden_dim=hidden)
    cfg = InfluenceConfig(scope=scope)
    out = scorer(head, big_corpus, cfg)
    output = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
    assert peak_traced_bytes(scorer, head, big_corpus, cfg) <= output + 2 * block


@pytest.mark.parametrize("scorer", [global_tracin_self, row_sum_scores, _table_and_global])
@pytest.mark.parametrize(
    "scope", [Scope.HEAD_ONLY, Scope.LAST_TWO_LAYERS], ids=["shared-head-only", "last-two-layers"]
)
def test_a_shared_layer_scorer_holds_its_output_and_two_chunks(scorer, scope):
    # a head with a shared layer reads 12k rows from the sample stream a
    # chunk at a time (the last of 1760 rows here), and a chunk here is its
    # features, activations and residuals. Measured beyond the output: 1.02
    # to 1.25 chunks; a block of every row, with its activations and
    # products, measured 6.3 to 8.4
    synth = SynthConfig(12_000, 16, 5, label_noise_sd=0.1, teacher_seed=0, sample_seed=1)
    corpus = generate_synthetic(synth)
    rows = max(stop - start for start, stop in data_mod._row_chunks(len(corpus)))
    chunk = rows * (corpus.feature_dim + 16 + corpus.n_dims) * 8
    head = random_head(np.random.default_rng(0), 5, 16, hidden_dim=16)
    cfg = InfluenceConfig(scope=scope)
    out = scorer(head, corpus, cfg)
    output = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
    assert peak_traced_bytes(scorer, head, corpus, cfg) <= output + 2 * chunk
