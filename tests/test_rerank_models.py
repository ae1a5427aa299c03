import math
from types import SimpleNamespace

import numpy as np
import pytest

from regir.dense import WordVectors
from regir.rerank.drmm import DrmmModel
from regir.rerank.features import (TokenEmbeddings, TypeEmbeddings,
                                   bin_similarities, dedup_terms, drmm_batch,
                                   drmm_features, drmm_query, load_token_vectors,
                                   pacrr_features, pacrr_pair, pacrr_query,
                                   sim_matrix, softmax)
from regir.rerank.pacrr import PacrrConfig, PacrrModel

from conftest import FixedIdf, keyed
from oracles import (bin_similarities_row, build_histogram, conv_einsum,
                     conv_strided_im2col, drmm_features_per_row, drmm_score,
                     drmm_score_2d, pacrr_score, pacrr_score_per_step,
                     token_rows_per_call, type_units_per_term)


def wv_from(mapping):
    return keyed(WordVectors, mapping)


def angle_wv(angles: dict[str, float]):
    """Terms as 2-d unit vectors; cosine between terms is cos(delta angle)."""
    return wv_from({t: [math.cos(a), math.sin(a)] for t, a in angles.items()})


# --- similarity matrix ---

def test_sim_matrix_identical_terms_pinned_to_one():
    provider = TypeEmbeddings(angle_wv({"a": 0.1, "b": 1.3}))
    qu, qm, qk = provider.rows("", ["a"])
    du, dm, dk = provider.rows("", ["b", "a", "a"])
    S = sim_matrix(qu, qm, qk, du, dm, dk)
    assert S[0, 1] == 1.0 and S[0, 2] == 1.0
    assert S[0, 0] == pytest.approx(math.cos(1.2))
    assert S[0, 0] != 1.0


def test_sim_matrix_oov_rows_and_cols_zero():
    provider = TypeEmbeddings(angle_wv({"a": 0.0}))
    qu, qm, qk = provider.rows("", ["a", "miss"])
    du, dm, dk = provider.rows("", ["miss", "a"])
    S = sim_matrix(qu, qm, qk, du, dm, dk)
    assert S[1].tolist() == [0.0, 0.0]
    assert S[:, 0].tolist() == [0.0, 0.0]
    assert S[0, 1] == 1.0


def test_sim_matrix_clipped_to_unit_interval():
    rng = np.random.default_rng(0)
    provider = TypeEmbeddings(wv_from({f"t{i}": rng.normal(size=5).tolist()
                                       for i in range(20)}))
    terms = [f"t{i}" for i in range(20)]
    u, m, k = provider.rows("", terms)
    S = sim_matrix(u, m, k, u, m, k)
    assert S.min() >= -1.0 and S.max() <= 1.0
    assert np.all(np.diag(S) == 1.0)


def test_zero_norm_word_vector_is_oov(caplog):
    with caplog.at_level("WARNING"):
        provider = TypeEmbeddings(wv_from({"a": [0.0, 0.0], "b": [1.0, 0.0]}))
    _, mask, _ = provider.rows("", ["a", "b"])
    assert mask.tolist() == [False, True]


@pytest.mark.parametrize("dim", [1, 3, 50, 300])
def test_type_embeddings_units_have_the_bits_of_the_per_term_loop(dim):
    """One pass over the word-vector matrix gives each term the bits of
    `vec / np.linalg.norm(vec)`. Norms taken with np.linalg.norm(m, axis=1)
    sum in another order and differ in hundreds of these rows at dim >= 3."""
    rng = np.random.default_rng(dim)
    n = 2000
    matrix = rng.normal(size=(n, dim)) * rng.choice([1e-150, 1e-3, 1.0, 1e150],
                                                    size=(n, 1))
    matrix[::13] = 0.0
    terms = [f"t{i}" for i in range(n)]
    wv = WordVectors(terms, matrix)
    want = type_units_per_term(wv)
    units, mask, keys = TypeEmbeddings(wv).rows("", terms + ["oov"])
    assert mask.tolist() == [t in want for t in terms] + [False]
    assert units[mask].tobytes() == np.stack(list(want.values())).tobytes()
    assert not units[~mask].any() and np.all(keys[~mask] == -1)
    assert len(set(keys[mask].tolist())) == len(want)


# --- token-level provider ---

def test_token_embeddings_positional(tmp_path):
    path = tmp_path / "tok.txt"
    path.write_text("d1 0 1.0 0.0\nd1 1 0.0 2.0\nq1 0 1.0 0.0\n")
    provider = load_token_vectors(path)
    assert provider.dedup is False
    units, mask, keys = provider.rows("d1", ["tax", "tax"])
    assert keys is None
    assert np.allclose(units[1], [0.0, 1.0])  # normalized
    # identical surface forms do NOT get the hard 1.0 without identity keys
    qu, qm, qk = provider.rows("q1", ["tax"])
    S = sim_matrix(qu, qm, qk, units, mask, keys)
    assert S[0, 0] == pytest.approx(1.0)
    assert S[0, 1] == pytest.approx(0.0)


def test_token_embeddings_rows_have_the_bits_of_per_call_normalization(monkeypatch):
    """Each document is normalized once, when the provider is built; `rows`
    only slices, and any prefix has the bits of normalizing that prefix."""
    rng = np.random.default_rng(8)
    seqs = {f"d{n}": rng.normal(size=(n, 64)) for n in (0, 1, 5, 40, 300)}
    seqs["d300"][::7] = 0.0
    provider = TokenEmbeddings(seqs)
    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "norm", None)
        got = {(doc_id, limit): provider.rows(doc_id, ["t"] * len(seq), limit)
               for doc_id, seq in seqs.items()
               for limit in (None, 0, 1, 7, 128, 1024)}
    for (doc_id, limit), (units, mask, keys) in got.items():
        want_units, want_mask = token_rows_per_call(seqs[doc_id], limit)
        assert units.shape == want_units.shape
        assert units.tobytes() == want_units.tobytes()
        assert mask.tolist() == want_mask.tolist() and keys is None


def test_token_embeddings_length_mismatch(tmp_path):
    path = tmp_path / "tok.txt"
    path.write_text("d1 0 1.0 0.0\n")
    provider = load_token_vectors(path)
    with pytest.raises(ValueError, match="positions"):
        provider.rows("d1", ["tax", "levy"])
    with pytest.raises(KeyError):
        provider.rows("ghost", ["tax"])


def test_load_token_vectors_rejects_gaps_and_dups(tmp_path):
    gap = tmp_path / "gap.txt"
    gap.write_text("d1 0 1.0\nd1 2 1.0\n")
    with pytest.raises(ValueError, match="gap-free"):
        load_token_vectors(gap)
    dup = tmp_path / "dup.txt"
    dup.write_text("d1 0 1.0\nd1 0 2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_token_vectors(dup)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_token_vectors_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "tok.txt"
    path.write_text(f"d1 0 1.0 0.0\nd1 1 {bad} 2.0\n")
    with pytest.raises(ValueError, match=r"tok\.txt: line 2: non-finite"):
        load_token_vectors(path)


# --- histograms ---

def test_bin_similarities_hand_case():
    hist = bin_similarities(np.array([[0.0, 0.5, 0.5]]), [3], bins=5)
    assert hist.shape == (1, 1, 6)
    assert np.allclose(hist[0, 0], np.log1p([0, 0, 1, 2, 0, 0]))


def test_bin_similarities_exact_match_reserved_bin():
    hist = bin_similarities(np.array([[1.0]]), [1], bins=5)[0, 0]
    want = np.zeros(6)
    want[5] = math.log(2)
    assert np.allclose(hist, want)
    # a near-1 similarity lands in the last regular bin instead
    near = bin_similarities(np.array([[0.999999]]), [1], bins=5)[0, 0]
    assert near[4] == pytest.approx(math.log(2)) and near[5] == 0.0


def test_bin_similarities_minus_one_in_first_bin():
    hist = bin_similarities(np.array([[-1.0]]), [1], bins=5)[0, 0]
    assert hist[0] == pytest.approx(math.log(2))
    assert hist[1:].sum() == 0.0


def test_build_histogram_exact_match_doc():
    wv = angle_wv({"tax": 0.3})
    hist = build_histogram("tax", ["tax"], wv, bins=30)
    assert hist.shape == (31,)
    assert hist[30] == pytest.approx(math.log(2))
    assert np.count_nonzero(hist) == 1


def test_build_histogram_oov_term_zero():
    wv = angle_wv({"tax": 0.0})
    assert np.all(build_histogram("ghost", ["tax"], wv, bins=10) == 0.0)


def test_drmm_features_shapes_and_oov_rows():
    provider = TypeEmbeddings(angle_wv({"a": 0.0, "b": 0.9}))
    idf = FixedIdf({"a": 2.0, "ghost": 0.5})
    hists, idf_vec = drmm_features(["a", "ghost"], "", ["b", "a"], "",
                                   provider, idf, bins=4)
    assert hists.shape == (2, 5)
    assert np.all(hists[1] == 0.0)
    assert idf_vec.tolist() == [2.0, 0.5]
    with pytest.raises(ValueError):
        drmm_features([], "", ["b"], "", provider, idf, bins=4)


@pytest.mark.parametrize("seed", range(3))
def test_bin_similarities_rows_equal_per_row_oracle(seed):
    """Each (segment, row) histogram equals that row's slice histogrammed
    alone; empty segments and rows give zero histograms."""
    rng = np.random.default_rng(50 + seed)
    bins = 30
    sims = rng.uniform(-1.0, 1.0, size=(7, 40))
    sims[rng.random(sims.shape) < 0.1] = 1.0
    sims[rng.random(sims.shape) < 0.1] = -1.0
    sims[rng.random(sims.shape) < 0.1] = 0.0
    sims[:, ::9] = np.nextafter(1.0, 0.0)
    widths = [0, 13, 1, 0, 26]
    bounds = np.cumsum([0] + widths)
    want = np.stack([[bin_similarities_row(row[lo:hi], bins) for row in sims]
                     for lo, hi in zip(bounds, bounds[1:])])
    assert np.array_equal(bin_similarities(sims, widths, bins), want)
    assert np.array_equal(bin_similarities(sims, [40], bins)[0],
                          [bin_similarities_row(row, bins) for row in sims])
    assert bin_similarities(sims[:, :0], [0, 0], bins).tolist() == (
        [[[0.0] * (bins + 1)] * 7] * 2)
    assert bin_similarities(sims[:0], widths, bins).shape == (5, 0, bins + 1)


@pytest.mark.parametrize("seed", range(3))
def test_drmm_features_equal_per_row_oracle(seed):
    """Exact matches (1.0), antipodal terms (-1.0), out-of-vocabulary rows
    and columns, and documents with no in-vocabulary token."""
    rng = np.random.default_rng(70 + seed)
    base = {f"t{i}": rng.normal(size=6) for i in range(30)}
    vectors = dict(base)
    vectors.update({f"neg{i}": -base[f"t{i}"] for i in range(10)})
    vectors.update({f"dup{i}": base[f"t{i}"].copy() for i in range(5)})
    vectors["zero"] = np.zeros(6)
    provider = TypeEmbeddings(wv_from({t: v.tolist() for t, v in vectors.items()}))
    vocab = list(vectors) + ["oov1", "oov2"]
    idf = FixedIdf({t: 0.1 * i for i, t in enumerate(vocab)})
    docs = [[vocab[i] for i in rng.integers(0, len(vocab), size=n)]
            for n in (0, 1, 25, 120)] + [["oov1", "zero", "oov2"]]
    for doc in docs:
        for _ in range(4):
            n_q = int(rng.integers(1, 20))
            terms = dedup_terms([vocab[i] for i in
                                 rng.integers(0, len(vocab), size=n_q)])
            hists, idf_vec = drmm_features(terms, "", doc, "", provider, idf, 30)
            want, want_idf = drmm_features_per_row(terms, doc, provider, idf, 30)
            assert np.array_equal(hists, want)
            assert np.array_equal(idf_vec, want_idf)


# --- DRMM forward ---

def drmm_oracle(params, hists, idf):
    """Straight-line reimplementation with python loops."""
    w1, b1 = params["W1"], params["b1"]
    w2, b2 = params["W2"], params["b2"]
    outs = []
    for row in hists:
        z = [math.tanh(sum(w1[h][j] * row[j] for j in range(len(row))) + b1[h])
             for h in range(len(b1))]
        outs.append(sum(z[h] * w2[h] for h in range(len(b1))) + b2[0])
    logits = [params["w_g"][0] * v for v in idf]
    top = max(logits)
    exps = [math.exp(l - top) for l in logits]
    total = sum(exps)
    return sum(e / total * o for e, o in zip(exps, outs))


@pytest.mark.parametrize("seed", range(5))
def test_drmm_forward_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    bins, hidden, terms = 6, 4, 5
    model = DrmmModel.init(rng, bins=bins, hidden=hidden)
    model.params["w_g"] = rng.normal(size=1)
    hists = rng.uniform(0, 2, size=(terms, bins + 1))
    idf = rng.uniform(0, 3, size=terms)
    s_r, _ = model.score((hists, idf))
    assert s_r == pytest.approx(drmm_oracle(model.params, hists, idf),
                                abs=1e-10)


def test_drmm_single_term_gate_is_identity():
    rng = np.random.default_rng(1)
    model = DrmmModel.init(rng, bins=4, hidden=3)
    hists = rng.uniform(0, 1, size=(1, 5))
    s_r, cache = model.score((hists, np.array([2.5])))
    assert cache["gate"].tolist() == [1.0]
    z = np.tanh(hists[0] @ model.params["W1"].T + model.params["b1"])
    assert s_r == pytest.approx(float(z @ model.params["W2"]
                                      + model.params["b2"][0]))


def test_drmm_score_doc_order_invariant():
    provider = TypeEmbeddings(angle_wv({"a": 0.0, "b": 0.7, "c": 1.9}))
    idf = FixedIdf({})
    model = DrmmModel.init(np.random.default_rng(2), bins=8, hidden=3)
    s1 = drmm_score(["a", "b"], ["a", "b", "c", "c"], model, provider, idf)
    s2 = drmm_score(["a", "b"], ["c", "a", "c", "b"], model, provider, idf)
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_drmm_score_query_dedup():
    provider = TypeEmbeddings(angle_wv({"a": 0.0, "b": 0.7}))
    idf = FixedIdf({"a": 1.0, "b": 2.0})
    model = DrmmModel.init(np.random.default_rng(3), bins=6, hidden=3)
    once = drmm_score(["a", "b"], ["a", "b"], model, provider, idf)
    dup = drmm_score(["a", "b", "a", "a"], ["a", "b"], model, provider, idf)
    assert once == pytest.approx(dup, abs=1e-12)


def test_drmm_rejects_wrong_histogram_width():
    model = DrmmModel.init(np.random.default_rng(0), bins=4, hidden=2)
    with pytest.raises(ValueError):
        model.score((np.zeros((2, 9)), np.zeros(2)))


# --- DRMM gradients ---

def finite_diff(score_fn, params, h=1e-5):
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = score_fn()
            flat[j] = keep - h
            down = score_fn()
            flat[j] = keep
            g.ravel()[j] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for name in numeric:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.abs(n), 1e-6)
        rel = np.abs(a - n) / denom
        assert rel.max() < rtol, f"{name}: max rel err {rel.max()}"


@pytest.mark.parametrize("seed", range(3))
def test_drmm_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    model = DrmmModel.init(rng, bins=5, hidden=3)
    model.params["w_g"] = rng.normal(size=1)
    hists = rng.uniform(0, 2, size=(4, 6))
    idf = rng.uniform(0.2, 3, size=4)
    s_r, cache = model.score((hists, idf))
    analytic = model.backward(cache, 1.0)
    numeric = finite_diff(lambda: model.score((hists, idf))[0], model.params)
    assert_grads_close(analytic, numeric)


# --- PACRR features ---

@pytest.mark.parametrize("token_level", [False, True])
def test_pacrr_features_gather_only_kept_rows(token_level):
    """Rows gathered up to q_len / d_len give the bits of gathering every
    row and truncating after."""
    rng = np.random.default_rng(4)
    vocab = [f"w{i}" for i in range(30)]
    wv = wv_from({t: rng.normal(size=5) for t in vocab[:20]})
    idf = FixedIdf({t: float(i) for i, t in enumerate(vocab)})
    q = [vocab[i] for i in rng.integers(30, size=40)]
    d = [vocab[i] for i in rng.integers(30, size=300)]
    if token_level:
        provider = TokenEmbeddings({"q": rng.normal(size=(40, 5)),
                                    "d": rng.normal(size=(300, 5))})
    else:
        provider = TypeEmbeddings(wv)
    for q_len, d_len in ((7, 50), (40, 300), (64, 1024)):
        S, idf_col = pacrr_features(q, "q", d, "d", provider, idf, q_len, d_len)
        qu, qm, qk = provider.rows("q", q)
        du, dm, dk = provider.rows("d", d)
        want = sim_matrix(qu[:q_len], qm[:q_len], None if qk is None else qk[:q_len],
                          du[:d_len], dm[:d_len], None if dk is None else dk[:d_len])
        assert np.array_equal(S, want)
        assert S.shape == (min(q_len, 40), min(d_len, 300))
    if token_level:  # the full sequence length is still checked
        with pytest.raises(ValueError, match="positions"):
            pacrr_features(q, "q", d[:-1], "d", provider, idf, 5, 5)


def test_pacrr_features_truncation_no_padding():
    provider = TypeEmbeddings(angle_wv({c: 0.2 * i for i, c in
                                        enumerate("abcdef")}))
    idf = FixedIdf({c: float(i) for i, c in enumerate("abcdef")})
    S, idf_col = pacrr_features(list("abcde"), "", list("fedcba"), "",
                                provider, idf, q_len=3, d_len=4)
    assert S.shape == (3, 4)
    assert idf_col.shape == (3,)
    assert idf_col.sum() == pytest.approx(1.0)
    assert np.allclose(idf_col, softmax(np.array([0.0, 1.0, 2.0])))
    with pytest.raises(ValueError):
        pacrr_features([], "", ["a"], "", provider, idf, 3, 4)
    S, _ = pacrr_features(["a"], "", [], "", provider, idf, 3, 4)
    assert S.shape == (1, 0)


def test_pacrr_config_validation():
    with pytest.raises(ValueError):
        PacrrConfig(kernel_sizes=(1,))
    with pytest.raises(ValueError):
        PacrrConfig(kmax=0)
    cfg = PacrrConfig(kernel_sizes=(2, 3), kmax=2)
    assert cfg.input_dim == (1 + 2) * 2 + 1


# --- PACRR forward ---

def pacrr_oracle(params, config, S, idf_col):
    """Straight-line reimplementation: explicit loops, no numpy tricks."""
    t_len, d_len = S.shape
    k = config.kmax

    def row_kmax(row):
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]
        vals = [row[j] for j in order]
        return vals + [0.0] * (k - len(vals))

    views = [[row_kmax(S[t]) for t in range(t_len)]]
    for n in config.kernel_sizes:
        pad = (n - 1) // 2
        padded = [[0.0] * (d_len + n - 1) for _ in range(t_len + n - 1)]
        for t in range(t_len):
            for d in range(d_len):
                padded[pad + t][pad + d] = S[t, d]
        pooled = []
        for t in range(t_len):
            row = []
            for d in range(d_len):
                best = -math.inf
                for f in range(config.filters):
                    acc = params[f"c{n}"][f]
                    for a in range(n):
                        for b in range(n):
                            acc += params[f"K{n}"][f, a, b] * padded[t + a][d + b]
                    best = max(best, acc)
                row.append(best)
            pooled.append(row)
        views.append([row_kmax(row) for row in pooled])

    h = c = 0.0
    for t in range(t_len):
        x = [v for view in views for v in view[t]] + [idf_col[t]]
        a = [sum(params["lstm_W"][g][j] * x[j] for j in range(len(x)))
             + params["lstm_U"][g] * h + params["lstm_b"][g] for g in range(4)]
        gate_i = 1.0 / (1.0 + math.exp(-a[0]))
        gate_f = 1.0 / (1.0 + math.exp(-a[1]))
        gate_o = 1.0 / (1.0 + math.exp(-a[2]))
        cand = math.tanh(a[3])
        c = gate_f * c + gate_i * cand
        h = gate_o * math.tanh(c)
    return h


@pytest.mark.parametrize("seed", range(5))
def test_pacrr_forward_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    config = PacrrConfig(q_len=8, d_len=16, kernel_sizes=(2, 3), filters=3,
                         kmax=2)
    model = PacrrModel.init(rng, config)
    model.params["c2"] = rng.normal(0, 0.05, size=3)
    model.params["c3"] = rng.normal(0, 0.05, size=3)
    S = rng.uniform(-0.9, 0.9, size=(5, 9))
    idf_col = softmax(rng.uniform(0, 2, size=5))
    s_r, _ = model.score((S, idf_col))
    assert s_r == pytest.approx(pacrr_oracle(model.params, config, S, idf_col),
                                abs=1e-10)


def test_pacrr_zero_matrix_scores_from_idf_alone():
    rng = np.random.default_rng(7)
    config = PacrrConfig(kernel_sizes=(2,), filters=2, kmax=2)
    model = PacrrModel.init(rng, config)  # conv biases init to zero
    idf_col = softmax(np.array([1.0, 0.3, 0.3]))
    S = np.zeros((3, 6))
    s_r, cache = model.score((S, idf_col))
    # every similarity view is zero, so the recurrence sees only the idf column
    assert np.allclose(cache["x"][:, :-1], 0.0)
    assert cache["x"][:, -1].tolist() == idf_col.tolist()
    assert s_r == pytest.approx(pacrr_oracle(model.params, config, S, idf_col),
                                abs=1e-12)


def test_pacrr_kmax_view_column_permutation_invariant():
    rng = np.random.default_rng(8)
    from regir.rerank.pacrr import _row_kmax
    S = rng.uniform(-1, 1, size=(4, 10))
    perm = rng.permutation(10)
    vals, _ = _row_kmax(S, 3)
    vals_p, _ = _row_kmax(S[:, perm], 3)
    assert np.allclose(vals, vals_p)


def test_pacrr_kmax_pads_short_rows():
    from regir.rerank.pacrr import _row_kmax
    vals, idx = _row_kmax(np.array([[0.5, 0.2]]), 4)
    assert vals.tolist() == [[0.5, 0.2, 0.0, 0.0]]
    assert idx.tolist() == [[0, 1, -1, -1]]


def test_pacrr_kmax_ties_match_stable_argsort():
    from regir.rerank.pacrr import _row_kmax
    rng = np.random.default_rng(9)
    M = rng.integers(0, 3, size=(6, 12)).astype(float)
    M[0] = 0.5
    for k in (1, 2, 5, 12):
        vals, idx = _row_kmax(M, k)
        order = np.argsort(-M, axis=1, kind="stable")[:, :k]
        assert idx.tolist() == order.tolist()
        assert np.array_equal(vals, np.take_along_axis(M, order, axis=1))
    vals, idx = _row_kmax(M[:, :3], 5)
    order = np.argsort(-M[:, :3], axis=1, kind="stable")
    assert idx[:, :3].tolist() == order.tolist()
    assert np.all(idx[:, 3:] == -1) and np.all(vals[:, 3:] == 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pacrr_conv_matches_einsum_oracle(n):
    rng = np.random.default_rng(30 + n)
    config = PacrrConfig(kernel_sizes=(n,), filters=5, kmax=2)
    model = PacrrModel.init(rng, config)
    model.params[f"c{n}"] = rng.normal(size=5)
    for shape in [(1, 1), (3, 17), (9, 4)]:
        S = rng.uniform(-1, 1, size=shape)
        out, _ = model._conv(S, n)
        want = conv_einsum(S, model.params[f"K{n}"], model.params[f"c{n}"])
        assert np.allclose(out.reshape(want.shape), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pacrr_conv_equals_strided_gather_oracle(n):
    """The window matrix of contiguous shifted slices gives the bits of the
    matmul over the strided gather, outputs and backward windows alike, on
    one query term, an empty document, one narrower than the kernel, one of
    d_len and a wide one."""
    from regir.rerank.pacrr import _row_kmax
    rng = np.random.default_rng(40 + n)
    config = PacrrConfig(d_len=39, kernel_sizes=(n,), filters=16, kmax=3)
    model = PacrrModel.init(rng, config)
    model.params[f"c{n}"] = rng.normal(size=16)
    kernels, bias = model.params[f"K{n}"], model.params[f"c{n}"]
    for t, d in [(1, 5), (4, 0), (4, 1), (5, 39), (12, 127), (30, 257)]:
        S = rng.uniform(-1, 1, size=(t, d))
        out, _ = model._conv(S, n)
        want, cols = conv_strided_im2col(S, kernels, bias)
        assert out.shape == want.shape and (out == want).all()
        conv_cache: list = []
        model._rows((S, rng.uniform(size=t)), conv_cache)
        _, idx = _row_kmax(want.max(axis=0).reshape(t, d), config.kmax)
        flat = (idx + d * np.arange(t)[:, None])[idx >= 0]
        windows = conv_cache[0]["windows"]
        assert windows.shape == (len(flat), n * n) and (windows == cols[flat]).all()


def test_pacrr_hand_traced_conv():
    # single 2x2 kernel of ones, zero bias, k=1: same-padded conv at (0,0)
    # covers S[0:2, 0:2] so the top-left output is the sum of that block
    config = PacrrConfig(kernel_sizes=(2,), filters=1, kmax=1)
    model = PacrrModel.init(np.random.default_rng(0), config)
    model.params["K2"] = np.ones((1, 2, 2))
    model.params["c2"] = np.zeros(1)
    S = np.array([[1.0, 2.0], [3.0, 4.0]])
    _, cache = model.score((S, softmax(np.zeros(2))))
    # conv view sits in column index kmax..2*kmax of the concatenated x
    conv_vals = cache["x"][:, 1]
    assert conv_vals[0] == pytest.approx(10.0)  # 1+2+3+4
    assert conv_vals[1] == pytest.approx(7.0)   # 3+4 (bottom pad row is zero)


# --- PACRR gradients ---

@pytest.mark.parametrize("seed", range(3))
def test_pacrr_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    config = PacrrConfig(q_len=8, d_len=16, kernel_sizes=(2, 3), filters=2,
                         kmax=2)
    model = PacrrModel.init(rng, config)
    S = rng.uniform(-0.9, 0.9, size=(4, 7))
    idf_col = softmax(rng.uniform(0, 2, size=4))
    _, cache = model.score((S, idf_col))
    analytic = model.backward(cache, 1.0)
    numeric = finite_diff(lambda: model.score((S, idf_col))[0], model.params)
    assert_grads_close(analytic, numeric)


def test_pacrr_score_end_to_end():
    provider = TypeEmbeddings(angle_wv({"a": 0.0, "b": 0.5, "c": 1.1}))
    idf = FixedIdf({"a": 1.0, "b": 2.0, "c": 0.5})
    config = PacrrConfig(q_len=4, d_len=8, kernel_sizes=(2,), filters=2, kmax=2)
    model = PacrrModel.init(np.random.default_rng(5), config)
    value = pacrr_score(["a", "b"], ["c", "a", "b", "c"], model, provider, idf)
    assert math.isfinite(value)
    again = pacrr_score(["a", "b"], ["c", "a", "b", "c"], model, provider, idf)
    assert value == again


def test_dedup_terms_keeps_first_occurrence_order():
    assert dedup_terms(["b", "a", "b", "c", "a"]) == ["b", "a", "c"]


# --- scoring a query's candidates in one call ---

def ragged_candidates(rng, kind, provider, idf, query, config):
    """Features of one query against ragged documents: none, fewer tokens
    than kmax, longer than d_len, and out-of-vocabulary tokens."""
    vocab = list(provider._row) + ["oov1", "oov2"]
    lengths = (0, 1, config.kmax - 1, 7, config.d_len, config.d_len + 9, 60)
    docs = [[vocab[i] for i in rng.integers(0, len(vocab), size=n)]
            for n in lengths] + [["oov1", "oov2", "oov1"]]
    if kind == "drmm":
        q = drmm_query(dedup_terms(query), "", provider, idf)
        return drmm_batch(q, [("", doc) for doc in docs], provider, config.B)
    q = pacrr_query(query, "", provider, idf, config.q_len)
    return [pacrr_pair(q, doc, "", provider, config.d_len) for doc in docs]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["drmm", "pacrr"])
def test_score_batch_equals_per_pair_scores_bit_for_bit(kind, seed):
    """Exact equality, not a tolerance: a BLAS that blocks the stacked
    products differently from one pair's must fail here, not drift."""
    rng = np.random.default_rng(900 + seed)
    provider = TypeEmbeddings(wv_from({f"t{i}": rng.normal(size=6).tolist()
                                       for i in range(30)}))
    idf = FixedIdf({f"t{i}": 0.2 * i for i in range(30)})
    config = SimpleNamespace(q_len=9, d_len=16, kmax=3, B=8)
    if kind == "drmm":
        model = DrmmModel.init(rng, bins=config.B, hidden=4)
        model.params["b1"] = rng.normal(size=4)
        model.params["w_g"] = rng.normal(size=1)
        per_pair = drmm_score_2d
    else:
        model = PacrrModel.init(rng, PacrrConfig(q_len=config.q_len,
                                                 d_len=config.d_len,
                                                 kernel_sizes=(2, 3), filters=4,
                                                 kmax=config.kmax))
        for n in (2, 3):
            model.params[f"c{n}"] = rng.normal(0, 0.05, size=4)
        model.params["lstm_b"] = rng.normal(0, 0.1, size=4)
        per_pair = pacrr_score_per_step
    vocab = list(provider._row) + ["oov1"]
    queries = [["t3"], ["oov1"], ["t1", "oov1", "t7", "t1"],
               [vocab[i] for i in rng.integers(0, len(vocab), size=14)]]
    for query in queries:
        feats = ragged_candidates(rng, kind, provider, idf, query, config)
        want = [per_pair(model, f) for f in feats]
        assert [model.score(f)[0] for f in feats] == want
        assert model.score_batch(feats).tolist() == want
        assert model.score_batch(feats[::-1]).tolist() == want[::-1]
        assert [model.score_batch([f]).tolist() for f in feats] == [[w] for w in want]


def test_pacrr_empty_document_scores_from_zero_views():
    rng = np.random.default_rng(4)
    model = PacrrModel.init(rng, PacrrConfig(kernel_sizes=(2, 3), filters=3, kmax=2))
    idf_col = softmax(np.array([0.5, 1.5]))
    s_r, cache = model.score((np.zeros((2, 0)), idf_col))
    assert np.all(cache["x"][:, :-1] == 0.0)
    assert s_r == model.score((np.zeros((2, 5)), idf_col))[0]
    grads = model.backward(cache, 1.0)
    assert all(np.all(grads[f"{p}{n}"] == 0.0) for p in "Kc" for n in (2, 3))


def test_score_batch_refuses_candidates_of_different_queries():
    rng = np.random.default_rng(5)
    drmm = DrmmModel.init(rng, bins=4, hidden=2)
    with pytest.raises(ValueError, match="one query"):
        drmm.score_batch([(np.zeros((2, 5)), np.array([1.0, 2.0])),
                          (np.zeros((2, 5)), np.array([1.0, 3.0]))])
    pacrr = PacrrModel.init(rng, PacrrConfig(kernel_sizes=(2,), filters=2))
    with pytest.raises(ValueError):
        pacrr.score_batch([(np.zeros((2, 5)), softmax(np.zeros(2))),
                           (np.zeros((3, 5)), softmax(np.zeros(3)))])
