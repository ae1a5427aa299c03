import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regir.dense import WordVectors
from regir.rerank import features
from regir.rerank.drmm import DrmmModel
from regir.rerank.features import (TypeEmbeddings, dedup_terms, drmm_batch,
                                   drmm_features, drmm_query, load_token_vectors,
                                   pacrr_batch, pacrr_features, pacrr_query,
                                   sim_matrix, softmax)
from regir.rerank.pacrr import PacrrConfig, PacrrModel, _shifts

from conftest import FixedIdf, exit_spy, keyed
from oracles import (bin_edge_bracket, bin_similarities_row, build_histogram, conv_einsum,
                     conv_strided_im2col, drmm_features_per_row, drmm_score,
                     drmm_score_2d, lstm_per_step, pacrr_score, pacrr_score_per_step,
                     rows_per_size, text_rows, token_embeddings, token_rows_per_call,
                     type_units_per_term)


def wv_from(mapping):
    return keyed(WordVectors, mapping)


def angle_wv(angles: dict[str, float]):
    """Terms as 2-d unit vectors; cosine between terms is cos(delta angle)."""
    return wv_from({t: [math.cos(a), math.sin(a)] for t, a in angles.items()})


# --- similarity matrix ---

def test_sim_matrix_identical_terms_pinned_to_one():
    provider = TypeEmbeddings(angle_wv({"a": 0.1, "b": 1.3}))
    qu, qm, qk = provider.rows(provider.row_ids(["a"]))
    du, dm, dk = provider.rows(provider.row_ids(["b", "a", "a"]))
    S = sim_matrix(qu, qm, qk, du, dm, dk)
    assert S[0, 1] == 1.0 and S[0, 2] == 1.0
    assert S[0, 0] == pytest.approx(math.cos(1.2))
    assert S[0, 0] != 1.0


def test_sim_matrix_oov_rows_and_cols_zero():
    provider = TypeEmbeddings(angle_wv({"a": 0.0}))
    qu, qm, qk = provider.rows(provider.row_ids(["a", "miss"]))
    du, dm, dk = provider.rows(provider.row_ids(["miss", "a"]))
    S = sim_matrix(qu, qm, qk, du, dm, dk)
    assert S[1].tolist() == [0.0, 0.0]
    assert S[:, 0].tolist() == [0.0, 0.0]
    assert S[0, 1] == 1.0


def test_sim_matrix_clipped_to_unit_interval():
    rng = np.random.default_rng(0)
    provider = TypeEmbeddings(wv_from({f"t{i}": rng.normal(size=5).tolist()
                                       for i in range(20)}))
    terms = [f"t{i}" for i in range(20)]
    u, m, k = provider.rows(provider.row_ids(terms))
    S = sim_matrix(u, m, k, u, m, k)
    assert S.min() >= -1.0 and S.max() <= 1.0
    assert np.all(np.diag(S) == 1.0)


def test_zero_norm_word_vector_is_oov(caplog):
    with caplog.at_level("WARNING"):
        provider = TypeEmbeddings(wv_from({"a": [0.0, 0.0], "b": [1.0, 0.0]}))
    _, mask, _ = provider.rows(provider.row_ids(["a", "b"]))
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
    provider = TypeEmbeddings(wv)
    units, mask, keys = provider.rows(provider.row_ids(terms + ["oov"]))
    assert mask.tolist() == [t in want for t in terms] + [False]
    assert units[mask].tobytes() == np.stack(list(want.values())).tobytes()
    assert not units[~mask].any() and keys.tolist() == [wv.row[t] for t in terms] + [-1]
    assert len(set(keys[mask].tolist())) == len(want)


# --- token-level provider ---

def test_token_embeddings_positional(tmp_path):
    path = tmp_path / "tok.txt"
    path.write_text("d1 0 1.0 0.0\nd1 1 0.0 2.0\nq1 0 1.0 0.0\n")
    provider = load_token_vectors(path)
    assert provider.dedup is False
    units, mask, keys = text_rows(provider, "d1", ["tax", "tax"])
    assert keys is None
    assert np.allclose(units[1], [0.0, 1.0])  # normalized
    # identical surface forms do NOT get the hard 1.0 without identity keys
    qu, qm, qk = text_rows(provider, "q1", ["tax"])
    S = sim_matrix(qu, qm, qk, units, mask, keys)
    assert S[0, 0] == pytest.approx(1.0)
    assert S[0, 1] == pytest.approx(0.0)


def test_token_embeddings_rows_have_the_bits_of_per_call_normalization(monkeypatch):
    """The vectors are normalized once, when the provider is built; `rows`
    only gathers, and any prefix has the bits of normalizing that prefix."""
    rng = np.random.default_rng(8)
    seqs = {f"d{n}": rng.normal(size=(n, 64)) for n in (0, 1, 5, 40, 300)}
    seqs["d300"][::7] = 0.0
    provider = token_embeddings(seqs)
    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "norm", None)
        got = {(doc_id, limit): provider.rows(provider.ids(doc_id, ["t"] * len(seq)),
                                              limit)
               for doc_id, seq in seqs.items()
               for limit in (None, 0, 1, 7, 128, 1024)}
    for (doc_id, limit), (units, mask, keys) in got.items():
        want_units, want_mask = token_rows_per_call(seqs[doc_id], limit)
        assert units.shape == want_units.shape
        assert units.tobytes() == want_units.tobytes()
        assert mask.tolist() == want_mask.tolist() and keys is None


def test_token_units_read_a_run_of_consecutive_rows_without_a_copy():
    """A document whose positions are consecutive rows, a zero vector among
    them or not, is read as a slice of the unit matrix; any other ids are
    gathered, and both read the same values."""
    rng = np.random.default_rng(6)
    seqs = {"a": rng.normal(size=(5, 3)), "b": rng.normal(size=(4, 3))}
    seqs["b"][1] = 0.0
    provider = token_embeddings(seqs)
    a, b = provider.ids("a", "t" * 5), provider.ids("b", "t" * 4)
    for ids in (a, a[:3], a[2:], b):
        assert np.shares_memory(provider.units(ids), provider._units)
    for ids in (a[::-1], a[::2], a.copy(), a[[0, 2]], np.concatenate([a, b])):
        assert not np.shares_memory(provider.units(ids), provider._units)
    for ids in (a, a[:3], a[2:], b, a[::-1], a[::2], np.concatenate([a, b])):
        assert np.array_equal(provider.units(ids), provider._units[ids.copy()])
    units, mask, keys = provider.rows(b)
    assert mask.tolist() == [True, False, True, True] and not units[1].any()


def test_token_embeddings_length_mismatch(tmp_path):
    path = tmp_path / "tok.txt"
    path.write_text("d1 0 1.0 0.0\n")
    provider = load_token_vectors(path)
    with pytest.raises(ValueError, match="positions"):
        text_rows(provider, "d1", ["tax", "levy"])
    with pytest.raises(KeyError):
        text_rows(provider, "ghost", ["tax"])
    # a text with no tokens needs no vectors, but a listed document's length
    # is still checked
    assert len(provider.ids("ghost", [])) == 0
    with pytest.raises(ValueError, match="positions"):
        provider.ids("d1", [])


def test_load_token_vectors_rejects_gaps_and_dups(tmp_path):
    gap = tmp_path / "gap.txt"
    gap.write_text("d1 0 1.0\nd1 2 1.0\n")
    with pytest.raises(ValueError, match="gap-free"):
        load_token_vectors(gap)
    dup = tmp_path / "dup.txt"
    dup.write_text("d1 0 1.0\nd1 0 2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_token_vectors(dup)


@pytest.mark.parametrize("lines, message", [
    (["d1 1 1.0", "d2 0 1.0", "d2 0 2.0", "d1 1 2.0"],
     "line 3: duplicate position 0 for 'd2'"),
    (["d2 0 1.0", "d1 0 1.0", "d1 2 1.0", "d2 5 1.0"],
     "positions for 'd2' are not a gap-free 0..1 range"),
    (["d1 0 1.0", "d1 99999999999999999999 1.0"],
     "positions for 'd1' are not a gap-free 0..1 range"),
    (["d1 0 1.0", "d1 -1 1.0", "d1 1 1.0"],
     "positions for 'd1' are not a gap-free 0..2 range"),
    (["d1 0 1.0", "d1 x 1.0"], "line 2: position: expected an integer, got 'x'"),
], ids=["first-repeat", "first-document", "huge", "negative", "not-a-number"])
def test_load_token_vectors_names_the_first_fault(tmp_path, lines, message):
    path = tmp_path / "tok.txt"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_token_vectors(path)


def test_load_token_vectors_reads_positions_in_any_order(tmp_path):
    """Documents' lines interleaved and each document's positions in any
    order give each document the rows of its vectors in position order,
    normalized as one sequence is, and laid out as one run of the unit
    matrix: its units are a slice, not a copy."""
    rng = np.random.default_rng(5)
    seqs = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3)),
            "c": rng.normal(size=(6, 3))}
    seqs["c"][2] = 0.0
    lines = [f"{doc_id} {i} {' '.join(map(repr, vec.tolist()))}\n"
             for doc_id, seq in seqs.items() for i, vec in enumerate(seq)]
    path = tmp_path / "tok.txt"
    path.write_text("".join(lines[i] for i in rng.permutation(len(lines))))
    provider = load_token_vectors(path)
    for doc_id, seq in seqs.items():
        units, mask, keys = text_rows(provider, doc_id, ["t"] * len(seq))
        want_units, want_mask = token_rows_per_call(seq)
        assert units.tobytes() == want_units.tobytes()
        assert mask.tolist() == want_mask.tolist() and keys is None
        assert units.base is not None and np.shares_memory(units, provider._units)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_token_vectors_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "tok.txt"
    path.write_text(f"d1 0 1.0 0.0\nd1 1 {bad} 2.0\n")
    with pytest.raises(ValueError, match=r"tok\.txt: line 2: non-finite"):
        load_token_vectors(path)


# --- histograms ---

def bin_similarities(sims, widths, bins: int) -> np.ndarray:
    """The features module's binning and counting of each row of an (R, C)
    input over column segments of `widths`: (n, R, bins + 1)."""
    binned = features._bin_numbers(np.array(sims, dtype=float).T, bins)
    hists = features._histograms(binned.astype(np.intp), None, np.asarray(widths),
                                 np.arange(len(sims)), len(sims), bins)
    return np.array(hists).reshape(len(widths), len(sims), bins + 1)


def test_bin_similarities_hand_case():
    hist = bin_similarities(np.array([[0.0, 0.5, 0.5]]), [3], bins=5)
    assert hist.shape == (1, 1, 6) and hist.dtype == np.uint8
    assert hist[0, 0].tolist() == [0, 0, 1, 2, 0, 0]


def test_bin_similarities_exact_match_reserved_bin():
    hist = bin_similarities(np.array([[1.0]]), [1], bins=5)[0, 0]
    assert hist.tolist() == [0, 0, 0, 0, 0, 1]
    # a near-1 similarity lands in the last regular bin instead
    near = bin_similarities(np.array([[0.999999]]), [1], bins=5)[0, 0]
    assert near.tolist() == [0, 0, 0, 0, 1, 0]


def test_bin_similarities_minus_one_in_first_bin():
    hist = bin_similarities(np.array([[-1.0]]), [1], bins=5)[0, 0]
    assert hist.tolist() == [1, 0, 0, 0, 0, 0]


def test_build_histogram_exact_match_doc():
    wv = angle_wv({"tax": 0.3})
    hist = build_histogram("tax", ["tax"], wv, bins=30)
    assert hist.shape == (31,)
    assert hist[30] == 1
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
    # raw query tokens are deduplicated here, as a caller's dedup would
    again = drmm_features(["a", "ghost", "a"], "", ["b", "a"], "", provider, idf, bins=4)
    assert np.array_equal(again[0], hists) and np.array_equal(again[1], idf_vec)
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
        [[[0] * (bins + 1)] * 7] * 2)
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


def planted_vectors(rng, dim: int) -> dict[str, np.ndarray]:
    """Random vectors plus, for some of them, a copy (`dup`), a scaled copy
    (`par`) and a negation (`neg`): cosines that round to either side of
    1.0 and -1.0."""
    base = {f"t{i}": rng.normal(size=dim) for i in range(24)}
    vectors = dict(base)
    for i in range(6):
        vectors[f"dup{i}"] = base[f"t{i}"].copy()
        vectors[f"par{i}"] = 2.5 * base[f"t{i}"]
        vectors[f"neg{i}"] = -base[f"t{i}"]
    vectors["zero"] = np.zeros(dim)
    return vectors


@pytest.mark.parametrize("dim", [4, 50, 300])
@pytest.mark.parametrize("bins", [5, 11, 30])
@pytest.mark.parametrize("kind", ["type", "token"])
def test_drmm_table_path_equals_the_per_document_exit(kind, bins, dim, monkeypatch):
    """Random batches with duplicated, parallel and antiparallel vectors
    and out-of-vocabulary tokens: the histograms from the batch's table are
    those of each document's own product, bit for bit. Some batches pass
    the bin-edge guard and some do not; the property holds for both."""
    rng = np.random.default_rng(1000 * dim + 10 * bins + (kind == "token"))
    vectors = planted_vectors(rng, dim)
    vocab = list(vectors) + ["oov"]
    seqs = {}

    def tokens(doc_id, terms):
        """The terms, and for positional vectors each one's own row."""
        seqs[doc_id] = np.array([vectors.get(t, np.zeros(dim)) for t in terms]
                                ).reshape(len(terms), dim)
        return terms

    exits = exit_spy(monkeypatch)
    batches = []
    for b in range(6):
        # even batches may hold a query term's vector again, odd ones not
        q_terms = dedup_terms(["t0", "neg1"]
                              + [vocab[i] for i in rng.integers(6, 24, size=8)])
        pool = vocab if b % 2 == 0 else [
            t for t in vocab if t[:3] not in ("dup", "par") and t not in q_terms]
        docs = [(f"b{b}d{k}", tokens(f"b{b}d{k}", [pool[i] for i in
                                                   rng.integers(len(pool), size=n)]))
                for k, n in enumerate([0, 1, 7, 30, 60])]
        batches.append((f"b{b}q", tokens(f"b{b}q", q_terms), docs))
    provider = (TypeEmbeddings(wv_from(vectors)) if kind == "type"
                else token_embeddings(seqs))
    fired = []
    for q_id, q_terms, docs in batches:
        query = drmm_query(provider.ids(q_id, provider.row_ids(q_terms)), provider,
                           FixedIdf({}).idfs(q_terms))
        docs = [provider.ids(doc_id, provider.row_ids(terms)) for doc_id, terms in docs]
        exits.clear()
        table = drmm_batch(query, docs, provider, bins)
        fired.append(bool(exits))
        with monkeypatch.context() as m:
            m.setattr(features, "_proved_bins", lambda *args: None)
            want = drmm_batch(query, docs, provider, bins)
        assert len(table) == len(want) == len(docs)
        for (h, idf), (w, w_idf) in zip(table, want):
            assert np.array_equal(h, w) and h.dtype == w.dtype
            assert idf is w_idf
    assert fired[1::2] == [False] * 3
    assert any(fired[0::2])


@st.composite
def guard_vectors(draw):
    """A dim, a B and word vectors: random ones, a copy, a scaled copy and
    a negation of the first (cosines that round to either side of 1.0 and
    -1.0), two orthogonal axes (cosine exactly 0.0, an edge at even B), and
    scaled vectors whose cosine to the first axis is about n * 2**-53 off
    an inner bin edge 2k / B - 1, |n| within 16 of 0, 2 * dim or 4 * dim:
    on the edge, or near where the guard's margin or the two-binning
    bracket ends."""
    dim = draw(st.sampled_from([2, 3, 8, 50, 300]))
    bins = draw(st.sampled_from([4, 5, 10, 11, 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vectors = {f"r{i}": rng.normal(size=dim) for i in range(draw(st.integers(1, 4)))}
    vectors.update(copy=vectors["r0"].copy(), twice=2.5 * vectors["r0"],
                   minus=-vectors["r0"], axis=np.eye(dim)[0], across=np.eye(dim)[1])
    edges = draw(st.lists(st.tuples(st.integers(1, bins - 1),
                                    st.sampled_from([0, 2 * dim, 4 * dim]),
                                    st.integers(-16, 16), st.sampled_from([-1, 1]),
                                    st.floats(0.1, 10.0)), max_size=4))
    for i, (k, base, near, sign, scale) in enumerate(edges):
        c = 2 * k / bins - 1
        # normalizing scales an offset of the first component by 1 - c * c
        c_off = c + sign * (base + near) * 2.0 ** -53 / (1 - c * c)
        vectors[f"edge{i}"] = scale * (c_off * np.eye(dim)[0]
                                       + math.sqrt(1 - c * c) * np.eye(dim)[1])
    return dim, bins, vectors


@settings(max_examples=150, deadline=None)
@given(guard_vectors(), st.data())
def test_the_one_pass_guard_proves_pair_bins_and_nothing_two_binnings_reject(
        table, data):
    """Entry by entry (a one-row, one-term table each), a bin that
    `_proved_bins` accepts is `_bin_numbers` of the pair's own `sim_matrix`,
    and the bins of the two-binning bracket agree there; identity matches
    are pinned on both. A whole table the guard accepts is the pair's."""
    dim, bins, vectors = table
    provider = TypeEmbeddings(wv_from(vectors))
    terms = list(vectors)
    q_terms = data.draw(st.lists(st.sampled_from(terms), min_size=1, max_size=4,
                                 unique=True))
    q_units, q_mask, q_keys = provider.rows(provider.row_ids(q_terms))
    d_ids = provider.row_ids(terms)
    pair_bins = features._bin_numbers(
        sim_matrix(q_units, q_mask, q_keys, *provider.rows(d_ids)), bins)
    for j in range(len(q_terms)):
        q, pin = q_units[j:j + 1], q_keys[j:j + 1]
        for i in range(len(d_ids)):
            rows = d_ids[i:i + 1]
            proved = features._proved_bins(provider, rows, q, pin, bins)
            low, high = bin_edge_bracket(provider.units(rows) @ q.T, dim, bins)
            if rows[0] == pin[0]:
                low[...] = high[...] = bins
            if proved is not None:
                assert proved[0, 0] == pair_bins[j, i] and low[0, 0] == high[0, 0]
    whole = features._proved_bins(provider, d_ids, q_units, q_keys, bins)
    assert whole is None or np.array_equal(whole.T, pair_bins)


# --- DRMM forward ---

def drmm_oracle(params, counts, idf):
    """Straight-line reimplementation with python loops, from count
    histograms."""
    w1, b1 = params["W1"], params["b1"]
    w2, b2 = params["W2"], params["b2"]
    outs = []
    for row in counts:
        row = [math.log1p(c) for c in row]
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
    counts = rng.integers(0, 9, size=(terms, bins + 1), dtype=np.uint8)
    idf = rng.uniform(0, 3, size=terms)
    s_r, _ = model.score((counts, idf))
    assert s_r == pytest.approx(drmm_oracle(model.params, counts, idf),
                                abs=1e-10)


def test_drmm_single_term_gate_is_identity():
    rng = np.random.default_rng(1)
    model = DrmmModel.init(rng, bins=4, hidden=3)
    counts = rng.integers(0, 4, size=(1, 5), dtype=np.uint8)
    s_r, cache = model.score((counts, np.array([2.5])))
    assert cache["gate"].tolist() == [1.0]
    z = np.tanh(np.log1p(counts[0], dtype=np.float64) @ model.params["W1"].T
                + model.params["b1"])
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
    counts = rng.integers(0, 9, size=(4, 6), dtype=np.uint8)
    idf = rng.uniform(0.2, 3, size=4)
    s_r, cache = model.score((counts, idf))
    analytic = model.backward(cache, 1.0)
    numeric = finite_diff(lambda: model.score((counts, idf))[0], model.params)
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
        provider = token_embeddings({"q": rng.normal(size=(40, 5)),
                                     "d": rng.normal(size=(300, 5))})
    else:
        provider = TypeEmbeddings(wv)
    for q_len, d_len in ((7, 50), (40, 300), (64, 1024)):
        S, idf_col = pacrr_features(q, "q", d, "d", provider, idf, q_len, d_len)
        qu, qm, qk = text_rows(provider, "q", q)
        du, dm, dk = text_rows(provider, "d", d)
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


def pacrr_batch_list(rng, token_level: bool):
    """A provider, a query's row ids and its documents' for `pacrr_batch`:
    a query with out-of-vocabulary terms and repeated ones, and documents
    with no tokens, one token, only out-of-vocabulary tokens, the query's
    terms repeated, and more tokens than the tests' widest d_len. With word
    vectors w0-w7 have vectors, w8 a zero one, and w9-w11 none; with token
    vectors each position has its own, some zero, and a document's
    position copies a query position's vector. The unit rows of the zero
    vectors are then overwritten with ones, so only the out-of-vocabulary
    masks keep their similarities at 0."""
    vocab = [f"w{i}" for i in range(12)]
    query = ["w1", "w9", "w3", "w1", "w8", "w5", "w1"]
    query += [vocab[i] for i in rng.integers(12, size=16)]
    docs = {"empty": [], "one": ["w1"], "oov": ["w9", "w10", "w8"],
            "repeats": ["w1", "w3", "w1", "w9", "w1", "w8", "w3"],
            "long": [vocab[i] for i in rng.integers(12, size=90)],
            "mid": [vocab[i] for i in rng.integers(12, size=33)]}
    if token_level:
        seqs = {doc_id: rng.normal(size=(len(toks), 5))
                for doc_id, toks in {"q": query, **docs}.items()}
        seqs["q"][[1, 4]] = 0.0
        seqs["oov"][:] = 0.0
        seqs["repeats"][2] = seqs["q"][0]
        provider = token_embeddings(seqs)
        q_ids = provider.ids("q", query)
        docs = [provider.ids(doc_id, toks) for doc_id, toks in docs.items()]
    else:
        provider = TypeEmbeddings(wv_from({**{t: rng.normal(size=5) for t in vocab[:8]},
                                           "w8": np.zeros(5)}))
        q_ids = provider.row_ids(query)
        docs = [provider.row_ids(d) for d in docs.values()]
    provider._units[:-1][~provider._usable[:-1]] = 1.0
    return provider, q_ids, docs


@pytest.mark.parametrize("token_level", [False, True])
@pytest.mark.parametrize("q_len, d_len", [(1, 1), (7, 5), (9, 33), (64, 128)])
def test_pacrr_batch_equals_each_pair_s_sim_matrix_bit_for_bit(q_len, d_len, token_level):
    """Each pair of a list's one similarity block has the bytes of its own
    `sim_matrix` over its rows cut at d_len: out-of-vocabulary query rows
    and document columns (zero-norm vectors among them), an empty document,
    a one-token one, documents cut at d_len and identities repeated on both
    sides, each pinned to 1.0 by word vectors and by none of the token
    vectors, whose copied vector is no identity."""
    rng = np.random.default_rng(70 + q_len + token_level)
    provider, q_ids, docs = pacrr_batch_list(rng, token_level)
    query = pacrr_query(q_ids, provider, rng.uniform(size=len(q_ids)), q_len)
    feats = pacrr_batch(query, docs, provider, d_len)
    assert len(feats) == len(docs)
    for (S, idf_col), ids in zip(feats, docs):
        want = sim_matrix(*query[0], *provider.rows(ids, d_len))
        assert S.shape == want.shape == (min(q_len, len(q_ids)), min(d_len, len(ids)))
        assert S.tobytes() == want.tobytes()
        assert idf_col is query[1]
    pinned = (q_ids[:q_len, None] == docs[3][None, :d_len]) & provider.in_vocab(
        q_ids[:q_len])[:, None] & provider.in_vocab(docs[3][:d_len])
    assert (feats[3][0][pinned] == 1.0).all()
    assert pinned.any() != token_level
    assert pacrr_batch(query, [], provider, d_len) == []


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


def conv_of(model, S, n: int, wide: int, spare: int = 0) -> np.ndarray:
    """`_conv` of kernel size n over the shifts of S padded for a kernel
    wide x wide, into buffers `spare` entries longer than it needs."""
    cells = S.size
    bufs = (np.empty((wide * wide + 1) * cells + spare),
            np.empty(wide * wide * cells + spare),
            np.empty(model.config.filters * cells + spare))
    stack = np.column_stack((model.params[f"K{n}"].reshape(-1, n * n),
                             model.params[f"c{n}"]))
    return model._conv(_shifts(S, wide), n, stack, bufs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pacrr_conv_matches_einsum_oracle(n):
    rng = np.random.default_rng(30 + n)
    config = PacrrConfig(kernel_sizes=(n,), filters=5, kmax=2)
    model = PacrrModel.init(rng, config)
    model.params[f"c{n}"] = rng.normal(size=5)
    for shape in [(1, 1), (3, 17), (9, 4)]:
        S = rng.uniform(-1, 1, size=shape)
        want = conv_einsum(S, model.params[f"K{n}"], model.params[f"c{n}"])
        for wide in range(n, 6):
            out = conv_of(model, S, n, wide)
            assert np.allclose(out.reshape(want.shape), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pacrr_conv_equals_strided_gather_oracle(n):
    """The window matrix copied from the shifts of S padded for a kernel n
    wide or wider gives the bits of the matmul over the strided gather, and
    the backward cache its windows and winners, on one query term, an empty
    document, one narrower than the kernel, one of d_len and a wide one; so
    do buffers longer than the arrays they receive."""
    from regir.rerank.pacrr import _row_kmax
    rng = np.random.default_rng(40 + n)
    config = PacrrConfig(d_len=39, kernel_sizes=(n,), filters=16, kmax=3)
    model = PacrrModel.init(rng, config)
    model.params[f"c{n}"] = rng.normal(size=16)
    kernels, bias = model.params[f"K{n}"], model.params[f"c{n}"]
    for t, d in [(1, 5), (4, 0), (4, 1), (5, 39), (12, 127), (30, 257)]:
        S = rng.uniform(-1, 1, size=(t, d))
        want, cols = conv_strided_im2col(S, kernels, bias)
        for wide in range(n, 6):
            for spare in (0, 5):
                out = conv_of(model, S, n, wide, spare)
                assert out.shape == want.shape and (out == want).all()
        conv_caches: list = []
        model._rows([(S, rng.uniform(size=t))], conv_caches)
        _, idx = _row_kmax(want.max(axis=0).reshape(t, d), config.kmax)
        flat = (idx + d * np.arange(t)[:, None])[idx >= 0]
        windows, winner = conv_caches[0][0]["windows"], conv_caches[0][0]["winner"]
        assert windows.shape == (len(flat), n * n) and (windows == cols[flat]).all()
        assert (winner == want[:, flat].argmax(axis=0)).all()


def test_pacrr_conv_keeps_the_bits_of_the_transposed_window_matrix():
    """`_conv` gives the bits of `K @ cols.T`, then `+= c[:, None]`, the
    layout of `conv_strided_im2col`, with nonzero biases: on every shape of
    T 1-24 and D 1-130, for kernel sizes 2 and 3 over shifts padded for the
    widest, and at two full shapes. Both paths are taken: the planes with a
    ones row where T*D is a multiple of 8, the window matrix elsewhere."""
    rng = np.random.default_rng(42)
    model = PacrrModel.init(rng, PacrrConfig())
    for n in (2, 3):
        model.params[f"c{n}"] = rng.normal(0, 0.1, size=model.config.filters)
    shapes = [(t, d) for t in range(1, 25) for d in range(1, 131)]
    shapes += [(256, 1024), (255, 1021)]
    assert {t * d % 8 == 0 for t, d in shapes} == {True, False}
    for t, d in shapes:
        S = rng.uniform(-1, 1, size=(t, d))
        for n in (2, 3):
            want, _ = conv_strided_im2col(S, model.params[f"K{n}"], model.params[f"c{n}"])
            assert np.array_equal(conv_of(model, S, n, 3), want), (t, d, n)


def test_pacrr_rows_lay_out_a_window_matrix_only_for_a_tail_pair(monkeypatch):
    """A batch whose every T*D is a multiple of 8 gives `_conv` no window
    matrix buffer; one pair past that gets one, sized for it alone."""
    model = PacrrModel.init(np.random.default_rng(3), PacrrConfig(filters=4))
    conv, seen = PacrrModel._conv, []

    def spy(self, shifts, n, stack, bufs):
        seen.append(bufs[1])
        return conv(self, shifts, n, stack, bufs)

    monkeypatch.setattr(PacrrModel, "_conv", spy)
    rng = np.random.default_rng(4)
    pairs = [(rng.uniform(size=(4, d)), np.ones(4)) for d in (2, 30, 3)]
    model.score_batch(pairs[:2])
    assert seen and all(buf is None for buf in seen)
    seen.clear()
    model.score_batch(pairs)
    assert {len(buf) for buf in seen} == {9 * 4 * 3}


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
    docs = [provider.row_ids(doc) for doc in docs]
    if kind == "drmm":
        terms = dedup_terms(query)
        q = drmm_query(provider.row_ids(terms), provider, idf.idfs(terms))
        return drmm_batch(q, docs, provider, config.B)
    q = pacrr_query(provider.row_ids(query), provider, idf.idfs(query), config.q_len)
    return pacrr_batch(q, docs, provider, config.d_len)


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


@pytest.mark.parametrize("token_level", [False, True])
@pytest.mark.parametrize("sizes", [(2, 3), (3,), (2, 3, 4, 5)])
def test_pacrr_batch_rows_and_caches_equal_per_size_oracle(sizes, token_level):
    """One padding for the widest kernel, shared shifts, shared buffers and
    one k-max per pair give the bits of a padding, a window fill and a
    k-max per kernel size: `score_batch`'s scores and every field of its
    backward caches equal the oracle's byte for byte, with nonzero conv
    biases, for a one-term query and one cut at q_len, against documents
    with no tokens, fewer than kmax, d_len and more."""
    rng = np.random.default_rng(sum(sizes) + 100 * token_level)
    config = PacrrConfig(q_len=9, d_len=16, kernel_sizes=sizes, filters=4, kmax=3)
    model = PacrrModel.init(rng, config)
    for n in sizes:
        model.params[f"c{n}"] = rng.normal(0, 0.05, size=4)
    model.params["lstm_b"] = rng.normal(0, 0.1, size=4)
    vocab = [f"t{i}" for i in range(30)]
    idf = FixedIdf({t: 0.2 * i for i, t in enumerate(vocab)})
    lengths = (0, 1, config.kmax - 1, 7, config.d_len, config.d_len + 9)
    docs = {f"d{i}": [vocab[j] for j in rng.integers(30, size=n)]
            for i, n in enumerate(lengths)}
    queries = {"q1": ["t3"], "q2": [vocab[j] for j in rng.integers(30, size=14)]}
    if token_level:
        seqs = {doc_id: rng.normal(size=(len(toks), 6))
                for doc_id, toks in {**queries, **docs}.items()}
        seqs["d3"][2] = 0.0  # a position without a vector
        provider = token_embeddings(seqs)
    else:
        provider = TypeEmbeddings(wv_from({t: rng.normal(size=6) for t in vocab[:24]}))
    for query_id, query in queries.items():
        feats = [pacrr_features(query, query_id, toks, doc_id, provider, idf,
                                config.q_len, config.d_len)
                 for doc_id, toks in docs.items()]
        caches: list = []
        scores = model.score_batch(feats, caches)
        for s_r, cache, f in zip(scores.tolist(), caches, feats):
            conv: list = []
            x = rows_per_size(model, f, conv)
            want_s, states = lstm_per_step(model, x)
            assert s_r == want_s
            assert cache["x"].tobytes() == x.tobytes()
            assert cache["states"][:, :, cache["g"]].tobytes() == states.tobytes()
            assert [c["n"] for c in cache["conv"]] == [c["n"] for c in conv] == list(sizes)
            for got, want in zip(cache["conv"], conv):
                assert got.keys() == want.keys()
                for key in ("picked", "windows", "winner"):
                    assert got[key].shape == want[key].shape
                    assert got[key].dtype == want[key].dtype
                    assert got[key].tobytes() == want[key].tobytes()


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
