"""Position-aware convolutional matcher over the query-document similarity
matrix.

Forward pass, for similarity matrix S (query terms x doc terms):
    S_k            row-wise k-max of S (unigram view)
    S_{n,k}        per kernel size n: same-padded n x n convolution with F
                   filters, max over filters, then row-wise k-max
    S_sim          [S_k | S_{n,k}... | softmax-idf column], one row per
                   retained query term
    s_r            last hidden state of a single-unit LSTM read over the
                   rows of S_sim

Backward pass is hand-written; gradient routing through the k-max and
max-over-filters picks the stable argmax (ties resolve to the lowest index),
and everything is checked against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PacrrConfig:
    q_len: int = 256
    d_len: int = 1024
    kernel_sizes: tuple[int, ...] = (2, 3)
    filters: int = 16
    kmax: int = 2

    def __post_init__(self):
        if self.q_len < 1 or self.d_len < 1:
            raise ValueError("q_len and d_len must be >= 1")
        if self.kmax < 1:
            raise ValueError("kmax must be >= 1")
        if self.filters < 1:
            raise ValueError("filters must be >= 1")
        if any(n < 2 for n in self.kernel_sizes):
            raise ValueError("kernel sizes must be >= 2 (the unigram view is built in)")
        if len(set(self.kernel_sizes)) != len(self.kernel_sizes):
            # each size has one filter stack, K{n}, but one LSTM input view
            # per listed size
            raise ValueError(f"kernel sizes must be distinct, got {self.kernel_sizes}")

    @property
    def input_dim(self) -> int:
        return (1 + len(self.kernel_sizes)) * self.kmax + 1


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _row_kmax(M: np.ndarray, k: int):
    """Top-k values per row, descending; rows shorter than k pad with zeros.
    Returns (values (T,k), source column indices (T,k), -1 for padding).
    Each of the k passes takes the row argmax, which resolves ties to the
    lowest column, so the picks equal a stable descending sort's. M must be
    finite: a picked entry is knocked out with -inf."""
    t, d = M.shape
    vals = np.zeros((t, k))
    idx = np.full((t, k), -1, dtype=np.intp)
    rows = np.arange(t)
    rest = M.copy()
    for j in range(min(k, d)):
        col = rest.argmax(axis=1)
        idx[:, j] = col
        vals[:, j] = M[rows, col]
        rest[rows, col] = -np.inf
    return vals, idx


class PacrrModel:
    """params:
        K{n} (F, n, n), c{n} (F,)       conv stacks per kernel size
        lstm_W (4, input_dim), lstm_U (4,), lstm_b (4,)
                                        gate order: input, forget, output,
                                        candidate
    """

    kind = "pacrr"

    def __init__(self, params: dict[str, np.ndarray], config: PacrrConfig):
        self.params = params
        self.config = config

    @classmethod
    def init(cls, rng: np.random.Generator, config: PacrrConfig | None = None) -> "PacrrModel":
        config = config or PacrrConfig()
        params: dict[str, np.ndarray] = {}
        for n in config.kernel_sizes:
            params[f"K{n}"] = rng.normal(0.0, 0.1, size=(config.filters, n, n))
            params[f"c{n}"] = np.zeros(config.filters)
        params["lstm_W"] = rng.normal(0.0, 0.1, size=(4, config.input_dim))
        params["lstm_U"] = rng.normal(0.0, 0.1, size=4)
        params["lstm_b"] = np.zeros(4)
        return cls(params, config)

    def _conv(self, S: np.ndarray, n: int):
        """Same-padded n x n correlation with F filters as one im2col matmul;
        returns the (F, T*D) outputs and the (T*D, n*n) window matrix, which
        the backward pass reuses. Column a*n + b of the window matrix is the
        padded S shifted by (a, b), copied from a contiguous slice. The
        matmul takes the window matrix transposed, as the strided gather
        it replaced did: with numpy's OpenBLAS (0.3.31, AVX-512) `K @ cols.T`
        and `K @ cols.T.copy()` differ in the last bits of some columns past
        the last multiple of 8, and only this layout keeps the scores of
        earlier releases."""
        t, d = S.shape
        p = (n - 1) // 2
        padded = np.zeros((t + n - 1, d + n - 1))
        padded[p:p + t, p:p + d] = S
        cols = np.empty((t, d, n * n))
        for a in range(n):
            for b in range(n):
                cols[:, :, a * n + b] = padded[a:a + t, b:b + d]
        cols = cols.reshape(t * d, n * n)
        out = self.params[f"K{n}"].reshape(-1, n * n) @ cols.T
        out += self.params[f"c{n}"][:, None]
        return out, cols

    def _rows(self, feats, conv_cache: list | None = None) -> np.ndarray:
        """One pair's LSTM input S_sim, (T, input_dim), from feats = (S (T, D),
        idf_col (T,)). A document with no tokens (D = 0) gives all-zero
        views. Given a list, conv_cache receives what the backward pass needs
        of each convolution."""
        S, idf_col = feats
        if S.ndim != 2 or S.shape[0] != idf_col.shape[0]:
            raise ValueError("similarity matrix and idf column disagree on "
                             "query length")
        if S.shape[0] == 0:
            raise ValueError("empty query")
        k = self.config.kmax
        views = [_row_kmax(S, k)[0]]
        for n in self.config.kernel_sizes:
            c_out, cols = self._conv(S, n)
            v_n, idx_n = _row_kmax(c_out.max(axis=0).reshape(S.shape), k)
            views.append(v_n)
            if conv_cache is None:
                continue
            # only the k-max picks carry gradient, each into the filter that
            # won its position: keep just their windows and winners
            picked = idx_n >= 0
            flat = (idx_n + S.shape[1] * np.arange(S.shape[0])[:, None])[picked]
            conv_cache.append({"n": n, "picked": picked, "windows": cols[flat],
                               "winner": c_out[:, flat].argmax(axis=0)})
        return np.concatenate(views + [idf_col[:, None]], axis=1)

    def score(self, feats) -> tuple[float, dict]:
        """feats = (S (T, D), idf_col (T,)); returns s_r and the backward
        cache: `score_batch` of the one pair."""
        caches: list = []
        return float(self.score_batch([feats], caches)[0]), caches[0]

    def score_batch(self, feats_list, caches: list | None = None) -> np.ndarray:
        """s_r of each pair in feats_list, the candidates of one query (so
        every S has the query's T rows). Given a list, caches receives each
        pair's backward cache. The rows are built per pair, and the
        recurrence runs over all pairs at once, so no pair's s_r or cache
        depends on the others in the batch."""
        if caches is None:
            return self._lstm(np.stack([self._rows(feats) for feats in feats_list]))
        convs: list[list] = [[] for _ in feats_list]
        X = np.stack([self._rows(feats, conv) for feats, conv in zip(feats_list, convs)])
        steps: list = []
        h = self._lstm(X, steps)
        caches.extend({"conv": conv, "x": X[g],
                       "steps": [tuple(v[g] for v in step) for step in steps]}
                      for g, conv in enumerate(convs))
        return h

    def _lstm(self, X: np.ndarray, steps: list | None = None) -> np.ndarray:
        """Last hidden state of each of G sequences X (G, T, input_dim), all
        read in one pass over the T steps. The input products of every step
        are one stacked matmul whose slices are the per-sequence gemvs
        `w @ x[t]`, so G does not change a bit of any sequence's result
        (`X[:, t] @ w.T` would). Given a list, steps receives each step's
        inputs and states, (G,)-long along the last axis, for the backward
        pass."""
        w, u, b = self.params["lstm_W"], self.params["lstm_U"], self.params["lstm_b"]
        wx = np.matmul(w, X[..., None])[..., 0]
        h = c = np.zeros(X.shape[0])
        for t in range(X.shape[1]):
            a = wx[:, t] + u * h[:, None] + b
            i, f, o = _sigmoid(a[:, :3]).T
            g = np.tanh(a[:, 3])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            if steps is not None:
                steps.append((X[:, t], h, c, i, f, o, g, tc))
            h, c = o * tc, c_new
        return h

    def backward(self, cache, d_score: float) -> dict[str, np.ndarray]:
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        d_x = self._lstm_backward(cache["steps"], d_score, grads)
        k, f_count = self.config.kmax, self.config.filters
        # S is fixed input, so no gradient flows into it
        for pos, conv in enumerate(cache["conv"]):
            n, winner = conv["n"], conv["winner"]
            d_v = d_x[:, (1 + pos) * k:(2 + pos) * k][conv["picked"]]
            d_k = np.zeros((f_count, n * n))
            np.add.at(d_k, winner, d_v[:, None] * conv["windows"])
            grads[f"K{n}"] += d_k.reshape(-1, n, n)
            grads[f"c{n}"] += np.bincount(winner, weights=d_v, minlength=f_count)
        return grads

    def _lstm_backward(self, steps, d_score: float, grads) -> np.ndarray:
        w, u = self.params["lstm_W"], self.params["lstm_U"]
        d_x = np.zeros((len(steps), w.shape[1]))
        d_h, d_c = d_score, 0.0
        for t in range(len(steps) - 1, -1, -1):
            x, h_prev, c_prev, i, f, o, g, tc = steps[t]
            d_o = d_h * tc
            d_c = d_c + d_h * o * (1.0 - tc * tc)
            d_i, d_f, d_g = d_c * g, d_c * c_prev, d_c * i
            d_a = np.array([d_i * i * (1 - i), d_f * f * (1 - f),
                            d_o * o * (1 - o), d_g * (1 - g * g)])
            grads["lstm_W"] += np.outer(d_a, x)
            grads["lstm_U"] += d_a * h_prev
            grads["lstm_b"] += d_a
            d_x[t] = d_a @ w
            d_h = float(d_a @ u)
            d_c = d_c * f
        return d_x

