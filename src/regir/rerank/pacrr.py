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

import math
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

    def _conv(self, shifts: np.ndarray, n: int, stack: np.ndarray, bufs) -> np.ndarray:
        """Same-padded n x n correlation with F filters as one im2col matmul;
        returns the (F, T*D) outputs with the bits of `K @ cols.T`, then
        `+= c[:, None]`, where cols is the (T*D, n*n) C-contiguous window
        matrix of the strided gather of earlier releases. shifts are the
        `_shifts` of S for a kernel at least n wide, whose centred n x n
        block holds n's shifts: column a*n + b of cols is its shift (a, b).
        stack is `[K | c]`, n's (F, n*n) kernels with their biases as a last
        column, which `_rows` builds once per call.

        The bit rule, from a probe of numpy's OpenBLAS (0.3.31, SkylakeX
        core) at 1 and 2 threads: `K @ planes` over the same values laid out
        as contiguous (n*n, T*D) planes gives those bits on every column
        before the last multiple of 8 of T*D (all 6,144 shapes of T 1-24,
        D 1-128, n 2 and 3), and so does `[K | c] @ [planes; ones]`, the
        bias folded in as a last row of ones (every such shape, and up to
        T 256, D 1,024). No layout found keeps the bits of the columns past
        that multiple: zero padding and a separate tail matmul both changed
        some. So when T*D is a multiple of 8 the convolution is that one
        matmul; otherwise cols is laid out, the widest kernel's by one
        transposing copy of its planes and a narrower kernel's one shift at
        a time, and the bias added after the matmul.

        Everything is written into bufs, flat buffers for the planes with
        their ones row, cols (None when T*D is a multiple of 8) and the
        outputs of the shifts' widest kernel, at least: that keeps the bits,
        and a pair that reuses another's buffers faults in no fresh pages
        for them."""
        wide, _, t, d = shifts.shape
        planes_buf, cols_buf, out_buf = bufs
        o = (wide - 1) // 2 - (n - 1) // 2
        out = _view(out_buf, (self.config.filters, t * d))
        if t * d % 8 == 0:
            planes = _view(planes_buf, (n * n + 1, t * d))
            planes[:-1].reshape(n, n, t, d)[...] = shifts[o:o + n, o:o + n]
            planes[-1] = 1.0
            return np.matmul(stack, planes, out=out)
        cols = _view(cols_buf, (t * d, n * n))
        if n == wide:
            planes = _view(planes_buf, shifts.shape)
            planes[...] = shifts
            cols[...] = planes.reshape(n * n, t * d).T
        else:
            by_shift = cols.reshape(t, d, n * n)
            for a in range(n):
                for b in range(n):
                    by_shift[:, :, a * n + b] = shifts[o + a, o + b]
        np.matmul(self.params[f"K{n}"].reshape(-1, n * n), cols.T, out=out)
        out += self.params[f"c{n}"][:, None]
        return out

    def _rows(self, feats_list, conv_caches: list | None = None) -> np.ndarray:
        """The LSTM inputs S_sim of the pairs in feats_list, each (S (T, D),
        idf_col (T,)) of one query, as one (G, T, input_dim) array. A
        document with no tokens (D = 0) gives all-zero views.

        Per pair, S is padded once, for the widest kernel, and every kernel
        size reads its shifts (see `_conv`). Each size's max over filters is
        written next to S in one (1 + len(kernel_sizes), T, D) block, and one
        `_row_kmax` over the block's rows gives every view. The pairs reuse
        one set of buffers, sized for the widest document; the window matrix
        gets one only when some pair's T*D is no multiple of 8, and each
        kernel size's `[K | c]` stack is built once per call. Given a list,
        conv_caches receives what the backward pass needs of each pair's
        convolutions (see `_picks`), and each kernel size's outputs get a
        buffer of their own, read once the k-max has picked."""
        cfg = self.config
        k, sizes, wide = cfg.kmax, cfg.kernel_sizes, max(cfg.kernel_sizes)
        t = _query_length(feats_list)
        most = t * max(S.shape[1] for S, _ in feats_list)
        tail = [t * S.shape[1] for S, _ in feats_list if t * S.shape[1] % 8]
        planes_buf = np.empty((wide * wide + 1) * most)
        cols_buf = np.empty(wide * wide * max(tail)) if tail else None
        out_bufs = np.empty((len(sizes) if conv_caches is not None else 1,
                             cfg.filters * most))
        stacks = [np.column_stack((self.params[f"K{n}"].reshape(-1, n * n),
                                   self.params[f"c{n}"])) for n in sizes]
        X = np.empty((len(feats_list), t, cfg.input_dim))
        for x, (S, idf_col) in zip(X, feats_list):
            d = S.shape[1]
            shifts = _shifts(S, wide)
            block = np.empty((1 + len(sizes), t, d))
            block[0] = S
            outs = []
            for pos, (n, stack) in enumerate(zip(sizes, stacks)):
                outs.append(self._conv(shifts, n, stack, (planes_buf, cols_buf,
                                                          out_bufs[pos % len(out_bufs)])))
                block[1 + pos] = outs[-1].max(axis=0).reshape(t, d)
            vals, idx = _row_kmax(block.reshape(len(block) * t, d), k)
            x[:, :-1] = vals.reshape(len(block), t, k).transpose(1, 0, 2).reshape(t, -1)
            x[:, -1] = idf_col
            if conv_caches is not None:
                conv_caches.append([
                    _picks(shifts, n, idx_n, out) for n, idx_n, out in
                    zip(sizes, idx.reshape(len(block), t, k)[1:], outs)])
        return X

    def score(self, feats) -> tuple[float, dict]:
        """feats = (S (T, D), idf_col (T,)); returns s_r and the backward
        cache: `score_batch` of the one pair."""
        caches: list = []
        return float(self.score_batch([feats], caches)[0]), caches[0]

    def score_batch(self, feats_list, caches: list | None = None) -> np.ndarray:
        """s_r of each pair in feats_list, the candidates of one query (so
        every S has the query's T rows). Given a list, caches receives each
        pair's backward cache: its convolutions' picks, its rows x, the
        batch's step states and its index g in them. The rows are built per
        pair, and the recurrence runs over all pairs at once, so no pair's
        s_r or cache depends on the others in the batch."""
        if caches is None:
            return self._lstm(self._rows(feats_list))
        convs: list[list] = []
        X = self._rows(feats_list, convs)
        steps: list = []
        h = self._lstm(X, steps)
        states = np.array(steps)
        caches.extend({"conv": conv, "x": x, "states": states, "g": g}
                      for g, (conv, x) in enumerate(zip(convs, X)))
        return h

    def _lstm(self, X: np.ndarray, steps: list | None = None) -> np.ndarray:
        """Last hidden state of each of G sequences X (G, T, input_dim), all
        read in one pass over the T steps. The input products of every step
        are one stacked matmul whose slices are the per-sequence gemvs
        `w @ x[t]`, so G does not change a bit of any sequence's result
        (`X[:, t] @ w.T` would). Given a list, steps receives each step's
        states h, c, i, f, o, g and tanh(c_new), (G,)-long each, for the
        backward pass."""
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
                steps.append((h, c, i, f, o, g, tc))
            h, c = o * tc, c_new
        return h

    def backward(self, cache, d_score: float) -> dict[str, np.ndarray]:
        """One pair's gradients: `backward_batch` of the one pair."""
        return self.backward_batch([cache], [d_score])[0]

    def backward_batch(self, caches, d_scores) -> list[dict[str, np.ndarray]]:
        """The gradients of d_score * s_r for each pair's backward cache and
        d_score, in order; the caches may come from different `score_batch`
        calls. The pairs of equal query length T share one
        `_lstm_backward` pass over the T steps and one gradient scatter per
        kernel size. Each pair's gradients keep the bits of back-propagating
        it alone: the stacked products are slices of its own gemv and dot,
        and every sum runs within the pair, in the order its own loop adds."""
        by_length: dict[int, list[int]] = {}
        for j, cache in enumerate(caches):
            by_length.setdefault(len(cache["x"]), []).append(j)
        grads: list = [None] * len(caches)
        for group in by_length.values():
            members = [caches[j] for j in group]
            d_x, stacked = self._lstm_backward(
                members, np.array([d_scores[j] for j in group]))
            stacked.update(self._conv_backward(members, d_x))
            for p, j in enumerate(group):
                grads[j] = {name: stacked[name][p] for name in self.params}
        return grads

    def _lstm_backward(self, caches, d_score: np.ndarray):
        """Back-propagates d_score through the recurrence of P pairs of one
        query length in one pass over the steps, in descending t. Returns
        d_x (P, T, input_dim) and the LSTM's gradients stacked per pair,
        each a running sum from zero over the steps, as a per-pair loop
        keeps it."""
        w, u = self.params["lstm_W"], self.params["lstm_U"]
        xs = np.stack([cache["x"] for cache in caches])
        states = np.stack([cache["states"][:, :, cache["g"]] for cache in caches],
                          axis=-1)
        d_x = np.empty_like(xs)
        grads = {"lstm_W": np.zeros((len(xs),) + w.shape),
                 "lstm_U": np.zeros((len(xs), 4)), "lstm_b": np.zeros((len(xs), 4))}
        d_h, d_c = d_score, np.zeros(len(xs))
        for t in range(xs.shape[1] - 1, -1, -1):
            h_prev, c_prev, i, f, o, g, tc = states[t]
            d_o = d_h * tc
            d_c = d_c + d_h * o * (1.0 - tc * tc)
            d_i, d_f, d_g = d_c * g, d_c * c_prev, d_c * i
            d_a = np.stack((d_i * i * (1 - i), d_f * f * (1 - f),
                            d_o * o * (1 - o), d_g * (1 - g * g)), axis=1)
            grads["lstm_W"] += d_a[:, :, None] * xs[:, t, None, :]
            grads["lstm_U"] += d_a * h_prev[:, None]
            grads["lstm_b"] += d_a
            # per pair, the gemv `d_a @ w` and the dot `d_a @ u`
            d_x[:, t] = np.matmul(d_a[:, None], w)[:, 0]
            d_h = np.matmul(d_a[:, None], u)[:, 0]
            d_c = d_c * f
        return d_x, grads

    def _conv_backward(self, caches, d_x: np.ndarray) -> dict[str, np.ndarray]:
        """The conv stacks' gradients of P pairs, stacked per pair, from
        their d_x: one scatter per kernel size over all pairs' picks, each
        pair's into its own rows, in its own order. S is fixed input, so no
        gradient flows into it."""
        k, f_count, p_count = self.config.kmax, self.config.filters, len(caches)
        grads = {}
        for pos, n in enumerate(self.config.kernel_sizes):
            convs = [cache["conv"][pos] for cache in caches]
            picked = np.stack([conv["picked"] for conv in convs])
            d_v = d_x[:, :, (1 + pos) * k:(2 + pos) * k][picked]
            winner = np.concatenate([conv["winner"] for conv in convs])
            winner += np.repeat(np.arange(p_count) * f_count,
                                [len(conv["winner"]) for conv in convs])
            d_k = np.zeros((p_count * f_count, n * n))
            np.add.at(d_k, winner, d_v[:, None] * np.concatenate(
                [conv["windows"] for conv in convs]))
            grads[f"K{n}"] = d_k.reshape(p_count, f_count, n, n)
            grads[f"c{n}"] = np.bincount(winner, weights=d_v, minlength=p_count *
                                         f_count).reshape(p_count, f_count)
        return grads


def _view(buf: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous array of shape over the start of the flat buffer buf."""
    return buf[:math.prod(shape)].reshape(shape)


def _query_length(feats_list) -> int:
    """The query length T that every pair of feats_list, S and idf column
    alike, shares."""
    t = len(feats_list[0][1])
    if any(S.ndim != 2 or len(S) != t or len(idf_col) != t for S, idf_col in feats_list):
        raise ValueError("similarity matrices and idf columns disagree on the "
                         "query length")
    if t == 0:
        raise ValueError("empty query")
    return t


def _picks(shifts: np.ndarray, n: int, idx: np.ndarray, out: np.ndarray) -> dict:
    """The backward cache of kernel size n's view: only its k-max picks,
    idx (T, k) as `_row_kmax` gives them, carry gradient, each into the
    filter whose output, out (F, T*D), won its position. So it keeps which
    picks are real, and their windows, read off the shifts, and winners."""
    picked = idx >= 0
    t_at, d_at = np.nonzero(picked)[0], idx[picked]
    o = (len(shifts) - 1) // 2 - (n - 1) // 2
    windows = shifts[o:o + n, o:o + n, t_at, d_at].reshape(n * n, len(t_at)).T
    return {"n": n, "picked": picked, "windows": windows,
            "winner": out[:, t_at * shifts.shape[3] + d_at].argmax(axis=0)}


def _shifts(S: np.ndarray, wide: int) -> np.ndarray:
    """S zero-padded once, for a same-padded wide x wide kernel, seen as its
    shifts: [a, b] of the (wide, wide, T, D) view is the padded S shifted by
    (a, b)."""
    t, d = S.shape
    p = (wide - 1) // 2
    padded = np.zeros((t + wide - 1, d + wide - 1))
    padded[p:p + t, p:p + d] = S
    return np.ndarray((wide, wide, t, d), buffer=padded, strides=padded.strides * 2)
