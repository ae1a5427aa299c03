"""Relevance matching by per-query-term similarity histograms.

Each distinct query term contributes a histogram counting its cosine
similarities against the document's tokens; a small feed-forward net scores
each histogram's log-counts and an idf-driven softmax gate weighs the terms:

    s_r = sum_i softmax(w_g * idf)_i * MLP(log1p(hist_i))

Gradients are hand-written (the whole model is a few hundred parameters;
a tensor framework would be the only heavyweight dependency in the engine)
and are validated against finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from .features import softmax


class DrmmModel:
    """MLP over (bins + 1)-long log-count histograms with a learned idf gate
    scalar.

    params:
        W1 (hidden, bins+1), b1 (hidden,)   tanh layer
        W2 (hidden,), b2 (1,)               linear output head
        w_g (1,)                            gate logit scale on idf
    """

    kind = "drmm"

    def __init__(self, params: dict[str, np.ndarray], bins: int):
        self.params = params
        self.bins = bins

    @classmethod
    def init(cls, rng: np.random.Generator, bins: int = 30, hidden: int = 5) -> "DrmmModel":
        params = {
            "W1": rng.normal(0.0, 0.1, size=(hidden, bins + 1)),
            "b1": np.zeros(hidden),
            "W2": rng.normal(0.0, 0.1, size=hidden),
            "b2": np.zeros(1),
            "w_g": np.ones(1),
        }
        return cls(params, bins)

    def score(self, feats) -> tuple[float, dict]:
        """feats = (count histograms (T, bins+1), idf (T,)). Returns s_r and
        the cache needed for the backward pass: `score_batch` of the one
        pair."""
        caches: list = []
        return float(self.score_batch([feats], caches)[0]), caches[0]

    def score_batch(self, feats_list, caches: list | None = None) -> np.ndarray:
        """s_r of each pair in feats_list, the candidates of one query, which
        share its idf. A pair's histograms are counts of any numeric dtype;
        the stacked batch becomes log-counts in one float64 `np.log1p`
        (without `dtype=`, numpy's log1p of the uint8 counts the feature
        store keeps gives float16). Given a list, caches receives each
        pair's backward cache, which holds its float rows. Both come from
        one `_forward`, whose products are per-pair slices, so no pair's s_r
        or cache depends on the others in the batch."""
        idf = feats_list[0][1]
        if any(f[1] is not idf and not np.array_equal(f[1], idf)
               for f in feats_list):
            raise ValueError("a batch holds the candidates of one query, "
                             "which share its idf")
        hists = np.log1p(np.stack([counts for counts, _ in feats_list]),
                         dtype=np.float64)
        z, out, gate, s_r = self._forward(hists, idf)
        if caches is not None:
            caches.extend({"hists": hists[g], "idf": idf, "z": z[g], "out": out[g],
                           "gate": gate} for g in range(len(feats_list)))
        return s_r

    def _forward(self, hists: np.ndarray, idf: np.ndarray):
        """The MLP over G documents' log-count histograms (G, T, bins+1)
        against one query, whose gate is computed once. Each stacked
        matmul's slices are one document's products, so G changes no bit of
        its s_r; the gate weighting is a (1, T) @ (T, 1) slice, the per-pair
        dot (the gemv `out @ gate` would differ). Returns z (G, T, hidden),
        out (G, T), gate (T,) and s_r (G,)."""
        if hists.ndim != 3 or hists.shape[2] != self.bins + 1:
            raise ValueError(f"histogram width {hists.shape[1:]} does not "
                             f"match bins={self.bins}")
        p = self.params
        z = np.tanh(np.matmul(hists, p["W1"].T) + p["b1"])
        out = np.matmul(z, p["W2"]) + p["b2"][0]
        gate = softmax(p["w_g"][0] * idf)
        return z, out, gate, np.matmul(out[:, None, :], gate[:, None])[:, 0, 0]

    def backward_batch(self, caches, d_scores) -> list[dict[str, np.ndarray]]:
        """The gradients of d_score * s_r for each pair's backward cache and
        d_score, in order, one `backward` each."""
        return [self.backward(cache, d) for cache, d in zip(caches, d_scores)]

    def backward(self, cache, d_score: float) -> dict[str, np.ndarray]:
        p = self.params
        hists, idf = cache["hists"], cache["idf"]
        z, out, gate = cache["z"], cache["out"], cache["gate"]
        d_out = d_score * gate
        d_gate = d_score * out
        d_logits = gate * (d_gate - float(d_gate @ gate))
        d_wg = np.array([float(d_logits @ idf)])
        d_W2 = z.T @ d_out
        d_b2 = np.array([d_out.sum()])
        d_z = np.outer(d_out, p["W2"])
        d_pre = d_z * (1.0 - z * z)
        return {
            "W1": d_pre.T @ hists,
            "b1": d_pre.sum(axis=0),
            "W2": d_W2,
            "b2": d_b2,
            "w_g": d_wg,
        }

