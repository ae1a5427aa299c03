"""Pairwise hinge training of the neural matchers and re-ranking proper.

Each candidate document's final relevance is
    rel(q, d) = w_r * s_r + w_p * s_p
where s_r is the matcher's score and s_p the min-max normalized pre-fetcher
score; w_r and w_p train jointly with the matcher under

    loss = max(0, 1 - rel(q, d+) + rel(q, d-))

with Adam updates, early stopping on dev R@20, and a single RNG seed driving
sampling, shuffling and initialization. Training is single-threaded on
purpose: a fixed seed must give a bit-identical loss curve.
"""

from __future__ import annotations

import copy
import logging
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .._npz import read_npz, write_npz
from .._textio import parse_number, read_key_values, write_table
from ..fusion import normalize_scores
from ..metrics import float_sum, recall_at_k
from ..ranking import RankedList, Run, per_query, sort_scored
from .drmm import DrmmModel
from .features import drmm_batch, drmm_query, pacrr_batch, pacrr_query
from .pacrr import PacrrConfig, PacrrModel

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "regir-rerank-checkpoint"
CHECKPOINT_VERSION = 2
# early stopping's depth: the R@k of the log's dev_r20 and the checkpoint's
# best_dev_r20
DEV_K = 20


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class Hyperparams:
    lr: float = 1e-3
    batch: int = 32
    patience: int = 5
    max_epochs: int = 100
    negatives: int = 4
    B: int = 30
    hidden: int = 5
    kmax: int = 2
    kernel_sizes: tuple[int, ...] = (2, 3)
    filters: int = 16
    q_len: int = 256
    d_len: int = 1024
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        for name in ("batch", "max_epochs", "negatives", "B", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        self.pacrr_config()  # PacrrConfig checks the PACRR shape

    @classmethod
    def from_file(cls, path) -> "Hyperparams":
        """Flat key=value text; kernel_sizes is comma-separated. Errors name
        the file."""
        values: dict = {}
        for line_no, key, raw in read_key_values(path, cls.__dataclass_fields__):
            where = f"{path}: line {line_no}: {key}"
            if key == "kernel_sizes":
                values[key] = tuple(parse_number(x, int, where)
                                    for x in raw.split(",") if x)
            else:
                values[key] = parse_number(raw, float if key == "lr" else int, where)
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def pacrr_config(self) -> PacrrConfig:
        return PacrrConfig(q_len=self.q_len, d_len=self.d_len,
                           kernel_sizes=self.kernel_sizes,
                           filters=self.filters, kmax=self.kmax)


@dataclass(frozen=True)
class TrainTriple:
    query_id: str
    pos_doc_id: str
    neg_doc_id: str


def hinge_loss(rel_pos: float, rel_neg: float) -> float:
    """Zero exactly when the positive out-scores the negative by the full
    unit margin."""
    return max(0.0, 1.0 - rel_pos + rel_neg)


def rel_score(s_r: float, s_p: float, w_r: float, w_p: float) -> float:
    return w_r * s_r + w_p * s_p


def sample_triples(query_ids, qrels, run: Run, negatives: int,
                   rng: random.Random) -> tuple[list[TrainTriple], int]:
    """One (positive, negative) pair set per relevant document found in the
    pre-fetched list; negatives drawn uniformly without replacement from the
    non-relevant entries. Returns the triples and the count of relevant
    documents the pre-fetcher missed (those can never be trained on)."""
    if negatives < 1:
        raise ValueError("negatives must be >= 1")
    triples: list[TrainTriple] = []
    skipped = 0
    for query_id in query_ids:
        relevant = qrels.relevant(query_id)
        if query_id not in run:
            raise KeyError(f"no pre-fetched list for query {query_id!r}")
        ids = run[query_id].doc_ids
        positives = [d for d in ids if d in relevant]
        negs = [d for d in ids if d not in relevant]
        skipped += len(relevant) - len(positives)
        if not positives:
            log.warning("query %s: no relevant document in the pre-fetched "
                        "top-%d; skipped", query_id, len(ids))
            continue
        if not negs:
            continue
        for pos in positives:
            for neg in rng.sample(negs, min(negatives, len(negs))):
                triples.append(TrainTriple(query_id, pos, neg))
    return triples, skipped


class Adam:
    """Bias-corrected adaptive-moment updates, applied in place."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, g in grads.items():
            self.m[key] = b1 * self.m[key] + (1 - b1) * g
            self.v[key] = b2 * self.v[key] + (1 - b2) * g * g
            m_hat = self.m[key] / (1 - b1 ** self.t)
            v_hat = self.v[key] / (1 - b2 ** self.t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class FeatureStore:
    """Caches per-(query, document) matcher features; none depend on
    trainable parameters, so a pair that training reads again is computed
    once.

    `fill` caches: training fills each query's triple documents before the
    first epoch, and each dev list, all of which it reads every epoch.
    `batch` reads a list without caching what it computes, so a test list's
    features live only while it is scored. DRMM's features are cached as
    `drmm_batch` returns them: exact count histograms, one byte per bin
    unless a bin of their batch counts 256 tokens or more; the model takes
    their log-counts when it scores them.

    Queries and documents alike come as term ids from the pipeline's
    denoised bags of their collection, found by corpus row and mapped to
    provider rows (and a query's to idf) through one array over the bags'
    terms. The pipeline encodes each collection once and keeps its bags, so
    the store shares the query bags the pre-fetch reads, and nothing is
    tokenized here.
    """

    def __init__(self, kind: str, provider, pipeline, query_corpus, pool_corpus,
                 hp: Hyperparams):
        if kind not in ("drmm", "pacrr"):
            raise ValueError(f"unknown matcher kind {kind!r}")
        self.kind = kind
        self.provider = provider
        self.hp = hp
        self._bags = pipeline.bags(pool_corpus)
        self._row = pool_corpus.row
        self._term_rows = provider.row_ids(self._bags.terms)
        self._q_bags = pipeline.bags(query_corpus)
        self._q_row = query_corpus.row
        self._q_term_rows = provider.row_ids(self._q_bags.terms)
        self._q_idf = pipeline.idf_table.idfs(self._q_bags.terms)
        self._feats: dict[tuple[str, str], object] = {}

    def _query(self, query_id: str):
        """The query's side of its features: for DRMM with a vector per term
        its distinct terms in first-occurrence order, else its sequence."""
        i, bags = self._q_row[query_id], self._q_bags
        terms = (bags.ids[bags.offsets[i]:bags.offsets[i + 1]]
                 if self.kind == "drmm" and self.provider.dedup else bags.sequence(i))
        ids = self.provider.ids(query_id, self._q_term_rows[terms])
        if self.kind == "drmm":
            return drmm_query(ids, self.provider, self._q_idf[terms])
        return pacrr_query(ids, self.provider, self._q_idf[terms], self.hp.q_len)

    def _missing(self, query_id: str, doc_ids) -> list[str]:
        return [d for d in dict.fromkeys(doc_ids) if (query_id, d) not in self._feats]

    def _compute(self, query_id: str, doc_ids: list[str]) -> list:
        """The features of the query with each of doc_ids, in order: DRMM's
        in one `drmm_batch`, which multiplies the query by each distinct
        row of a batch of documents once, PACRR's in one `pacrr_batch`,
        whose pairs are views of one similarity block. An
        unknown doc_id or query id raises KeyError before anything is
        computed."""
        docs = [self.provider.ids(doc_id, self._term_rows[
                    self._bags.sequence(self._row[doc_id])]) for doc_id in doc_ids]
        if not docs:
            return []
        query = self._query(query_id)
        if self.kind == "drmm":
            return drmm_batch(query, docs, self.provider, self.hp.B)
        return pacrr_batch(query, docs, self.provider, self.hp.d_len)

    def fill(self, query_id: str, doc_ids) -> None:
        """Computes and caches the features of each pair of the query with
        doc_ids that is not cached yet. An unknown doc_id or query id raises
        KeyError before anything is cached."""
        missing = self._missing(query_id, doc_ids)
        self._feats.update(zip([(query_id, d) for d in missing],
                               self._compute(query_id, missing)))

    def batch(self, query_id: str, doc_ids) -> list:
        """The features of the query with each of doc_ids, in order: cached
        pairs from the cache, the others computed together as `fill` would
        and not kept. An unknown doc_id or query id raises KeyError before
        anything is computed."""
        missing = self._missing(query_id, doc_ids)
        computed = dict(zip(missing, self._compute(query_id, missing)))
        return [computed[d] if d in computed else self._feats[query_id, d]
                for d in doc_ids]

    def features(self, query_id: str, doc_id: str):
        key = (query_id, doc_id)
        if key not in self._feats:
            self.fill(query_id, (doc_id,))
        return self._feats[key]


def init_model(kind: str, hp: Hyperparams, rng: np.random.Generator):
    if kind == "drmm":
        return DrmmModel.init(rng, bins=hp.B, hidden=hp.hidden)
    if kind == "pacrr":
        return PacrrModel.init(rng, hp.pacrr_config())
    raise ValueError(f"unknown matcher kind {kind!r}")


class Reranker:
    """A trained matcher plus fusion weights, bound to a feature store."""

    def __init__(self, model, w_r: float, w_p: float, store: FeatureStore):
        self.model = model
        self.w_r = w_r
        self.w_p = w_p
        self.store = store

    def rerank_list(self, query_id: str, ranking: RankedList,
                    features: list | None = None) -> RankedList:
        """Reorder the pre-fetched candidates by rel(q, d), scored in one
        `score_batch` call. Their features are `features`, in list order,
        when the caller holds them, else the store's `batch`: a pair the
        store has not cached is computed for this call and then dropped."""
        if not ranking:
            return ranking
        norm = dict(normalize_scores(ranking))
        if features is None:
            features = self.store.batch(query_id, ranking.doc_ids)
        s_r = self.model.score_batch(features)
        return RankedList(sort_scored(
            [(doc_id, rel_score(s, norm[doc_id], self.w_r, self.w_p))
             for doc_id, s in zip(ranking.doc_ids, s_r.tolist())]), presorted=True)


def rerank_run(run: Run, rerankers: list[Reranker]) -> list[Run]:
    """Each reranker's re-ranking of the run, list by list. The rerankers
    share one store: a list's features are read once through its `batch`,
    scored by every model and dropped unless the store caches them. A list
    whose features or re-ranking fail is refused naming its query."""
    def rerank(query_id):
        ranking = run[query_id]
        features = rerankers[0].store.batch(query_id, ranking.doc_ids)
        return [r.rerank_list(query_id, ranking, features) for r in rerankers]

    lists = per_query(rerank, run)
    return [Run((q, reranked[i]) for q, reranked in lists.items())
            for i in range(len(rerankers))]


def _dev_recall(params_w, model, store: FeatureStore, dev_ids, qrels, run: Run,
                k: int) -> float:
    dev = Run({q: run[q] for q in qrels.judged(dev_ids)})
    # every epoch re-scores the dev lists, so their features are cached
    for query_id, ranking in dev.items():
        store.fill(query_id, ranking.doc_ids)
    [reranked] = rerank_run(dev, [Reranker(model, float(params_w["w_r"][0]),
                                           float(params_w["w_p"][0]), store)])
    return float_sum(recall_at_k(reranked[q], qrels.relevant(q), k) for q in dev) / len(dev)


@dataclass
class TrainResult:
    model: object
    w_r: float
    w_p: float
    hp: Hyperparams
    log_rows: list[tuple] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_r20: float = 0.0
    skipped_positives: int = 0

    def reranker(self, store: FeatureStore) -> Reranker:
        return Reranker(self.model, self.w_r, self.w_p, store)


def _check_finite(value: float, params: dict, epoch: int, step: int) -> None:
    bad = not np.isfinite(value)
    bad_params = [k for k, v in params.items() if not np.all(np.isfinite(v))]
    if bad or bad_params:
        norms = {k: float(np.linalg.norm(v)) for k, v in params.items()}
        raise TrainingDiverged(
            f"non-finite state at epoch {epoch}, step {step}: "
            f"loss={value!r}, bad params={bad_params}, norms={norms}")


def _docs_by_query(triples) -> dict[str, dict[str, None]]:
    """Each query's distinct triple documents, in first-occurrence order."""
    by_query: dict[str, dict[str, None]] = {}
    for triple in triples:
        docs = by_query.setdefault(triple.query_id, {})
        docs[triple.pos_doc_id] = docs[triple.neg_doc_id] = None
    return by_query


def _hinge_step(model, store: FeatureStore, batch, norm_sp, w_r: float,
                w_p: float, grads: dict) -> list[float]:
    """Adds the hinge-loss gradients of a mini-batch of triples into grads
    and returns each triple's loss. The distinct (query, document) pairs are
    scored with one `score_batch` call per query, and the distinct pairs to
    back-propagate, each with its d_score, in one `backward_batch` call
    (PACRR's takes one pass over the steps per query length; its stacked
    matmuls are slices of the per-pair gemv and dot, and its gradient sums
    run per pair in descending t). The per-pair gradients are then added
    into grads in triple order, a triple's positive before its negative,
    so every gradient sum adds in the order of a per-pair loop."""
    scored = {}
    for query_id, docs in _docs_by_query(batch).items():
        caches: list = []
        s_r = model.score_batch([store.features(query_id, d) for d in docs], caches)
        for doc_id, s, cache in zip(docs, s_r.tolist(), caches):
            scored[query_id, doc_id] = s, cache
    losses, back = [], []
    for triple in batch:
        sp = norm_sp[triple.query_id]
        sr_pos, _ = scored[triple.query_id, triple.pos_doc_id]
        sr_neg, _ = scored[triple.query_id, triple.neg_doc_id]
        sp_pos, sp_neg = sp[triple.pos_doc_id], sp[triple.neg_doc_id]
        loss = hinge_loss(rel_score(sr_pos, sp_pos, w_r, w_p),
                          rel_score(sr_neg, sp_neg, w_r, w_p))
        losses.append(loss)
        if loss <= 0.0:
            continue
        grads["w_r"] += sr_neg - sr_pos
        grads["w_p"] += sp_neg - sp_pos
        back += [(triple.query_id, triple.pos_doc_id, -w_r),
                 (triple.query_id, triple.neg_doc_id, +w_r)]
    distinct = list(dict.fromkeys(back))
    pair_grads = dict(zip(distinct, model.backward_batch(
        [scored[q, d][1] for q, d, _ in distinct], [ds for _, _, ds in distinct])))
    for key in back:
        for name, g in pair_grads[key].items():
            grads[name] += g
    return losses


def train_model(kind: str, train_ids, dev_ids, qrels, run: Run,
                store: FeatureStore, hp: Hyperparams) -> TrainResult:
    """Full training run: sample triples once, then epochs of shuffled
    mini-batches with early stopping on dev R@DEV_K over the judged dev
    queries. Returns the best-dev checkpoint, never the last epoch's
    weights."""
    if kind != store.kind:
        raise ValueError(f"cannot train a {kind} model on the feature store "
                         f"of a {store.kind} model")
    rng = random.Random(hp.seed)
    np_rng = np.random.default_rng(hp.seed)
    model = init_model(kind, hp, np_rng)
    fusion = {"w_r": np.array([1.0]), "w_p": np.array([1.0])}
    all_params = {**model.params, **fusion}
    opt = Adam(all_params, hp.lr)

    triples, skipped = sample_triples(train_ids, qrels, run, hp.negatives, rng)
    if not triples:
        raise ValueError("no training triples: no relevant documents inside "
                         "the pre-fetched lists")
    norm_sp = {q: dict(normalize_scores(run[q])) for q in
               {t.query_id for t in triples}}
    # every epoch reads each training pair again: one fill per query caches
    # them, each query's documents in one feature batch
    for query_id, docs in _docs_by_query(triples).items():
        store.fill(query_id, docs)

    best = {"params": copy.deepcopy(all_params), "epoch": 0,
            "dev": _dev_recall(fusion, model, store, dev_ids, qrels, run, DEV_K)}
    log_rows: list[tuple] = []
    waited = 0
    for epoch in range(1, hp.max_epochs + 1):
        rng.shuffle(triples)
        epoch_loss = 0.0
        for step in range(0, len(triples), hp.batch):
            batch = triples[step:step + hp.batch]
            grads = {k: np.zeros_like(v) for k, v in all_params.items()}
            for loss in _hinge_step(model, store, batch, norm_sp,
                                    float(fusion["w_r"][0]),
                                    float(fusion["w_p"][0]), grads):
                epoch_loss += loss
            for key in grads:
                grads[key] /= len(batch)
            opt.step(grads)
            _check_finite(epoch_loss, all_params, epoch, step // hp.batch)
        train_loss = epoch_loss / len(triples)
        dev_r = _dev_recall(fusion, model, store, dev_ids, qrels, run, DEV_K)
        log_rows.append((epoch, train_loss, dev_r,
                         float(fusion["w_r"][0]), float(fusion["w_p"][0])))
        if dev_r > best["dev"]:
            best = {"params": copy.deepcopy(all_params), "epoch": epoch, "dev": dev_r}
            waited = 0
        else:
            waited += 1
            if waited >= hp.patience:
                break

    for key, value in best["params"].items():
        all_params[key][...] = value
    return TrainResult(model=model, w_r=float(fusion["w_r"][0]),
                       w_p=float(fusion["w_p"][0]), hp=hp, log_rows=log_rows,
                       best_epoch=best["epoch"], best_dev_r20=best["dev"],
                       skipped_positives=skipped)


def write_training_log(log_rows, path, comment: str = "") -> None:
    write_table(path, "epoch,train_loss,dev_r20,w_r,w_p",
                (f"{epoch},{loss!r},{dev_r!r},{w_r!r},{w_p!r}"
                 for epoch, loss, dev_r, w_r, w_p in log_rows), comment)


def save_checkpoint(result: TrainResult, path) -> None:
    """The matcher's parameter arrays plus a JSON header with the kind, the
    hyperparameters and the fusion weights (JSON writes floats with repr, so
    w_r and w_p round-trip exactly)."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": result.model.kind,
        "w_r": result.w_r,
        "w_p": result.w_p,
        "hyperparams": result.hp.as_dict(),
        "best_epoch": result.best_epoch,
        "best_dev_r20": result.best_dev_r20,
    }
    write_npz(path, header, result.model.params)


def load_checkpoint(path) -> TrainResult:
    """Inverse of save_checkpoint; the parameters must have the names and
    shapes the hyperparameters give the matcher, and be finite."""
    header, params = read_npz(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    try:
        raw_hp = dict(header["hyperparams"])
        raw_hp["kernel_sizes"] = tuple(raw_hp["kernel_sizes"])
        hp = Hyperparams(**raw_hp)
        # a fresh model of the stored kind and size, whose parameters the
        # file's then replace
        model = init_model(header["kind"], hp, np.random.default_rng(0))
        w_r, w_p = float(header["w_r"]), float(header["w_p"])
        best_epoch = int(header["best_epoch"])
        best_dev = float(header["best_dev_r20"])
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: bad checkpoint header ({exc})") from None
    shapes = {name: p.shape for name, p in params.items()}
    want = {name: p.shape for name, p in model.params.items()}
    if shapes != want:
        raise ValueError(f"{path}: parameter shapes {shapes} do not match the "
                         f"{header['kind']} model's {want}")
    if not (all(np.isfinite(p).all() for p in params.values())
            and np.isfinite(w_r) and np.isfinite(w_p)):
        raise ValueError(f"{path}: non-finite parameter")
    model.params = params
    return TrainResult(model=model, w_r=w_r, w_p=w_p, hp=hp,
                       best_epoch=best_epoch, best_dev_r20=best_dev)
