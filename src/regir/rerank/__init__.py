from .drmm import DrmmModel
from .features import (TokenEmbeddings, TypeEmbeddings, load_token_vectors,
                       sim_matrix)
from .pacrr import PacrrConfig, PacrrModel
from .train import (Hyperparams, Reranker, TrainingDiverged, TrainTriple,
                    hinge_loss, load_checkpoint, rel_score, sample_triples,
                    save_checkpoint, train_model, write_training_log)

__all__ = [
    "DrmmModel", "PacrrConfig", "PacrrModel",
    "TypeEmbeddings", "TokenEmbeddings", "load_token_vectors", "sim_matrix",
    "Hyperparams", "TrainTriple", "TrainingDiverged", "Reranker",
    "hinge_loss", "rel_score", "sample_triples", "train_model",
    "save_checkpoint", "load_checkpoint", "write_training_log",
]
