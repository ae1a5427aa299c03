"""Stage two: neural re-rankers (DRMM, PACRR) over the pre-fetched
candidates, their features, training and checkpoints."""
