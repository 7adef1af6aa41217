"""Every count and real number an API function takes goes through one range check,
which rejects a bool, a float count and a non-finite real by name."""
import math

import numpy as np
import pytest

from labelinfo.costbenefit import SignalOption, TradeoffConfig, cost, utility
from labelinfo.gnmds import GramMatrix, extract_embedding
from labelinfo.labels import LabelKind, pca_encode, soft_labels, sparsify_labels
from labelinfo.latentgen import generate_dataset
from labelinfo.triplets import ConstraintSet, apply_noise, count_hard

DS = generate_dataset(n=4, k=3, d=3, seed=0)
TRIPLETS = ConstraintSet(n_points=2, n_centroids=1, triplets=np.array([[0, 1, 2]], np.int16))


@pytest.mark.parametrize("call, name", [
    (lambda: generate_dataset(n=4, k=3, d=3, sigma=math.inf), "sigma"),
    (lambda: generate_dataset(n=4, k=3, d=3, sigma=10**400), "sigma"),  # past float range
    (lambda: generate_dataset(n=2.5, k=3, d=3), "n"),
    (lambda: cost(LabelKind.SPARSE_SOFT, 10, 7, k_hat=2.5), "k_hat"),
    (lambda: sparsify_labels(soft_labels(DS), True), "k_hat"),
    (lambda: pca_encode(DS, 1.5), "k_hat"),
    (lambda: count_hard(2.5, 3), "n"),
    (lambda: SignalOption(LabelKind.HARD, 1, 0.5, cost_units=math.inf), "cost"),
    (lambda: utility(True, TradeoffConfig(beta=0.1)), "rho"),
    (lambda: apply_noise(TRIPLETS, True, 0), "flip rate"),
    (lambda: extract_embedding(GramMatrix(np.eye(3), {}), 1.5), "embedding rank"),
], ids=["sigma_inf", "sigma_huge_int", "n_float", "cost_k_hat_float", "sparsify_k_hat_bool",
        "pca_k_hat_float", "count_hard_n_float", "cost_inf", "utility_rho_bool",
        "flip_rate_bool", "embedding_rank_float"])
def test_range_check_names_the_argument(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()
