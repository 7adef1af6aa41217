"""Quantify how informative supervision signals are for recovering latent
representations: label generation, triplet mining, ordinal embedding,
recovery metrics, and annotation cost-benefit analysis. Each step is
imported from its module, as in `from labelinfo.triplets import mine_constraints`."""

__version__ = "0.1.0"
