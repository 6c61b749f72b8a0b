"""Reading certificates and flattening ranks in tests."""

from tensorcert.geometry import subset_ranks


def certified(cert):
    """Whether ``cert`` concludes, which it does only when its hypotheses hold."""
    return cert["conclusion"] is not None


def find(cert, name):
    """The hypotheses of ``cert`` called ``name``, in order."""
    return [h for h in cert["hypotheses"] if h["name"] == name]


def factor_mask(subset):
    """The bitmask of the 1-based factors in ``subset``, bit i - 1 for factor i."""
    return sum(1 << (i - 1) for i in subset)


def subset_rank(s, subset):
    """The flattening rank of ``s`` on the 1-based factors in ``subset``."""
    mask = factor_mask(subset)
    return subset_ranks(s, (mask,))[mask]
