"""Reading certificates in tests."""


def certified(cert):
    """Whether ``cert`` concludes, which it does only when its hypotheses hold."""
    return cert["conclusion"] is not None


def find(cert, name):
    """The hypotheses of ``cert`` called ``name``, in order."""
    return [h for h in cert["hypotheses"] if h["name"] == name]
