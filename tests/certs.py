"""Reading certificates in tests."""


def find(cert, name):
    """The hypotheses of ``cert`` called ``name``, in order."""
    return [h for h in cert.hypotheses if h.name == name]
