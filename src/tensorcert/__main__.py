"""``python -m tensorcert``: the same command line as the ``tensorcert`` script."""

from .cli import main

if __name__ == "__main__":
    main()
