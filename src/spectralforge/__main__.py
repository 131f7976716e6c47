"""``python -m spectralforge``: the ``spectral-forge`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
