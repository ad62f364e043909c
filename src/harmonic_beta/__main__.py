"""``python -m harmonic_beta``: the same CLI as the ``harmonic-beta`` script."""

from .cli import main

if __name__ == "__main__":
    main()
