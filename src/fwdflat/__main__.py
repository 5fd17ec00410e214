"""Entry point for ``python -m fwdflat``."""

from .cli import main

if __name__ == "__main__":
    main()
