"""``python -m borelsum``: the borelsum command line of borelsum.cli."""

import sys

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":
    sys.exit(main())
