"""`python -m hypframe`: the command line of hypframe.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
