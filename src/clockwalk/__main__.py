"""Run the clockwalk command line: ``python -m clockwalk SCENARIO [options]``."""

import sys

from clockwalk.experiments_cli import main

if __name__ == "__main__":
    sys.exit(main())
