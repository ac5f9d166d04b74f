"""`python -m llab ...` runs the `llab` command line, installed or not:

    PYTHONPATH=src python -m llab verify-identities --n 1,2,3,4 --cases 1000 --out reports/
"""

import sys

from llab.cli import main

if __name__ == "__main__":
    sys.exit(main())
