#!/usr/bin/env python3
"""Run one ``sppda`` command in this process, then print the process's peak
resident set size (``ru_maxrss``, KiB on Linux) as the last line of stdout,
and exit with the command's exit code.

    PYTHONPATH=src python3 scripts/peak_rss.py verify skewed.sppda

The command's own stdout comes first, so ``head -n -1`` gives it back and
``tail -n 1`` the peak.
"""

import resource
import sys

from sppda.cli import main

if __name__ == "__main__":
    code = main(sys.argv[1:])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.exit(code)
