"""Run one pass of a written suite in a fresh interpreter and print its peak
resident set size in MiB.

Usage: python3 rss_child.py SRC_DIR SUITE_DIR COMMAND

Only the package and the standard library are imported, so the figure is
the CLI's own footprint for the pass, not the benchmark's.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path


def main() -> int:
    src, suite_dir, command = sys.argv[1:4]
    sys.path.insert(0, src)
    from spantree.cli import main as cli_main

    files = json.loads((Path(suite_dir) / "files.json").read_text())
    for path in files:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli_main([command, path, "--json"])
    print(peak_kib() / 1024)
    return 0


def peak_kib() -> int:
    """VmHWM, the high-water mark of this process image.  ru_maxrss is not
    used where VmHWM exists: Linux carries the parent's resident size at
    fork into it, so it would measure the benchmark rather than the CLI."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main())
