"""Set-up probe: a fresh interpreter imports the CLI and runs one command.

Usage: python3 probe.py SRC_DIR -- CLI_ARGS...

Prints one JSON line when the command has returned: the exit code, the
import time of `mseregion.cli`, and a SHA-256 of the command's stdout.
The parent times from spawning this process to reading that line.
"""

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter


def main() -> int:
    split = sys.argv.index("--")
    src, argv = sys.argv[1], sys.argv[split + 1:]
    t0 = perf_counter()
    sys.path.insert(0, src)
    import mseregion.cli as cli
    import_s = perf_counter() - t0
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    print(json.dumps({"rc": rc, "import_s": import_s, "stdout_sha256": digest}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
