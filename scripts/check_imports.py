#!/usr/bin/env python3
"""Check which heavy modules the import, the two path studies, build and verify load.

Imports `kolmonet.cli`, then runs `kolmonet study weak --paths 200`,
`kolmonet study euler --paths 2000`, and a `build` and `verify` of a small
ou_linear network (N = 2, M = 2, delta = 0.0625), all in this process.
After each step it prints which of scipy.stats, scipy.sparse and mpmath
are loaded.  None may be up to the studies; `build` and `verify` may load
mpmath for their bounds, but neither scipy module.  Exit code 0 when no
step loaded a module it may not and every step exited 0, 1 otherwise.
"""

import contextlib
import io
import os
import sys
import tempfile

HEAVY = ("scipy.stats", "scipy.sparse", "mpmath")
SCIPY = ("scipy.stats", "scipy.sparse")
STUDIES = (["study", "weak", "--paths", "200"], ["study", "euler", "--paths", "2000"])
BUILD = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625"]
VERIFY = ["verify", "--problem", "ou_linear", "--d", "1"]


def _steps():
    """Run each step lazily, so the caller lists the modules loaded after each one.

    Yields (label, exit code, modules the step may not load).
    """
    from kolmonet import cli

    yield "import kolmonet.cli", 0, HEAVY
    for argv in STUDIES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        yield "kolmonet " + " ".join(argv), code, HEAVY
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ou.json")
        for argv, flag in ((BUILD, "--out"), (VERIFY, "--in")):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + [flag, path])
            yield "kolmonet %s %s ou.json" % (" ".join(argv), flag), code, SCIPY


def main() -> int:
    ok = True
    for label, code, forbidden in _steps():
        loaded = [name for name in HEAVY if name in sys.modules]
        ok = ok and code == 0 and not set(loaded) & set(forbidden)
        print("%s: exit %d, loaded %s" % (label, code, ", ".join(loaded) or "none of " + ", ".join(HEAVY)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
