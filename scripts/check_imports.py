#!/usr/bin/env python3
"""Check that the import and the two path studies load none of scipy.stats, scipy.sparse and mpmath.

Imports `kolmonet.cli`, then runs `kolmonet study weak --paths 200` and
`kolmonet study euler --paths 2000` in this process.  After each step it
prints which of scipy.stats, scipy.sparse and mpmath are loaded; none may
be.  (`plan`, `build` and `verify` load mpmath for their bounds, and a
`realize` of a weight with 256 entries or more loads scipy.sparse.)  Exit
code 0 when no step loaded one and both studies passed, 1 otherwise.
"""

import contextlib
import io
import sys

HEAVY = ("scipy.stats", "scipy.sparse", "mpmath")
STUDIES = (["study", "weak", "--paths", "200"], ["study", "euler", "--paths", "2000"])


def _steps():
    """Run each step lazily, so the caller lists the modules loaded after each one."""
    from kolmonet import cli

    yield "import kolmonet.cli", 0
    for argv in STUDIES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        yield "kolmonet " + " ".join(argv), code


def main() -> int:
    ok = True
    for label, code in _steps():
        loaded = [name for name in HEAVY if name in sys.modules]
        ok = ok and code == 0 and not loaded
        print("%s: exit %d, loaded %s" % (label, code, ", ".join(loaded) or "none of " + ", ".join(HEAVY)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
