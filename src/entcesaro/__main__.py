"""Process entry of ``python -m entcesaro`` and the ``entcesaro`` script.

``run`` imports numpy and the package with the cyclic collector off and freezes what they created,
so neither the command's collections nor those at shutdown traverse it; it freezes again before
shutdown.  ``cli.main`` leaves the collector alone, for in-process callers.

When the reader of stdout goes away (``entcesaro converge ... | head -1``), ``run`` returns
``BROKEN_PIPE_EXIT`` without a traceback, as a process that SIGPIPE ended reports in a shell.
"""

import gc
import os
import sys

BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE


def run() -> int:
    gc.disable()
    try:
        from . import cli
    finally:
        gc.freeze()
        gc.enable()
    try:
        code = cli.main()
        sys.stdout.flush()  # so a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # Send what is still buffered to devnull, so that the flush at shutdown succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
