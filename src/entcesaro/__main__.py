"""Process entry of ``python -m entcesaro`` and the ``entcesaro`` script.

``run`` imports numpy and the package with the cyclic collector off and freezes what they created,
so neither the command's collections nor those at shutdown traverse it; it freezes again before
shutdown.  ``cli.main`` leaves the collector alone, for in-process callers.
"""

import gc


def run() -> int:
    gc.disable()
    try:
        from . import cli
    finally:
        gc.freeze()
        gc.enable()
    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
