import gc
import os
import sys


def entry() -> None:
    """Run the CLI as its own process, without the cyclic garbage collector,
    and end it with os._exit once stdout and stderr are flushed."""
    # A command leaves the same 271 cyclic objects (617 with numpy) at any n, all from its
    # imports, so collector passes would find only those; os._exit skips the walk at exit.
    gc.disable()
    from .cli import main

    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: exit 1 without a traceback
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
