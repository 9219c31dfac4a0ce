import gc
import os
import sys


def entry() -> int:
    """Run the CLI as its own process, without the cyclic garbage collector."""
    # A command leaves the same 271 cyclic objects (617 with numpy) at any n, all from
    # its imports, so passes during the run and the walk at exit would find only those.
    gc.disable()
    from .cli import main

    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone: send what is left to devnull, so the flush at exit
        # cannot raise again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
