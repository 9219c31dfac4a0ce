import gc
import sys


def entry() -> int:
    """Run the CLI as its own process, without the cyclic garbage collector."""
    # A command leaves the same 271 cyclic objects (617 with numpy) at any n, all from
    # its imports, so passes during the run and the walk at exit would find only those.
    gc.disable()
    from .cli import main

    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
