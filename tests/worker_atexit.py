"""A worker init module whose exit handler leaves a file, named for the
worker's pid, in the directory ``$WORKER_ATEXIT_DIR``."""

import atexit
import os


def _mark_exit():
    path = os.path.join(os.environ["WORKER_ATEXIT_DIR"], str(os.getpid()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("exited\n")


atexit.register(_mark_exit)
