"""A stand-in for ``link._helper_thread`` that runs each task at once on
the calling thread, so a test can compare the threaded path with the
same work done in order on one thread."""

from concurrent.futures import Future
from contextlib import contextmanager


@contextmanager
def inline_helper():
    def submit(fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done

    yield submit
