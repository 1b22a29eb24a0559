"""Run a record-log test on both devices: a directory and memory.

``RecordFileStore(root)`` keeps its segments in files under ``root``, or as
byte strings in memory when ``root`` is None; every store built on it
(the raw page store, the dead-letter store, the slow-query log) takes the
same ``None``.  A test that holds for both devices takes ``root`` and is
decorated with :func:`on_both_devices`; it keeps its name (one test id),
and runs once per device.
"""

from __future__ import annotations

import functools
import inspect


def on_both_devices(test):
    """``test(root, ...)`` run with ``root`` a fresh directory under
    ``tmp_path``, then with ``root=None``.  Its other arguments are
    fixtures and parameters, as usual (``tmp_path`` included)."""
    params = [name for name in inspect.signature(test).parameters
              if name not in ("root", "tmp_path")]
    wants_tmp_path = "tmp_path" in inspect.signature(test).parameters

    @functools.wraps(test)
    def run(tmp_path, **kwargs):
        if wants_tmp_path:
            kwargs["tmp_path"] = tmp_path
        for root in (str(tmp_path / "device"), None):
            test(root=root, **kwargs)

    run.__signature__ = inspect.Signature(
        [inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY)
         for name in ["tmp_path", *params]])
    return run
