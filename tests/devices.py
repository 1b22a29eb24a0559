"""Run a record-log test on both devices: a directory and memory.

``RecordFileStore(root)`` keeps its segments in files under ``root``, or as
byte strings in memory when ``root`` is None; every store built on it
(the raw page store, the dead-letter store, the slow-query log) takes the
same ``None``.  A test that holds for both devices takes ``root`` and is
decorated with :func:`on_both_devices`; it keeps its name (one test id),
and runs once per device.  :func:`failing` makes a store's device fail
its writes, on either device.
"""

from __future__ import annotations

import contextlib
import errno
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


class FailingDevice:
    """A store's device whose writes fail while :attr:`armed`, as a full
    or failing disk's do: ``"write"`` lands each chunk whole and then
    raises ENOSPC (a late report of a full disk), ``"sync"`` raises EIO
    from an fsync, ``"remove"`` from a segment's deletion; the first
    ``after`` of those succeed.  ``cut=False``
    fails the truncate that takes a failed write back, too.  Everything
    else goes to the wrapped device."""

    def __init__(self, device, fail, cut=True, after=0):
        self._device = device
        self.fail = fail
        self.cut = cut
        self.after = after
        self.armed = True

    def __getattr__(self, name):
        return getattr(self._device, name)

    def _due(self, fail):
        if not self.armed or fail != self.fail:
            return False
        self.after -= 1
        return self.after < 0

    def append(self, segment, data):
        self._device.append(segment, data)
        if self._due("write"):
            raise OSError(errno.ENOSPC, "No space left on device")

    def sync(self):
        if self._due("sync"):
            raise OSError(errno.EIO, "Input/output error")
        self._device.sync()

    def remove(self, segment):
        if self._due("remove"):
            raise OSError(errno.EIO, "Input/output error")
        self._device.remove(segment)

    def truncate(self, segment, size):
        if self.armed and not self.cut:
            raise OSError(errno.EIO, "Input/output error")
        self._device.truncate(segment, size)


@contextlib.contextmanager
def failing(store, fail, **kwargs):
    """Run the block with ``store``'s writes failing (a
    :class:`FailingDevice`, built with ``kwargs``); yields the device."""
    device = store._device = FailingDevice(store._device, fail, **kwargs)
    try:
        yield device
    finally:
        store._device = device._device
