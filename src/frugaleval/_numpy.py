"""numpy, loaded on first use.

Modules that do array work take `from ._numpy import np`. If numpy is not
loaded yet, `np` is numpy's module object with its body deferred: the first
attribute read runs it. Commands that do no array work (screen, choose in
absolute mode, workload) then never pay numpy's start-up cost. The stub
is numpy's entry in `sys.modules`, so `import numpy` elsewhere gets the same
module. Nothing at module level may read an attribute of `np`.

The body runs under a lock, and a read from another thread waits for it.
`importlib.util.LazyLoader` does not wait (Python 3.11): it makes the stub
a plain module before the body runs, so a second thread reading then gets
an AttributeError.
"""

import importlib.util
import sys
import threading
import types

_lock = threading.RLock()  # reentrant: numpy's body reads its own module


class _Deferred(types.ModuleType):
    """numpy's module before its body has run."""

    def __getattribute__(self, attr):
        with _lock:
            if type(self) is _Deferred:
                self.__class__ = _Running
                try:
                    types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                except BaseException:
                    self.__class__ = _Deferred  # the next read runs the body again
                    raise
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


class _Running(_Deferred):
    """numpy's module while its body runs: the running thread reads through,
    any other waits on the lock."""


def _deferred_numpy() -> types.ModuleType:
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Deferred
    sys.modules["numpy"] = module
    return module


np = _deferred_numpy()
