"""numpy, imported on first use.

Modules that do array work take `from ._numpy import np`. `np` stands in for
numpy: its first read of a name runs `import numpy`, so commands that do no
array work (screen, choose, workload) never pay numpy's start-up cost, and
until then numpy is not in `sys.modules`. Threads that read first at once
wait on the import's own module lock; a failed import raises at the read
and the next read tries again. Nothing at module level may read from `np`.
"""


class _Numpy:
    def __getattr__(self, name):  # runs only for names not yet kept
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
