"""numpy, imported when one of its attributes is first read.

numpy is most of the cost of importing ``speechaug.cli`` (about 0.13 s of
0.21 s), yet ``textaug`` and ``stats`` make no array. Imports moved into
functions would not do: the benchmark tracer wraps functions of the modules
it finds in ``sys.modules`` after importing ``speechaug.cli``, and tests
patch them there. So every module keeps its imports, and writes ``from
._numpy import np`` for ``import numpy as np``.
"""

from __future__ import annotations

import types
from typing import Any


class _Numpy(types.ModuleType):
    def __getattr__(self, name: str) -> Any:
        import numpy

        self.__dict__.update(vars(numpy))
        # a plain module from here on: later reads are dict lookups that
        # skip this hook, and numpy's own __getattr__, now in the dict,
        # serves its lazily imported submodules
        self.__class__ = types.ModuleType
        return getattr(self, name)


np: Any = _Numpy("numpy")
