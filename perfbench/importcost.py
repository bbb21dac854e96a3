"""Print, as JSON, the cumulative import times (s) of calibmix and of the
scipy modules it pulls in, measured in this fresh interpreter.

A meta-path hook times the execution of each watched module, which includes
every import made while it runs.  ``python -X importtime`` would be the
natural tool, but it does not log modules that scipy loads lazily
(``from scipy import stats``), which is how calibmix imports them.  A module
calibmix does not import reads 0.
"""

import importlib.machinery
import json
import sys
from time import perf_counter

WATCH = ("calibmix", "scipy.stats", "scipy.interpolate")
times = dict.fromkeys(WATCH, 0.0)


class _TimedFinder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name not in WATCH:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed(module):
            t0 = perf_counter()
            try:
                exec_module(module)
            finally:
                times[name] = perf_counter() - t0
        spec.loader.exec_module = timed
        return spec


sys.meta_path.insert(0, _TimedFinder)
import calibmix  # noqa: E402,F401

print(json.dumps(times))
