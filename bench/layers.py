"""Per-layer attribution of a ``cProfile`` run of the tasks.

A layer is one module of the ``nlie`` package.  ``fractions`` is the Q scalar,
so its frames belong to ``fields``.  Time in any other frame (stdlib, builtins
such as ``isinstance`` or ``math.gcd``, ``json``, ``argparse``) is charged to
the layer of the nearest ``nlie`` caller, split over callers in proportion to
the time each call edge spent there.  Frames with no ``nlie`` caller (the
harness itself) are unattributed.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict

LAYERS = ("cli", "core", "linalg", "fields", "invariants", "search", "iso", "catalog")
UNATTRIBUTED = "unattributed"


class Attribution:
    def __init__(self, profile, package_dir):
        self.stats = pstats.Stats(profile).stats
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self._dist = {}

    def own_layer(self, func):
        filename = func[0]
        if filename.endswith(os.sep + "fractions.py"):
            return "fields"
        real = os.path.realpath(filename) if filename.startswith(os.sep) else filename
        if real.startswith(self.package_dir):
            mod = os.path.splitext(os.path.basename(real))[0]
            if mod in LAYERS:
                return mod
        return None

    def distribution(self, func, active=frozenset()):
        """Share of ``func``'s self time owed to each layer."""
        layer = self.own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._dist:
            return self._dist[func]
        active = active | {func}
        edges = {c: e for c, e in self.stats.get(func, (0, 0, 0, 0, {}))[4].items()
                 if c not in active}
        weights = {c: e[2] for c, e in edges.items()}
        if sum(weights.values()) <= 0:
            weights = {c: e[0] for c, e in edges.items()}
        total = sum(weights.values())
        dist = defaultdict(float)
        if total <= 0:
            dist[UNATTRIBUTED] = 1.0
        for caller, w in weights.items():
            for name, share in self.distribution(caller, active).items():
                dist[name] += share * w / total
        self._dist[func] = dict(dist)
        return self._dist[func]

    def caller_layer(self, caller):
        dist = self.distribution(caller)
        return max(dist, key=dist.get)

    def layer_table(self):
        """Self seconds per layer (and unattributed), and calls into each layer.

        A call into a layer is a call edge from another layer (or from the
        harness) to one of the layer's public functions.
        """
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for func, (_, nc, tt, _, callers) in self.stats.items():
            for layer, share in self.distribution(func).items():
                self_s[layer] += tt * share
            layer = self.own_layer(func)
            name = func[2]
            public = not name.startswith("_") or name.startswith("__")
            if layer is None or not public:
                continue
            for caller, edge in callers.items():
                if self.caller_layer(caller) != layer:
                    calls[layer] += edge[0]
        return self_s, calls

    def function(self, module, name):
        """(calls, cumulative seconds) of one ``nlie`` function."""
        n = t = 0
        for func, (_, nc, _, ct, _) in self.stats.items():
            if func[2] == name and self.own_layer(func) == module:
                n += nc
                t += ct
        return n, t
