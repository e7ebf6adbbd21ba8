"""Spans around emdenlab's public functions, recorded from outside the package.

Tracing patches each public function of the layer modules in every
emdenlab namespace that holds it, so a call is seen wherever its caller
looks it up (``emdenlab.cli.shoot`` and ``emdenlab.shooting.shoot`` are the
same wrapper).  Two callables that are not module functions are wrapped as
well: the dense-output interpolant that ``shoot`` samples its nodes from
(span ``shooting.node_eval``), and the radial profile handed to
``ckn.energy``, which is counted but not timed.

Spans live in flat arrays until the run ends: name id, start, end, parent
index and whether the call raised.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import math
import time
from array import array
from collections import Counter

LAYERS = ("params", "closed_forms", "shooting", "emden_fowler", "pohozaev", "ckn", "cli")

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._probe_handler = None
        self._probe_level = logging.NOTSET

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.raised.append(0)
        self.end.append(math.nan)
        self.stack.append(idx)
        self.start.append(_perf())
        return idx

    def close(self, idx: int, raised: bool = False) -> None:
        self.end[idx] = _perf()
        self.raised[idx] = raised
        self.stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call; ``open``/``close`` inlined, as it is hot."""
        nid = self._id(name)
        name_id, parent, raised = self.name_id, self.parent, self.raised
        start, end, stack = self.start, self.end, self.stack
        nan = math.nan

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(nan)
            stack.append(idx)
            start.append(_perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = _perf()
                raised[idx] = 1
                stack.pop()
                raise
            end[idx] = _perf()
            stack.pop()
            return result

        return traced

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every public function of the layer modules, where it is looked up."""
        import emdenlab
        from emdenlab import ckn, shooting

        modules = {name: importlib.import_module(f"emdenlab.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrapper_for(layer, obj)
        for mod in (emdenlab, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        self._patch(shooting, "solve_ivp", self._solve_ivp_with_node_spans(shooting.solve_ivp))
        self._patch(ckn, "energy", self._energy_with_profile_counts(ckn.energy))
        probe_log = logging.getLogger("emdenlab.shooting")
        self._probe_level = probe_log.level
        self._probe_handler = _ProbeCounter(self.counts)
        probe_log.addHandler(self._probe_handler)
        probe_log.setLevel(logging.INFO)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._probe_handler is not None:
            probe_log = logging.getLogger("emdenlab.shooting")
            probe_log.removeHandler(self._probe_handler)
            probe_log.setLevel(self._probe_level)
            self._probe_handler = None

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper_for(self, layer: str, fn):
        traced = self.wrap(f"{layer}.{fn.__name__}", fn)
        if fn.__name__ != "shoot" or layer != "shooting":
            return traced
        from emdenlab.shooting import Inconclusive

        @functools.wraps(fn)
        def traced_shoot(*args, **kwargs):
            traj = traced(*args, **kwargs)
            self.counts["shooting.shots"] += 1
            self.counts["shooting.nodes"] += len(traj.r)
            self.counts["shooting.inconclusive"] += isinstance(traj.outcome, Inconclusive)
            return traj

        return traced_shoot

    def _solve_ivp_with_node_spans(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def solve_ivp_traced(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            if sol.sol is not None:
                sol.sol = self.wrap("shooting.node_eval", sol.sol)
            return sol

        return solve_ivp_traced

    def _energy_with_profile_counts(self, energy):
        counts = self.counts

        @functools.wraps(energy)
        def energy_counted(triple, profile):
            seen = [math.inf, 0.0]

            def counted(r):
                counts["ckn.profile_evals"] += 1
                if r < seen[0]:
                    seen[0] = r
                if r > seen[1]:
                    seen[1] = r
                return profile(r)

            report = energy(triple, counted)
            counts["ckn.energy_calls"] += 1
            counts["ckn.decades"] += round(math.log10(seen[1] / seen[0]))
            return report

        return energy_counted

    # ------------------------------------------------------------ reporting

    def spans(self):
        """(name, start, end, parent, raised) for every closed span, in start order."""
        for i in range(len(self.start)):
            yield (
                self.names[self.name_id[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                bool(self.raised[i]),
            )

    def summary(self):
        """Per span name: count, total duration, total self time, both in seconds.

        Also per (name, parent name) the count and total duration, and the
        duration of spans that raised, keyed by name.
        """
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name: dict[str, list[float]] = {}
        by_edge: dict[tuple[str, str], list[float]] = {}
        raised: dict[str, list[float]] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
            p = self.parent[i]
            parent = self.names[self.name_id[p]] if p >= 0 else ""
            edge = by_edge.setdefault((name, parent), [0, 0.0])
            edge[0] += 1
            edge[1] += dur[i]
            if self.raised[i]:
                r = raised.setdefault(name, [0, 0.0])
                r[0] += 1
                r[1] += dur[i]
        return by_name, by_edge, raised


class _ProbeCounter(logging.Handler):
    """Counts the threshold-probe records that ``threshold_bisect`` logs."""

    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self._counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("threshold probe"):
            self._counts["shooting.probes"] += 1
