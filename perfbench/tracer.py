"""Spans around chancap's public functions, installed from outside at run time.

Each wrapped call records one span: its name, start, end and the span that
was open when it began (its parent).  Spans are kept in flat in-memory arrays
and written out when the run ends; self time is a span's duration minus the
durations of its direct children.  Observers read counts from the objects a
wrapped call returns; they run after the span has closed.

A function is wrapped under every module-level name that refers to it in any
chancap module, so `chancap.arimoto.per_input_divergences` is wrapped as well
as `chancap.channel.per_input_divergences`.  Methods are wrapped on their
class, which covers every caller.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

# span name -> (module, attribute, class or None).  Names follow the modules
# of src/chancap.  infogeo is on no solve or CLI path and is not traced.
TARGETS = {
    "channel.load_channel": ("chancap.channel", "load_channel", None),
    "channel.output_marginal": ("chancap.channel", "output_marginal", None),
    "channel.per_input_divergences": ("chancap.channel", "per_input_divergences", None),
    "numeric.ordered_sum": ("chancap.numeric", "ordered_sum", None),
    "numeric.ordered_sum_along": ("chancap.numeric", "ordered_sum_along", None),
    "numeric.ordered_dot": ("chancap.numeric", "ordered_dot", None),
    "numeric.logsumexp": ("chancap.numeric", "logsumexp", None),
    # Distribution validation runs in __post_init__ on every construction.
    "probability.Distribution": ("chancap.probability", "__post_init__", "Distribution"),
    "arimoto.solve": ("chancap.arimoto", "solve_arimoto", None),
    "backward_em.solve": ("chancap.backward_em", "solve_backward_em", None),
    "backward_em.exact_backward_m_step": ("chancap.backward_em", "exact_backward_m_step", None),
    "backward_em.approximate_m_step": ("chancap.backward_em", "approximate_m_step", None),
    "backward_em.backward_e_member": ("chancap.backward_em", "backward_e_member", None),
    "verify.brute_force_capacity": ("chancap.verify", "brute_force_capacity", None),
    "verify.circumcenter_check": ("chancap.verify", "circumcenter_check", None),
    "verify.converse_check": ("chancap.verify", "converse_check", None),
    "cli.write_trace": ("chancap.cli", "_write_trace", None),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, open_spans = (
            self.name_ids, self.parents, self.starts, self.ends, self._open
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                starts[index] = start
                open_spans.pop()
            if observe is not None:
                observe(out)
            return out

        return traced

    def install(self, observers: dict[str, Callable] | None = None) -> None:
        """Wrap every target under each name that refers to it."""
        observers = observers or {}
        modules = [m for k, m in list(sys.modules.items()) if k == "chancap" or k.startswith("chancap.")]
        for name, (module_name, attr, class_name) in TARGETS.items():
            owner = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, observers.get(name))
            if class_name is not None:
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def _set(self, owner: object, key: str, value: object) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        names = np.asarray(self.name_ids)
        parents = np.asarray(self.parents)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_ids),
            parent=np.asarray(self.parents),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
        )
