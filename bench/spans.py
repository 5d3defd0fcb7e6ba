"""Span recorder for the traced run.

The recorder replaces the public functions named in LAYERS at the module
attributes their callers look up at call time (``gapclique.cli.max_clique_exact``,
``gapclique.experiments.check_pairwise_separation``, ...).  Each wrapped call
records one span: name, parent span, instance id, start and end, plus exact
work counts taken from the call's arguments and return value only.  Nothing
inside the program is instrumented.  Spans stay in memory until the run ends.

A layer's self time is its span duration minus the durations of its direct
child spans; one thread makes spans nest strictly, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

ROOT_SPAN = "instance"


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


class Layer(NamedTuple):
    name: str  # <module>.<function>, the metric prefix
    sites: tuple  # "module:attr.path" lookups that callers go through
    counts: tuple = ()  # names of the exact work counts
    counter: Optional[Callable] = None  # (bound arguments, result) -> counts, in order


LAYERS = (
    Layer("reduction.planted_clique", ("gapclique.reduction:CliqueInstance.planted_clique",),
          ("vertices",), lambda a, r: (len(r),)),
    Layer("reduction.verify_clique", ("gapclique.reduction:CliqueInstance.verify_clique",),
          ("pairs",), lambda a, r: (_pairs(len(a["vertices"])),)),
    Layer("reduction.materialize", ("gapclique.reduction:CliqueInstance.materialize",),
          ("pairs", "edges"), lambda a, r: (_pairs(r.n), r.edge_count())),
    Layer("reduction.build_gamma", ("gapclique.reduction:build_gamma",)),
    Layer("reduction.extract_witness", ("gapclique.reduction:extract_witness",)),
    Layer("reduction.export_graph", ("gapclique.cli:export_graph",)),
    Layer("randmap.sample_g", ("gapclique.randmap:sample_g", "gapclique.experiments:sample_g")),
    Layer("randmap.check_wellspread", ("gapclique.experiments:check_wellspread",),
          ("cases",), lambda a, r: (r.checked,)),
    Layer("randmap.check_pairwise_separation",
          ("gapclique.experiments:check_pairwise_separation",),
          ("cases",), lambda a, r: (r.checked,)),
    Layer("experiments.certified_map",
          ("gapclique.experiments:certified_map", "gapclique.cli:certified_map"),
          ("tries", "certified"),
          lambda a, r: (r[1], 1) if r is not None else (a["max_tries"], 0)),
    Layer("lintest.pass_probability", ("gapclique.lintest:pass_probability",),
          ("pairs",), lambda a, r: (a["f"].size ** 2,)),
    Layer("lintest.list_decode_scalar", ("gapclique.lintest:list_decode_scalar",)),
    Layer("lintest.piece_together",
          ("gapclique.lintest:piece_together", "gapclique.reduction:piece_together")),
    Layer("cliquesolve.max_clique_exact", ("gapclique.cli:max_clique_exact",),
          ("nodes",), lambda a, r: (r.nodes,)),
    Layer("cliquesolve.greedy_clique", ("gapclique.cli:greedy_clique",)),
    Layer("cliquesolve.read_dimacs", ("gapclique.cli:read_dimacs",)),
    Layer("vecsum.generate_planted", ("gapclique.vecsum:generate_planted",)),
    Layer("vecsum.generate_unsat", ("gapclique.cli:generate_unsat",)),
    Layer("vecsum.brute_force_decide", ("gapclique.vecsum:brute_force_decide",),
          ("tuples",), lambda a, r: (a["inst"].tuple_count(),)),
    Layer("cli.main", ("gapclique.cli:main",)),
)

MODULES = sorted({layer.name.split(".")[0] for layer in LAYERS})


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.instance: Optional[int] = None

    def span(self, name: str, fn: Callable, args=(), kwargs=None, counter=None, sig=None):
        kwargs = kwargs or {}
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._open[-1] if self._open else None,
               "instance": self.instance, "name": name, "start": time.perf_counter()}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec["counts"] = counter(bound.arguments, result)
        return result

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        sig = inspect.signature(fn) if layer.counter else None

        def traced(*args, **kwargs):
            return self.span(layer.name, fn, args, kwargs, layer.counter, sig)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install a wrapper at every site of every layer; restore on exit."""
        undo = []
        try:
            for layer in LAYERS:
                for site in layer.sites:
                    module_name, path = site.split(":")
                    *owner_path, attr = path.split(".")
                    owner = importlib.import_module(module_name)
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: str):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], instances: int) -> dict:
    """Per-layer metrics of a traced run over `instances` instances.

    <layer>.calls and every work count are totals over the traced instances
    (they repeat exactly for a fixed seed and instance count); <layer>.self_s
    is self time per instance; <count>_per_s is the total count over the
    total self time; <layer>.share and share.<module> are self time as a
    fraction of total instance wall time; share.untraced is instance time
    spent outside every traced function.
    """
    selfs = self_times(spans)
    total = sum(s["end"] - s["start"] for s in spans if s["name"] == ROOT_SPAN)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, list[int]] = {}
    for s, st in zip(spans, selfs):
        calls[s["name"]] += 1
        self_s[s["name"]] += st
        if "counts" in s:
            acc = counts.setdefault(s["name"], [0] * len(s["counts"]))
            for j, c in enumerate(s["counts"]):
                acc[j] += c
    out: dict[str, float] = {}
    module_self: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        name = layer.name
        module_self[name.split(".")[0]] += self_s[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name] / instances
        out[f"{name}.share"] = self_s[name] / total if total else 0.0
        for cname, c in zip(layer.counts, counts.get(name, [0] * len(layer.counts))):
            out[f"{name}.{cname}"] = c
            out[f"{name}.{cname}_per_s"] = c / self_s[name] if self_s[name] else 0.0
    tries = out["experiments.certified_map.tries"]
    out["experiments.certified_map.certified_per_try"] = (
        out["experiments.certified_map.certified"] / tries if tries else 0.0
    )
    for module in MODULES:
        out[f"share.{module}"] = module_self[module] / total if total else 0.0
    out["share.untraced"] = self_s[ROOT_SPAN] / total if total else 0.0
    return out


def share_check(workload: str, m: dict) -> dict:
    """The expected layer share of a workload: each optimised layer does
    most of the work in one workload.  Reported, not enforced: a miss means
    the workload's points need adjusting."""
    modules = {k: v for k, v in m.items() if k.startswith("share.") and k != "share.untraced"}
    if workload == "planted-verify":
        value = m["reduction.verify_clique.share"]
        claim, holds = "reduction.verify_clique >= 90% of instance time", value >= 0.9
    elif workload == "lintest-tables":
        value = m["share.lintest"]
        claim, holds = "lintest >= 90% of instance time", value >= 0.9
    elif workload == "extract":
        value = m["share.randmap"]
        claim, holds = "randmap is the largest layer", value == max(modules.values())
    else:
        value = m["reduction.materialize.share"]
        rivals = [v for k, v in m.items()
                  if k.endswith(".share") and k != "reduction.materialize.share"]
        rivals += [v for k, v in modules.items() if k != "share.reduction"]
        claim, holds = "reduction.materialize is the largest layer", value > max(rivals)
    return {"claim": claim, "value": value, "holds": holds}
