"""Layer spans recorded from outside the library.

``install`` replaces the public entry points of each layer with wrappers
that open a span (name, start, end, parent, operation id) and bump
counters; no library file changes.  Spans are kept in memory in compact
arrays and written out once, when the run ends.  ``layer_metrics`` derives
per-layer inclusive and self times from them.

Layers and the entry points wrapped (those the benchmark workloads reach):

  families   generate
  standard   StandardForm.to_braid_word, apply_program
  fan        _fan.letter_programs, decode, encode, apply_word
  kernel     construction and ``advance`` of the engine that ``kernel="auto"``
             picks (_kernel_py.PureEngine or _ckernel.CEngine)
  dynnikov   entropy_estimate, act, braids_equal
  tribraid   exact_dilatation
  cli        the click entry point ``cli.main`` (see traced_cli.py)

``_fan.apply_letter`` is not wrapped: it runs once per letter, so a span
there would cost more than the work it measures.  Its flips are counted by
the ``apply_word`` wrapper (4 per letter).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

now_ns = time.perf_counter_ns


class Tracer:
    """In-memory span store with counters; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self.engines: set[str] = set()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(now_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = now_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, result)`` updates counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(args, result)
            return result
        return traced

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"names": self.names, "name": list(self.name),
                "start_ns": list(self.start), "end_ns": list(self.end),
                "parent": list(self.parent), "op": list(self.op),
                "counters": dict(self.counters), "engines": sorted(self.engines)}


def dump(doc: dict, path) -> None:
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def load(path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def merge(docs: list[dict]) -> dict:
    """Concatenate span dumps of several processes into one."""
    out = Tracer().to_dict()
    out["counters"] = Counter()
    engines = set()
    for doc in docs:
        base = len(out["start_ns"])
        remap = []
        for nm in doc["names"]:
            if nm not in out["names"]:
                out["names"].append(nm)
            remap.append(out["names"].index(nm))
        out["name"] += [remap[i] for i in doc["name"]]
        out["start_ns"] += doc["start_ns"]
        out["end_ns"] += doc["end_ns"]
        out["parent"] += [p + base if p >= 0 else -1 for p in doc["parent"]]
        out["op"] += doc["op"]
        for key, value in doc["counters"].items():
            if key.endswith("_max"):
                out["counters"][key] = max(out["counters"][key], value)
            else:
                out["counters"][key] += value
        engines.update(doc["engines"])
    out["counters"] = dict(out["counters"])
    out["engines"] = sorted(engines)
    return out


# -- installing the wrappers ----------------------------------------------

def _rebind(original, wrapped, undo: list) -> None:
    """Point every braidseq module attribute bound to ``original`` at
    ``wrapped`` (covers ``from .x import f`` copies)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "braidseq" or modname.startswith("braidseq.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)


class _TracedEngine:
    """Engine proxy: spans around ``advance`` and exact flip counts."""

    def __init__(self, tracer: Tracer, engine, letters: int):
        self._tracer = tracer
        self._engine = engine
        self._flips_per_iter = 4 * letters
        tracer.engines.add(engine.name)

    def advance(self, count):
        tracer, engine = self._tracer, self._engine
        before = engine.iterations
        idx = tracer.open("kernel.advance")
        try:
            return engine.advance(count)
        finally:
            tracer.close(idx)
            tracer.counters["kernel.advance_calls"] += 1
            tracer.counters["kernel.flips"] += \
                (engine.iterations - before) * self._flips_per_iter

    def __getattr__(self, attr):
        return getattr(self._engine, attr)


def install(tracer: Tracer):
    """Wrap the layer entry points of the imported braidseq package.

    Returns a function that puts the originals back.
    """
    from braidseq import _fan, dynnikov, families, standard, tribraid

    c = tracer.counters

    def count_letters(args, result):
        c["standard.letters_built"] += len(result.letters)

    def count_flips(args, result):
        c["fan.flips"] += 4 * len(args[1])

    def count_estimate(args, result):
        c["dynnikov.estimates"] += 1
        c["dynnikov.iterations"] += result.iterations
        c["dynnikov.iterations_max"] = max(c["dynnikov.iterations_max"],
                                           result.iterations)
        c["dynnikov.converged"] += result.converged
        if not result.converged:
            c["dynnikov.wasted_iterations"] += result.iterations

    def count_act(args, result):
        c["dynnikov.act_calls"] += 1

    def count_verdict(args, result):
        c["dynnikov.verdicts"] += 1

    programs = _fan.letter_programs
    misses_at_install = programs.cache_info().misses

    def count_programs(args, result):
        c["fan.letter_programs_misses"] = \
            programs.cache_info().misses - misses_at_install

    plan = [
        (families, "generate", "families.generate", None),
        (standard, "apply_program", "standard.apply_program", None),
        (_fan, "letter_programs", "fan.letter_programs", count_programs),
        (_fan, "decode", "fan.decode", None),
        (_fan, "encode", "fan.encode", None),
        (_fan, "apply_word", "fan.apply_word", count_flips),
        (dynnikov, "entropy_estimate", "dynnikov.entropy_estimate", count_estimate),
        (dynnikov, "act", "dynnikov.act", count_act),
        (dynnikov, "braids_equal", "dynnikov.braids_equal", count_verdict),
        (tribraid, "exact_dilatation", "tribraid.exact_dilatation", None),
    ]
    undo: list = []
    for module, attr, name, count in plan:
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, count), undo)
    undo.append((standard.StandardForm, "to_braid_word",
                 standard.StandardForm.to_braid_word))
    standard.StandardForm.to_braid_word = tracer.wrap(
        "standard.to_braid_word", standard.StandardForm.to_braid_word, count_letters)

    def engine_factory(cls):
        def make(vals, letters, programs):
            idx = tracer.open("kernel.init")
            try:
                engine = cls(vals, letters, programs)
            finally:
                tracer.close(idx)
            return _TracedEngine(tracer, engine, len(letters))
        return make

    for attr in ("PureEngine", "_CEngine"):
        cls = getattr(dynnikov, attr)
        if cls is not None:
            undo.append((dynnikov, attr, cls))
            setattr(dynnikov, attr, engine_factory(cls))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
    return uninstall


# -- deriving layer metrics ---------------------------------------------------

RATIOS = ("dynnikov.converged_ratio", "dynnikov.wasted_iter_share")


def unit(metric: str) -> str:
    if metric in RATIOS:
        return "ratio"
    if metric.endswith("_per_s"):
        return "1/s"
    return "s" if metric.endswith("_s") else "count"


LAYERS = ("families", "standard", "fan", "kernel", "dynnikov", "tribraid", "cli")


def layer_metrics(doc: dict, wall_ns: int, rounds: int) -> tuple[dict, dict]:
    """Per-round layer metrics and per-layer self times from a span dump.

    ``wall_ns`` is the traced wall time of the ``rounds`` measured rounds;
    every value is divided by ``rounds``.
    """
    names = doc["names"]
    nid = doc["name"]
    dur = [e - s for s, e in zip(doc["start_ns"], doc["end_ns"])]
    child = [0] * len(dur)
    for i, p in enumerate(doc["parent"]):
        if p >= 0:
            child[p] += dur[i]
    incl: Counter = Counter()
    self_by_name: Counter = Counter()
    for i, d in enumerate(dur):
        incl[names[nid[i]]] += d
        self_by_name[names[nid[i]]] += d - child[i]
    layer_self = {layer: sum(v for k, v in self_by_name.items()
                             if k.split(".")[0] == layer) / 1e9 / rounds
                  for layer in LAYERS}
    unattributed = wall_ns / 1e9 / rounds - sum(layer_self.values())
    c = Counter(doc["counters"])

    def secs(name):
        return incl[name] / 1e9 / rounds

    def per_round(key):
        return c[key] / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    estimates = c["dynnikov.estimates"]
    m = {
        "families.generate_s": secs("families.generate"),
        "standard.to_braid_word_s": secs("standard.to_braid_word"),
        "standard.letters_built": per_round("standard.letters_built"),
        "fan.letter_programs_s": secs("fan.letter_programs"),
        "fan.letter_programs_misses": per_round("fan.letter_programs_misses"),
        "fan.decode_s": secs("fan.decode"),
        "fan.encode_s": secs("fan.encode"),
        "fan.apply_word_s": secs("fan.apply_word"),
        "fan.flips": per_round("fan.flips"),
        "fan.flips_per_s": ratio(c["fan.flips"], incl["fan.apply_word"] / 1e9),
        "kernel.init_s": secs("kernel.init"),
        "kernel.advance_s": secs("kernel.advance"),
        "kernel.advance_calls": per_round("kernel.advance_calls"),
        "kernel.flips": per_round("kernel.flips"),
        "kernel.flips_per_s": ratio(c["kernel.flips"], incl["kernel.advance"] / 1e9),
        "dynnikov.estimates": per_round("dynnikov.estimates"),
        "dynnikov.estimate_s": secs("dynnikov.entropy_estimate"),
        "dynnikov.self_s": self_by_name["dynnikov.entropy_estimate"] / 1e9 / rounds,
        "dynnikov.iterations": per_round("dynnikov.iterations"),
        "dynnikov.iterations_max": c["dynnikov.iterations_max"],
        "dynnikov.converged_ratio": ratio(c["dynnikov.converged"], estimates),
        "dynnikov.wasted_iter_share": ratio(c["dynnikov.wasted_iterations"],
                                            c["dynnikov.iterations"]),
        "dynnikov.act_calls": per_round("dynnikov.act_calls"),
        "dynnikov.braids_equal_s": secs("dynnikov.braids_equal"),
        # two act calls (one per word) for each curve of the suite tried
        "dynnikov.curves_per_verdict": ratio(c["dynnikov.act_calls"] / 2,
                                             c["dynnikov.verdicts"]),
        "tribraid.exact_s": secs("tribraid.exact_dilatation"),
        "cli.self_s": layer_self["cli"],
        "trace.unattributed_s": unattributed,
        "trace.spans": len(dur) / rounds,
    }
    return m, {**layer_self, "unattributed": unattributed}
