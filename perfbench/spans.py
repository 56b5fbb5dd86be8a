"""Span tracer for the traced pass, and the per-layer figures drawn from it.

The tracer wraps, for the length of one worker run, the module or class
attribute through which the caller looks up each layer's public function, and
records one span (layer, start, end, parent) per call. Spans stay in flat
in-memory arrays until the run ends and are then written out as one ``.npz``
file. A layer's self time is its spans' durations minus the part covered by
their child spans. A target that no longer exists after a refactor is listed
as missing; a layer whose targets are all missing is reported as absent.
"""

import importlib
import time
from array import array

import numpy as np

# layer -> "module:attribute path" of every binding a caller looks up
LAYERS = {
    "environments.draw": (
        "massart_online.environments:adversary_round",
        "massart_online.environments:SortedRewardEnvironment.next_round",
        "massart_online.environments:MonotoneRewardEnvironment.next_round",
        "massart_online.environments:ReductionEnvironment.next_round",
    ),
    "harness.audit": (
        "massart_online.harness:_audit_point",
        "massart_online.harness:_audit_context",
    ),
    "harness.perceptron": ("massart_online.harness:_Perceptron.observe",),
    "harness.loop": (
        "massart_online.harness:run_halfspace_experiment",
        "massart_online.harness:run_bandit_experiment",
        "massart_online.harness:run_many",
        "massart_online.cli:run_halfspace_experiment",
        "massart_online.cli:run_bandit_experiment",
        "massart_online.cli:run_many",
    ),
    "harness.sink": (
        "massart_online.harness:_CsvSink.__init__",
        "massart_online.harness:_CsvSink.write",
        "massart_online.harness:_CsvSink.close",
    ),
    "harness.report": (
        # called while the report is built, after the last round
        "massart_online.harness:config_dict",
        "massart_online.harness:report_json",
        "massart_online.harness:write_report",
        "massart_online.cli:report_json",
        "massart_online.cli:write_report",
    ),
    "learner_halfspace.predict": ("massart_online.learner_halfspace:HalfspaceLearner.predict",),
    "learner_halfspace.observe": ("massart_online.learner_halfspace:HalfspaceLearner.observe",),
    "learner_bandit.play_round": ("massart_online.learner_bandit:BanditLearner.play_round",),
    "learner_bandit.select_action": ("massart_online.learner_bandit:select_action",),
    "losses.reweighted_margin_loss": (
        "massart_online.learner_halfspace:reweighted_margin_loss",
    ),
    "losses.arm_gap_loss": ("massart_online.learner_bandit:arm_gap_loss",),
    "optimizer.ogd_update": (
        "massart_online.learner_halfspace:ogd_update",
        "massart_online.learner_bandit:ogd_update",
    ),
    "core.setup": (
        "massart_online.core:HalfspaceConfig.__post_init__",
        "massart_online.core:BanditConfig.__post_init__",
        "massart_online.harness:spawn_streams",
        "massart_online.cli:halfspace_config_from",
        "massart_online.cli:bandit_config_from",
        "massart_online.cli:load_config_file",
    ),
    "cli.main": ("massart_online.cli:main",),
}


def _resolve(target):
    """(owner, attribute name, current value) of a "module:a.b" target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # a class's own dict, so an inherited method is not patched onto a subclass
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value


class Tracer:
    """Records spans around every call that goes through a wrapped binding."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.layer = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.missing = []
        self._stack = [-1]
        self._patches = []

    def _wrap(self, fn, layer_id):
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        for layer_id, name in enumerate(self.layers):
            for target in LAYERS[name]:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                setattr(owner, attr, self._wrap(original, layer_id))
                self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        np.savez(
            path,
            layers=np.array(self.layers),
            missing=np.array(self.missing, dtype=str),
            layer=np.frombuffer(self.layer, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def layer_totals(path):
    """Per-layer (self ns, calls) summed over one span dump, plus absent layers."""
    with np.load(path) as data:
        layers = [str(x) for x in data["layers"]]
        missing = {str(x) for x in data["missing"]}
        layer, parent = data["layer"], data["parent"]
        duration = data["end"] - data["start"]
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    self_ns = np.bincount(layer, weights=duration - covered, minlength=len(layers))
    calls = np.bincount(layer, minlength=len(layers))
    absent = {name for name in layers if set(LAYERS[name]) <= missing}
    totals = {name: (float(self_ns[i]), int(calls[i])) for i, name in enumerate(layers)}
    return totals, absent
