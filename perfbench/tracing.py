"""Per-layer spans, recorded from outside the package.

Each layer is one module of `bbcsec` (`core` is `bbcsec._core`; metric
names start with a letter). Its public functions are wrapped at
the names where callers look them up (module attributes, names imported
by other modules, and class attributes for methods), so the package itself
is unchanged. Spans are kept in memory as (name, start, end, parent) and
written out when the run ends. A span's self time is its duration minus
the durations of its direct children.
"""

import time
from collections import Counter, defaultdict
from importlib import import_module

import numpy as np

# (span name, [(module, attribute) where callers look the function up]).
# "Class.method" attributes are patched on the class.
TARGETS = [
    ("core.chain_info", [("bbcsec._core", "chain_info")]),
    ("region.evaluate_chain", [("bbcsec.region", "evaluate_chain"), ("bbcsec.simulate", "evaluate_chain")]),
    ("region.support_function", [("bbcsec.region", "support_function")]),
    ("region.secrecy_frontier", [("bbcsec.cli", "secrecy_frontier")]),
    ("region.bbc_frontier", [("bbcsec.cli", "bbc_frontier")]),
    ("region.membership", [("bbcsec.region", "membership")]),
    ("channel.load_channel", [("bbcsec.channel", "load_channel"), ("bbcsec.cli", "load_channel")]),
    ("channel.marginal", [("bbcsec.region", "marginal"), ("bbcsec.simulate", "marginal")]),
    ("probability.chain_joint", [("bbcsec.simulate", "chain_joint"), ("bbcsec.codebook", "chain_joint")]),
    ("codebook.generate", [("bbcsec.simulate", "generate")]),
    ("codebook.TypicalityScorer.mask", [("bbcsec.codebook", "TypicalityScorer.mask")]),
    ("coding.encode", [("bbcsec.simulate", "encode")]),
    ("coding.transmit", [("bbcsec.simulate", "transmit")]),
    ("coding.Node1Decoder.__init__", [("bbcsec.coding", "Node1Decoder.__init__")]),
    ("coding.Node2Decoder.__init__", [("bbcsec.coding", "Node2Decoder.__init__")]),
    ("coding.Node1Decoder.__call__", [("bbcsec.coding", "Node1Decoder.__call__")]),
    ("coding.Node2Decoder.__call__", [("bbcsec.coding", "Node2Decoder.__call__")]),
    ("simulate.run", [("bbcsec.cli", "run_simulation")]),
    ("simulate.equivocation_exact", [("bbcsec.simulate", "equivocation_exact")]),
    ("simulate.equivocation_mc", [("bbcsec.simulate", "equivocation_mc")]),
    ("simulate.asymptotic_terms", [("bbcsec.simulate", "asymptotic_terms")]),
    ("cli.main", [("bbcsec.cli", "main")]),
    ("jsonio.dump", [("bbcsec.jsonio", "dump")]),
]

# The end-to-end metric each layer's metrics should move, on which workload.
SHOULD_MOVE = {
    "core": "frontier wall_s and support_values_per_s; membership_scan membership_p99_ms; "
             "not simulate (about one kernel call)",
    "region": "frontier wall_s (self_s, support_function, frontiers); membership_scan "
              "membership_per_s and membership_p99_ms (membership counts)",
    "channel": "setup_s (load_channel); membership_scan membership_p50_ms (marginal)",
    "probability": "simulate wall_s (through asymptotic_terms and decoding_joint)",
    "codebook": "simulate wall_s",
    "coding": "simulate wall_s (the trial loop)",
    "simulate": "simulate wall_s and peak_rss_mb",
    "cli": "frontier and simulate wall_s (expected small)",
    "jsonio": "frontier and simulate wall_s (expected small)",
}

SLOW_KERNEL_CALLS = 100  # a membership call above this many kernel calls is in the slow tail


def _resolve(module: str, attr: str):
    owner = import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Records nested spans while installed; `uninstall` restores every
    patched attribute."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.missing = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, sites in TARGETS:
            for module, attr in sites:
                owner, leaf = _resolve(module, attr)
                fn = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
                if fn is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                setattr(owner, leaf, self._wrap(name, fn))
                self._patched.append((owner, leaf, fn))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._patched):
            setattr(owner, leaf, fn)
        self._patched.clear()


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced unit of work."""
    n = len(spans)
    child_time = np.zeros(n)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    total = defaultdict(float)
    self_time = defaultdict(float)
    self_layer = defaultdict(float)
    durations = defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        durations[name].append(dur)
        self_time[name] += dur - child_time[i]
        self_layer[name.split(".")[0]] += dur - child_time[i]

    # kernel calls made under each membership call (nearest membership ancestor)
    kernel_per_member = Counter()
    member_idx = [i for i, s in enumerate(spans) if s[0] == "region.membership"]
    for i, (name, _, _, parent) in enumerate(spans):
        if name != "core.chain_info":
            continue
        while parent >= 0 and spans[parent][0] != "region.membership":
            parent = spans[parent][3]
        if parent >= 0:
            kernel_per_member[parent] += 1
    member_kernels = [kernel_per_member[i] for i in member_idx]
    slow = [i for i in member_idx if kernel_per_member[i] > SLOW_KERNEL_CALLS]
    slow_s = sum(spans[i][2] - spans[i][1] for i in slow)

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def p50_ms(name):
        return 1e3 * float(np.median(durations[name])) if durations[name] else 0.0

    m = {
        "core.chain_info.calls": calls["core.chain_info"],
        "core.chain_info.us_per_call": per_call_us("core.chain_info"),
        "core.chain_info.share": total["core.chain_info"] / wall_s,
        "region.support_function.calls": calls["region.support_function"],
        "region.support_function.p50_ms": p50_ms("region.support_function"),
        "region.secrecy_frontier.s": total["region.secrecy_frontier"],
        "region.bbc_frontier.s": total["region.bbc_frontier"],
        "region.membership.kernel_calls_p50": float(np.median(member_kernels)) if member_kernels else 0.0,
        "region.membership.kernel_calls_max": max(member_kernels, default=0),
        "region.membership.slow_calls": len(slow),
        "region.membership.slow_share": slow_s / wall_s,
        "region.evaluate_chain.calls": calls["region.evaluate_chain"],
        "channel.load_channel.s": total["channel.load_channel"],
        "channel.marginal.calls": calls["channel.marginal"],
        "channel.marginal.us_per_call": per_call_us("channel.marginal"),
        "probability.chain_joint.calls": calls["probability.chain_joint"],
        "probability.chain_joint.s": total["probability.chain_joint"],
        "codebook.generate.s": total["codebook.generate"],
        "codebook.TypicalityScorer.mask.calls": calls["codebook.TypicalityScorer.mask"],
        "codebook.TypicalityScorer.mask.us_per_call": per_call_us("codebook.TypicalityScorer.mask"),
        "coding.encode.us_per_call": per_call_us("coding.encode"),
        "coding.transmit.us_per_call": per_call_us("coding.transmit"),
        "coding.Node1Decoder.call_us": per_call_us("coding.Node1Decoder.__call__"),
        "coding.Node2Decoder.call_us": per_call_us("coding.Node2Decoder.__call__"),
        "coding.decoder_init.s": total["coding.Node1Decoder.__init__"] + total["coding.Node2Decoder.__init__"],
        "simulate.run.s": total["simulate.run"],
        # run()'s own code outside the wrapped calls is the trial loop
        "simulate.trials.self_s": self_time["simulate.run"],
        "simulate.equivocation_exact.s": total["simulate.equivocation_exact"],
        "simulate.equivocation_mc.s": total["simulate.equivocation_mc"],
        "simulate.asymptotic_terms.s": total["simulate.asymptotic_terms"],
        "cli.self_s": self_time["cli.main"],
        "jsonio.dump.s": total["jsonio.dump"],
    }
    for layer in SHOULD_MOVE:
        m.setdefault(f"{layer}.self_s", self_layer[layer])
    hist = Counter(member_kernels)
    return m, sorted(hist.items())
