"""Spans and counters for padaug, recorded from outside the package.

`Tracer.install()` replaces every public function of the measured layer
modules, in every `padaug.*` namespace that binds it, with a wrapper that
records a span (id, name, start, end, parent, run, thread). `uninstall()`
puts the originals back. Spans stay in memory until `write_spans()`.

Counters that the pipeline does not report itself (silent fallbacks,
bytes, frames) are computed in per-function hooks from the arguments and
the result. A hook runs after its function's span has closed, inside a
`trace.hook` span, so its cost shows as tracing overhead and not as the
layer's own time.
"""

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# The package modules measured as layers. `seeding` and `errors` do no
# measurable work; `vad` is not on the synth -> train -> sweep path.
LAYERS = ("audio_io", "augment", "testset", "features", "model", "metrics", "manifest", "workers", "synth", "cli")

# Called once per trial: a span each would cost more than the work itself.
NOT_WRAPPED = frozenset({"metrics.cosine_score"})

# name -> unit of every metric a traced run reports.
PER_LAYER = {
    "features.fbank.calls": "count",
    "features.fbank.s": "s",
    "features.fbank.frames_per_s": "1/s",
    "features.fbank.calls_per_input": "count",
    "features.chunk_frames.wrap_pads": "count",
    "augment.pad_aug_utterance.calls": "count",
    "augment.pad_aug_utterance.s": "s",
    "augment.loop_pad.hits": "count",
    "augment.wgn_like.floor_hits": "count",
    "model.loss_and_grads.calls": "count",
    "model.loss_and_grads.s": "s",
    "model.loss_and_grads.frames_per_s": "1/s",
    "model.step_ms_p50": "ms",
    "model.step_ms_p95": "ms",
    "model.embed_utterance.calls": "count",
    "model.embed_utterance.s": "s",
    "model.save_model.s": "s",
    "model.load_model.s": "s",
    "testset.build_testset.s": "s",
    "audio_io.write_wav.calls": "count",
    "audio_io.write_wav.s": "s",
    "audio_io.write_wav.mb": "MB",
    "audio_io.write_wav.clipped": "count",
    "audio_io.read_wav.calls": "count",
    "audio_io.read_wav.s": "s",
    "audio_io.read_wav.mb": "MB",
    "metrics.score_trials.calls": "count",
    "metrics.score_trials.s": "s",
    "metrics.score_trials.trials_per_s": "1/s",
    "metrics.det_metrics.s": "s",
    "metrics.text_io.s": "s",
    "manifest.read_manifest.s": "s",
    "manifest.write_manifest.s": "s",
    "workers.worker_map.calls": "count",
    "workers.worker_map.items": "count",
    "workers.worker_map.pools": "count",
    "workers.worker_map.busy_frac": "fraction",
    "synth.build_corpus.s": "s",
    "cli.main.synth.s": "s",
    "cli.main.train.s": "s",
    "cli.main.sweep.s": "s",
    "cli.main.score.s": "s",
    "cli.main.eval.s": "s",
    "trace.overhead_frac": "fraction",
    **{f"share.{layer}": "fraction" for layer in (*LAYERS, "trace")},
}


# write_wav stores rint(x * 32768) clamped to [-32768, 32767]; these are
# the sample values at which that clamp changes the stored value.
_CLIP_HI = 32767.5 / 32768.0
_CLIP_LO = -32768.5 / 32768.0


def _fingerprint(samples: np.ndarray):
    """Cheap identity of a waveform's content: length plus a strided sample."""
    return len(samples), samples[::997].tobytes()


def _clipped(samples: np.ndarray) -> int:
    if len(samples) == 0 or (samples.max() < _CLIP_HI and samples.min() >= _CLIP_LO):
        return 0
    return int(np.count_nonzero(samples >= _CLIP_HI) + np.count_nonzero(samples < _CLIP_LO))


class Tracer:
    def __init__(self):
        self.spans = []  # (sid, name, start_ns, end_ns, parent_sid, run, thread)
        self.counts = defaultdict(lambda: defaultdict(float))  # run -> counter -> value
        self.inputs = defaultdict(set)  # run -> fbank input fingerprints
        self.run = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._hooks = {
            "features.fbank": self._on_fbank,
            "features.chunk_frames": self._on_chunk_frames,
            "augment.loop_pad": self._on_loop_pad,
            "augment.wgn_like": self._on_wgn_like,
            "audio_io.write_wav": self._on_write_wav,
            "audio_io.read_wav": self._on_read_wav,
            "model.loss_and_grads": self._on_loss_and_grads,
            "metrics.score_trials": self._on_score_trials,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"padaug.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in NOT_WRAPPED:
                    continue
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = name
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "padaug" or mod_name.startswith("padaug.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, name, t0, t1, parent) -> None:
        self.spans.append((sid, name, t0, t1, parent, self.run, threading.get_ident()))

    def _wrap(self, fn, name):
        if name == "workers.worker_map":
            return self._wrap_worker_map(fn)
        if name == "cli.main":
            return self._wrap_cli_main(fn)
        hook = self._hooks.get(name)
        sig = inspect.signature(fn)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._record(sid, name, t0, t1, parent)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
                self._record(next(self._ids), "trace.hook", t1, clock(), parent)
            return result

        return traced

    def _wrap_cli_main(self, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(argv=None):
            name = f"cli.main.{argv[0] if argv else 'none'}"
            stack = self._stack()
            sid = next(self._ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(argv)
            finally:
                t1 = clock()
                stack.pop()
                self._record(sid, name, t0, t1, stack[-1] if stack else None)

        return traced

    def _wrap_worker_map(self, fn):
        """worker_map gets a span, and each item a `workers.item` span whose
        parent is that worker_map span, whichever thread runs the item."""
        clock = time.perf_counter_ns
        worker_count = sys.modules["padaug.workers"].worker_count

        @functools.wraps(fn)
        def traced(item_fn, items):
            items = list(items)
            threads = worker_count()
            pooled = threads > 1 and len(items) > 1
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)

            def run_item(item):
                item_stack = self._stack()
                isid = next(self._ids)
                item_stack.append(isid)
                i0 = clock()
                try:
                    return item_fn(item)
                finally:
                    i1 = clock()
                    item_stack.pop()
                    self._record(isid, "workers.item", i0, i1, sid)

            stack.append(sid)
            t0 = clock()
            try:
                return fn(run_item, items)
            finally:
                t1 = clock()
                stack.pop()
                self._record(sid, "workers.worker_map", t0, t1, parent)
                self._add("workers.worker_map.items", len(items))
                self._add("workers.worker_map.pools", int(pooled))
                self._add("workers.worker_map.capacity_ns", (t1 - t0) * (threads if pooled else 1))

        return traced

    # -- counters ----------------------------------------------------------

    def _add(self, key: str, value) -> None:
        with self._lock:
            self.counts[self.run][key] += value

    def _on_fbank(self, a, result) -> None:
        self._add("features.fbank.frames", result.frames)
        key = _fingerprint(a["w"].samples)
        with self._lock:
            self.inputs[self.run].add(key)

    def _on_chunk_frames(self, a, result) -> None:
        if a["f"].frames < a["n"]:
            self._add("features.chunk_frames.wrap_pads", 1)

    def _on_loop_pad(self, a, result) -> None:
        if len(a["x"]) < a["min_len"]:
            self._add("augment.loop_pad.hits", 1)

    def _on_wgn_like(self, a, result) -> None:
        # Same test as wgn_like: a zero-power reference takes the variance floor.
        x = a["x_chunk"].samples
        p_x = float(np.mean(np.square(x))) if len(x) else 0.0
        if a["n_len"] > 0 and p_x <= 0.0 and a["variance_floor"] is not None:
            self._add("augment.wgn_like.floor_hits", 1)

    def _on_write_wav(self, a, result) -> None:
        samples = a["w"].samples
        self._add("audio_io.write_wav.bytes", 2 * len(samples))
        self._add("audio_io.write_wav.clipped", _clipped(samples))

    def _on_read_wav(self, a, result) -> None:
        self._add("audio_io.read_wav.bytes", 2 * len(result))

    def _on_loss_and_grads(self, a, result) -> None:
        self._add("model.loss_and_grads.frames", a["f"].frames)

    def _on_score_trials(self, a, result) -> None:
        self._add("metrics.score_trials.trials", len(result))

    # -- output ------------------------------------------------------------

    def metrics(self, untraced_walls, traced_walls) -> dict:
        """The PER_LAYER metrics: per-op values are medians over the traced
        operations; shares are mean self time over mean untraced op wall."""
        runs = sorted({s[5] for s in self.spans if s[5] != "setup"})
        per_op = []
        step_ms = []
        for r in runs:
            spans = [s for s in self.spans if s[5] == r]
            counts = self.counts[r]
            calls, secs = {}, {}
            for s in spans:
                calls[s[1]] = calls.get(s[1], 0) + 1
                secs[s[1]] = secs.get(s[1], 0.0) + (s[3] - s[2]) / 1e9

            def rate(num, name):
                return num / secs[name] if secs.get(name) else 0.0

            n_inputs = len(self.inputs[r])
            m = {
                "features.fbank.frames_per_s": rate(counts["features.fbank.frames"], "features.fbank"),
                "features.fbank.calls_per_input": calls.get("features.fbank", 0) / n_inputs if n_inputs else 0.0,
                "model.loss_and_grads.frames_per_s": rate(counts["model.loss_and_grads.frames"], "model.loss_and_grads"),
                "metrics.score_trials.trials_per_s": rate(counts["metrics.score_trials.trials"], "metrics.score_trials"),
                "metrics.text_io.s": sum(secs.get(f"metrics.{f}", 0.0) for f in ("read_trials", "write_scores", "read_scores")),
                "audio_io.write_wav.mb": counts["audio_io.write_wav.bytes"] / 1e6,
                "audio_io.read_wav.mb": counts["audio_io.read_wav.bytes"] / 1e6,
                "workers.worker_map.busy_frac": (
                    secs.get("workers.item", 0.0) * 1e9 / counts["workers.worker_map.capacity_ns"]
                    if counts["workers.worker_map.capacity_ns"] else 0.0
                ),
            }
            for key in ("features.chunk_frames.wrap_pads", "augment.loop_pad.hits", "augment.wgn_like.floor_hits",
                        "audio_io.write_wav.clipped", "workers.worker_map.items", "workers.worker_map.pools"):
                m[key] = counts[key]
            for key in PER_LAYER:
                stem, _, field = key.rpartition(".")
                if key not in m and field in ("calls", "s") and not key.startswith("share."):
                    m[key] = calls.get(stem, 0) if field == "calls" else secs.get(stem, 0.0)
            layer_self = {}
            for name, t in self_times(spans).items():
                layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + t
            m["self"] = layer_self
            per_op.append(m)
            # A training step runs from one schedule() call to the next.
            trains = {s[0]: s[2] for s in spans if s[1] == "model.train"}
            marks = {}
            for s in sorted(spans, key=lambda s: s[2]):
                if s[1] == "model.schedule" and s[4] in trains:
                    marks.setdefault(s[4], [trains[s[4]]]).append(s[2])
            for ts in marks.values():
                step_ms.extend(np.diff(ts) / 1e6)

        metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0] if k != "self"}
        metrics["model.step_ms_p50"] = float(np.percentile(step_ms, 50)) if step_ms else 0.0
        metrics["model.step_ms_p95"] = float(np.percentile(step_ms, 95)) if step_ms else 0.0
        setup_spans = [s for s in self.spans if s[5] == "setup"]
        for key, name in (("synth.build_corpus.s", "synth.build_corpus"), ("cli.main.synth.s", "cli.main.synth")):
            metrics[key] = sum((s[3] - s[2]) / 1e9 for s in setup_spans if s[1] == name)
        untraced = statistics.fmean(untraced_walls)
        metrics["trace.overhead_frac"] = statistics.fmean(traced_walls) / untraced - 1.0
        for key in PER_LAYER:
            if key.startswith("share."):
                layer = key.split(".", 1)[1]
                metrics[key] = statistics.fmean(m["self"].get(layer, 0.0) for m in per_op) / untraced
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\trun\tthread\n")
            for sid, name, t0, t1, parent, run, thread in sorted(self.spans):
                f.write(f"{sid}\t{name}\t{t0}\t{t1}\t{'' if parent is None else parent}\t{run}\t{thread}\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Self time in seconds per span name.

    Each instant is shared equally by the open spans that have no open
    child at that instant, whichever thread they run in. In one thread this
    is a span's duration minus the time its children cover; with a worker
    pool, the parent's wait is not counted and two busy workers each get
    half of the instant, so the self times always add up to the wall time
    the root spans cover.
    """
    parent = {s[0]: s[4] for s in spans}
    name = {s[0]: s[1] for s in spans}
    events = sorted([(s[2], 1, s[0]) for s in spans] + [(s[3], 0, s[0]) for s in spans])
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    out = defaultdict(float)
    last = None
    for t, starting, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves) / 1e9
            for leaf in leaves:
                out[name[leaf]] += share
        last = t
        p = parent[sid]
        if starting:
            is_open.add(sid)
            leaves.add(sid)
            if p in is_open:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if p in is_open:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return dict(out)
