"""padaug benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner makes the workload's inputs from
--seed several times, timing each as set-up, and repeats the workload's
operation (one or two `padaug` CLI calls, in-process) for --seconds with a
reference computation timed before each, and checks the outputs: the
first operation's in full, every later one by its output digest. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced operations and reports the per-layer metrics from the
traced ones. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

BLAS is pinned to one thread, so the process runs at most PADAUG_THREADS
compute threads, and a workload with fewer threads than CPUs is pinned to
as many CPUs as it has threads. A full report (environment, output
digest, raw times, every metric) is written to perfbench/_out/, and a
traced run also writes its spans there.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("train-none", "train-ht", "sweep", "score")

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ref",
    "peak_rss_mb": "MiB",
}


class Ledger:
    """Operations (CLI calls and output checks) attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {name} failed {detail}".strip())


def environment(seed: int) -> dict:
    import numpy
    import platform
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        **{k: os.environ.get(k) for k in ("PADAUG_THREADS", *BLAS_ENV)},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        caches = []
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches.append(f"L{level} {kind} {size}")
        env["caches"] = ", ".join(caches)
    return env


class Reference:
    """A fixed computation that does not touch padaug, run on as many
    threads as the workload uses and timed next to every operation.

    A shared host's speed can drift by half in phases of tens of seconds,
    and the drift slows the reference and padaug alike. Operation time in
    units of the reference (wall_rel) still moves with any change to padaug
    but cancels most of the drift. Kinds of work slow by different amounts
    in one phase, so each workload's reference is made of the kinds that
    tracked its operation best: `rounds` of a Python loop, FFTs and small
    matmuls (train-ht, sweep); `steps` of a forward and backward pass of a
    small pooled MLP on a 300-frame chunk of a 25 MB pool of feature
    matrices (train-none, whose time goes to model.loss_and_grads); and
    `lines` of trial parsing, per-pair cosines with small numpy calls,
    score formatting and dict joins (score).
    """

    def __init__(self, np, threads: int, rounds: int, steps: int, lines: int):
        rng = np.random.default_rng(0)
        self.np = np
        self.threads = threads
        self.rounds, self.steps = rounds, steps
        self.frames = rng.standard_normal((298, 512))
        self.x = rng.standard_normal((300, 80))
        self.w = rng.standard_normal((64, 80))
        self.pool = [rng.standard_normal((400, 80)) for _ in range(100 if steps else 0)]
        self.w1, self.b1 = rng.standard_normal((64, 80)) / 9.0, np.zeros(64)
        self.w2, self.b2 = rng.standard_normal((32, 128)) / 11.0, np.zeros(32)
        self.head = rng.standard_normal((10, 32))
        ids = [f"ref{i // 50:03d}-u{i % 50:03d}" for i in range(1000)]
        self.vectors = {u: v for u, v in zip(ids, rng.standard_normal((1000, 32)).astype("<f4"))}
        pairs = rng.integers(1000, size=(lines, 2))
        self.lines = [f"{(a // 50 == b // 50):d} {ids[a]} {ids[b]}\n" for a, b in pairs]
        self.times = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        workers = [threading.Thread(target=self._unit) for _ in range(self.threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        self.times.append(time.perf_counter() - t0)

    def _unit(self) -> None:
        np = self.np
        total = 0
        for _ in range(self.rounds):
            for i in range(40000):
                total += i % 7
            for _ in range(20):
                np.abs(np.fft.rfft(self.frames, axis=1)) ** 2
            for _ in range(60):
                np.maximum(self.x @ self.w.T, 0.0).mean(axis=0)
        for step in range(self.steps):
            self._step(step)
        if self.lines:
            self._lines()

    def _step(self, step: int) -> dict:
        """One training example's forward and backward pass; its gradients."""
        np = self.np
        offset = step % 100
        f = self.pool[step % len(self.pool)][offset : offset + 300]
        h_pre = f @ self.w1.T + self.b1
        h = np.maximum(h_pre, 0.0)
        mu, var = h.mean(axis=0), np.maximum(h.var(axis=0), 1e-10)
        sd = np.sqrt(var)
        pooled = np.concatenate([mu, sd])
        z = self.w2 @ pooled + self.b2
        z_norm = float(np.linalg.norm(z))
        emb = z / z_norm
        norms = np.linalg.norm(self.head, axis=1)
        wn = self.head / norms[:, None]
        cos = wn @ emb
        label = step % len(cos)
        theta = np.arccos(np.clip(cos[label], -1.0 + 1e-12, 1.0 - 1e-12))
        logits = 32.0 * cos
        logits[label] = 32.0 * np.cos(min(theta + 0.2, np.pi))
        e = np.exp(logits - logits.max())
        dcos = 32.0 * (e / e.sum())
        dcos[label] -= 32.0
        dcos[label] *= np.sin(theta + 0.2) / np.sin(theta)
        d_emb = wn.T @ dcos
        dz = (d_emb - np.dot(d_emb, emb) * emb) / z_norm
        grads = {
            "head": (dcos[:, None] * (emb[None, :] - cos[:, None] * wn)) / norms[:, None],
            "w2": np.outer(dz, pooled),
            "b2": dz,
        }
        dpooled = self.w2.T @ dz
        dvar = np.where(var > 1e-10, dpooled[64:] / (2.0 * sd), 0.0)
        dh = dpooled[:64] / 300 + (2.0 / 300) * dvar * (h - mu)
        dh_pre = dh * (h_pre > 0.0)
        grads["w1"] = dh_pre.T @ f
        grads["b1"] = dh_pre.sum(axis=0)
        return grads

    def _lines(self) -> None:
        np = self.np
        scored = []
        for line in self.lines:
            label, a, b = line.split()
            x = np.asarray(self.vectors[a], dtype=np.float64)
            y = np.asarray(self.vectors[b], dtype=np.float64)
            scored.append((a, b, label == "1", float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))))
        text = "".join(f"{a} {b} {s:.6f}\n" for a, b, _, s in scored)
        table = {(p[0], p[1]): float(p[2]) for p in (line.split() for line in text.splitlines())}
        targets = np.sort([table[a, b] for a, b, t, _ in scored if t])
        nons = np.sort([table[a, b] for a, b, t, _ in scored if not t])
        np.searchsorted(targets, nons)


def timed_call(fn, ledger: Ledger):
    """Run fn with padaug's output captured; returns (ok, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            fn()
        ok = True
    except Exception:  # a failed operation is counted, and the run goes on
        ok = False
        ledger.failures.append(traceback.format_exc(limit=3))
        sys.stderr.write(out.getvalue()[-2000:] + traceback.format_exc())
    return ok, time.perf_counter() - t0


def run(args) -> int:
    import numpy as np

    import tracer as tr
    import workloads

    wl = workloads.make(args.workload, tiny=args.size == "tiny")
    os.environ["PADAUG_THREADS"] = str(wl.threads)
    env = environment(args.seed)
    # A workload with fewer threads than CPUs runs on the last of them, so
    # that the scheduler does not move it between CPUs mid-operation; this
    # halved the operation-to-operation noise of train-none on a 2-vCPU guest.
    cpus = sorted(os.sched_getaffinity(0))
    if wl.threads < len(cpus):
        os.sched_setaffinity(0, cpus[-wl.threads:])
    env["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    ledger = Ledger()
    tracer = tr.Tracer() if args.trace else None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "_work" / f"{tag}-{os.getpid()}"
    out_dir = BENCH / "_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)

    try:
        # Set-up, repeated: the first copy feeds the operations, and the
        # others run one after each of the first operations, so that their
        # median does not hang on one moment of the host's speed. A traced
        # run traces its first set-up for the synth layer.
        setup_times, setup_digests = [], []

        def set_up(traced: bool):
            d = work / f"setup{len(setup_times)}"
            made = {}
            if traced:
                tracer.run = "setup"
                tracer.install()
            try:
                ok, secs = timed_call(lambda: made.update(ctx=wl.setup(d, args.seed, ledger)), ledger)
            finally:
                if traced:
                    tracer.uninstall()
            if ok:
                setup_times.append(secs)
                setup_digests.append(workloads.digest(d))
            return made.get("ctx"), d

        ctx, _ = set_up(tracer is not None)
        if ctx is None:
            sys.stderr.write(f"set-up of {args.workload} failed; no result\n")
            return 1

        out = work / "op"
        ops = []  # (seconds, traced) per operation, in order
        info, ref_digest = {}, None
        # Operations repeat until the next one would end past --seconds; a
        # traced run alternates untraced and traced operations.
        reference = Reference(np, wl.threads, *wl.reference)
        reference()  # warm-up: a first call runs slower
        reference.times.clear()
        start = time.perf_counter()
        i = 0
        while True:
            reference()
            traced = tracer is not None and i % 2 == 1
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            if traced:
                tracer.run = i
                tracer.install()
            try:
                ok, secs = timed_call(lambda: wl.op(ctx, out, ledger), ledger)
            finally:
                if traced:
                    tracer.uninstall()
            ops.append((secs, traced))
            if ok:
                d = workloads.digest(out)
                if ref_digest is None:
                    ref_digest = d
                    try:
                        checks, info = wl.check(ctx, out)
                    except Exception:  # unreadable outputs fail the check, not the run
                        checks = [workloads.Check("outputs_readable", False, traceback.format_exc(limit=3))]
                    for c in checks:
                        ledger.check(c.name, c.ok, c.detail)
                else:
                    ledger.check("digest_repeats", d == ref_digest, f"op {i}")
            if len(setup_times) < wl.setup_repeats:
                shutil.rmtree(set_up(False)[1], ignore_errors=True)
            i += 1
            elapsed = time.perf_counter() - start
            enough = tracer is None or ops[-1][1]  # a traced run ends on a traced op
            if enough and elapsed + elapsed / i > args.seconds:
                break
        reference()
        while len(setup_times) < wl.setup_repeats and not ledger.failures:
            shutil.rmtree(set_up(False)[1], ignore_errors=True)
        ledger.check("setup_repeats", len(set(setup_digests)) == 1)

        walls = {"untraced": [w for w, t in ops if not t], "traced": [w for w, t in ops if t]}
        wall_s = statistics.fmean(walls["untraced"])
        ref = reference.times
        ref_s = statistics.fmean(ref)
        # Each operation over the mean of the reference timings just before
        # and just after it: the host's slow spells last seconds, so these
        # share its speed.
        rel = [w / ((ref[j] + ref[j + 1]) / 2) for j, (w, t) in enumerate(ops) if not t]
        info.update(wall_s=(wall_s, "s"), reference_s=(ref_s, "s"))
        info[wl.rate] = (wl.items_per_op / wall_s, "1/s")
        if "trials_per_op" in info:
            info["trials_per_s"] = (info.pop("trials_per_op")[0] / wall_s, "1/s")
        if args.trace:
            metrics = tracer.metrics(walls["untraced"], walls["traced"])
            tracer.write_spans(out_dir / f"{tag}-spans.tsv")
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_rel": statistics.median(rel),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = tr.PER_LAYER if args.trace else END_TO_END
        failed = len(ledger.failures)
        result = {
            "correct": failed == 0,
            "attempted": ledger.attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "size": args.size,
            "digest": ref_digest,
            "environment": env,
            "item": wl.item,
            "items_per_op": wl.items_per_op,
            "ops_timed": len(ops),
            "setup_times_s": setup_times,
            "op_walls_s": walls,
            "reference_times_s": reference.times,
            "failed_frac": failed / max(1, ledger.attempted),
            "failures": ledger.failures,
            "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
            **result,
        }
        (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
        print_report(report, units)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report: dict, units: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  size {report['size']}")
    print("environment " + json.dumps(report["environment"]))
    print(f"ops timed {report['ops_timed']}  ({report['items_per_op']} {report['item']} per op)")
    print(f"digest {report['digest']}")
    for name, m in report["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {units[name]}")
    for name, m in report["info"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {report['failed_frac']:.6g} fraction")
    if report["trace"]:
        shares = {k: v["value"] for k, v in report["metrics"].items() if k.startswith("share.")}
        print("self time as a share of untraced wall_s:")
        for name, v in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {name[6:]:10s} {v:7.1%}")
        print(f"  {'sum':10s} {sum(shares.values()):7.1%}  (1 + trace.overhead_frac = "
              f"{1 + report['metrics']['trace.overhead_frac']['value']:.1%})")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    args = p.parse_args(argv)

    # Must precede the first numpy import: OpenBLAS reads it when it loads.
    os.environ.update(BLAS_ENV)
    src = ROOT / "src"
    if not (src / "padaug" / "__init__.py").is_file():
        sys.stderr.write(f"no padaug sources under {src}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(src))
    import padaug

    if Path(padaug.__file__).resolve().parent != (src / "padaug").resolve():
        sys.stderr.write(f"imported padaug from {padaug.__file__}, not from {src}\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
