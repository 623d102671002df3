"""Closed-loop runner, per-op timeout guard, answer checks and digests.

One caller in one process: the next op starts when the last one returns.
The timed phase runs whole passes over the corpus, so every run measures
the same cost mix whatever the seed.
"""

import hashlib
import json
import signal
import time

OP_TIMEOUT_S = 20  # far above the slowest op of the parent commit (about 3 s)
LOOP_LIMIT_S = 45  # a loop stops mid-pass past this, to keep a run well under 180 s


class OpTimeout(BaseException):
    """Raised by SIGALRM in an op that outran the per-op timeout.

    A BaseException, so that no ``except Exception`` inside the package
    swallows it.
    """


def _raise_timeout(signum, frame):
    raise OpTimeout()


def guarded_call(fn, item, timeout_s=OP_TIMEOUT_S):
    """Run one op under a SIGALRM guard: (status, output, latency in s).

    status is "ok", "error" (the op raised) or "timeout".
    """
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(timeout_s)
    start = time.perf_counter()
    try:
        output, status = fn(item), "ok"
    except OpTimeout:
        output, status = None, "timeout"
    except Exception as exc:  # a raising op is a failed op, not a failed run
        output, status = "%s: %s" % (type(exc).__name__, exc), "error"
    finally:
        latency = time.perf_counter() - start
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return status, output, latency


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def input_digest(workload):
    return sha256(json.dumps([workload.describe(item) for item in workload.items]).encode())


class Loop:
    """What one timed loop did: per-op latency, status and output digest."""

    def __init__(self):
        self.latencies = []
        self.ops = []  # (item index, status, output digest or None)
        self.first = {}  # item index -> first successful output
        self.errors = []
        self.elapsed = 0.0

    @property
    def completed(self):
        return sum(1 for _, status, _ in self.ops if status == "ok")

    def passes(self, corpus_size):
        return len(self.ops) / corpus_size


def run_passes(workload, seconds, tracer=None):
    """Whole passes over the corpus, stopping at the pass end nearest ``seconds``.

    At least one pass runs.  Passes of several seconds would otherwise make
    a run overshoot ``seconds`` by up to a pass; this way a run measures
    ``seconds`` on average.
    """
    loop = Loop()
    start = time.perf_counter()
    passes = 0
    while not passes or loop.elapsed + loop.elapsed / passes / 2 < seconds:
        for index, item in enumerate(workload.items):
            if tracer is not None:
                tracer.op_id = len(loop.ops)
            status, output, latency = guarded_call(workload.run, item)
            digest = None
            if status == "ok":
                digest = sha256(workload.encode(output))
                loop.first.setdefault(index, output)
            else:
                loop.errors.append("item %d: %s %s" % (index, status, output or ""))
            loop.latencies.append(latency)
            loop.ops.append((index, status, digest))
            if time.perf_counter() - start > LOOP_LIMIT_S:
                break
        loop.elapsed = time.perf_counter() - start
        passes += 1
        if loop.elapsed > LOOP_LIMIT_S:
            break
    return loop


class Verdict:
    """Outcome of checking every answer of one or more loops."""

    def __init__(self, workload, loops):
        self.outputs = {}  # item index -> checked output
        self.problems = []
        verified = {}
        checked = set()
        for loop in loops:
            for index, output in loop.first.items():
                if index in checked:
                    continue
                checked.add(index)
                try:
                    workload.check(workload.items[index], output)
                except Exception as exc:  # every kind of wrong answer is a failed op
                    self.problems.append("item %d: %s: %s" % (index, type(exc).__name__, exc))
                    continue
                verified[index] = sha256(workload.encode(output))
                self.outputs[index] = output
        self.attempted = sum(len(loop.ops) for loop in loops)
        self.failed = sum(
            1
            for loop in loops
            for index, status, digest in loop.ops
            if status != "ok" or digest != verified.get(index)
        )
        self.timeouts = sum(
            1 for loop in loops for _, status, _ in loop.ops if status == "timeout"
        )
        self.problems += [e for loop in loops for e in loop.errors]
        self.output_digest = sha256(
            "\n".join(verified.get(i, "missing") for i in range(len(workload.items))).encode()
        )
