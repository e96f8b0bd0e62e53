"""Span shims around the package's public entry points.

The benchmark installs these from its own files; nothing under src/ knows
about them.  Each shim records one span (name, nesting depth, start, end)
into a flat in-memory array, so the kept spans add no objects for the
cyclic garbage collector to track.  Spans are written out and reduced to
per-layer totals only after the traced pass has finished.

Self time of a layer is its spans' duration minus the part covered by its
direct child spans, and minus the measured cost of each direct child's shim
outside that child's span (``shim_outside_ns``).  A span covers its shim's
hooks, so busy time includes them: per-layer times locate work, they are
not speeds to quote.
"""

import json
from array import array
from time import perf_counter_ns

_DEPTH_BITS = 64  # spans[i] = name_id * _DEPTH_BITS + depth


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # (code, start_ns, end_ns) triples, in end order
        self.depth = 0
        self.counts = {
            "cdiv": 0,
            "clamped": 0,
            "startup": 0,
            "trend": 0,
            "resets": 0,
            "cdiv_in_startup": 0,
            "cdiv_in_trend": 0,
            "new_sessions": 0,
            "in_progress": 0,
            "refused": 0,
            "decisions": 0,
            "csv_bytes": 0,
        }

    def wrap(self, name, fn, pre=None, post=None):
        """Return fn wrapped in a span; ``pre(args)`` runs before fn and its
        result reaches ``post(args, result, token)`` after it."""
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        tracer = self

        def shim(*args, **kwargs):
            # The span covers the hooks too, so that they count as this
            # span's time and not as its parent's self time.
            start = perf_counter_ns()
            token = pre(args) if pre is not None else None
            depth = tracer.depth
            tracer.depth = depth + 1
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, result, token)
                return result
            finally:
                tracer.depth = depth
                spans.extend((nid * _DEPTH_BITS + depth, start, perf_counter_ns()))

        return shim

    def install(self, intsmooth, gate, sim, cli):
        """Replace every traced entry point of the four modules by its shim.

        Module attributes are patched where callers look them up: ``cli``
        imported ``read_pairs`` and ``run`` by name, so those are patched
        in both modules.
        """
        counts = self.counts

        def count_cdiv(args, result, token):
            counts["cdiv"] += 1

        def count_clamp(args, result, token):
            if result != args[0]:
                counts["clamped"] += 1

        def before_update(args):
            return args[0].n, counts["cdiv"]

        def after_update(args, result, token):
            # Branch and reset are read off the sample count, exact for
            # n_alpha >= 2: the trend branch leaves n at n_alpha, startup
            # raises it, and a reset restarts it at 1.
            smoother = args[0]
            n_before, cdiv_before = token
            n_after = smoother.n
            calls = counts["cdiv"] - cdiv_before
            if n_after < smoother.n_alpha or n_after != n_before:
                counts["startup"] += 1
                counts["cdiv_in_startup"] += calls
            else:
                counts["trend"] += 1
                counts["cdiv_in_trend"] += calls
            if n_after == 1 and n_before >= 1:
                counts["resets"] += 1

        def count_decision(args, result, token):
            counts["decisions"] += 1
            if result.request_kind == gate.IN_PROGRESS:
                counts["in_progress"] += 1
            else:
                counts["new_sessions"] += 1
                if result.verdict != gate.ADMIT:
                    counts["refused"] += 1

        def count_csv(args, result, token):
            counts["csv_bytes"] += len(result)

        wrap = self.wrap
        setattr(intsmooth, "cdiv", wrap("intsmooth.cdiv", intsmooth.cdiv, post=count_cdiv))
        setattr(intsmooth, "clamp_observation", wrap(
            "intsmooth.clamp_observation", intsmooth.clamp_observation, post=count_clamp))
        setattr(intsmooth.IntSmoother, "update", wrap(
            "intsmooth.update", intsmooth.IntSmoother.update,
            pre=before_update, post=after_update))
        setattr(intsmooth.IntSmoother, "trend",
                wrap("intsmooth.trend", intsmooth.IntSmoother.trend))
        setattr(gate.CongestionGate, "observe_and_decide",
                wrap("gate.observe_and_decide", gate.CongestionGate.observe_and_decide))
        setattr(gate, "decide", wrap("gate.decide", gate.decide, post=count_decision))
        setattr(gate.GateStats, "record", wrap("gate.record", gate.GateStats.record))
        read_pairs = wrap("sim.read_pairs", sim.read_pairs)
        setattr(sim, "read_pairs", read_pairs)
        setattr(cli, "read_pairs", read_pairs)
        setattr(sim, "generate", wrap("sim.generate", sim.generate))
        run = wrap("sim.run", sim.run)
        setattr(sim, "run", run)
        setattr(cli, "run", run)
        setattr(sim.SimTrace, "to_csv",
                wrap("sim.to_csv", sim.SimTrace.to_csv, post=count_csv))
        setattr(cli, "cmd_smooth", wrap("cli.smooth", cli.cmd_smooth))
        setattr(cli, "cmd_simulate", wrap("cli.simulate", cli.cmd_simulate))

    def totals(self, shim_ns: float = 0.0) -> dict:
        """Per-name calls, busy (inclusive) and self nanoseconds.

        ``shim_ns`` is taken off a span's self time for each direct child:
        the part of a child's shim that lies outside the child's span (see
        ``shim_outside_ns``).

        Spans are stored as each one ends, i.e. in post-order.  Walked
        backwards, every span comes right before its own subtree, so the
        last span seen one level up is its parent.
        """
        k = len(self.names)
        calls = [0] * k
        busy = [0] * k
        covered = [0.0] * k
        parent_at = [0] * _DEPTH_BITS
        spans = self.spans
        for i in range(len(spans) - 3, -1, -3):
            nid, depth = divmod(spans[i], _DEPTH_BITS)
            dur = spans[i + 2] - spans[i + 1]
            calls[nid] += 1
            busy[nid] += dur
            if depth:
                covered[parent_at[depth - 1]] += dur + shim_ns
            parent_at[depth] = nid
        return {
            name: {"calls": calls[i], "busy_ns": busy[i], "self_ns": busy[i] - covered[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, directory) -> None:
        """Write the raw spans (native-endian int64 triples) and their names."""
        with open(directory / "spans.bin", "wb") as fh:
            self.spans.tofile(fh)
        (directory / "spans.json").write_text(json.dumps({
            "names": self.names,
            "layout": "int64 triples (name_id*64 + depth, start_ns, end_ns) in end order",
        }))


def shim_outside_ns(calls: int = 5_000, repeats: int = 7) -> float:
    """Nanoseconds that one child shim adds to its parent's self time.

    A shim's entry, its first and last clock reads and the span store lie
    outside the span it records.  Measured as the self time of a traced
    loop calling a traced no-op, less that of the same loop calling the
    plain no-op; each the least of ``repeats`` runs.
    """
    def noop(*args):
        return None

    def loop(child):
        for _ in range(calls):
            child(1, 2)

    least = []
    for traced_child in (False, True):
        tracer = Tracer()
        child = tracer.wrap("child", noop) if traced_child else noop
        parent = tracer.wrap("loop", loop)
        samples = []
        for _ in range(repeats):
            del tracer.spans[:]
            parent(child)
            samples.append(tracer.totals()["loop"]["self_ns"])
        least.append(min(samples))
    return max(0.0, (least[1] - least[0]) / calls)
