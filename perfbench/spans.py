"""Spans and group-operation counters for the traced benchmark run.

Nothing under src/ knows about tracing.  A Tracer patches zorro from the
outside: each layer's public functions are replaced by span-recording
wrappers at every module attribute that refers to them (that is where their
callers look them up, e.g. ``zorro.rangeproof.verify_bit`` for the range
proofs), and the group-element operators are replaced on their classes by
counting wrappers.  ``Tracer.installed()`` restores every original on exit.

A span is the tuple (id, name, start, end, parent, session, ops_s): ``ops_s``
is the group-operation time spent directly under the span, outside any child
span.  Group operations are too many to keep one span each (a 128-party
mod41 session makes ~10^6 of them), so they are summed into their enclosing
span instead, and counted only at the outermost operator call: ``g ** k`` on
a curve point is one exp, not the point additions inside it.
"""

import contextlib
import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from zorro import cli, dlog, groups, ledger, protocol, rangeproof, sigma

# layer -> public functions whose calls become spans named "<layer>.<name>"
SPAN_FUNCTIONS = {
    "sigma": (
        sigma.prove_dlog, sigma.verify_dlog, sigma.prove_dh_tuple, sigma.verify_dh_tuple,
        sigma.prove_bit, sigma.verify_bit, sigma.prove_square, sigma.verify_square,
    ),
    "rangeproof": (
        rangeproof.prove_l1, rangeproof.verify_l1, rangeproof.prove_l2, rangeproof.verify_l2,
    ),
    "protocol": (
        protocol.round1_generate, protocol.verify_round1, protocol.derive_pads,
        protocol.round2_generate, protocol.verify_contribution, protocol.tally,
    ),
    "dlog": (dlog.bsgs,),
    "cli": (cli.cmd_aggregate, cli.cmd_verify, cli.run_session),
}

# (class, attribute, span name) for methods, looked up on their class
SPAN_METHODS = (
    (protocol.Round1Post, "from_bytes", "protocol.decode"),
    (protocol.Round2Post, "from_bytes", "protocol.decode"),
    (protocol.Round1Post, "to_bytes", "protocol.encode"),
    (protocol.Round2Post, "to_bytes", "protocol.encode"),
    (ledger.Ledger, "append", "ledger.append"),
    (ledger.Ledger, "load", "ledger.load"),
    (ledger.Ledger, "verify_chain", "ledger.verify_chain"),
    (ledger.Ledger, "read_round", "ledger.read_round"),
)

# (class, attribute, op kind) for the group layer; "/" and inverse are both "div"
GROUP_OPS = tuple(
    (cls, attr, kind)
    for cls in (groups.ModElement, groups.CurvePoint)
    for attr, kind in (
        ("__pow__", "exp"), ("__mul__", "mul"), ("__truediv__", "div"), ("inverse", "div"),
    )
) + tuple(
    (cls, attr, kind)
    for cls in (groups.ModGroup, groups.CurveGroup)
    for attr, kind in (("decode_element", "decode"), ("contains", "contains"))
)

# (class, attribute, counter name) for calls that are counted but not timed
COUNTED = ((sigma.FsTranscript, "challenge", "sigma.challenge"),)


def _zorro_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "zorro" or name.startswith("zorro."))
    ]


class Tracer:
    """Records spans and outermost group-op counts while installed.

    ``session`` labels everything recorded until it is changed; the caller
    opens one root span per session with ``root()``.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()  # (session, kind) -> calls
        self.session = None
        self._stack = []  # open spans as [id, ops_s]
        self._op_depth = 0
        self._next_id = 0
        self._restore = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((frame[0], name, t0, t1, parent, tracer.session, frame[1]))

        return wrapped

    def _op(self, kind, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args):
            if tracer._op_depth:
                tracer._op_depth += 1
                try:
                    return fn(*args)
                finally:
                    tracer._op_depth -= 1
            tracer._op_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                tracer._op_depth = 0
                tracer.counts[tracer.session, kind] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += dt

        return wrapped

    def _counted(self, kind, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.counts[tracer.session, kind] += 1
            return fn(*args, **kwargs)

        return wrapped

    def root(self, name, fn, *args):
        """Call fn(*args) inside a top-level span called `name`."""
        return self._span(name, fn)(*args)

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr, make):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    @contextlib.contextmanager
    def installed(self):
        """Patch zorro for the duration of the block, then restore every original."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            modules = _zorro_modules()
            for layer, functions in SPAN_FUNCTIONS.items():
                for fn in functions:
                    wrapped = self._span(f"{layer}.{fn.__name__}", fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                self._set(mod, attr, wrapped)
            for cls, attr, name in SPAN_METHODS:
                self._patch_method(cls, attr, functools.partial(self._span, name))
            for cls, attr, kind in GROUP_OPS:
                self._patch_method(cls, attr, functools.partial(self._op, kind))
            for cls, attr, kind in COUNTED:
                self._patch_method(cls, attr, functools.partial(self._counted, kind))
            yield self
        finally:
            while self._restore:
                owner, attr, value = self._restore.pop()
                setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write(self, path, t0):
        """Write every span (times relative to t0) and count as one JSON file."""
        fields = ["id", "name", "start", "end", "parent", "session", "ops_s"]
        counts = [[session, kind, n] for (session, kind), n in sorted(self.counts.items())]
        with open(path, "w") as fh:
            fh.write(f'{{"fields":{json.dumps(fields)},"counts":{json.dumps(counts)},"spans":[')
            for k, (i, name, start, end, parent, session, ops_s) in enumerate(self.spans):
                row = [i, name, round(start - t0, 7), round(end - t0, 7), parent, session,
                       round(ops_s, 7)]
                fh.write(("," if k else "") + json.dumps(row, separators=(",", ":")))
            fh.write("]}\n")


def self_times(spans):
    """Map span id -> self time.

    Self time is the span's duration, minus the part of its interval that
    the union of its child spans covers, minus the group-op time recorded
    directly under it.
    """
    children = defaultdict(list)
    for sid, _name, start, end, parent, _session, _ops in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _name, start, end, _parent, _session, ops_s in spans:
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[sid] = (end - start) - covered - ops_s
    return result
