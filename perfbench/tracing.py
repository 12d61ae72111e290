"""Spans around calls into polydiv's modules, recorded from outside.

The library looks its collaborators up at call time: module globals
(``cli.parse_polynomial``, ``closedform.t_sequence``, ...), class
attributes (``DivisionReport.to_json``, ``DivisionResult.reconstructs``)
and the ``cli.METHODS`` table. ``Tracer.installed`` swaps each of those
for a timing wrapper and puts the originals back on exit, so the
library runs unmodified. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

# Every span name, grouped by the module it measures; route.* spans are
# the cli.METHODS entries, so their self time is the shell around the
# quotient and remainder kernels.
LAYERS = (
    "cli.main",
    "cli.parse_polynomial",
    "cli.render_polynomial",
    "cli.DivisionReport.to_text",
    "cli.DivisionReport.to_json",
    "polycore.long_divide",
    "polycore.DivisionResult.reconstructs",
    "polycore.divisor_views",
    "closedform.t_sequence",
    "closedform.quotient_closed",
    "closedform.remainder_closed",
    "detengine.quotient_from_dets",
    "detengine.det_oracle",
    "detengine.build_hankel",
    "detengine.build_bordered",
    "detengine.quotient_ratio",
    "route.longdiv",
    "route.closed",
    "route.det-formula",
    "route.det-ratio",
)
MODULES = ("cli", "polycore", "closedform", "detengine", "route")
DET_RATIO_SPANS = (
    "detengine.det_oracle",
    "detengine.build_hankel",
    "detengine.build_bordered",
    "detengine.quotient_ratio",
)


def _value_bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Span store for one traced run. A span is [name, start_ns, end_ns,
    parent index (-1 for a root), request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self.results: list = []

    def wrap(self, name, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_terms(self, args) -> None:
        self.counts["closedform.t_sequence.terms"] += args[1]

    def _note_order(self, args) -> None:
        order = args[0].order
        self.counts["detengine.matrix_order.max"] = max(self.counts["detengine.matrix_order.max"], order)

    @contextmanager
    def installed(self, cli, polycore, closedform, detengine):
        """Wrap every traced call site; restore the originals on exit."""
        plain_long_divide = polycore.long_divide
        long_divide = self.wrap("polycore.long_divide", plain_long_divide)
        views = self.wrap("polycore.divisor_views", polycore.divisor_views)
        t_seq = self.wrap("closedform.t_sequence", closedform.t_sequence, on_call=self._count_terms)
        patches = [
            (cli, "parse_polynomial", self.wrap("cli.parse_polynomial", cli.parse_polynomial)),
            (cli, "render_polynomial", self.wrap("cli.render_polynomial", cli.render_polynomial)),
            (cli.DivisionReport, "to_text", self.wrap("cli.DivisionReport.to_text", cli.DivisionReport.to_text)),
            (cli.DivisionReport, "to_json", self.wrap("cli.DivisionReport.to_json", cli.DivisionReport.to_json)),
            (
                polycore.DivisionResult,
                "reconstructs",
                self.wrap("polycore.DivisionResult.reconstructs", polycore.DivisionResult.reconstructs),
            ),
            (polycore, "long_divide", long_divide),
            (cli, "divisor_views", views),
            (closedform, "divisor_views", views),
            (detengine, "divisor_views", views),
            (closedform, "t_sequence", t_seq),
            (detengine, "t_sequence", t_seq),
            (closedform, "quotient_closed", self.wrap("closedform.quotient_closed", closedform.quotient_closed)),
            # detengine imports remainder_closed from closedform inside its
            # functions, so this one patch covers both modules.
            (closedform, "remainder_closed", self.wrap("closedform.remainder_closed", closedform.remainder_closed)),
            (detengine, "quotient_from_dets", self.wrap("detengine.quotient_from_dets", detengine.quotient_from_dets)),
            (detengine, "det_oracle", self.wrap("detengine.det_oracle", detengine.det_oracle, on_call=self._note_order)),
            (detengine, "build_hankel", self.wrap("detengine.build_hankel", detengine.build_hankel)),
            (detengine, "build_bordered", self.wrap("detengine.build_bordered", detengine.build_bordered)),
            (detengine, "quotient_ratio", self.wrap("detengine.quotient_ratio", detengine.quotient_ratio)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        methods = dict(cli.METHODS)
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            for tag, fn in methods.items():
                inner = long_divide if fn is plain_long_divide else fn
                cli.METHODS[tag] = self.wrap(f"route.{tag}", inner, on_result=self.results.append)
            yield self.wrap("cli.main", cli.main)
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            cli.METHODS.clear()
            cli.METHODS.update(methods)

    def end_request(self) -> None:
        """Fold the route results of the request just served into the
        peak quotient bit count, outside any span."""
        for result in self.results:
            for c in result.quotient.coeffs:
                bits = _value_bits(c)
                if bits > self.counts["route.quotient_bits.max"]:
                    self.counts["route.quotient_bits.max"] = bits
        self.results.clear()

    def _self_time(self):
        """Calls, self time by span name, and the summed root duration.
        Self time is a span's duration minus its direct children's."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        total_ns = 0
        for (name, start, end, parent, _), covered in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - covered
            if parent < 0:
                total_ns += end - start
        return calls, self_ns, total_ns

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time, and the counts."""
        calls, self_ns, _ = self._self_time()
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        out["closedform.t_sequence.terms"] = self.counts["closedform.t_sequence.terms"]
        ratio_calls = calls["detengine.quotient_ratio"]
        out["detengine.build_hankel.calls_per_ratio"] = (
            calls["detengine.build_hankel"] / ratio_calls if ratio_calls else 0.0
        )
        out["detengine.matrix_order.max"] = self.counts["detengine.matrix_order.max"]
        out["route.quotient_bits.max"] = self.counts["route.quotient_bits.max"]
        return out

    def shares(self) -> dict[str, float]:
        """Share of all traced time spent in each module's own code, and
        in the det-ratio spans together."""
        _, self_ns, total_ns = self._self_time()
        total = total_ns or 1
        out = {
            module: sum(v for k, v in self_ns.items() if k.split(".")[0] == module) / total
            for module in MODULES
        }
        out["det-ratio spans"] = sum(self_ns[k] for k in DET_RATIO_SPANS) / total
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request_id}) + "\n")
