"""Outside-in tracing of one swapmeter CLI command.

Run as a child process in place of `python -m swapmeter.cli`:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json <swapmeter arguments>

Before the command runs, each layer's public function is replaced, at the
name its caller bound, by a wrapper that records a span: layer, start,
end, parent span and the (trade, offset) pair it serves. Nothing under
src/ changes. Spans stay in memory and are written to SPANS.json once,
when the command ends. `summarize` turns such a file into per-layer
calls, self time and work counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field


def _rows(args, kwargs, result) -> int:
    return len(result.records) + len(result.rejects)


def _quote_rows(args, kwargs, result) -> int:
    return len(result[0])


def _pool_rows(args, kwargs, result) -> int:
    return sum(len(pools) for pools in result[0].values())


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _points(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["values"])


# (module, name its caller bound, layer, work counter). Provider `quote`
# methods are found on the classes of swapmeter.baseline, see `install`.
TARGETS = (
    ("swapmeter.cli", "generate", "synth", None),
    ("swapmeter.cli", "ingest_trades", "ingest.trades", _rows),
    ("swapmeter.cli", "ingest_quotes", "ingest.quotes", _quote_rows),
    ("swapmeter.cli", "ingest_pool_snapshots", "ingest.pools", _pool_rows),
    ("swapmeter.cli", "write_csv", "output", _file_bytes),
    ("swapmeter.cli", "write_json", "output", _file_bytes),
    ("swapmeter.cli", "write_text", "output", _file_bytes),
    ("swapmeter.pipeline", "run_aggregate", "pipeline.aggregate", None),
    ("swapmeter.pipeline", "analyze_trades", "pipeline.analyze", None),
    ("swapmeter.pipeline", "attribute_trade", "attribution", None),
    ("swapmeter.pipeline", "weighted_mean_with_stat", "stats", _points),
    ("swapmeter.attribution", "counterfactual_price", "prices", None),
    ("swapmeter.baseline", "route_optimal_split", "router", None),
)
PROVIDER_MODULE = "swapmeter.baseline"
LAYERS = tuple(dict.fromkeys([t[2] for t in TARGETS] + ["baseline"]))


class Tracer:
    """Records spans around wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (layer, start, end, parent, pair, work)
        self.missing: dict[str, str] = {}  # wrapped name that does not exist -> layer
        self._stack: list[tuple[int, int]] = []  # (span index, pair id) of open spans
        self._pairs: dict[tuple, int] = {}
        self._router_keys: set[tuple] = set()
        self._snapshots: dict[int, tuple] = {}  # id(pools) -> (pools, content id)
        self._contents: dict[tuple, int] = {}

    def wrap(self, layer: str, fn, work=None, pair_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer_id = LAYERS.index(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, pair = stack[-1] if stack else (-1, -1)
            if pair_of is not None:
                pair = pair_of(args, kwargs)
            index = len(spans)
            spans.append(None)
            stack.append((index, pair))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer_id, start, end, parent, pair, 0)
            if work is not None:
                spans[index] = (layer_id, start, end, parent, pair, work(args, kwargs, result))
            return result

        return traced

    def _pair(self, args, kwargs) -> int:
        trade = args[0] if args else kwargs["trade"]
        offset = args[2] if len(args) > 2 else kwargs["offset"]
        return self._pairs.setdefault((trade.trade_id, offset), len(self._pairs))

    def _router_key(self, args, kwargs, result) -> int:
        """Record the call's key: snapshot contents, amount raw, direction, gas price.

        A router call's work is the call itself, so the span's work count is 0.
        """
        names = ("pools", "amount_in", "direction", "gas_price_wei")
        pools, amount, direction, gas_price = (
            args[i] if i < len(args) else kwargs[name] for i, name in enumerate(names)
        )
        cached = self._snapshots.get(id(pools))
        if cached is None or cached[0] is not pools:
            contents = tuple(pools)
            cached = (pools, self._contents.setdefault(contents, len(self._contents)))
            self._snapshots[id(pools)] = cached
        self._router_keys.add((cached[1], amount.raw, direction, gas_price))
        return 0

    def install(self) -> None:
        for module_name, name, layer, work in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, name, None)
            if fn is None:
                self.missing[f"{module_name}.{name}"] = layer
                continue
            if layer == "router":
                work = self._router_key
            pair_of = self._pair if layer == "attribution" else None
            setattr(module, name, self.wrap(layer, fn, work, pair_of))
        self._install_providers()

    def _install_providers(self) -> None:
        module = importlib.import_module(PROVIDER_MODULE)
        base = getattr(module, "BaselineProvider", None)
        providers = [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type)
            and base is not None
            and issubclass(cls, base)
            and "quote" in vars(cls)
            and not getattr(vars(cls)["quote"], "__isabstractmethod__", False)
        ]
        if not providers:
            self.missing[f"{PROVIDER_MODULE}.<provider>.quote"] = "baseline"
        for cls in providers:
            cls.quote = self.wrap("baseline", vars(cls)["quote"])

    def dump(self, path: str) -> None:
        payload = {
            "layers": LAYERS,
            "missing": self.missing,
            "router_distinct": len(self._router_keys),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


@dataclass
class Layer:
    calls: int = 0  # outermost spans: nested spans of the same layer are one call
    self_s: float = 0.0  # span time minus the time of its child spans
    work: int = 0
    durations: list[float] = field(default_factory=list)  # of the outermost spans


def summarize(path) -> tuple[dict[str, Layer], dict[str, str], int]:
    """Per-layer totals of one spans file.

    Returns (layers by name, missing wrapped names -> layer, distinct router keys).
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    names = payload["layers"]
    spans = payload["spans"]
    child_time = [0.0] * len(spans)
    for layer_id, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers = {name: Layer() for name in names}
    for i, (layer_id, start, end, parent, _, work) in enumerate(spans):
        layer = layers[names[layer_id]]
        layer.self_s += end - start - child_time[i]
        layer.work += work
        if parent < 0 or spans[parent][0] != layer_id:
            layer.calls += 1
            layer.durations.append(end - start)
    return layers, payload["missing"], payload["router_distinct"]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from swapmeter import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
