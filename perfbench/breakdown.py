"""Per-layer metrics and self-time tables from probe snapshots."""

from __future__ import annotations

#: extraction stages timed inside ``CliffordExtractor.extract``
_STAGES = {
    "extraction.basis_layer": ("extraction.basis_layer_ms", "extraction.basis_layers"),
    "extraction.tree_synthesis": ("extraction.tree_synthesis_ms", "extraction.trees"),
    "extraction.suffix_stream": ("extraction.suffix_stream_ms", None),
    "extraction.peephole_stream": ("extraction.peephole_stream_ms", None),
    "extraction.tableau": ("extraction.tableau_ms", None),
}

#: top-level layers on a request's blocking path, in request order
_REQUEST_PATH = [
    ("client", "serialize.program_to_wire"),
    ("server", "server.read_request"),
    ("server", "serialize.program_from_wire"),
    ("server", "scheduler.submit"),
    ("server", "scheduler.execute_bind"),
    ("server", "serialize.result_to_wire"),
    ("server", "server.respond"),
    ("client", "serialize.result_from_wire"),
]


def _total(stats: dict, name: str) -> float:
    return stats.get(name, [0, 0.0, 0.0])[1]


def _self(stats: dict, name: str) -> float:
    return stats.get(name, [0, 0.0, 0.0])[2]


def _calls(stats: dict, name: str) -> int:
    return stats.get(name, [0, 0.0, 0.0])[0]


def _per_call_ms(stats: dict, name: str) -> float:
    calls = _calls(stats, name)
    return _total(stats, name) / calls * 1000.0 if calls else 0.0


def compiler_layers(snapshot: dict) -> dict:
    """``compiler.*`` per pass call; ``extraction.*`` per extraction."""
    stats, counters = snapshot["stats"], snapshot["counters"]
    layers = {
        "compiler.group_commuting_ms": _per_call_ms(stats, "compiler.group_commuting"),
        "compiler.clifford_extraction_ms": _per_call_ms(stats, "compiler.clifford_extraction"),
        "compiler.peephole_ms": _per_call_ms(stats, "compiler.peephole"),
    }
    compiles = counters.get("compiler.compiles", 0)
    layers["compiler.commuting_blocks"] = (
        counters.get("compiler.commuting_blocks", 0) / compiles if compiles else 0.0)
    layers["compiler.tail_gates"] = (
        counters.get("compiler.tail_gates", 0) / compiles if compiles else 0.0)
    extractions = _calls(stats, "extraction.extract")
    per = (1.0 / extractions) if extractions else 0.0
    for probe_name, (time_metric, count_metric) in _STAGES.items():
        layers[time_metric] = _total(stats, probe_name) * 1000.0 * per
        if count_metric is not None:
            layers[count_metric] = _calls(stats, probe_name) * per
    layers["extraction.gates_streamed"] = counters.get("extraction.gates_streamed", 0) * per
    appended = counters.get("extraction.gates_appended", 0)
    layers["extraction.gates_appended"] = appended * per
    layers["extraction.peephole_keep_ratio"] = (
        counters.get("extraction.gates_kept", 0) / appended if appended else 0.0)
    layers["extraction.candidates_scored"] = counters.get("extraction.candidates_scored", 0) * per
    layers["extraction.self_ms"] = _self(stats, "extraction.extract") * 1000.0 * per
    return layers


def compile_self_times(snapshot: dict, compiles: int, mean_compile_ms: float) -> list[tuple[str, float]]:
    """Self milliseconds per compile along the compile path, summing to the mean."""
    stats = snapshot["stats"]
    per = 1000.0 / compiles if compiles else 0.0
    names = [
        "compiler.group_commuting", "compiler.clifford_extraction", "extraction.extract",
        "extraction.basis_layer", "extraction.tree_synthesis", "extraction.suffix_stream",
        "extraction.peephole_stream", "extraction.tableau", "compiler.peephole",
    ]
    rows = [(name, _self(stats, name) * per) for name in names]
    passes = sum(_total(stats, name) for name in (
        "compiler.group_commuting", "compiler.clifford_extraction", "compiler.peephole"))
    rows.insert(0, ("pipeline (compile minus passes)", mean_compile_ms - passes * per))
    return rows


def serving_layers(server: dict, client: dict, requests: int, roundtrip_ms: float) -> dict:
    """Serving-layer metrics; ``_ms`` values are per call of the layer."""
    stats, counters = server["stats"], server["counters"]
    cstats = client["stats"]
    layers = {
        "serialize.program_to_wire_ms": _per_call_ms(cstats, "serialize.program_to_wire"),
        "serialize.result_from_wire_ms": _per_call_ms(cstats, "serialize.result_from_wire"),
        "serialize.program_from_wire_ms": _per_call_ms(stats, "serialize.program_from_wire"),
        "serialize.result_to_wire_ms": _per_call_ms(stats, "serialize.result_to_wire"),
        "cache.key_for_ms": _per_call_ms(stats, "cache.key_for"),
        "cache.get_ms": _per_call_ms(stats, "cache.get"),
        "cache.put_ms": _per_call_ms(stats, "cache.put"),
        "scheduler.execute_batch_ms": _per_call_ms(stats, "scheduler.execute_batch"),
        "scheduler.compile_many_ms": _per_call_ms(stats, "scheduler.compile_many"),
        "scheduler.execute_bind_ms": _per_call_ms(stats, "scheduler.execute_bind"),
        "parametric.bind_ms": _per_call_ms(stats, "parametric.bind"),
        "parametric.fallback_binds": counters.get("parametric.fallback_binds", 0),
        "server.read_request_ms": _per_call_ms(stats, "server.read_request"),
        "server.respond_ms": _per_call_ms(stats, "server.respond"),
        "client.roundtrip_ms": roundtrip_ms,
    }
    responses = counters.get("serialize.responses", 0)
    layers["serialize.response_kb"] = (
        counters.get("serialize.response_bytes", 0) / responses / 1024.0 if responses else 0.0)
    gets = counters.get("cache.gets", 0)
    layers["cache.hit_ratio"] = counters.get("cache.hits", 0) / gets if gets else 0.0
    batches = _calls(stats, "scheduler.execute_batch")
    jobs = counters.get("scheduler.jobs", 0)
    layers["scheduler.batch_size"] = jobs / batches if batches else 0.0
    submits = _calls(stats, "scheduler.submit")
    layers["scheduler.queue_wait_ms"] = (
        (_total(stats, "scheduler.submit") - counters.get("scheduler.job_batch_seconds", 0.0))
        / submits * 1000.0 if submits else 0.0)
    path = request_path(server, client, requests)
    layers["transport.residual_ms"] = roundtrip_ms - sum(ms for _, ms in path)
    return layers


def request_path(server: dict, client: dict, requests: int) -> list[tuple[str, float]]:
    """Milliseconds per request of each top-level layer on the blocking path."""
    per = 1000.0 / requests if requests else 0.0
    rows = []
    for side, name in _REQUEST_PATH:
        stats = (client if side == "client" else server)["stats"]
        if name not in stats:
            continue
        if name == "scheduler.submit":
            waited = _total(stats, name) - server["counters"].get("scheduler.job_batch_seconds", 0.0)
            rows.append(("scheduler.queue_wait", waited * per))
            rows.append(("scheduler.execute_batch (blocking)",
                         server["counters"].get("scheduler.job_batch_seconds", 0.0) * per))
        else:
            rows.append((name, _total(stats, name) * per))
    return rows


def batch_self_times(server: dict, requests: int) -> list[tuple[str, float]]:
    """Self milliseconds per request of the layers inside a batch."""
    stats = server["stats"]
    per = 1000.0 / requests if requests else 0.0
    names = [
        "scheduler.execute_batch", "cache.key_for", "cache.get", "cache.put",
        "scheduler.compile_many", "compiler.group_commuting", "compiler.clifford_extraction",
        "extraction.extract", "extraction.basis_layer", "extraction.tree_synthesis",
        "extraction.suffix_stream", "extraction.peephole_stream", "extraction.tableau",
        "compiler.peephole", "scheduler.execute_bind", "parametric.bind",
    ]
    return [(name, _self(stats, name) * per) for name in names if name in stats]


def format_rows(title: str, rows: list[tuple[str, float]], total_label: str | None = None) -> list[str]:
    lines = [title]
    for name, value in rows:
        lines.append(f"  {name:40s} {value:10.4f} ms")
    if total_label is not None:
        lines.append(f"  {total_label:40s} {sum(v for _, v in rows):10.4f} ms")
    return lines
