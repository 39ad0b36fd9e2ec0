"""Span tracer that wraps each layer's public entry points from outside.

Nothing in ``src/`` knows about this module: :meth:`Tracer.install`
replaces entry points on the freshly imported ``repro`` classes with
wrappers that record spans.  The benchmark re-imports ``repro`` for every
run, so the patched classes never outlive the traced run.

A span has a name, a start and an end (``perf_counter`` seconds), the
index of its parent span and a request id.  A plain function gets one span
per call.  A generator gets one span per *resume*, because a simulated
operation runs in slices between kernel events.  A call that enters a
layer from inside the same layer records no span: that time belongs to the
layer already.  Self time, a span's duration minus the time its child
spans cover, is summed per layer as spans close.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("simnet", "fabric", "rpc", "coalesce", "core", "serialization",
          "structures", "apps")

#: container operations the apps call, plus the hybrid-access core that
#: spawned flush and async bodies enter directly
CONTAINER_OPS = (
    "upsert", "upsert_async", "upsert_buffered", "erase_buffered",
    "async_rmw", "async_find", "async_insert", "insert", "insert_async",
    "insert_buffered", "find", "find_async", "erase", "push", "push_async",
    "push_buffered", "pop", "pop_async", "push_many", "pop_many", "peek",
    "size", "count", "batch", "flush", "scan", "range_find", "min_key",
    "max_key", "_execute",
)

#: structure operations the container layer calls
STRUCTURE_OPS = ("find", "contains", "insert", "upsert", "remove", "push",
                 "push_many", "pop", "pop_many", "pop_min", "peek_min")

#: (layer, module, class or None for module functions, attribute names)
ENTRY_POINTS: Tuple = (
    ("simnet", "repro.simnet.core", "Simulator", ("run",)),
    ("fabric", "repro.fabric.verbs", "QueuePair",
     ("send", "try_send_fused", "rdma_write", "rdma_read",
      "try_rdma_read_fused", "cas", "fetch_add")),
    ("fabric", "repro.fabric.link", None, ("transfer",)),
    # invoke returns a future; the protocol process it launches does the
    # client's work, so it is timed as part of the same entry point
    ("rpc", "repro.rpc.client", "RpcClient", ("invoke", "_protocol")),
    ("rpc", "repro.rpc.server", "RpcServer", ("_worker_loop", "_execute")),
    ("coalesce", "repro.rpc.coalesce", "OpCoalescer",
     ("append", "append_async", "fold", "drain", "_flush_key")),
    ("serialization", "repro.serialization.databox", None,
     ("estimate_size",)),
    *(("core", mod, cls, CONTAINER_OPS) for mod, cls in (
        ("repro.core.container", "DistributedContainer"),
        ("repro.core.hash_container", "_HashContainerBase"),
        ("repro.core.hash_container", "HCLUnorderedMap"),
        ("repro.core.hash_container", "HCLUnorderedSet"),
        ("repro.core.ordered_container", "_OrderedContainerBase"),
        ("repro.core.ordered_container", "HCLMap"),
        ("repro.core.ordered_container", "HCLSet"),
        ("repro.core.queue", "HCLQueue"),
        ("repro.core.priority_queue", "HCLPriorityQueue"),
    )),
    *(("structures", mod, cls, STRUCTURE_OPS) for mod, cls in (
        ("repro.structures.cuckoo", "CuckooHash"),
        ("repro.structures.rbtree", "RedBlackTree"),
        ("repro.structures.lfqueue", "OptimisticQueue"),
        ("repro.structures.mdlist", "MDListPriorityQueue"),
    )),
)


def _client_request_id(args):
    # RpcClient._protocol(self, dst_node, server, req, ...)
    req = args[3]
    return req.token if req.token is not None else ("slot", args[1], req.slot)


def _server_request_id(args):
    # RpcServer._execute(self, req)
    server, req = args[0], args[1]
    if req.token is not None:
        return req.token
    return ("slot", server.node.node_id, req.slot)


#: generators the library starts as kernel processes from inside their own
#: layer: they are always wrapped, or the kernel would own their time
PROCESS_BODIES = ("._protocol", "._worker_loop")

#: entry points whose spans start a request id that child spans inherit
REQUEST_IDS: Dict[Tuple[str, str], Callable] = {
    ("RpcClient", "_protocol"): _client_request_id,
    ("RpcServer", "_execute"): _server_request_id,
}


class Tracer:
    """In-memory span store plus per-layer self-time totals.

    The recording code is written out inside each wrapper, not called as a
    helper, because it runs a million times a run and its cost is part of
    the measured tracing overhead.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        #: closed spans, five doubles each: index, name id, parent index
        #: (-1 for a root), start, end
        self.spans = array("d")
        #: request id of each closed span, in the same order
        self.req: List = []
        self._ids = itertools.count()
        self._self_s = {layer: [0.0] for layer in LAYERS}
        self._calls = {layer: [0] for layer in LAYERS}
        #: open spans, innermost last: [layer, child seconds, req, index]
        self._stack: List[list] = []

    def __len__(self) -> int:
        return len(self.spans) // 5

    @property
    def self_s(self) -> Dict[str, float]:
        return {layer: cell[0] for layer, cell in self._self_s.items()}

    @property
    def calls(self) -> Dict[str, int]:
        """Calls entering each layer from outside it."""
        return {layer: cell[0] for layer, cell in self._calls.items()}

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    # -- wrappers --------------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable,
             req_of: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so calls into it record ``layer`` spans."""
        layer = sys.intern(layer)
        nid = self._name(name)
        ncalls = self._calls[layer]
        if inspect.isgeneratorfunction(fn):
            step = self._stepper(layer, nid)
            stack = self._stack
            always = req_of is not None or name.endswith(PROCESS_BODIES)

            def gen_wrapper(*args, **kwargs):
                if not always and stack and stack[-1][0] is layer:
                    # Made inside its own layer, it runs under the maker's
                    # span through ``yield from``; no wrapper needed.
                    return fn(*args, **kwargs)
                ncalls[0] += 1
                req = req_of(args) if req_of is not None else None
                return step(fn(*args, **kwargs), req)

            return gen_wrapper
        stack, ids, clock = self._stack, self._ids, time.perf_counter
        record, req_append = self.spans.extend, self.req.append
        acc = self._self_s[layer]

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] is layer:
                return fn(*args, **kwargs)
            ncalls[0] += 1
            req = parent[2] if parent is not None else None
            frame = [layer, 0.0, req, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                acc[0] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                record((frame[3], nid,
                        parent[3] if parent is not None else -1, t0, t1))
                req_append(req)

        return wrapper

    def _stepper(self, layer: str, nid: int):
        """Return a generator function that steps an inner generator,
        timing each resume as a ``layer`` span."""
        stack, ids, clock = self._stack, self._ids, time.perf_counter
        record, req_append = self.spans.extend, self.req.append
        acc = self._self_s[layer]

        def step(gen, req):
            send, throw = gen.send, gen.throw
            value = exc = None
            # The yielded event travels through ``box`` so that no local
            # holds it while suspended: the kernel recycles events by
            # reference count, and a traced run must recycle the same ones.
            box = []
            while True:
                parent = stack[-1] if stack else None
                if parent is not None and parent[0] is layer:
                    try:
                        box.append(send(value) if exc is None else throw(exc))
                    except StopIteration as stop:
                        return stop.value
                else:
                    span_req = req
                    if span_req is None and parent is not None:
                        span_req = parent[2]
                    frame = [layer, 0.0, span_req, next(ids)]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        box.append(send(value) if exc is None else throw(exc))
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        t1 = clock()
                        stack.pop()
                        dur = t1 - t0
                        acc[0] += dur - frame[1]
                        if parent is not None:
                            parent[1] += dur
                        record((frame[3], nid,
                                parent[3] if parent is not None else -1,
                                t0, t1))
                        req_append(span_req)
                parent = value = exc = None
                try:
                    value = yield box.pop()
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # re-raised inside ``gen``
                    exc = err

        return step

    def wrap_process_body(self, layer: str, name: str, gen):
        """Time every resume of a process body generator as ``layer``."""
        self._calls[layer][0] += 1
        return self._stepper(layer, self._name(name))(gen, None)

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of the currently imported ``repro``."""
        for layer, modname, clsname, attrs in ENTRY_POINTS:
            mod = importlib.import_module(modname)
            if clsname is None:
                for attr in attrs:
                    self._patch_function(layer, mod, attr)
                continue
            cls = getattr(mod, clsname)
            for attr in attrs:
                fn = cls.__dict__.get(attr)
                if fn is None:
                    continue
                req_of = REQUEST_IDS.get((clsname, attr))
                setattr(cls, attr, self.wrap(layer, f"{layer}.{clsname}.{attr}",
                                             fn, req_of))
        self._patch_handlers()
        self._patch_spawn()

    def _patch_function(self, layer: str, mod, attr: str) -> None:
        """Wrap a module function and every module that imported it."""
        orig = getattr(mod, attr)
        wrapped = self.wrap(layer, f"{layer}.{attr}", orig)
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is orig):
                setattr(other, attr, wrapped)

    def _patch_handlers(self) -> None:
        """Server-side container handlers are closures made per operation;
        wrap each one as it is made, as a ``core`` entry point."""
        from repro.core.container import DistributedContainer

        make = DistributedContainer._make_handler

        def _make_handler(container, op):
            return self.wrap("core", f"core.handler.{op}",
                             make(container, op))

        DistributedContainer._make_handler = _make_handler

    def _patch_spawn(self) -> None:
        """App processes (rank bodies, drains) start through
        ``Cluster.spawn``; their resumes are the ``apps`` layer."""
        from repro.fabric.topology import Cluster

        spawn = Cluster.spawn

        def traced_spawn(cluster, gen, name=None):
            return spawn(cluster, self.wrap_process_body("apps", "apps.body",
                                                         gen), name)

        Cluster.spawn = traced_spawn

    # -- output ------------------------------------------------------------------
    def write(self, out) -> None:
        """Write the spans to text stream ``out`` as JSON lines, in start
        order: ``[name, start, end, parent index, request id]``."""
        import json

        spans, names, reqs = self.spans, self.names, self.req
        order = sorted(range(len(reqs)), key=lambda i: spans[5 * i])
        for i in order:
            _idx, nid, parent, t0, t1 = spans[5 * i:5 * i + 5]
            r = reqs[i]
            out.write(json.dumps(
                [names[int(nid)], t0, t1, int(parent),
                 list(r) if isinstance(r, tuple) else r]) + "\n")
