"""One replay walker over a recorded :class:`~repro.whatif.record.CommDag`,
priced by two stamp algebras.

The walker predicts the runtime of an application under *any*
``LinkSpec``/``Topology`` parameterization of the recorded cluster shape
without re-running the application coroutines.  It is a longest-path
computation over the recorded dependency graph with the same first-order
resource model the simulator uses:

- per-rank **CPU clocks** serialize compute intervals (FIFO);
- per-rank **NIC links** serialize outgoing bytes (``size/bandwidth``),
  then propagate for the local latency;
- per-cluster **gateway CPUs** charge a fixed per-message service;
- per-pair **WAN links** serialize bytes at the wide bandwidth and
  propagate at the wide latency, one link per hop of the WAN route;
- per-cluster **gateway egress links** dispatch arriving WAN traffic onto
  the destination cluster's local network.

**Main processes** advance strictly in recorded program order, each
receive pinned to the specific message that satisfied it (FIFO per
channel, so the pin is parameter-stable for deterministic apps).
**Daemon services** are reactive dispatchers whose recorded arrival
order is a property of the *recorded* link parameters, so their op
streams are split into handler blocks (one receive plus the work it
triggered) served in *delivery* order, like the event-driven server
they model.  Processes advance greedily until they block on an
undelivered message.  Sends are asynchronous in the simulator, so every
shared-resource reservation (NIC, gateway CPU, WAN wire, gateway egress)
is deferred to a ``(time, seq)`` event heap and handed out in global
time order, exactly how the discrete-event router resolves contention.

**Stamp algebras.**  :func:`walk` never does arithmetic on times itself.
It builds every timestamp from the ops of a stamp algebra: ``join(a, b)``
(wait for the later of two events), ``plus(s, c)`` (a grid-constant
cost), ``wire(s, size)`` and ``prop(s)`` (one WAN transfer, one WAN
propagation) and ``ref(s)``, the concrete time heap and daemon orders
are decided by.  Resource bookings and daemon service go through a
service layer on top (``book``, ``book_wire``, ``wake``, ``serve``,
``served``); :class:`FifoService` is the plain first-come one.

- :class:`FloatStamps` — stamps are floats at the point being priced,
  ``join`` is ``max`` and ``plus`` is ``+``.  This is
  :meth:`Evaluator.evaluate`.
- The affine algebra of :mod:`repro.replay.compile` — stamps are nodes of
  a (max, +) circuit plus an affine offset in the WAN parameters, orders
  resolved at a reference point.  This is ``compile_dag``; its adaptive
  mode swaps in queue-group service.

The float walk pays no Python call per operation: :func:`inlined_walk`
recompiles the walker with the template ops' one-line bodies spliced in
at each call site, so the evaluator's hot loops are plain float compares
and adds.  Everything structural is built once per DAG in
:class:`DagShape`; per walk, each message costs O(1) bookkeeping.  One
Figure-3 grid point evaluates in milliseconds (see
``benchmarks/test_whatif_speedup.py``).
"""

from __future__ import annotations

import ast
import functools
import heapq
import inspect
import sys
from typing import Dict, List, Tuple

from ..network.topology import Topology
from .record import (OP_COMPUTE, OP_MCAST, OP_POLL, OP_RECV, OP_SEND,
                     CommDag)

# Heap event kinds (field 2 of the heap tuples).
_EV_SEND = 0      # book the sender NIC, then hand off or deliver
_EV_MCAST = 1     # book the sender NIC once, deliver to all destinations
_EV_GW = 2        # gateway CPU + one WAN hop
_EV_ARRIVE = 3    # destination gateway CPU + egress link, then deliver


class EvaluationError(RuntimeError):
    """The DAG could not be replayed to completion (inconsistent recording)."""


class DagShape:
    """The parameter-independent replay form of one DAG, built once.

    Main op streams become receive-headed segments, daemon streams
    become handler blocks, every consumed ``(channel, k)`` pin is
    flattened to one global index, and per-channel tables (endpoints,
    overheads, WAN routes) are cached per wiring — none of it depends on
    bandwidth or latency, so a grid sweep pays only for the walks.
    """

    def __init__(self, dag: CommDag) -> None:
        self.dag = dag
        self.n_ranks = sum(dag.cluster_sizes)
        self._tables: Dict[tuple, tuple] = {}
        computing: Dict[int, int] = {}
        sending: Dict[int, int] = {}
        ch_count = [0] * len(dag.channels)
        for p in dag.procs:
            if any(op[0] == OP_COMPUTE for op in p.ops):
                computing[p.rank] = computing.get(p.rank, 0) + 1
            if any(op[0] in (OP_SEND, OP_MCAST) for op in p.ops):
                sending[p.rank] = sending.get(p.rank, 0) + 1
            for op in p.ops:
                if op[0] == OP_SEND:
                    ch_count[op[1]] += 1
                elif op[0] == OP_MCAST:
                    for c in op[1]:
                        ch_count[c] += 1

        # Message k on channel cid is pin ``pin_off[cid] + k``: the DAG
        # is static, so per-walk delivery state lives in flat arrays.
        self.pin_off = pin_off = [0] * len(ch_count)
        total = 0
        for cid, cnt in enumerate(ch_count):
            pin_off[cid] = total
            total += cnt
        self.n_pins = total

        #: per proc: (rank, daemon, root, solo_cpu, solo_send, segs,
        #: prologue, blocks) — the :class:`_Proc` constructor arguments.
        self.procs: List[tuple] = []
        for p in dag.procs:
            if any(op[0] == OP_POLL for op in p.ops):  # pragma: no cover
                raise EvaluationError(
                    f"poll op in {p.name} of a DAG not flagged "
                    f"timing-sensitive")
            # Split into receive-headed chunks:
            # (cid, k, pin-index, ops-after-the-recv); cid < 0 = no recv.
            head = (-1, -1, -1)
            chunks: List[Tuple[int, int, int, list]] = []
            body: List[tuple] = []
            for op in p.ops:
                if op[0] == OP_RECV:
                    chunks.append((head[0], head[1], head[2], body))
                    head = (op[1], op[2], pin_off[op[1]] + op[2])
                    body = []
                else:
                    body.append(op)
            chunks.append((head[0], head[1], head[2], body))
            solo = computing.get(p.rank, 0) <= 1
            solo_send = sending.get(p.rank, 0) <= 1
            root = p.spawned_by is None
            if p.daemon:
                blocks = tuple((c, k, pid, tuple(b))
                               for c, k, pid, b in chunks[1:])
                self.procs.append((p.rank, True, root, solo, solo_send,
                                   None, chunks[0][3], blocks))
            else:
                # A segment whose body is nothing but compute collapses to
                # a single duration (fdur >= 0); deliver() fast-forwards
                # such segments without entering the interpreter.
                segs = tuple(
                    (c, k, pid, tuple(b),
                     sum(op[1] for op in b)
                     if all(op[0] == OP_COMPUTE for op in b) else -1.0)
                    for c, k, pid, b in chunks)
                self.procs.append((p.rank, False, root, solo, solo_send,
                                   segs, None, None))

    def channel_tables(self, topology: Topology) -> tuple:
        """Bandwidth/latency-independent per-channel constants, cached."""
        local, wide = topology.local, topology.wide
        key = (local.send_overhead, local.recv_overhead, wide.send_overhead,
               wide.recv_overhead, topology.wan_shape, topology.wan_hub)
        tables = self._tables.get(key)
        if tables is not None:
            return tables

        cluster_of = topology.cluster_of
        n_ch = len(self.dag.channels)
        ch_src = [0] * n_ch
        ch_dst_cluster = [0] * n_ch
        ch_inter = [False] * n_ch
        ch_send_ov = [0.0] * n_ch
        ch_recv_ov = [0.0] * n_ch
        ch_hops: List[Tuple[Tuple[int, int], ...]] = [()] * n_ch
        for cid, (src, dst, _tag) in enumerate(self.dag.channels):
            sc, dc = cluster_of(src), cluster_of(dst)
            inter = sc != dc
            ch_src[cid] = src
            ch_dst_cluster[cid] = dc
            ch_inter[cid] = inter
            spec = wide if inter else local
            ch_send_ov[cid] = spec.send_overhead
            ch_recv_ov[cid] = spec.recv_overhead
            if inter:
                ch_hops[cid] = tuple(topology.wan_route(sc, dc))
        tables = (ch_src, ch_dst_cluster, ch_inter, ch_send_ov, ch_recv_ov,
                  ch_hops)
        self._tables[key] = tables
        return tables


class _Proc:
    """Mutable replay state of one recorded process."""

    __slots__ = ("rank", "daemon", "root", "solo_cpu", "solo_send",
                 "started", "finished", "t", "pc", "segs", "prologue",
                 "blocks", "ready", "nserved")

    def __init__(self, rank: int, daemon: bool, root: bool,
                 solo_cpu: bool, solo_send: bool, segs, prologue,
                 blocks, t) -> None:
        self.rank = rank
        self.daemon = daemon
        self.root = root
        #: True when no other process computes on this rank, so the CPU
        #: clock degenerates to the process's own clock.
        self.solo_cpu = solo_cpu
        #: True when this is the rank's only sending process: its NIC
        #: bookings are then already in time order and skip the heap.
        self.solo_send = solo_send
        self.started = root
        self.finished = False
        self.t = t                 # the process clock, a stamp
        self.pc = 0                # main: current segment index
        self.segs = segs           # main: ((cid, k, pid, body, fdur), ...);
                                   # cid<0 = segment with no recv head
        self.prologue = prologue   # daemon: ops before the first receive
        self.blocks = blocks       # daemon: ((cid, k, pid, body), ...)
        self.ready: List[tuple] = []  # daemon: (ref, block, stamp) heap
        self.nserved = 0


def walk(shape: DagShape, topology: Topology, ops) -> tuple:
    """Replay ``shape`` on ``topology`` with the stamp algebra ``ops``.

    Returns ``(finish, wan_bytes, wan_traversals)``: the final stamps of
    the root main processes, and the bytes and hops booked on WAN wires.
    Raises :class:`EvaluationError` when the replay stalls.
    """
    # The algebra; :func:`inlined_walk` drops the bindings of inlined ops.
    join = ops.join
    plus = ops.plus
    wire = ops.wire
    prop = ops.prop
    ref = ops.ref
    book = ops.book
    book_wire = ops.book_wire
    wake = ops.wake
    serve = ops.serve
    served = ops.served
    zero = ops.zero

    local_lat = topology.local.latency
    local_bw = topology.local.bandwidth
    local_send_ov = topology.local.send_overhead
    wide_lat = topology.wide.latency   # read by FloatStamps.prop
    wide_bw = topology.wide.bandwidth  # read by FloatStamps.wire
    gw_service = topology.gateway_overhead
    (ch_src, ch_dst_cluster, ch_inter, ch_send_ov, ch_recv_ov,
     ch_hops) = shape.channel_tables(topology)

    # Resource clocks (``next_free`` stamps, all starting idle).
    cpu_free = [zero] * shape.n_ranks
    nic_free = [zero] * shape.n_ranks
    gw_free = [zero] * topology.num_clusters
    gwout_free = [zero] * topology.num_clusters
    wan_free = {pair: zero for pair in topology.wan_pairs()}
    wan_bytes = 0.0
    wan_traversals = 0

    procs = [_Proc(*c, zero) for c in shape.procs]
    # Deliveries arrive in send order per channel (the NIC and WAN
    # pipelines are FIFO), so delivery state is three flat arrays: how
    # many landed per channel, when each pin landed, and who (if anyone)
    # is parked on it.  Daemons wait on every handler block up front.
    pin_off = shape.pin_off
    ch_next = [0] * len(ch_src)
    dlv_at = [zero] * shape.n_pins
    pin_waiter: List = [None] * shape.n_pins
    for proc in procs:
        if proc.daemon:
            for bi, (_cid, _k, pid, _body) in enumerate(proc.blocks):
                pin_waiter[pid] = (proc, bi)

    # Heap events: (ref, seq, kind, channel-or-channels, size, hop, stamp).
    # Pops are monotone in ref time: processes only emit sends at or after
    # the delivery that woke them, so reservations taken at pop time
    # replicate the engine's arrival-order contention handling.
    heap: List[tuple] = []
    seq = 0
    runnable: List[tuple] = [(p, zero) for p in procs if p.root]
    runnable_append = runnable.append
    pop = heapq.heappop
    push = heapq.heappush

    def deliver(cid, at):
        k = ch_next[cid]
        ch_next[cid] = k + 1
        pid = pin_off[cid] + k
        dlv_at[pid] = at
        entry = pin_waiter[pid]
        if entry is None:
            return
        proc, bi = entry
        if bi >= 0:
            push(proc.ready, (ref(at), bi, at))
            if proc.started:
                runnable_append((proc, at))
            return
        # A parked main: this delivery is exactly the message heading its
        # current segment, so complete the receive here and resume it past
        # the head (skip=True) — no round trip through the runnable list.
        t = proc.t
        t = plus(join(t, at), ch_recv_ov[cid])
        if not proc.solo_cpu:
            run_main(proc, t, True)
            return
        # Compute-only segments on a solo-CPU rank (the overwhelming
        # majority) advance the clock by a precomputed duration;
        # fast-forward through them until the process parks, finishes,
        # or needs the full interpreter.
        segs = proc.segs
        i = proc.pc
        n = len(segs)
        while True:
            fdur = segs[i][4]
            if fdur < 0.0:
                proc.pc = i
                run_main(proc, t, True)
                return
            t = plus(t, fdur)
            i += 1
            if i == n:
                proc.pc = i
                proc.t = t
                proc.finished = True
                return
            seg = segs[i]
            scid = seg[0]
            if seg[1] < ch_next[scid]:
                d = dlv_at[seg[2]]
                t = plus(join(t, d), ch_recv_ov[scid])
            else:
                proc.pc = i
                proc.t = t
                pin_waiter[seg[2]] = (proc, -1)
                return

    def run_body(proc, t, body):
        """Execute the non-receive ops of one segment or handler block."""
        nonlocal seq
        rank = proc.rank
        solo = proc.solo_cpu
        solo_send = proc.solo_send
        for op in body:
            code = op[0]
            if code == OP_COMPUTE:
                if solo:
                    t = plus(t, op[1])
                else:
                    free = cpu_free[rank]
                    t = cpu_free[rank] = book(("cpu", rank), t, free, op[1])
            elif code == OP_SEND:
                cid = op[1]
                t = plus(t, ch_send_ov[cid])
                if not solo_send:
                    push(heap, (ref(t), seq, _EV_SEND, cid, op[2], 0, t))
                    seq += 1
                    continue
                # Sole sender on this rank: its NIC bookings arrive
                # pre-sorted, so skip the heap round trip and book inline.
                free = nic_free[rank]
                end = nic_free[rank] = book(("nic", rank), t, free,
                                            op[2] / local_bw)
                arrive = plus(end, local_lat)
                if ch_inter[cid]:
                    push(heap, (ref(arrive), seq, _EV_GW, cid, op[2], 0,
                                arrive))
                    seq += 1
                else:
                    deliver(cid, arrive)
            elif code == OP_MCAST:
                t = plus(t, local_send_ov)
                if not solo_send:
                    push(heap, (ref(t), seq, _EV_MCAST, op[1], op[2], 0, t))
                    seq += 1
                    continue
                free = nic_free[rank]
                end = nic_free[rank] = book(("nic", rank), t, free,
                                            op[2] / local_bw)
                arrive = plus(end, local_lat)
                for c in op[1]:
                    deliver(c, arrive)
            else:  # OP_SPAWN
                child_idx = op[1]
                if child_idx >= 0:
                    child = procs[child_idx]
                    if not child.started:
                        child.started = True
                        runnable_append((child, t))
        return t

    def run_main(proc, t, skip):
        segs = proc.segs
        i = proc.pc
        n = len(segs)
        while i < n:
            cid, k, pid, body, _fdur = segs[i]
            if skip:
                skip = False
            elif cid >= 0:
                if k < ch_next[cid]:
                    d = dlv_at[pid]
                    t = plus(join(t, d), ch_recv_ov[cid])
                else:
                    proc.pc = i
                    proc.t = t
                    pin_waiter[pid] = (proc, -1)
                    return
            if body:
                t = run_body(proc, t, body)
            i += 1
        proc.pc = i
        proc.t = t
        proc.finished = True

    def run_daemon(proc, now):
        t = wake(proc, now)
        if proc.prologue is not None:
            t = run_body(proc, t, proc.prologue)
            proc.prologue = None
        ready = proc.ready
        blocks = proc.blocks
        while ready:
            # Serve whichever delivered message arrived first —
            # reactive-server semantics, not recorded order.
            _ref, bi, at = pop(ready)
            cid, _k, _pid, body = blocks[bi]
            start = serve(proc, at, t)
            t = run_body(proc, plus(start, ch_recv_ov[cid]), body)
            served(proc, at, start, t)
            proc.nserved += 1
        proc.t = t
        if proc.nserved == len(blocks):
            proc.finished = True

    # Drain: run everything runnable, then advance the transport pipeline
    # one event at a time, waking processes as messages land.  Delivery
    # times are known the moment a message's last resource is booked, so
    # deliver() is called directly from the booking event — waking a
    # process "early" in processing order is safe because its clock
    # advances to the (correct, future) delivery time and any sends it
    # emits land back on the heap in time order.
    while True:
        while runnable:
            proc, at = runnable.pop()
            if proc.finished:
                continue
            if not proc.daemon:
                t = proc.t
                run_main(proc, join(t, at), False)
            elif proc.ready or proc.prologue is not None:
                run_daemon(proc, at)
        if not heap:
            break
        _ref, _seq, kind, cid, size, hop_idx, at = pop(heap)
        if kind == _EV_SEND:
            # Book the sender's NIC (Link.transfer, FIFO in time order).
            rank = ch_src[cid]
            free = nic_free[rank]
            end = nic_free[rank] = book(("nic", rank), at, free,
                                        size / local_bw)
            arrive = plus(end, local_lat)
            if ch_inter[cid]:
                push(heap, (ref(arrive), seq, _EV_GW, cid, size, 0, arrive))
                seq += 1
            else:
                deliver(cid, arrive)
        elif kind == _EV_GW:
            # At the gateway of hops[hop_idx][0]: per-message
            # store-and-forward service, then the WAN wire.
            hops = ch_hops[cid]
            link = hops[hop_idx]
            here, nxt = link
            free = gw_free[here]
            ready_at = gw_free[here] = book(("gw", here), at, free,
                                            gw_service)
            free = wan_free[link]
            wend = wan_free[link] = book_wire(("wan", here, nxt), ready_at,
                                              free, size)
            wan_bytes += size
            wan_traversals += 1
            arrive = prop(wend)
            # Star/ring shapes: store-and-forward at the intermediate
            # cluster's gateway, then onward.
            next_kind = _EV_GW if hop_idx + 1 < len(hops) else _EV_ARRIVE
            push(heap, (ref(arrive), seq, next_kind, cid, size, hop_idx + 1,
                        arrive))
            seq += 1
        elif kind == _EV_ARRIVE:
            # Destination cluster: gateway service, then dispatch onto the
            # local network via the shared gateway egress link.
            dc = ch_dst_cluster[cid]
            free = gw_free[dc]
            ready_at = gw_free[dc] = book(("gw", dc), at, free, gw_service)
            free = gwout_free[dc]
            oend = gwout_free[dc] = book(("gwout", dc), ready_at, free,
                                         size / local_bw)
            deliver(cid, plus(oend, local_lat))
        else:  # _EV_MCAST: one NIC transfer, many deliveries
            rank = ch_src[cid[0]]
            free = nic_free[rank]
            end = nic_free[rank] = book(("nic", rank), at, free,
                                        size / local_bw)
            arrive = plus(end, local_lat)
            for c in cid:
                deliver(c, arrive)

    stalled = [i for i, p in enumerate(procs)
               if p.started and not p.finished and not p.daemon]
    if stalled:
        names = [shape.dag.procs[i].name for i in stalled[:5]]
        raise EvaluationError(
            f"replay stalled with {len(stalled)} main processes blocked "
            f"(first: {names}); the recording is inconsistent with this "
            f"parameterization")
    finish = [p.t for p in procs if p.root and not p.daemon]
    if not finish:
        raise EvaluationError("recording contains no main processes")
    return finish, wan_bytes, wan_traversals


# ----------------------------------------------------------------------
# Template ops.  Each is a single ``return <expr>``; :func:`inlined_walk`
# splices the expression into the walker at every call site, so free
# names in a template are the walker's locals (``wide_bw``, ``join``...).

class FloatStamps:
    """Stamps are concrete times at the point being priced."""

    zero = 0.0

    def join(a, b):
        return a if a >= b else b

    def plus(s, c):
        return s + c

    def wire(s, size):
        return s + size / wide_bw

    def prop(s):
        return s + wide_lat

    def ref(s):
        return s


class FifoService:
    """First-come service.  ``book(key, arrival, free, cost)`` starts once
    both the request and the resource (free at ``free``) are in and
    returns the end of service, the resource's next ``free``;
    ``book_wire`` is the same with a WAN wire cost.  A daemon's clock on
    waking is ``wake(proc, now)``; it starts a delivered block at
    ``serve(proc, at, t)`` and reports each block's start and end to
    ``served``.  ``key`` names the resource, for service disciplines
    that queue per resource."""

    def book(key, arrival, free, cost):
        return plus(join(arrival, free), cost)

    def book_wire(key, arrival, free, size):
        return wire(join(arrival, free), size)

    def wake(proc, now):
        return join(proc.t, now)

    def serve(proc, at, t):
        return join(t, at)

    def served(proc, at, start, end):
        return None


@functools.lru_cache(maxsize=None)
def inlined_walk(*templates):
    """:func:`walk` recompiled with the ops of the ``templates`` classes
    inlined — built from this module's source on first use, then cached.

    Every call ``op(args)`` to a template op becomes the op's return
    expression with its parameters replaced by the argument expressions
    (an argument used twice is evaluated twice — pass names), and the
    walker's ``op = ops.op`` binding is dropped.  The rest of the walker
    keeps its line numbers, so tracebacks point into its source.
    """
    module = ast.parse(inspect.getsource(sys.modules[__name__]))
    defs = {node.name: node for node in module.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    bodies = {}
    for cls in templates:
        for fdef in defs[cls.__name__].body:
            if isinstance(fdef, ast.FunctionDef):
                bodies[fdef.name] = ([a.arg for a in fdef.args.args],
                                     ast.unparse(fdef.body[-1].value))

    class Subst(ast.NodeTransformer):
        def __init__(self, args):
            self.args = args

        def visit_Name(self, node):
            return self.args.get(node.id, node)

    class Inline(ast.NodeTransformer):
        def visit_Assign(self, node):
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in bodies:
                return None
            return self.generic_visit(node)

        def visit_Call(self, node):
            self.generic_visit(node)
            if not (isinstance(node.func, ast.Name)
                    and node.func.id in bodies):
                return node
            params, text = bodies[node.func.id]
            expr = ast.parse(text, mode="eval").body
            for sub in ast.walk(expr):
                ast.copy_location(sub, node)
            return self.visit(Subst(dict(zip(params, node.args))).visit(expr))

    namespace: dict = {}
    exec(compile(ast.Module(body=[Inline().visit(defs["walk"])],
                            type_ignores=[]), __file__, "exec"),
         globals(), namespace)
    return namespace["walk"]


class Evaluator:
    """Prices one :class:`CommDag` under arbitrary link parameters.

    Construct once per recording; :meth:`evaluate` may be called for any
    number of topologies (one Figure-3 grid = 42 calls on one instance),
    each one float walk over the shared :class:`DagShape`.
    """

    def __init__(self, dag: CommDag) -> None:
        if dag.timing_sensitive:
            raise EvaluationError(
                "refusing to evaluate a timing-sensitive DAG: "
                + "; ".join(dag.sensitive_reasons))
        self.dag = dag
        self.shape = DagShape(dag)
        self._walk = inlined_walk(FloatStamps, FifoService)

    def evaluate(self, topology: Topology) -> float:
        """Predicted runtime of the recorded application on ``topology``."""
        if topology.cluster_sizes != self.dag.cluster_sizes:
            raise EvaluationError(
                f"topology shape {topology.cluster_sizes} does not match the "
                f"recorded shape {self.dag.cluster_sizes}")
        if topology.wan_variability is not None:
            raise EvaluationError(
                "cannot evaluate under WAN variability: the analytic replay "
                "models first-order contention only; simulate jittered "
                "topologies directly")
        finish, _, _ = self._walk(self.shape, topology, FloatStamps)
        return max(finish)
