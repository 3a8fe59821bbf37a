"""Compile a recorded :class:`~repro.whatif.record.CommDag` to a max-plus
event program.

The replay walker (:func:`~repro.whatif.evaluate.walk`) builds every
timestamp from ``max`` (a process waits for a message, a message waits
for a busy resource) and ``+`` (compute intervals, overheads, wire
terms).  Crucially, each ``+`` term is an *affine* function of the swept
WAN parameters::

    cost(theta) = c0  +  bytes / wide_bw  +  n_hops * wide_lat
                      +  n_traversals * E_loss(theta)

(local-network terms are constants of the recorded cluster shape — the
Figure-3 grid sweeps only the WAN).  That makes one full replay a
**(max, +) circuit** over those four coefficients.  This module walks
the DAG once, at the recording's reference parameters, in the *affine*
stamp algebra :class:`_AffineStamps` instead of the evaluator's floats:
a stamp is a node of the circuit plus an accumulated affine offset.
``plus`` extends the offset (free); ``join`` materializes a binary
**join node** with the two operand stamps as dependency edges.  The
result is a flat program — ``pred_a``/``pred_b`` index arrays and
per-edge coefficient rows — that
:class:`~repro.replay.program.ReplayProgram` re-prices for an entire
grid in one vectorized numpy pass, no per-event dispatch.

What is frozen at compile time is the *orders*: the order contended
resources (NIC, gateway CPU, WAN wire, egress) serve their messages and
the order daemons serve their handler blocks, both resolved at the
reference point.  Re-pricing under parameters that would flip one of
those orders is a first-order approximation — exactly the regime the
corner validation in :class:`~repro.replay.backend.ReplayBackend`
exists to catch (and LLAMP's fixed-dependency-graph analysis shares).
Pure dependency chains (receive pins, compute, spawns) carry over
exactly: a parked-vs-delivered receive is ``max(t, delivery)`` on both
paths, so only contention order is approximated.

Join reduction keeps the program small: a ``max`` of two stamps on the
same node collapses when one offset dominates componentwise, and a
``max`` against the never-positive root stamp (an idle resource clock)
is dropped.  What remains is one node per *genuine* synchronization.

``compile_dag(..., adaptive=True)`` walks with :class:`_QueueStamps`,
the same algebra with queue-group service instead of frozen orders.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Tuple

from ..network.topology import Topology
from ..whatif.evaluate import (DagShape, EvaluationError, FifoService,
                               inlined_walk, walk)
from ..whatif.record import CommDag, Recording

#: A stamp: (node, c0, c_bytes, c_lat, c_loss, ref_time).  ``node`` is a
#: circuit node id; the c's are the affine offset on top of it; ``ref``
#: is the concrete time at the reference parameters (heap/service order).
_ZERO = (0, 0.0, 0.0, 0.0, 0.0, 0.0)


class CompileError(RuntimeError):
    """The DAG could not be compiled (timing-sensitive or inconsistent)."""


class _AffineStamps:
    """The affine stamp algebra over an append-only join-node store.

    ``pa``/``pb``/``ea``/``eb`` are the circuit's parallel edge arrays:
    node ``i`` is ``max(pa[i] + ea[i], pb[i] + eb[i])``.
    """

    zero = _ZERO
    ref = operator.itemgetter(5)

    def __init__(self, topology: Topology) -> None:
        # Node 0 is the root (time zero); give it a self-edge so the
        # arrays stay aligned with node ids.
        self.pa: List[int] = [0]
        self.pb: List[int] = [0]
        self.ea: List[Tuple[float, float, float, float]] = [(0.0,) * 4]
        self.eb: List[Tuple[float, float, float, float]] = [(0.0,) * 4]
        self.joins_reduced = 0
        self.ref_inv_bw = 1.0 / topology.wide.bandwidth
        self.ref_lat = topology.wide.latency

    def join(self, x: tuple, y: tuple) -> tuple:
        """max(x, y) — reduced where provably one-sided, else a node."""
        if x[0] == y[0]:
            if x[1] >= y[1] and x[2] >= y[2] and x[3] >= y[3] and x[4] >= y[4]:
                self.joins_reduced += 1
                return x
            if y[1] >= x[1] and y[2] >= x[2] and y[3] >= x[3] and y[4] >= x[4]:
                self.joins_reduced += 1
                return y
        # The root stamp with no offset is time zero, and every cost
        # coefficient is non-negative, so max(x, 0) == x.
        elif x[0] == 0 and x[1] == 0.0 and x[2] == 0.0 and x[3] == 0.0 \
                and x[4] == 0.0:
            self.joins_reduced += 1
            return y
        elif y[0] == 0 and y[1] == 0.0 and y[2] == 0.0 and y[3] == 0.0 \
                and y[4] == 0.0:
            self.joins_reduced += 1
            return x
        return self.join_forced(x, y)

    def join_forced(self, x: tuple, y: tuple) -> tuple:
        """max(x, y) with the node always materialized."""
        nid = len(self.pa)
        self.pa.append(x[0])
        self.pb.append(y[0])
        self.ea.append((x[1], x[2], x[3], x[4]))
        self.eb.append((y[1], y[2], y[3], y[4]))
        return (nid, 0.0, 0.0, 0.0, 0.0, x[5] if x[5] >= y[5] else y[5])

    @staticmethod
    def plus(s: tuple, c0: float) -> tuple:
        """Advance a stamp by a grid-constant cost."""
        return (s[0], s[1] + c0, s[2], s[3], s[4], s[5] + c0)

    def wire(self, s: tuple, size: float) -> tuple:
        """Advance by one WAN wire transfer: size / wide_bw."""
        return (s[0], s[1], s[2] + size, s[3], s[4],
                s[5] + size * self.ref_inv_bw)

    def prop(self, s: tuple) -> tuple:
        """Advance by one WAN propagation: wide_lat, plus one lossable
        data traversal (the loss model charges expected retransmission
        delay per WAN traversal)."""
        return (s[0], s[1], s[2], s[3] + 1.0, s[4] + 1.0,
                s[5] + self.ref_lat)


class _Group:
    """One contended resource's service queue, in reference order.

    ``ops`` rows are ``(arrival_stamp, cost_row, node_id)``: the arrival
    stamp the booking joined against the resource clock, the affine
    service-cost row ``(c0, bytes, hops, traversals)``, and the
    materialized join node whose value is the start of service.
    ``seed`` is the resource's initial clock (the root stamp for
    hardware; a daemon's post-prologue stamp).  ``rigid`` groups keep
    their frozen order.  ``chain_preds`` remembers each resource-clock
    stamp a chainless join dropped, so the frozen edge can be patched
    back in if the group later turns out rigid.
    """

    __slots__ = ("kind", "ops", "rigid", "seed", "chain_preds")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.ops: List[tuple] = []
        self.rigid = False
        self.seed = _ZERO
        self.chain_preds: List[tuple] = []


class _QueueStamps(_AffineStamps):
    """The affine algebra with queue-group service (``adaptive=True``).

    Targets the order-unstable DAGs the frozen programs cannot price:
    every resource booking is materialized unconditionally and recorded
    in a per-resource **queue group** — (arrival stamp, service-cost
    row, join node) per booking, in reference service order — so
    :class:`~repro.replay.adaptive.AdaptiveProgram` can re-sort each
    queue from a previous iterate's arrival times and re-serve it per
    grid point instead of trusting the frozen order.  Queue joins are
    emitted *chainless* (both predecessor slots point at the arrival):
    the adaptive engine overrides the node with the served start every
    sweep, so a frozen edge to the previous service would only stretch
    the levelization — the intra-queue chains are what make fft's frozen
    program 1183 levels deep.

    Daemon handler queues become groups too (a block's service cost is
    the recv overhead plus its body duration).  A daemon block whose
    body is not affine over the block start (a shared-CPU compute chain)
    marks its group *rigid* — kept frozen, chain edges restored — while
    shared CPUs gain their own re-sortable ``cpu`` groups.  One
    deliberate approximation: a started daemon's wake-time join
    (``t = max(t, now)``) is dropped — it is subsumed by the per-block
    arrival maxes except for a LIFO pop quirk the convergence check
    arbitrates.  Adaptive programs therefore are not bit-identical to
    the frozen compile even at the anchor.
    """

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        #: queue groups keyed by resource identity, in first-use order
        self.groups: dict = {}

    def _group(self, key: tuple) -> _Group:
        g = self.groups.get(key)
        if g is None:
            g = self.groups[key] = _Group(key[0])
        return g

    def join_queue(self, g: _Group, arrival: tuple, free: tuple) -> tuple:
        """A chainless queue join: the node depends only on the arrival;
        the reference clock still advances over the resource's ``free``
        stamp, keeping the compile-time event order exact."""
        nid = len(self.pa)
        self.pa.append(arrival[0])
        self.pb.append(arrival[0])
        row = (arrival[1], arrival[2], arrival[3], arrival[4])
        self.ea.append(row)
        self.eb.append(row)
        g.chain_preds.append((nid, free))
        ref = arrival[5] if arrival[5] >= free[5] else free[5]
        return (nid, 0.0, 0.0, 0.0, 0.0, ref)

    def make_rigid(self, g: _Group) -> None:
        """Freeze a group: restore the chain edges its queue joins
        dropped (the adaptive engine will never override them)."""
        g.rigid = True
        for nid, free in g.chain_preds:
            self.pb[nid] = free[0]
            self.eb[nid] = (free[1], free[2], free[3], free[4])
        g.chain_preds.clear()

    def _book(self, key: tuple, arrival: tuple, free: tuple, row: tuple,
              ref_cost: float) -> tuple:
        """Record one service in its queue group and return the
        end-of-service stamp (cost row over the join node)."""
        g = self._group(key)
        node = self.join_queue(g, arrival, free)
        g.ops.append((arrival, row, node[0]))
        return (node[0], row[0], row[1], row[2], row[3], node[5] + ref_cost)

    def book(self, key: tuple, arrival: tuple, free: tuple,
             cost: float) -> tuple:
        return self._book(key, arrival, free, (cost, 0.0, 0.0, 0.0), cost)

    def book_wire(self, key: tuple, arrival: tuple, free: tuple,
                  size: float) -> tuple:
        return self._book(key, arrival, free, (0.0, size, 0.0, 0.0),
                          size * self.ref_inv_bw)

    def wake(self, proc, now: tuple) -> tuple:
        # The group is created at the first wake, before the prologue's
        # bookings, so group order is first-use order throughout.
        self._group(("daemon", id(proc)))
        if proc.prologue is None:
            return proc.t
        if proc.root and not proc.prologue:
            return _ZERO  # unconstrained: the first block starts at its
            # own arrival (a root daemon with no prologue work)
        return self.join(proc.t, now)

    def serve(self, proc, at: tuple, t: tuple) -> tuple:
        g = self.groups[("daemon", id(proc))]
        if not g.ops:
            g.seed = t  # the post-prologue stamp seeds the chain
        if g.rigid:
            return self.join_forced(at, t)
        return self.join_queue(g, at, t)

    def served(self, proc, at: tuple, start: tuple, end: tuple) -> None:
        g = self.groups[("daemon", id(proc))]
        if end[0] != start[0] and not g.rigid:
            # The body joined a shared clock: its duration is not an
            # affine offset over the block start, so this queue cannot
            # be re-served from a cost row.  Keep the frozen order (the
            # shared clock has its own group) and patch the chain edges
            # back in.
            self.make_rigid(g)
        g.ops.append((at, (end[1], end[2], end[3], end[4]), start[0]))


def compile_dag(dag: CommDag, topology: Optional[Topology] = None,
                adaptive: bool = False):
    """Compile ``dag`` into a :class:`~repro.replay.program.ReplayProgram`.

    ``topology`` supplies the fixed (local network, gateway, WAN shape)
    constants and the reference WAN point the contention orders are
    resolved at; it defaults to the recording default, the mid-grid
    :data:`~repro.whatif.record.REFERENCE_POINT` on the DAG's own
    cluster shape.  Raises :class:`CompileError` for timing-sensitive
    DAGs — the caller owns the fallback to full simulation.

    With ``adaptive=True`` the result is an :class:`~repro.replay.
    adaptive.AdaptiveProgram`: resource bookings are materialized into
    re-sortable queue groups (see :class:`_QueueStamps`) for the
    Gauss-Seidel re-pricing engine.  The default output is unchanged.
    """
    from .program import ReplayProgram

    if dag.timing_sensitive:
        raise CompileError(
            "refusing to compile a timing-sensitive DAG: "
            + "; ".join(dag.sensitive_reasons))
    if topology is None:
        from ..experiments import grids
        from ..whatif.record import REFERENCE_POINT

        topology = grids.multi_cluster(
            *REFERENCE_POINT, clusters=len(dag.cluster_sizes),
            cluster_size=dag.cluster_sizes[0])
    if topology.cluster_sizes != dag.cluster_sizes:
        raise CompileError(
            f"topology shape {topology.cluster_sizes} does not match the "
            f"recorded shape {dag.cluster_sizes}")
    if topology.wan_variability is not None:
        raise CompileError("cannot compile under WAN variability")

    if adaptive:
        ops, run = _QueueStamps(topology), walk
    else:
        ops, run = _AffineStamps(topology), inlined_walk(FifoService)
    try:
        finish, wan_bytes, wan_traversals = run(DagShape(dag), topology, ops)
    except EvaluationError as err:
        raise CompileError(f"compile {err}") from err

    meta = {
        "cluster_sizes": list(dag.cluster_sizes),
        "wan_shape": topology.wan_shape,
        "wan_hub": topology.wan_hub,
        "reference": [topology.wide.bandwidth, topology.wide.latency],
        "local_spec": [topology.local.latency, topology.local.bandwidth,
                       topology.local.send_overhead,
                       topology.local.recv_overhead],
        "wide_overheads": [topology.wide.send_overhead,
                           topology.wide.recv_overhead],
        "gateway_overhead_s": topology.gateway_overhead,
        "wan_bytes": wan_bytes,
        "wan_traversals": wan_traversals,
        "joins_reduced": ops.joins_reduced,
        "num_ops": dag.num_ops,
        "num_messages": dag.num_messages,
    }
    finish_rows = [(s[0], s[1], s[2], s[3], s[4]) for s in finish]
    if adaptive:
        from .adaptive import AdaptiveProgram

        # Rigid queues keep their frozen order by construction (their
        # chain edges were patched back).  Singleton hardware queues
        # are exact without serving (a chainless join over a root seed
        # is just the arrival), but a singleton daemon queue still
        # needs its seed constraint served in.
        groups = ops.groups.values()
        glist = [(g.kind, g.seed, g.ops) for g in groups
                 if not g.rigid and
                 (len(g.ops) > 1 or (g.ops and g.seed is not _ZERO))]
        meta["adaptive_groups"] = len(glist)
        meta["adaptive_group_ops"] = sum(len(g_ops) for _, _, g_ops in glist)
        meta["adaptive_rigid_groups"] = sum(1 for g in groups if g.rigid)
        return AdaptiveProgram.from_circuit_groups(
            ops.pa, ops.pb, ops.ea, ops.eb, finish_rows, meta, glist)
    return ReplayProgram.from_circuit(
        ops.pa, ops.pb, ops.ea, ops.eb, finish_rows, meta)


def compile_recording(recording: Recording):
    """Compile a :class:`~repro.whatif.record.Recording` on its own
    recorded topology (the usual entry point)."""
    return compile_dag(recording.dag, recording.topology)
