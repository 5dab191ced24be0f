"""Warp and thread-block execution contexts.

A :class:`WarpContext` is the scheduler-visible state of one warp: its
position in the program, its scoreboard (a bitmask of registers with
outstanding writes), barrier state and outstanding-memory accounting.
Assist warps get their own lightweight scoreboard inside the CABA
framework; parent warps additionally carry an ``assist_block`` counter —
a high-priority (blocking) assist warp stalls its parent until it
completes (Section 4.2.1: "stalls the progress of its parent warp").
"""

from __future__ import annotations

from repro.gpu.isa import Program


class WarpContext:
    """Dynamic state of one resident warp."""

    __slots__ = (
        "global_index",
        "block",
        "program",
        "pc",
        "iteration",
        "pending_mask",
        "finished",
        "at_barrier",
        "outstanding_mem",
        "assist_block",
        "age",
        "sched",
        "seq",
        "coal_key",
        "coal_lines",
        "mshr_fail_epoch",
        "mem_source",
    )

    def __init__(
        self, global_index: int, block: "BlockContext", program: Program, age: int
    ) -> None:
        self.global_index = global_index
        self.block = block
        self.program = program
        self.pc = 0
        self.iteration = 0
        self.pending_mask = 0
        self.finished = False
        self.at_barrier = False
        self.outstanding_mem = 0
        #: Count of blocking assist warps currently gating this warp.
        self.assist_block = 0
        #: Dispatch order; GTO falls back to oldest-first on a switch.
        self.age = age
        #: Scheduler this warp is statically assigned to.
        self.sched = 0
        #: Per-scheduler invalidation counters of the owning SM, indexed
        #: by ``sched`` (see :func:`touch`); a private counter until
        #: ``SM.add_block`` makes the warp resident.
        self.seq: list[int] = [0]
        #: Memo for the coalescer: replayed memory instructions reuse
        #: their line list instead of regenerating addresses.
        self.coal_key: tuple[int, int] | None = None
        self.coal_lines: list[int] = []
        #: MSHR epoch at which this warp's current load last failed the
        #: MSHR pre-check; the SM skips the retry until the epoch moves.
        self.mshr_fail_epoch = -1
        #: Deepest memory level the warp's most recent load reached
        #: (repro.memory.hierarchy.MEM_SRC_*); only maintained while the
        #: observability ledger is attached.
        self.mem_source = 0

    # ------------------------------------------------------------------
    def can_consider(self) -> bool:
        """Whether the scheduler should look at this warp at all."""
        return not (self.finished or self.at_barrier or self.assist_block > 0)

    def advance(self) -> bool:
        """Move past the just-issued instruction; True when the warp is
        executing its final instruction of the final iteration."""
        self.seq[self.sched] += 1
        self.pc += 1
        if self.pc >= len(self.program.body):
            self.pc = 0
            self.iteration += 1
            if self.iteration >= self.program.iterations:
                self.finished = True
                return True
        return False

    @property
    def drained(self) -> bool:
        """Finished and with no memory operations still in flight."""
        return self.finished and self.outstanding_mem == 0


def touch(warp: WarpContext) -> None:
    """Invalidate the memoized issue outcome of ``warp``'s scheduler.

    Every site that mutates a field the issue scan reads (``pc``,
    ``pending_mask``, ``finished``, ``at_barrier``, ``assist_block``)
    calls this, so a scheduler's memo (``repro.gpu.sm``) is valid
    exactly while its seq counter is unchanged. The fields stay plain
    slot attributes: an earlier property-based write-through doubled
    the cost of every hot-path *read* (the issue scan reads
    ``pending_mask``/``pc`` millions of times per run), whereas
    mutations are comparatively rare events. A late bump from a warp
    whose block has retired only over-invalidates.

    Fields that never influence the issue scan or its traced
    refinements independently of a tracked field (``iteration``,
    ``outstanding_mem``, ``mem_source``, the coalescer memo,
    ``mshr_fail_epoch``) are untracked: every behavioural write to
    them is adjacent to a tracked write on the same warp.
    """
    warp.seq[warp.sched] += 1


class BlockContext:
    """Dynamic state of one resident thread block."""

    __slots__ = (
        "block_id",
        "warps",
        "barrier_arrivals",
        "finished_warps",
        "all_finished",
        "retired",
    )

    def __init__(self, block_id: int) -> None:
        self.block_id = block_id
        self.warps: list[WarpContext] = []
        self.barrier_arrivals = 0
        self.finished_warps = 0
        self.all_finished = False
        self.retired = False

    def arrive_at_barrier(self, warp: WarpContext) -> bool:
        """Register a barrier arrival; True when the barrier releases."""
        warp.at_barrier = True
        touch(warp)
        self.barrier_arrivals += 1
        # Finished warps never reach the barrier again; they count as
        # permanently arrived (CUDA semantics: exited threads do not
        # participate in __syncthreads()).
        live = len(self.warps) - self.finished_warps
        if self.barrier_arrivals >= live:
            self.barrier_arrivals = 0
            for member in self.warps:
                if member.at_barrier:
                    member.at_barrier = False
                    touch(member)
            return True
        return False

    def note_warp_finished(self) -> bool:
        """Record one warp finishing; True when the whole block is done."""
        self.finished_warps += 1
        return self.finished_warps >= len(self.warps)

    @property
    def drained(self) -> bool:
        return all(w.drained for w in self.warps)
