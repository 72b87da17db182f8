"""The classic (pre-tasking) Score-P profiling algorithm.

Paper Section IV-A: a per-thread call tree is built from the enter/exit
event stream; each enter descends (creating the child on first visit),
each exit ascends and attributes the inclusive duration.  The algorithm
*requires* the nesting condition -- it raises
:class:`~repro.errors.EventOrderError` on the interleaved streams that
task suspension produces (Fig. 2), which is precisely the problem the
task-aware profiler solves.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import EventOrderError
from repro.events.batch import (
    F_PAYLOAD,
    K_ENTER,
    K_EXIT,
    KIND_MASK,
    RID_MASK,
    RID_SHIFT,
)
from repro.events.model import EnterEvent, ExitEvent
from repro.events.regions import Region
from repro.profiling.calltree import CallTreeNode

#: A frame is (node, enter_time).
Frame = Tuple[CallTreeNode, float]

#: Gap indices sit above the region id in a leaf-pair segment key.
_GAP_SHIFT = RID_MASK.bit_length()


class ClassicProfiler:
    """Single-thread enter/exit call-path profiler.

    Parameters
    ----------
    root_region:
        Region for the tree root (conventionally the ``main`` function or
        the implicit-task region of a parallel region).
    """

    def __init__(self, root_region: Region) -> None:
        self.root = CallTreeNode(root_region)
        self._stack: List[Frame] = []
        self._root_open: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def current_node(self) -> CallTreeNode:
        """The node the profiler is currently positioned at."""
        return self._stack[-1][0] if self._stack else self.root

    @property
    def depth(self) -> int:
        return len(self._stack)

    # ------------------------------------------------------------------
    def enter(self, region: Region, time: float, parameter: Optional[tuple] = None) -> CallTreeNode:
        """Process an enter event; returns the node descended into."""
        if self._root_open is None:
            self._root_open = time
        if not self._stack and region is self.root.region:
            # Entering the root region itself positions us at the root node
            # (the paper: "the first event is usually the enter event of the
            # main function, for which the root node is created").
            node = self.root
        else:
            node = self.current_node.child(region, parameter)
        self._stack.append((node, time))
        return node

    def exit(self, region: Region, time: float) -> CallTreeNode:
        """Process an exit event; returns the node ascended from."""
        if not self._stack:
            raise EventOrderError(f"exit {region.name!r} with no open region")
        node, enter_time = self._stack.pop()
        if node.region is not region:
            self._stack.append((node, enter_time))
            raise EventOrderError(
                f"exit {region.name!r} does not match innermost open region "
                f"{node.region.name!r}"
            )
        node.metrics.record_visit(time - enter_time)
        return node

    # ------------------------------------------------------------------
    def feed(self, events) -> CallTreeNode:
        """Translate a whole event stream; returns the finished root.

        Only :class:`EnterEvent`/:class:`ExitEvent` are accepted -- any
        task event raises, matching the paper's observation that the
        classic algorithm cannot represent them.
        """
        for event in events:
            if isinstance(event, EnterEvent):
                self.enter(event.region, event.time, event.parameter)
            elif isinstance(event, ExitEvent):
                self.exit(event.region, event.time)
            else:
                raise EventOrderError(
                    f"classic profiler cannot process {type(event).__name__}"
                )
        return self.finish()

    def finish(self) -> CallTreeNode:
        """Check all regions closed and return the root."""
        if self._stack:
            open_names = ", ".join(n.region.name for n, _ in self._stack)
            raise EventOrderError(f"stream ended with open region(s): {open_names}")
        return self.root

    # ------------------------------------------------------------------
    # Columnar fast path
    # ------------------------------------------------------------------
    def consume_batch(self, batch) -> None:
        """Consume one :class:`~repro.events.batch.EventBatch` of
        enter/exit events, bit-identically to the per-event methods.

        The vectorized core peels **leaf pairs** -- an enter immediately
        followed by the matching exit, the overwhelming bulk of a
        fine-grained profile -- out of the stream with one boolean mask
        over the packed code column, groups them by (position, region)
        and folds each group's durations into its call-tree node in one
        visit-segment update.  Events that are not leaf pairs (the
        *residuals*: nested opens/closes, parameterized enters) replay
        through :meth:`enter`/:meth:`exit` interleaved with the segments
        in stream order, so arbitrarily nested streams fold in exactly
        the order the legacy path would.

        Bit-identity notes: segment sums use Python's builtin ``sum``
        (a strict left fold, identical to repeated ``+=``); numpy is
        used only for masking, grouping and min/max (comparisons are
        order-free and exact).

        Raises :class:`~repro.errors.EventOrderError` on task-lifecycle
        or metric events (the classic algorithm cannot represent them)
        and on mismatched nesting, like the per-event path.  As with any
        streaming consumer, state updated before the offending event is
        retained.
        """
        codes = batch.codes
        n = len(codes)
        if n == 0:
            return
        lookup = batch.registry.lookup
        payloads = batch.payloads
        enter = self.enter
        exit_ = self.exit
        cd = np.frombuffer(codes, dtype=np.int64)
        tm = np.frombuffer(batch.times, dtype=np.float64)
        kinds = cd & KIND_MASK
        if kinds.max() > K_EXIT:
            bad = int(kinds[kinds > K_EXIT][0])
            raise EventOrderError(
                f"classic profiler cannot process batch event kind {bad}"
            )
        rids = (cd >> RID_SHIFT) & RID_MASK
        is_enter = kinds == K_ENTER
        # Leaf-pair mask: enter at i, exit at i+1, same region, and no
        # parameter payload on the enter (parameterized enters split
        # call-tree children, so they take the exact per-event path).
        lp = (
            is_enter[:-1]
            & ~is_enter[1:]
            & (rids[:-1] == rids[1:])
            & ((cd[:-1] & F_PAYLOAD) == 0)
        )
        pair_i = np.nonzero(lp)[0]
        if pair_i.size == 0:
            kl = kinds.tolist()
            rl = rids.tolist()
            tl = tm.tolist()
            for j in range(n):
                if kl[j] == K_ENTER:
                    enter(lookup(rl[j]), tl[j], payloads.get(j))
                else:
                    exit_(lookup(rl[j]), tl[j])
            return
        # Residuals = everything not covered by a pair, in stream order.
        res_mask = np.ones(n, dtype=bool)
        res_mask[pair_i] = False
        res_mask[pair_i + 1] = False
        res_i = np.nonzero(res_mask)[0]
        # Each pair belongs to the *gap* after `gaps[k]` residuals; pairs
        # in the same gap with the same region fold into one segment.
        gaps = np.searchsorted(res_i, pair_i)
        durs = tm[pair_i + 1] - tm[pair_i]
        # Key layout: gap index above the full 20-bit region id (the id
        # is already right-aligned here, unlike in the packed code).
        keys = (gaps.astype(np.int64) << _GAP_SHIFT) | rids[pair_i]
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        sd = durs[order]
        cut = np.nonzero(sk[1:] != sk[:-1])[0] + 1
        starts = np.concatenate((np.zeros(1, dtype=np.intp), cut))
        mins = np.minimum.reduceat(sd, starts).tolist()
        maxs = np.maximum.reduceat(sd, starts).tolist()
        seg_key = sk[starts].tolist()
        starts_l = starts.tolist()
        starts_l.append(sd.size)
        sd_list = sd.tolist()
        # Segments must apply in the stream order of their *first* pair,
        # not key order: first-touch order decides where a new child is
        # inserted in its parent's dict, and the legacy path inserts in
        # stream order.  (Stable sort => sorted pair positions ascend
        # within a segment, so the segment's start holds its first pair;
        # pairs in gap g all precede pairs in gap g+1, keeping this
        # iteration gap-monotonic for the residual-replay loop below.)
        seg_order = np.argsort(pair_i[order][starts]).tolist()
        kl = kinds[res_i].tolist()
        rl = rids[res_i].tolist()
        tml = tm[res_i].tolist()
        res_l = res_i.tolist()
        first_t = float(tm[0])
        r = 0
        parent = None
        stack_empty = False
        nres = len(res_l)
        for s in seg_order:
            key = seg_key[s]
            g = key >> _GAP_SHIFT
            while r < g:
                # Replay the residuals that precede this gap.
                j = res_l[r]
                if kl[r] == K_ENTER:
                    enter(lookup(rl[r]), tml[r], payloads.get(j))
                else:
                    exit_(lookup(rl[r]), tml[r])
                r += 1
                parent = None
            if parent is None:
                parent = self.current_node
                stack_empty = not self._stack
                if self._root_open is None:
                    self._root_open = first_t
            regu = lookup(key & RID_MASK)
            node = (
                self.root
                if (stack_empty and regu is self.root.region)
                else parent.child(regu)
            )
            m = node.metrics
            acc = m.durations
            a = starts_l[s]
            b = starts_l[s + 1]
            seg = sd_list[a:b]
            if m.inclusive_time == acc.total:
                # record_visit is this node's only mutator so far: one
                # shared left fold covers both accumulators.
                tot = sum(seg, acc.total)
                m.inclusive_time = tot
                acc.total = tot
            else:
                m.inclusive_time = sum(seg, m.inclusive_time)
                acc.total = sum(seg, acc.total)
            cnt = b - a
            m.visits += cnt
            acc.count += cnt
            if mins[s] < acc.minimum:
                acc.minimum = mins[s]
            if maxs[s] > acc.maximum:
                acc.maximum = maxs[s]
        while r < nres:
            j = res_l[r]
            if kl[r] == K_ENTER:
                enter(lookup(rl[r]), tml[r], payloads.get(j))
            else:
                exit_(lookup(rl[r]), tml[r])
            r += 1
