"""The buffer manager — Figure 1/3 of the paper, executable.

:class:`BufferManager` owns the frame pool, the hash table, one
replacement policy, and one replacement handler (direct, batched, or
lock-free — see :mod:`repro.core.bpwrapper`). Its
:meth:`~BufferManager.request` is the page-request entry point of every
runtime and tier. It is a plain call: it charges the hash-lookup and
pin costs and serves a hit that cannot wait inline (the handler's
bookkeeping included). A request that may wait comes back as a
generator continuation, which a miss spends in the full miss protocol:

1. take the replacement lock (committing queued history first when
   batching — Fig. 4's ``replacement_for_page_miss``);
2. re-check the hash table (another thread may have begun the same
   read while we waited);
3. ask the policy for a victim, honouring pins, and re-tag the frame;
4. release the lock, read the page from the disk model (off-CPU), then
   mark the frame valid and wake any threads that piled up on it.

Everything between two ``yield`` points executes atomically in the
simulator — the same guarantee the real code gets from holding the
lock — so the interesting concurrency (stale queue entries, concurrent
misses on one page, eviction racing enqueued hits) happens exactly
where it does in a real DBMS: across blocking points.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

from repro.bufmgr.descriptors import FIRST_PIN, BufferDesc
from repro.bufmgr.hashtable import BufferHashTable
from repro.bufmgr.tags import BufferTag, PageId

if TYPE_CHECKING:  # avoid circular imports (bpwrapper) and keep the
    # manager simulator-free: DiskArray's module drives the sim's
    # disk model, but the manager only ever *holds* one.
    from repro.core.bpwrapper import ReplacementHandler, ThreadSlot
    from repro.db.storage import DiskArray
from repro.errors import BufferError_
from repro.hardware.costs import CostModel
from repro.policies.base import ReplacementPolicy
from repro.runtime.base import Runtime, Waits
from repro.util import CounterArithmetic

__all__ = ["AccessStats", "BufferManager"]


@dataclass
class AccessStats(CounterArithmetic):
    """Pool-wide access accounting (snapshot, window and pool sums:
    :class:`~repro.util.CounterArithmetic`)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    #: Misses resolved by another thread's in-flight read of the page.
    absorbed_misses: int = 0
    evictions: int = 0
    #: Accesses that modified their page.
    write_accesses: int = 0
    #: Evictions of dirty pages that required a disk write first.
    write_backs: int = 0
    #: Hits whose frame was retagged or invalidated while the thread
    #: slept on ``io_done``; re-counted as misses and retried.
    stale_hit_retries: int = 0
    #: Victim candidates the policy had to skip because their frame was
    #: pinned (query operators holding pages across their lifetime).
    pinned_victim_skips: int = 0

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


def _evictable_predicate(lookup, stats: AccessStats):
    """The policy's victim filter: a resident, unpinned page. A closure
    over the pool's table probe and counters, not a bound method, so the
    policy holds no reference back to the manager and a dropped pool is
    freed by reference counting alone."""
    def is_evictable(key: BufferTag) -> bool:
        desc = lookup(key)
        if desc is None:
            return False
        if desc.pins[-1]:  # pinned; see FIRST_PIN
            stats.pinned_victim_skips += 1
            return False
        return True
    return is_evictable


class BufferManager:
    """A fixed-size buffer pool with pluggable replacement handling."""

    def __init__(self, sim: "Runtime", capacity: int,
                 policy: ReplacementPolicy, handler: "ReplacementHandler",
                 costs: CostModel, disk: Optional["DiskArray"] = None,
                 n_hash_buckets: int = 1024,
                 simulate_bucket_locks: bool = False) -> None:
        if capacity < 1:
            raise BufferError_(f"pool capacity must be >= 1, got {capacity}")
        if policy.capacity != capacity:
            raise BufferError_(
                f"policy capacity {policy.capacity} != pool capacity "
                f"{capacity}")
        self.sim = sim
        self.capacity = capacity
        self.policy = policy
        self.handler = handler
        self.costs = costs
        self.disk = disk
        #: When True, every lookup actually acquires its bucket's lock
        #: in the simulator — used by the ablation that validates the
        #: paper's SII claim that bucket locks are not a bottleneck.
        self.simulate_bucket_locks = simulate_bucket_locks
        self.table = BufferHashTable(sim, n_buckets=n_hash_buckets,
                                     simulate_locks=simulate_bucket_locks)
        self._frames = [BufferDesc(i) for i in range(capacity)]
        self._free: List[BufferDesc] = list(reversed(self._frames))
        self.stats = AccessStats()
        policy.set_evictable_predicate(
            _evictable_predicate(self.table.lookup, self.stats))

    # -- plumbing ------------------------------------------------------------

    def lookup(self, page: PageId) -> Optional[BufferDesc]:
        """Direct hash-table probe (tests / diagnostics)."""
        return self.table.lookup(page)

    def bucket_lock_stats(self):
        """Aggregate statistics over all simulated bucket locks.

        Returns None unless ``simulate_bucket_locks`` was enabled.
        """
        if not self.simulate_bucket_locks:
            return None
        from repro.sync.stats import LockStats
        merged = LockStats()
        for lock in self.table.bucket_locks:
            merged = merged.merged_with(lock.stats)
        return merged

    @property
    def resident_count(self) -> int:
        return len(self.table)

    def warm_with(self, pages: Iterable[PageId]) -> int:
        """Pre-load pages instantly (the paper pre-warms buffers, §IV).

        Returns the number of pages actually installed. No simulated
        time passes and no statistics are recorded.
        """
        installed = 0
        for page in pages:
            if self.table.lookup(page) is not None:
                continue
            victim = self.policy.on_miss(page)
            desc = self._take_frame(victim)
            desc.retag(page)
            desc.valid = True
            self.table.insert(page, desc)
            installed += 1
        return installed

    def _take_frame(self, victim: Optional[BufferTag]) -> BufferDesc:
        if victim is not None:
            self.stats.evictions += 1
            return self.table.remove(victim)
        if not self._free:
            raise BufferError_(
                "policy reported free space but the frame pool is full")
        return self._free.pop()

    # -- the access path -----------------------------------------------------------

    def request(self, slot: "ThreadSlot", page: PageId,
                is_write: bool = False, keep_pin: bool = False
                ) -> Union[bool, Tuple[bool, BufferDesc], Waits]:
        """One page request by ``slot``'s thread, as a plain call.

        A hit that cannot wait is served here and the result comes
        back: ``True``, or ``(True, desc)`` with ``keep_pin``, whose
        caller owns the pin until :meth:`release`. Any other request
        returns its *continuation*, a generator to drive with ``yield
        from`` whose value is the result (``False`` or ``(False,
        desc)`` on a miss). A continuation comes back when the request
        may wait: the frame's read is still in flight (``io_done``),
        the handler's hit may wait (a lock to take, time to realize;
        its generator comes back as it is), the frame went stale and
        the page is retried as a miss, or the page missed. The caller
        must drive a continuation it is given: it owns the request's pin.

        ``is_write`` marks the page dirty; a dirty page's frame cannot
        be reused until its contents are written back to the disk
        model (as PostgreSQL's StrategyGetBuffer flushes victims).

        An inline hit costs this call and the handler's. Its pinned
        section is exception-safe (a raise from the handler drops the
        pin), and a continuation's is also close-safe: if it is
        aborted mid-wait (native join-deadline abort, failure
        injection), the pin is released before unwinding.
        """
        checker = self.sim.checker
        if checker is not None:
            # The checker sees the exact global arrival order — the
            # sequence the differential oracle later replays.
            checker.on_access(slot.thread_id, page, is_write)
        if self.simulate_bucket_locks:
            return self._bucket_locked(slot, page, is_write, keep_pin)
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.write_accesses += 1
        thread = slot.thread
        thread.pending_us += self.costs.hash_lookup_us
        desc = self.table.lookup(page)
        if desc is None:
            return self._serve_miss(slot, page, is_write, keep_pin)
        stats.hits += 1
        # desc.pin() and desc.unpin(), inlined: the hit path pays
        # no Python frame for them (see FIRST_PIN).
        pins = desc.pins
        pins.append(True)
        thread.pending_us += self.costs.pin_unpin_us
        if not desc.valid or desc.tag != page:
            return self._continue_hit(slot, desc, page, is_write, keep_pin)
        try:
            served = self.handler.hit(slot, desc, page, is_write, keep_pin)
        except BaseException:
            desc.unpin()
            self._reclaim_orphan(desc)
            raise
        if served:
            return served
        if is_write:
            desc.dirty = True
        if keep_pin:
            return True, desc
        del pins[FIRST_PIN]
        return True

    def _continue_hit(self, slot: "ThreadSlot", desc: BufferDesc,
                      page: PageId, is_write: bool, keep_pin: bool) -> Waits:
        """The rest of a pinned hit whose frame was not servable at the
        probe (its read in flight, or stale): the hit is checked here,
        after any wait, and the handler called only if it holds."""
        try:
            if not desc.valid:
                # Another thread's read is in flight; wait for it
                # off-CPU. The pin keeps the frame ours while we
                # sleep. Capture the event first: under the native
                # backend the reader may complete (and clear
                # ``io_done``) between the validity check and the
                # wait; in the simulator the two statements are
                # atomic and the capture changes nothing.
                io_done = desc.io_done
                if io_done is not None:
                    yield from slot.thread.wait(io_done)
            served = None
            if desc.tag == page and desc.valid:
                served = self.handler.hit(slot, desc, page, is_write, keep_pin)
        except BaseException:
            desc.unpin()
            self._reclaim_orphan(desc)
            raise
        if served is None:
            # The frame was retagged or invalidated (before the probe
            # or while we slept on its io_done): the page was never
            # actually served. Drop the pin, undo the hit accounting
            # and retry the request as a miss (whose under-lock
            # re-check handles every residual race).
            desc.unpin()
            self._reclaim_orphan(desc)
            self.stats.hits -= 1
            self.stats.stale_hit_retries += 1
            return (yield from self._serve_miss(slot, page, is_write,
                                                keep_pin))
        # The handler's continuation owns the pin from here, or its
        # tail finishes a hit that needed no wait.
        return (yield from served or self.handler.finish_hit(
            desc, is_write, keep_pin, ()))

    def _bucket_locked(self, slot: "ThreadSlot", page: PageId,
                       is_write: bool, keep_pin: bool) -> Waits:
        """The request's probe under its bucket's simulated lock (the
        ablation of ``simulate_bucket_locks``), then the request: the
        probe happens while holding the lock, as in a real chained
        hash table. The access is counted after the lock wait, where
        its hit or miss is, so a measurement window that opens during
        the wait counts both or neither."""
        thread = slot.thread
        bucket_lock = self.table.bucket_locks[self.table.bucket_index(page)]
        yield from bucket_lock.acquire(thread)
        thread.pending_us += self.costs.hash_lookup_us
        desc = self.table.lookup(page)
        if self.sim.realizes_costs:
            yield from thread.spend()
        bucket_lock.release(thread)
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.write_accesses += 1
        if desc is None:
            return (yield from self._serve_miss(slot, page, is_write,
                                                keep_pin))
        stats.hits += 1
        desc.pins.append(True)
        thread.pending_us += self.costs.pin_unpin_us
        return (yield from self._continue_hit(slot, desc, page, is_write,
                                              keep_pin))

    def access(self, slot: "ThreadSlot", page: PageId,
               is_write: bool = False, keep_pin: bool = False) -> Waits:
        """:meth:`request` as one generator, for callers that ``yield
        from`` each request whole (the oracle's replay, tests). Returns
        True on a hit (``(hit, desc)`` with ``keep_pin``)."""
        served = self.request(slot, page, is_write, keep_pin)
        if isinstance(served, GeneratorType):
            served = yield from served
        return served

    def release(self, desc: BufferDesc) -> None:
        """Drop a pin a request took with ``keep_pin``."""
        desc.unpin()

    def _serve_miss(self, slot: "ThreadSlot", page: PageId,
                    is_write: bool, keep_pin: bool) -> Waits:
        """A miss's continuation: count it, run the miss protocol and
        return :meth:`request`'s result for the installed frame.

        The pin on the installed frame is dropped at the end unless
        ``keep_pin``. Both pinned sections release their pin if the
        generator is aborted mid-wait; an abort after the placeholder
        frame was installed but before its read completed additionally
        backs the install out (see :meth:`_abort_install`) so no waiter
        is left hanging on a dead ``io_done`` and no frame leaks a pin.
        """
        thread = slot.thread
        stats = self.stats
        stats.misses += 1
        observer = self.sim.observer
        if observer is not None:
            observer.on_page_miss(thread.name, self.sim.now)
        while True:
            yield from self.handler.acquire_for_miss(slot, page)
            # Re-check: the lock wait may have overlapped another thread
            # installing (or starting to install) the same page.
            desc = self.table.lookup(page)
            if desc is None:
                break
            stats.misses -= 1
            stats.hits += 1
            stats.absorbed_misses += 1
            desc.pins.append(True)
            thread.pending_us += self.costs.pin_unpin_us
            try:
                yield from self.handler.release_after_miss(slot, page)
                if not desc.valid:
                    io_done = desc.io_done
                    if io_done is not None:
                        yield from thread.wait(io_done)
                if desc.tag == page and desc.valid:
                    if is_write:
                        desc.dirty = True
                    break
            except BaseException:
                desc.unpin()
                self._reclaim_orphan(desc)
                raise
            # The install we absorbed was backed out while we slept on
            # its io_done (the installer was aborted): undo the absorb
            # accounting and retry the miss protocol from the top.
            desc.unpin()
            self._reclaim_orphan(desc)
            stats.hits -= 1
            stats.misses += 1
            stats.absorbed_misses -= 1
            stats.stale_hit_retries += 1
        if desc is None:
            victim = self.policy.on_miss(page)
            desc = self._take_frame(victim)
            victim_was_dirty = desc.dirty
            desc.retag(page)
            desc.pins.append(True)
            desc.io_done = self.sim.event()
            self.table.insert(page, desc)
            thread.pending_us += self.costs.pin_unpin_us
            completed = False
            try:
                yield from self.handler.release_after_miss(slot, page)
                if self.disk is not None:
                    if victim_was_dirty:
                        # Flush the evicted page before reusing its frame.
                        stats.write_backs += 1
                        write_started = self.sim.now
                        yield from self.disk.write(thread)
                        if observer is not None:
                            observer.on_disk_io(thread.name, "write-back",
                                                write_started, self.sim.now)
                    read_started = self.sim.now
                    yield from self.disk.read(thread)
                    if observer is not None:
                        observer.on_disk_io(thread.name, "read",
                                            read_started, self.sim.now)
                desc.valid = True
                desc.dirty = is_write
                io_done, desc.io_done = desc.io_done, None
                io_done.succeed()
                completed = True
            finally:
                if not completed:
                    self._abort_install(desc)
        if keep_pin:
            return False, desc
        del desc.pins[FIRST_PIN]
        return False

    def _reclaim_orphan(self, desc: BufferDesc) -> None:
        """Return an aborted install's frame to the free list.

        Called after dropping a hit-path (or absorbed-miss) pin: if the
        install we waited on was backed out (tag cleared) and ours was
        the last pin, the frame would otherwise be stranded outside
        both the hash table and the free list — the aborting thread
        could not free it because our pin was still held then.
        """
        if desc.tag is None and not desc.pins[-1] \
                and desc not in self._free:
            self._free.append(desc)

    def _abort_install(self, desc: BufferDesc) -> None:
        """Back out a mid-flight page install (abort/failure path).

        Wakes any threads parked on the frame's ``io_done`` (they find
        the tag gone and retry as misses), removes the placeholder from
        the hash table and the policy, drops our pin, and returns the
        frame to the free list once no other pin remains.
        """
        io_done, desc.io_done = desc.io_done, None
        if io_done is not None and not io_done.triggered:
            io_done.succeed()
        page = desc.tag
        if page is not None and self.table.lookup(page) is desc:
            self.table.remove(page)
            self.policy.on_remove(page)
        desc.tag = None
        desc.valid = False
        desc.generation += 1
        desc.unpin()
        if not desc.pins[-1]:
            self._free.append(desc)

    def invalidate(self, page: PageId) -> bool:
        """Drop a resident page (table truncation / failure injection).

        Returns False if the page was not resident. Raises if it is
        pinned. Queued BP-Wrapper entries referring to it become stale
        and are discarded by the commit-time tag check.
        """
        desc = self.table.lookup(page)
        if desc is None:
            return False
        if desc.pinned:
            raise BufferError_(f"cannot invalidate pinned page {page}")
        self.table.remove(page)
        self.policy.on_remove(page)
        # The frame may be resident-but-invalid: its installing read is
        # still in flight (unpinned because the installer was aborted).
        # Detach and fire the io_done event so any waiter wakes, finds
        # the tag gone, and retries as a miss — leaving it set on a
        # freed frame would strand waiters and corrupt the next tenant
        # of the frame.
        io_done, desc.io_done = desc.io_done, None
        if io_done is not None and not io_done.triggered:
            io_done.succeed()
        desc.tag = None
        desc.valid = False
        desc.generation += 1
        self._free.append(desc)
        return True

    # -- invariants (used by tests and failure injection) ----------------------------

    def check_invariants(self, expect_no_pins: bool = False) -> None:
        """Raise if pool bookkeeping has drifted (tests call this).

        With ``expect_no_pins=True`` additionally asserts that no frame
        holds a residual pin — the post-run sweep for aborted runs,
        where every hit-path/``_serve_miss`` pin (and every
        operator-held pin) must have been released on unwind. Off by
        default because callers may legitimately hold pins at the time
        of the check (e.g. a scan parked on its current page).
        """
        resident = set()
        for frame in self._frames:
            if frame.tag is not None and self.table.lookup(frame.tag) is frame:
                resident.add(frame.tag)
        if len(self.table) != len(resident):
            raise BufferError_(
                f"hash table has {len(self.table)} entries but only "
                f"{len(resident)} frames map back")
        policy_resident = set(self.policy.resident_keys())
        if policy_resident != resident:
            extra = policy_resident - resident
            missing = resident - policy_resident
            raise BufferError_(
                f"policy/table divergence: policy-only={extra!r} "
                f"table-only={missing!r}")
        if len(resident) > self.capacity:
            raise BufferError_(
                f"{len(resident)} resident pages exceed capacity "
                f"{self.capacity}")
        if expect_no_pins:
            leaked = [(frame.frame_id, frame.tag, frame.pin_count)
                      for frame in self._frames if frame.pin_count != 0]
            if leaked:
                raise BufferError_(
                    f"residual pins at quiescence: {leaked!r}")
