"""Unit tests for the MMU, fault delivery, diff, and shared-memory commit."""

import pytest

from repro.errors import InvalidAddressError, ProtectionError
from repro.memory.address_space import SharedAddressSpace
from repro.memory.cow import ProcessView
from repro.memory.diff import apply_diff, diff_page
from repro.memory.fault_handler import FaultDispatcher, FaultKind, permissive_handler
from repro.memory.layout import GLOBALS_BASE, GLOBALS_SIZE, HEAP_BASE, STACK_BASE
from repro.memory.mmu import MMU
from repro.memory.page import PROT_NONE, PROT_READ, PROT_READ_WRITE, PageTable
from repro.memory.shared_commit import SharedMemoryCommitter

PAGE = 256


@pytest.fixture
def space():
    return SharedAddressSpace(page_size=PAGE)


@pytest.fixture
def mmu(space):
    return MMU(space, FaultDispatcher(permissive_handler, keep_log=True))


class TestPageTable:
    def test_entries_default_to_prot_none(self):
        table = PageTable()
        assert table.entry(7).prot == PROT_NONE

    def test_protect_all_resets_access_bits(self):
        table = PageTable()
        entry = table.entry(1)
        entry.prot = PROT_READ_WRITE
        entry.dirty = True
        entry.accessed = True
        table.protect_all(PROT_NONE)
        assert entry.prot == PROT_NONE
        assert not entry.dirty
        assert not entry.accessed

    def test_dirty_pages_iteration(self):
        table = PageTable()
        table.entry(1).dirty = True
        table.entry(2).dirty = False
        assert list(table.dirty_pages()) == [1]


class TestDiff:
    def test_identical_pages_produce_empty_diff(self):
        data = bytes(range(256))
        diff = diff_page(0, data, data)
        assert diff.is_empty()
        assert diff.modified_bytes == 0

    def test_single_byte_change(self):
        twin = bytearray(64)
        current = bytearray(64)
        current[10] = 0xAA
        diff = diff_page(3, bytes(twin), bytes(current))
        assert diff.modified_bytes == 1
        assert diff.deltas[0].offset == 10

    def test_runs_are_maximal(self):
        twin = bytes(32)
        current = bytearray(32)
        current[4:8] = b"\x01\x02\x03\x04"
        current[20] = 0xFF
        diff = diff_page(0, twin, bytes(current))
        assert [d.offset for d in diff.deltas] == [4, 20]
        assert diff.modified_bytes == 5

    def test_change_at_end_of_page(self):
        twin = bytes(16)
        current = bytearray(16)
        current[-1] = 1
        diff = diff_page(0, twin, bytes(current))
        assert diff.deltas[-1].offset == 15

    def test_apply_diff_reproduces_current(self):
        twin = bytes(b"a" * 64)
        current = bytearray(twin)
        current[5:9] = b"WXYZ"
        current[40] = ord("!")
        diff = diff_page(0, twin, bytes(current))
        target = bytearray(twin)
        written = apply_diff(target, diff)
        assert target == current
        assert written == diff.modified_bytes

    def test_apply_diff_out_of_range_raises(self):
        diff = diff_page(0, bytes(8), bytes(7 * b"\x00" + b"\x01"))
        with pytest.raises(ValueError):
            apply_diff(bytearray(4), diff)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            diff_page(0, bytes(8), bytes(9))


class TestMMUAccess:
    def test_read_write_round_trip(self, mmu):
        mmu.write_word(1, HEAP_BASE, 42)
        assert mmu.read_word(1, HEAP_BASE) == 42

    def test_first_read_faults_once(self, mmu):
        mmu.register_process(1)
        mmu.read(1, HEAP_BASE, 8)
        mmu.read(1, HEAP_BASE + 8, 8)
        read_faults = [e for e in mmu.dispatcher.log if e.kind is FaultKind.READ]
        assert len(read_faults) == 1

    def test_write_after_read_faults_again(self, mmu):
        mmu.read(1, HEAP_BASE, 8)
        mmu.write(1, HEAP_BASE, b"x" * 8)
        kinds = [e.kind for e in mmu.dispatcher.log]
        assert kinds == [FaultKind.READ, FaultKind.WRITE]

    def test_write_grants_read_too(self, mmu):
        mmu.write(1, HEAP_BASE, b"x" * 8)
        mmu.read(1, HEAP_BASE, 8)
        assert mmu.dispatcher.stats.total == 1

    def test_faults_are_per_process(self, mmu):
        mmu.read(1, HEAP_BASE, 8)
        mmu.read(2, HEAP_BASE, 8)
        assert mmu.dispatcher.stats.per_pid == {1: 1, 2: 1}

    def test_faults_are_per_page(self, mmu):
        mmu.read(1, HEAP_BASE, 8)
        mmu.read(1, HEAP_BASE + PAGE, 8)
        assert mmu.dispatcher.stats.read_faults == 2

    def test_access_spanning_pages_faults_each_page(self, mmu):
        mmu.read(1, HEAP_BASE + PAGE - 4, 8)
        assert mmu.dispatcher.stats.read_faults == 2

    def test_protect_all_retriggers_faults(self, mmu):
        mmu.read(1, HEAP_BASE, 8)
        mmu.protect_all(1)
        mmu.read(1, HEAP_BASE, 8)
        assert mmu.dispatcher.stats.read_faults == 2

    def test_untracked_region_never_faults(self, mmu):
        mmu.write(1, STACK_BASE, b"data")
        mmu.read(1, STACK_BASE, 4)
        assert mmu.dispatcher.stats.total == 0

    def test_blocking_handler_raises_protection_error(self, space):
        def refusing_handler(event, entry):
            return None  # does not grant access

        mmu = MMU(space, FaultDispatcher(refusing_handler))
        with pytest.raises(ProtectionError):
            mmu.read(1, HEAP_BASE, 8)

    def test_access_stats(self, mmu):
        mmu.write(1, HEAP_BASE, b"12345678")
        mmu.read(1, HEAP_BASE, 8)
        assert mmu.stats.loads == 1
        assert mmu.stats.stores == 1
        assert mmu.stats.bytes_read == 8
        assert mmu.stats.bytes_written == 8


class TestCopyOnWriteAndCommit:
    def test_writes_are_private_until_commit(self, space):
        mmu = MMU(space)
        mmu.write_word(1, HEAP_BASE, 99)
        # The shared copy still holds zero until the process commits.
        assert space.read_word(HEAP_BASE) == 0
        assert mmu.read_word(1, HEAP_BASE) == 99

    def test_commit_publishes_writes(self, space):
        mmu = MMU(space)
        committer = SharedMemoryCommitter(space)
        mmu.write(1, HEAP_BASE, b"\x01\x02\x03\x04\x05\x06\x07\x08")
        record = committer.commit(mmu.view(1))
        assert space.read(HEAP_BASE, 8) == b"\x01\x02\x03\x04\x05\x06\x07\x08"
        # The diff is byte-level: all eight bytes differ from the zero twin.
        assert record.modified_bytes == 8
        assert record.pages == 1

    def test_commit_clears_private_state(self, space):
        mmu = MMU(space)
        committer = SharedMemoryCommitter(space)
        mmu.write_word(1, HEAP_BASE, 7)
        committer.commit(mmu.view(1))
        assert mmu.view(1).dirty_pages() == []

    def test_other_process_sees_writes_only_after_commit(self, space):
        mmu = MMU(space)
        committer = SharedMemoryCommitter(space)
        mmu.write_word(1, HEAP_BASE, 123)
        assert mmu.read_word(2, HEAP_BASE) == 0
        committer.commit(mmu.view(1))
        assert mmu.read_word(2, HEAP_BASE) == 123

    def test_disjoint_writes_to_same_page_merge(self, space):
        mmu = MMU(space)
        committer = SharedMemoryCommitter(space)
        mmu.write_word(1, HEAP_BASE, 1)
        mmu.write_word(2, HEAP_BASE + 8, 2)
        committer.commit(mmu.view(1))
        committer.commit(mmu.view(2))
        assert space.read_word(HEAP_BASE) == 1
        assert space.read_word(HEAP_BASE + 8) == 2

    def test_overlapping_writes_last_committer_wins(self, space):
        mmu = MMU(space)
        committer = SharedMemoryCommitter(space)
        mmu.write_word(1, HEAP_BASE, 111)
        mmu.write_word(2, HEAP_BASE, 222)
        committer.commit(mmu.view(1))
        committer.commit(mmu.view(2))
        assert space.read_word(HEAP_BASE) == 222

    def test_commit_of_clean_view_is_empty(self, space):
        mmu = MMU(space)
        committer = SharedMemoryCommitter(space)
        mmu.read(1, HEAP_BASE, 8)
        record = committer.commit(mmu.view(1))
        assert record.pages == 0
        assert record.modified_bytes == 0

    def test_commit_stats_accumulate(self, space):
        mmu = MMU(space)
        committer = SharedMemoryCommitter(space)
        mmu.write(1, HEAP_BASE, b"\xaa" * 8)
        mmu.write(1, HEAP_BASE + PAGE, b"\xbb" * 8)
        committer.commit(mmu.view(1))
        assert committer.stats.commits == 1
        assert committer.stats.pages_committed == 2
        assert committer.stats.bytes_committed == 16

    def test_process_view_twin_preserved(self, space):
        view = ProcessView(1, space)
        space.write(HEAP_BASE, b"original")
        page = space.pages_for(HEAP_BASE, 1)[0]
        view.ensure_private_copy(page)
        view.write_bytes(HEAP_BASE, b"modified")
        assert view.twins[page][:8] == b"original"

    def test_read_after_commit_sees_other_process_update(self, space):
        mmu = MMU(space)
        committer = SharedMemoryCommitter(space)
        # Process 1 reads (no private copy), process 2 writes and commits,
        # process 1 must then observe the new value on its next read.
        assert mmu.read_word(1, HEAP_BASE) == 0
        mmu.write_word(2, HEAP_BASE, 77)
        committer.commit(mmu.view(2))
        assert mmu.read_word(1, HEAP_BASE) == 77


class TestPageBoundariesThroughAView:
    """Word and straddling accesses through the MMU and a process's COW view."""

    def test_word_ending_on_the_last_byte_of_a_page(self, space, mmu):
        committer = SharedMemoryCommitter(space)
        address = HEAP_BASE + PAGE - 8
        mmu.write_word(1, address, -5)
        assert mmu.read_word(1, address) == -5
        assert mmu.dispatcher.stats.write_faults == 1
        assert mmu.dispatcher.stats.read_faults == 0
        assert mmu.view(1).dirty_pages() == [HEAP_BASE // PAGE]
        committer.commit(mmu.view(1))
        assert space.read_word(address) == -5

    def test_access_from_the_last_byte_spans_two_pages(self, space, mmu):
        committer = SharedMemoryCommitter(space)
        first_page = HEAP_BASE // PAGE
        address = HEAP_BASE + PAGE - 1
        private = bytes(range(1, 9))
        mmu.write(1, address, private)
        assert mmu.dispatcher.stats.write_faults == 2
        assert [e.page for e in mmu.dispatcher.log] == [first_page, first_page + 1]
        assert mmu.view(1).dirty_pages() == [first_page, first_page + 1]
        # Before the commit the writer reads its private bytes, others the shared ones.
        assert mmu.read(1, address, 8) == private
        assert mmu.read(1, address - 2, 4) == b"\x00\x00" + private[:2]
        assert mmu.read(2, address, 8) == bytes(8)
        assert space.read(address, 8) == bytes(8)
        mmu.write(1, address, private)
        assert mmu.dispatcher.stats.total == 4  # pid 1's 2 write faults, pid 2's 2 read faults
        committer.commit(mmu.view(1))
        mmu.protect_all(1)
        assert mmu.read(1, address, 8) == private
        assert mmu.read(2, address, 8) == private
        assert space.read(address, 8) == private

    def test_zero_length_accesses_fault_nothing(self, space, mmu):
        for address in (HEAP_BASE, HEAP_BASE + PAGE - 1, HEAP_BASE + 3):
            assert mmu.read(1, address, 0) == b""
            mmu.write(1, address, b"")
        assert mmu.dispatcher.stats.total == 0
        assert mmu.view(1).dirty_pages() == []
        assert space.materialized_pages() == []
        assert mmu.stats.loads == mmu.stats.stores == 3

    @pytest.mark.parametrize(
        "start",
        [GLOBALS_BASE + GLOBALS_SIZE - 4, GLOBALS_BASE - 4],
        ids=["crosses-region-end", "starts-unmapped"],
    )
    def test_invalid_access_raises(self, mmu, start):
        with pytest.raises(InvalidAddressError):
            mmu.read(1, start, 8)
        with pytest.raises(InvalidAddressError):
            mmu.write(1, start, b"x" * 8)
        assert mmu.dispatcher.stats.total == 0
        assert mmu.stats.loads == mmu.stats.stores == 0
