"""Overlap-aware read verifier over a shadow copy of every 4 KiB page.

Every payload the benchmark writes is derived from a *token* — a small
integer naming the write — so the shadow stores tokens, not bytes, and the
expected bytes of a page are regenerated on demand and compared in full.

A read of a page is checked only when no write to that page was in flight
when the read started and none started while it ran.  Otherwise the read
raced a write and either value is legitimate, so it is counted as
*overlapped* instead.  The expected value of a checked read is any member
of the last group of overlapping writes: writes whose lifetimes chain into
one another may land in any order, so each of them may be the survivor.
"""

from __future__ import annotations

import struct

__all__ = ["PAGE", "page_bytes", "payload", "Shadow"]

PAGE = 4096
_REPEAT = PAGE // 16


def page_bytes(token: int, file_id: int, page: int) -> bytes:
    """The 4 KiB content written by write ``token`` to page ``page`` of a file."""
    return struct.pack("<IIQ", token, file_id, page) * _REPEAT


def payload(token: int, file_id: int, first_page: int, npages: int) -> bytes:
    return b"".join(page_bytes(token, file_id, first_page + i) for i in range(npages))


class _PageState:
    __slots__ = ("committed", "group", "inflight", "epoch")

    def __init__(self, token: int):
        #: tokens a quiescent read may legitimately return
        self.committed = (token,)
        #: tokens of the overlapping writes still being grouped
        self.group: list[int] = []
        self.inflight = 0
        #: bumped whenever a write to the page starts
        self.epoch = 0


class Shadow:
    """Shadow state of every page the workload may read."""

    def __init__(self):
        self._pages: dict[tuple[int, int], _PageState] = {}
        self.pages_checked = 0
        self.pages_overlapped = 0
        self.pages_stale = 0
        self.stale_reads = 0

    def seed(self, file_id: int, first_page: int, npages: int, token: int) -> None:
        """Record content that is on the backend before the workload starts."""
        for i in range(npages):
            self._pages[(file_id, first_page + i)] = _PageState(token)

    def forget(self, file_id: int, first_page: int, npages: int) -> None:
        for i in range(npages):
            self._pages.pop((file_id, first_page + i), None)

    # -- writes ---------------------------------------------------------------
    def write_begin(self, file_id: int, first_page: int, npages: int, token: int) -> None:
        for i in range(npages):
            st = self._pages[(file_id, first_page + i)]
            if st.inflight == 0:
                st.group = []
            st.group.append(token)
            st.inflight += 1
            st.epoch += 1

    def write_end(self, file_id: int, first_page: int, npages: int) -> None:
        for i in range(npages):
            st = self._pages[(file_id, first_page + i)]
            st.inflight -= 1
            if st.inflight == 0:
                st.committed = tuple(st.group)

    # -- reads ----------------------------------------------------------------
    def read_begin(self, file_id: int, first_page: int, npages: int) -> list:
        """Snapshot taken when a read starts; pass it to :meth:`read_end`."""
        snap = []
        for i in range(npages):
            st = self._pages[(file_id, first_page + i)]
            snap.append((st, st.epoch if st.inflight == 0 else None))
        return snap

    def read_end(self, file_id: int, first_page: int, snap: list, data: bytes) -> bool:
        """Check every quiescent page of a finished read; False if any is stale."""
        fresh = True
        for i, (st, epoch) in enumerate(snap):
            if epoch is None or st.epoch != epoch:
                self.pages_overlapped += 1
                continue
            self.pages_checked += 1
            got = data[i * PAGE : (i + 1) * PAGE]
            page = first_page + i
            if not any(got == page_bytes(t, file_id, page) for t in st.committed):
                self.pages_stale += 1
                fresh = False
        if not fresh:
            self.stale_reads += 1
        return fresh

    def counts(self) -> dict:
        return {
            "pages_checked": self.pages_checked,
            "pages_overlapped": self.pages_overlapped,
            "pages_stale": self.pages_stale,
            "stale_reads": self.stale_reads,
        }
