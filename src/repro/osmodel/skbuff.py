"""sk_buff: the Linux socket buffer, living in simulated guest memory.

An :class:`SkBuff` is a *view* over a 96-byte struct at a virtual address
in some domain's address space; all field accesses are real memory reads/
writes, so the driver binary (which manipulates the same bytes with loads
and stores) and the Python kernel code see one coherent object — the
paper's "single instance of driver data".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..machine.paging import AddressSpace
from . import layout as L


class SkBuff:
    """View of an sk_buff struct at ``addr`` in ``aspace``."""

    def __init__(self, aspace: AddressSpace, addr: int):
        self.aspace = aspace
        self.addr = addr

    # -- raw field access ------------------------------------------------------

    def _get(self, off: int, size: int = 4) -> int:
        return self.aspace.read(self.addr + off, size)

    def _set(self, off: int, value: int, size: int = 4):
        self.aspace.write(self.addr + off, size, value)

    # -- fields -------------------------------------------------------------------

    @property
    def dev(self) -> int:
        return self._get(L.SKB_DEV)

    @dev.setter
    def dev(self, value: int):
        self._set(L.SKB_DEV, value)

    @property
    def data(self) -> int:
        return self._get(L.SKB_DATA)

    @data.setter
    def data(self, value: int):
        self._set(L.SKB_DATA, value)

    @property
    def len(self) -> int:
        return self._get(L.SKB_LEN)

    @len.setter
    def len(self, value: int):
        self._set(L.SKB_LEN, value)

    @property
    def head(self) -> int:
        return self._get(L.SKB_HEAD)

    @property
    def end(self) -> int:
        return self._get(L.SKB_END)

    @property
    def tail(self) -> int:
        return self._get(L.SKB_TAIL)

    @tail.setter
    def tail(self, value: int):
        self._set(L.SKB_TAIL, value)

    @property
    def protocol(self) -> int:
        return self._get(L.SKB_PROTOCOL, 2)

    @protocol.setter
    def protocol(self, value: int):
        self._set(L.SKB_PROTOCOL, value, 2)

    @property
    def nr_frags(self) -> int:
        return self._get(L.SKB_NR_FRAGS)

    @nr_frags.setter
    def nr_frags(self, value: int):
        self._set(L.SKB_NR_FRAGS, value)

    @property
    def refcnt(self) -> int:
        return self._get(L.SKB_REFCNT)

    @refcnt.setter
    def refcnt(self, value: int):
        self._set(L.SKB_REFCNT, value)

    @property
    def pool(self) -> int:
        return self._get(L.SKB_POOL)

    @pool.setter
    def pool(self, value: int):
        self._set(L.SKB_POOL, value)

    # -- buffer manipulation (skb_put / skb_reserve / frags) ---------------------------

    def reserve(self, n: int):
        self.data = self.data + n
        self.tail = self.tail + n

    def put(self, n: int) -> int:
        """Extend the data area by n bytes; returns the old tail pointer."""
        old_tail = self.tail
        if old_tail + n > self.end:
            raise ValueError("skb_put beyond end of buffer")
        self.tail = old_tail + n
        self.len = self.len + n
        return old_tail

    def pull(self, n: int) -> int:
        self.data = self.data + n
        self.len = self.len - n
        return self.data

    def headroom(self) -> int:
        return self.data - self.head

    def frag(self, i: int) -> Tuple[int, int, int]:
        base = self.addr + L.SKB_FRAGS + i * L.SKB_FRAG_ENTRY
        return (
            self.aspace.read_u32(base + L.SKB_FRAG_PAGE),
            self.aspace.read_u32(base + L.SKB_FRAG_OFF),
            self.aspace.read_u32(base + L.SKB_FRAG_SIZE),
        )

    def set_frag(self, i: int, page: int, off: int, size: int):
        if i >= L.SKB_MAX_FRAGS:
            raise ValueError("too many fragments")
        base = self.addr + L.SKB_FRAGS + i * L.SKB_FRAG_ENTRY
        self.aspace.write_u32(base + L.SKB_FRAG_PAGE, page)
        self.aspace.write_u32(base + L.SKB_FRAG_OFF, off)
        self.aspace.write_u32(base + L.SKB_FRAG_SIZE, size)

    @property
    def data_len(self) -> int:
        """Bytes held in fragments (Linux's skb->data_len)."""
        return self._get(L.SKB_DATA_LEN, 2)

    def add_frag(self, page: int, off: int, size: int):
        i = self.nr_frags
        self.set_frag(i, page, off, size)
        self.nr_frags = i + 1
        self.len = self.len + size
        self._set(L.SKB_DATA_LEN, self.data_len + size, 2)

    @property
    def linear_len(self) -> int:
        """Bytes in the linear data area (len minus fragment bytes)."""
        return self.len - self.data_len

    # -- payload access -------------------------------------------------------------------

    def write_payload(self, payload: bytes):
        self.aspace.write_bytes(self.data, payload)

    def read_payload(self, n: Optional[int] = None) -> bytes:
        return self.aspace.read_bytes(self.data,
                                      self.linear_len if n is None else n)

    def __repr__(self):  # pragma: no cover
        return f"<SkBuff @{self.addr:#010x} len={self.len}>"


def init_skb(aspace: AddressSpace, skb_addr: int, buffer_addr: int,
             buffer_size: int = L.SKB_BUFFER_SIZE) -> SkBuff:
    """Initialise a freshly-allocated sk_buff struct over its data buffer."""
    aspace.write_bytes(skb_addr, b"\x00" * L.SKB_STRUCT_SIZE)
    skb = SkBuff(aspace, skb_addr)
    skb._set(L.SKB_HEAD, buffer_addr)
    skb._set(L.SKB_DATA, buffer_addr)
    skb._set(L.SKB_TAIL, buffer_addr)
    skb._set(L.SKB_END, buffer_addr + buffer_size)
    skb._set(L.SKB_TRUESIZE, buffer_size + L.SKB_STRUCT_SIZE)
    skb.refcnt = 1
    return skb
