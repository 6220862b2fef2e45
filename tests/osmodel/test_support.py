"""Support-routine library: Table-1 routines and the config surface,
invoked the way the driver invokes them (through native calls)."""

import pytest

from repro.isa import assemble
from repro.machine import Machine
from repro.osmodel import FAST_PATH_ROUTINES, Kernel, layout as L
from repro.osmodel.skbuff import SkBuff
from repro.osmodel.support import SupportError
from repro.xen import Hypervisor


@pytest.fixture
def env():
    m = Machine()
    xen = Hypervisor(m)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    kernel = Kernel(m, dom0, costs=xen.costs)
    return m, xen, kernel


def call_support(kernel, name, args):
    """Invoke a support routine through the CPU the way driver code does."""
    addr = kernel.support.addresses[name]
    return kernel.machine.cpu.call_function(addr, list(args),
                                            stack_top=kernel.stack_top)


class TestFastPathRoutines:
    def test_registry_covers_table1(self, env):
        _, _, kernel = env
        for name in FAST_PATH_ROUTINES:
            assert name in kernel.support.addresses

    def test_netdev_alloc_skb(self, env):
        m, xen, kernel = env
        ndev = kernel.create_netdev_for_nic(m.add_nic())
        skb_addr = call_support(kernel, "netdev_alloc_skb",
                                [ndev.addr, 1536])
        skb = SkBuff(kernel.memory_view(), skb_addr)
        assert skb.dev == ndev.addr
        assert skb.len == 0

    def test_dev_kfree_skb_any(self, env):
        m, xen, kernel = env
        skb = kernel.alloc_skb(100)
        held = kernel.heap.allocated_bytes
        call_support(kernel, "dev_kfree_skb_any", [skb.addr])
        assert kernel.heap.allocated_bytes < held

    def test_dma_map_single_returns_bus(self, env):
        m, xen, kernel = env
        skb = kernel.alloc_skb(1000)
        bus = call_support(kernel, "dma_map_single",
                           [0, skb.data, 1000, 1])
        assert bus == kernel.domain.aspace.translate(skb.data)

    def test_dma_map_page(self, env):
        m, xen, kernel = env
        assert call_support(kernel, "dma_map_page",
                            [0x7000, 0x40, 100, 1]) == 0x7040

    def test_dma_unmaps_return_zero(self, env):
        m, xen, kernel = env
        assert call_support(kernel, "dma_unmap_single", [0x7000, 100, 1]) == 0
        assert call_support(kernel, "dma_unmap_page", [0x7000, 100, 1]) == 0

    def test_spin_trylock_contention(self, env):
        m, xen, kernel = env
        lock = kernel.heap.alloc(4)
        assert call_support(kernel, "spin_trylock", [lock]) == 1
        assert call_support(kernel, "spin_trylock", [lock]) == 0
        call_support(kernel, "spin_unlock_irqrestore", [lock, 0])
        assert call_support(kernel, "spin_trylock", [lock]) == 1

    def test_spin_unlock_restores_virq(self, env):
        m, xen, kernel = env
        lock = kernel.heap.alloc(4)
        kernel.domain.disable_virq()
        call_support(kernel, "spin_unlock_irqrestore", [lock, 1])
        assert kernel.domain.virq_enabled

    def test_eth_type_trans(self, env):
        m, xen, kernel = env
        ndev = kernel.create_netdev_for_nic(m.add_nic())
        skb = kernel.alloc_skb(100)
        skb.put(60)
        frame = b"\xff" * 6 + b"\x00" * 6 + b"\x08\x06" + b"\x00" * 46
        kernel.memory_view().write_bytes(skb.data, frame)
        proto = call_support(kernel, "eth_type_trans", [skb.addr, ndev.addr])
        assert proto == 0x0806
        skb = SkBuff(kernel.memory_view(), skb.addr)
        assert skb.protocol == 0x0806
        assert skb.len == 60 - L.ETH_HLEN

    def test_costs_charged_to_domain(self, env):
        m, xen, kernel = env
        lock = kernel.heap.alloc(4)
        before = m.account.cycles["dom0"]
        call_support(kernel, "spin_trylock", [lock])
        assert m.account.cycles["dom0"] > before

    def test_trace_records_calls(self, env):
        m, xen, kernel = env
        lock = kernel.heap.alloc(4)
        before = dict(kernel.support_call_counts)
        call_support(kernel, "spin_trylock", [lock])
        moved = {name: n - before.get(name, 0)
                 for name, n in kernel.support_call_counts.items()
                 if n != before.get(name, 0)}
        assert moved == {"spin_trylock": 1}


class TestConfigRoutines:
    def test_kmalloc_kfree(self, env):
        m, xen, kernel = env
        addr = call_support(kernel, "kmalloc", [256, 0])
        assert kernel.heap.owns(addr)
        call_support(kernel, "kfree", [addr])

    def test_alloc_etherdev_sets_priv(self, env):
        m, xen, kernel = env
        ndev = call_support(kernel, "alloc_etherdev", [L.ADP_SIZE])
        priv = kernel.memory_view().read_u32(ndev + L.NDEV_PRIV)
        assert priv > ndev

    def test_register_unregister_netdev(self, env):
        m, xen, kernel = env
        ndev = kernel.create_netdev_for_nic(m.add_nic())
        call_support(kernel, "register_netdev", [ndev.addr])
        assert ndev.addr in kernel.netdevs
        call_support(kernel, "unregister_netdev", [ndev.addr])
        assert ndev.addr not in kernel.netdevs

    def test_queue_state_helpers(self, env):
        m, xen, kernel = env
        ndev = kernel.create_netdev_for_nic(m.add_nic())
        call_support(kernel, "netif_stop_queue", [ndev.addr])
        assert call_support(kernel, "netif_queue_stopped", [ndev.addr]) == 1
        call_support(kernel, "netif_wake_queue", [ndev.addr])
        assert call_support(kernel, "netif_queue_stopped", [ndev.addr]) == 0

    def test_carrier_helpers(self, env):
        m, xen, kernel = env
        ndev = kernel.create_netdev_for_nic(m.add_nic())
        call_support(kernel, "netif_carrier_on", [ndev.addr])
        assert ndev.carrier_ok
        assert call_support(kernel, "ethtool_op_get_link", [ndev.addr]) == 1
        call_support(kernel, "netif_carrier_off", [ndev.addr])
        assert not ndev.carrier_ok

    def test_request_free_irq(self, env):
        m, xen, kernel = env
        call_support(kernel, "request_irq", [16, 0x1234, 0, 0x5678])
        assert kernel.irq_handlers[16] == (0x1234, 0x5678)
        call_support(kernel, "free_irq", [16, 0x5678])
        assert 16 not in kernel.irq_handlers

    def test_timer_routines(self, env):
        m, xen, kernel = env
        timer = kernel.heap.alloc(L.TIMER_SIZE)
        call_support(kernel, "init_timer", [timer])
        call_support(kernel, "mod_timer", [timer, 500])
        assert timer in kernel.timers
        mem = kernel.memory_view()
        assert mem.read_u32(timer + L.TIMER_ACTIVE) == 1
        call_support(kernel, "del_timer_sync", [timer])
        assert timer not in kernel.timers

    def test_dma_alloc_coherent_writes_handle(self, env):
        m, xen, kernel = env
        out = kernel.heap.alloc(4)
        vaddr = call_support(kernel, "dma_alloc_coherent", [1024, out])
        bus = kernel.memory_view().read_u32(out)
        assert bus == kernel.domain.aspace.translate(vaddr)

    def test_memcpy_memset(self, env):
        m, xen, kernel = env
        a = kernel.heap.alloc(64)
        b = kernel.heap.alloc(64)
        kernel.memory_view().write_bytes(a, b"Z" * 64)
        call_support(kernel, "memcpy_support", [b, a, 64])
        assert kernel.memory_view().read_bytes(b, 64) == b"Z" * 64
        call_support(kernel, "memset_support", [b, 0x41, 8])
        assert kernel.memory_view().read_bytes(b, 8) == b"A" * 8

    def test_printk_logs(self, env):
        m, xen, kernel = env
        msg = kernel.heap.alloc(32)
        kernel.memory_view().write_bytes(msg, b"e1000: link up\x00")
        call_support(kernel, "printk", [msg])
        assert kernel.log == ["e1000: link up"]

    def test_spin_lock_irqsave_disables_virq(self, env):
        m, xen, kernel = env
        lock = kernel.heap.alloc(4)
        flags = call_support(kernel, "spin_lock_irqsave", [lock])
        assert flags == 1
        assert not kernel.domain.virq_enabled
        call_support(kernel, "spin_unlock_irqrestore", [lock, flags])
        assert kernel.domain.virq_enabled

    def test_skb_helpers(self, env):
        m, xen, kernel = env
        skb = kernel.alloc_skb(200)
        call_support(kernel, "skb_reserve", [skb.addr, 16])
        old_tail = call_support(kernel, "skb_put", [skb.addr, 50])
        assert old_tail == skb.head + L.NET_SKB_PAD + 16
        assert call_support(kernel, "skb_headroom", [skb.addr]) == \
            L.NET_SKB_PAD + 16

    def test_pci_state_tracking(self, env):
        m, xen, kernel = env
        call_support(kernel, "pci_enable_device", [0])
        call_support(kernel, "pci_set_master", [0])
        call_support(kernel, "pci_request_regions", [0, 0])
        assert {("enabled", 0), ("master", 0), ("regions", 0)} <= \
            kernel.pci_state
        call_support(kernel, "pci_release_regions", [0])
        assert ("regions", 0) not in kernel.pci_state
