"""Loading the rewritten driver into the hypervisor (paper §5.2).

The loader:

* resolves the driver's data symbols and imported Linux data symbols to
  the dom0 addresses saved by the dom0 module loader at VM-driver load
  time (so every data reference points into dom0);
* resolves the SVM runtime symbols (``__stlb``, spill slots, ``__svm_ret``)
  to hypervisor data;
* binds calls to support routines either to the hypervisor's own
  implementations (the Table-1 set) or to upcall stubs — one stub per
  unimplemented routine;
* lays the code out at the instance's code base; because the *same
  rewritten binary* is used for the VM instance, every routine's
  hypervisor address differs from its VM address by one constant
  (``code_offset``), which is what makes indirect-call translation
  trivial (§5.1.2);
* sets up the hypervisor driver stack with guard pages, and the
  ``stlb_call`` translation cache.

Also registers the per-instance SVM runtime natives (slow path, string
translate helper, call-translate) for both the hypervisor instance and
the dom0 identity instance.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..machine.cpu import (
    Cpu,
    CpuBudgetExceeded,
    ExecutionFault,
    LoadedProgram,
)
from ..machine.machine import Machine
from ..machine.memory import BusError, PAGE_SIZE
from ..machine.paging import AddressSpace, PageFault, ProtectionFault
from ..obs.events import DRIVER_ABORT
from ..osmodel.kernel import DriverModule
from ..xen.hypervisor import HYP_STACK_PAGES, Hypervisor
from .rewriter import (
    CALL_XLATE_SYMBOL,
    RET_SLOT_SYMBOL,
    RUNTIME_DATA_SYMBOLS,
    SLOW_PATH_SYMBOL,
    SPILL_SYMBOL,
    STACK_FAULT_SYMBOL,
    STACK_HI_SYMBOL,
    STACK_LO_SYMBOL,
    TRANSLATE_SYMBOL,
)
from .svm import (
    SvmManager,
    SvmMapExhausted,
    SvmProtectionFault,
    StackProtectionFault,
)
from .upcall import UpcallAborted


class DriverAborted(Exception):
    """The hypervisor driver instance faulted and was killed; the
    hypervisor itself is unaffected (the safety property of §4.5)."""

    def __init__(self, cause: Exception):
        super().__init__(f"hypervisor driver aborted: {cause}")
        self.cause = cause


class HypAllocator:
    """Bump allocator for hypervisor data (stlb, slots, pools)."""

    def __init__(self, machine: Machine, base: int):
        self.machine = machine
        self.base = base
        self._next = base

    def alloc(self, size: int, align: int = 8) -> int:
        addr = (self._next + align - 1) & ~(align - 1)
        end = addr + size
        page = addr & ~(PAGE_SIZE - 1)
        while page < end:
            if self.machine.hypervisor_table.lookup(page >> 12) is None:
                self.machine.hypervisor_table.map(
                    page >> 12, self.machine.phys.allocate_frame()
                )
            page += PAGE_SIZE
        self._next = end
        return addr


def allocate_runtime_symbols(alloc_fn) -> Dict[str, int]:
    """Allocate the SVM runtime data symbols via ``alloc_fn(size) -> addr``
    (works for both hypervisor data and dom0 module data)."""
    return {name: alloc_fn(size) for name, size in RUNTIME_DATA_SYMBOLS}


def install_elision_hooks(loaded: LoadedProgram, svm: SvmManager,
                          elided_indices) -> None:
    """Count proof-based check elisions at runtime: each execution of a
    ``mov __svm_anchorK, r2`` replacement is one stlb lookup the static
    proof made unnecessary. Hooks compile into the handler once, so the
    uninstrumented hot path is untouched. The sites are also tagged in
    the cycle-attribution profiler so anchor-reload cost shows up as an
    ``svm.anchor`` leaf in flamegraphs."""
    counter = svm._c_elided

    def bump(_cpu, _c=counter):
        _c.value += 1

    for index in elided_indices:
        loaded.instrument[index] = bump
    svm.machine.obs.profiler.tag_sites(loaded, elided_indices, "svm.anchor")


class SvmRuntime:
    """Per-instance SVM runtime: the natives the rewritten code calls and
    the data slots it reads/writes."""

    def __init__(self, machine: Machine, prefix: str, svm: SvmManager,
                 symbols: Dict[str, int], translate_code,
                 data_space: AddressSpace):
        self.machine = machine
        self.svm = svm
        self.symbols = symbols
        self.translate_code = translate_code
        self._data_space = data_space
        self.call_xlate_cache: Dict[int, int] = {}
        self.call_xlate_hits = 0
        self.call_xlate_misses = 0
        # The stlb table, spill slots and the return slot are cache-hot:
        # the SVM fast path touches them on every single memory access.
        lo = min(symbols[name] for name, _ in RUNTIME_DATA_SYMBOLS)
        hi = max(symbols[name] + size for name, size in RUNTIME_DATA_SYMBOLS)
        machine.cpu.add_hot_range(lo, hi)
        self.imports = {
            SLOW_PATH_SYMBOL: machine.register_native(
                f"{prefix}.{SLOW_PATH_SYMBOL}", self._slow_path, cost=60,
            ),
            TRANSLATE_SYMBOL: machine.register_native(
                f"{prefix}.{TRANSLATE_SYMBOL}", self._translate, cost=20,
            ),
            CALL_XLATE_SYMBOL: machine.register_native(
                f"{prefix}.{CALL_XLATE_SYMBOL}", self._call_xlate, cost=12,
            ),
            STACK_FAULT_SYMBOL: machine.register_native(
                f"{prefix}.{STACK_FAULT_SYMBOL}", self._stack_fault,
            ),
        }

    def set_stack_bounds(self, lo: int, hi: int):
        """Program the §4.5.1 stack window for bounds-checked accesses."""
        self._data_space.write_u32(self.symbols[STACK_LO_SYMBOL], lo)
        self._data_space.write_u32(self.symbols[STACK_HI_SYMBOL], hi)

    def _stack_fault(self, cpu: Cpu):
        raise StackProtectionFault(cpu.regs["esp"])

    def _write_ret(self, value: int):
        self._data_space.write_u32(self.symbols[RET_SLOT_SYMBOL], value)

    def _slow_path(self, cpu: Cpu):
        vaddr = cpu.read_stack_arg(0)
        self.svm.handle_miss(vaddr)
        return None              # must not clobber eax

    def _translate(self, cpu: Cpu):
        vaddr = cpu.read_stack_arg(0)
        self._write_ret(self.svm.translate(vaddr))
        return None

    def _call_xlate(self, cpu: Cpu):
        target = cpu.read_stack_arg(0)
        cached = self.call_xlate_cache.get(target)
        if cached is None:
            self.call_xlate_misses += 1
            cached = self.translate_code(target)
            self.call_xlate_cache[target] = cached
        else:
            self.call_xlate_hits += 1
        self._write_ret(cached)
        return None


class HypervisorDriver:
    """Handle on the loaded hypervisor driver instance."""

    def __init__(self, xen: Hypervisor, loaded: LoadedProgram,
                 vm_module: DriverModule, runtime: SvmRuntime,
                 stack_top: int):
        self.xen = xen
        self.loaded = loaded
        self.vm_module = vm_module
        self.runtime = runtime
        self.stack_top = stack_top
        self.code_offset = loaded.base - vm_module.code_base
        self.aborted = False
        self.abort_cause: Optional[Exception] = None
        self.invocations = 0

    def symbol(self, name: str) -> int:
        return self.loaded.symbol(name)

    def entry_for_vm_address(self, vm_addr: int) -> int:
        """Translate a VM-instance code address (e.g. a function pointer
        read from driver data) to the hypervisor instance."""
        return vm_addr + self.code_offset

    def invoke(self, entry: int, args, upcalls=None) -> int:
        """Invoke the hypervisor driver; faults abort the driver but never
        the hypervisor (§4.5)."""
        if self.aborted:
            raise DriverAborted(self.abort_cause)
        if upcalls is not None:
            upcalls.new_invocation()
        self.invocations += 1
        cpu = self.xen.machine.cpu
        self.xen.driver_depth += 1
        try:
            return cpu.call_function(entry, args, stack_top=self.stack_top,
                                     category="e1000")
        except (SvmProtectionFault, SvmMapExhausted, UpcallAborted,
                PageFault, ExecutionFault, CpuBudgetExceeded, BusError,
                ProtectionFault) as exc:
            self.aborted = True
            self.abort_cause = exc
            obs = self.xen.machine.obs
            obs.registry.counter("driver.abort").value += 1
            obs.tracer.emit(DRIVER_ABORT, cause=type(exc).__name__,
                            detail=str(exc))
            raise DriverAborted(exc) from exc
        finally:
            self.xen.driver_depth -= 1
            if self.xen.driver_depth == 0 and not self.aborted:
                # drain softirqs raised while the driver was running
                self.xen.run_softirqs()


class HypervisorLoader:
    """Loads the rewritten driver into the hypervisor (paper §5.2)."""

    def __init__(self, xen: Hypervisor, code_base: int, stack_base: int):
        self.xen = xen
        self.code_base = code_base
        self.stack_base = stack_base

    def load(self, rewritten, vm_module: DriverModule,
             runtime: SvmRuntime,
             support_bindings: Dict[str, int],
             verify_report,
             upcall_factory,
             name: str,
             elided_indices=()) -> HypervisorDriver:
        """``support_bindings`` maps support-routine names to hypervisor
        native addresses; anything else becomes an upcall stub via
        ``upcall_factory(name, dom0_native_addr)``.

        ``verify_report`` is the static verifier's report on the binary;
        one that is not clean is refused with
        :class:`~repro.analysis.report.VerificationError` before anything
        is mapped. There is no unverified load.

        When loading an elision-transformed binary the caller must supply
        the *pre-elision* ``verify_report`` (the transformed code contains
        bare translated accesses the verifier would reject by design) plus
        the transform's ``elided_indices`` for runtime accounting."""
        # direct submodule import: safe during partial package init
        from ..analysis.report import VerificationError
        if not verify_report.ok:
            raise VerificationError(verify_report)
        machine = self.xen.machine
        data_symbols = dict(vm_module.data_symbols)
        # data symbols point into dom0; runtime symbols into hypervisor data
        data_symbols.update(runtime.symbols)

        import_map: Dict[str, int] = dict(runtime.imports)
        for imp in rewritten.imports():
            if imp in import_map:
                continue
            if imp in support_bindings:
                import_map[imp] = support_bindings[imp]
            else:
                dom0_addr = vm_module.import_map.get(imp)
                if dom0_addr is None:
                    raise KeyError(
                        f"no hypervisor binding or upcall target for {imp!r}"
                    )
                import_map[imp] = upcall_factory(imp, dom0_addr)

        loaded = machine.load_linked_program(
            rewritten, self.code_base, symbols=data_symbols,
            extern=import_map, name=name)
        if elided_indices:
            install_elision_hooks(loaded, runtime.svm, elided_indices)

        # Hypervisor driver stack with guard pages on both sides.
        table = machine.hypervisor_table
        for i in range(HYP_STACK_PAGES):
            page = self.stack_base + i * PAGE_SIZE
            if table.lookup(page >> 12) is None:
                table.map(page >> 12, machine.phys.allocate_frame())
        stack_top = self.stack_base + HYP_STACK_PAGES * PAGE_SIZE
        machine.cpu.add_hot_range(self.stack_base, stack_top)
        runtime.set_stack_bounds(self.stack_base, stack_top)

        driver = HypervisorDriver(self.xen, loaded, vm_module, runtime,
                                  stack_top)
        # code translation for indirect calls: VM range -> +offset.
        vm_loaded = vm_module.loaded

        def translate_code(addr: int, _driver=driver) -> int:
            if vm_loaded.base <= addr < vm_loaded.end:
                return addr + _driver.code_offset
            remapped = self._native_remap(vm_module, import_map).get(addr)
            if remapped is not None:
                return remapped
            if loaded.base <= addr < loaded.end:
                return addr
            raise SvmProtectionFault(addr, "indirect call to foreign code")

        runtime.translate_code = translate_code
        return driver

    @staticmethod
    def _native_remap(vm_module: DriverModule,
                      import_map: Dict[str, int]) -> Dict[int, int]:
        """dom0 support-routine addresses -> hypervisor bindings, for
        function pointers stored in shared driver data."""
        remap = {}
        for imp, dom0_addr in vm_module.import_map.items():
            hyp_addr = import_map.get(imp)
            if hyp_addr is not None:
                remap[dom0_addr] = hyp_addr
        return remap
