"""Exact cross-layer cycle attribution (``repro.obs.prof``).

Every simulated cycle in the machine funnels through one method —
``CycleAccount.charge`` — whether it comes from the interpreter's
per-instruction costs, a native support routine, the hypervisor's
mechanism costs, or a kernel model. The profiler exploits that choke
point: :meth:`Profiler.enable` shadows the account's ``charge`` with a
recording closure (an *instance* attribute, so the class method and
every disabled-mode code path stay byte-identical; while it is there
``CycleAccount.shadowed`` holds, and the interpreter, which otherwise
adds its charges up, charges each cost item on its own), and
:meth:`Profiler.disable` restores whatever ``charge`` resolved to
before — the bare class method, or a pre-existing instance shadow such
as a fault-injection hook, which the recorder chains to rather than
bypassing. While enabled, each charge
is attributed to a key of

    ``(category, context, pc)``

where ``category`` is the paper's profile category (``dom0`` / ``domU``
/ ``Xen`` / ``e1000``), ``context`` is a small stack of coarse frames,
and ``pc`` is the interpreter's program counter at charge time. Frames
come from two places: :meth:`repro.obs.Obs.charge` pushes a charge's
``phase``, written in full as the profile shows it (``xen:hypercall``,
``kernel:tx_stack``, ``netback:tx``, ``twin:rx_copy``), and the
interpreter pushes ``native:<routine>`` around each native-routine
invocation. Because the recording closure calls the original
``charge`` first and adds exactly the cycles it accepted, per-category
sample sums equal the ``cycles.*`` counter movement **bit-exactly, by
construction** — the figure 7/8 profiles are regenerated from profiler
output and asserted against the account.

Symbolization is lazy (at :meth:`Profiler.snapshot` time): a pc inside
a loaded program resolves through the :class:`CodeRegistry` to the
nearest exported function label (``.globl``) at or below it, falling
back to any label, then the program name. The interpreter advances
``eip`` to the fall-through address *before* a handler charges, so a
sample's pc is the successor of the instruction that paid — attribution
granularity is the enclosing function and the skew is one instruction
at function boundaries. Proof-elided SVM check sites registered via
:meth:`Profiler.tag_sites` get an extra ``svm.anchor`` leaf frame so
elision cost is visible in flamegraphs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Schema tag of the profile document.
PROFILE_SCHEMA = "repro-profile/v1"

#: ``cpu.eip`` parks here whenever no driver code is being interpreted
#: (kept in sync with ``machine.cpu.SENTINEL_RETURN`` — re-declared to
#: avoid importing the machine layer into the observability layer).
_SENTINEL_RETURN = 0xDEAD0000

#: sentinel distinguishing "no prior ``charge`` shadow existed" from a
#: saved shadow that is literally ``None``.
_NO_SHADOW = object()


class Profiler:
    """Cycle-attribution recorder for one machine's :class:`CycleAccount`.

    Zero-cost while disabled: nothing is installed anywhere, the
    account's ``charge`` resolves to the plain class method, and the
    two places that push frames (``Obs.charge`` and the interpreter's
    native frame) test ``enabled`` once.
    """

    def __init__(self, registry=None):
        self.enabled = False
        self.registry = registry
        self._cpu = None
        self._account = None
        #: the recording closure we installed (identity-checked on
        #: disable so a foreign shadow stacked on top is detected).
        self._installed = None
        #: prior ``charge`` instance attribute, saved at enable time and
        #: restored on disable (``_NO_SHADOW`` when there was none).
        self._saved_shadow = _NO_SHADOW
        #: (category, context, pc) -> [cycles, charges]
        self._samples: Dict[Tuple, List[int]] = {}
        #: current coarse context, rebuilt as a tuple on (rare) push/pop
        #: so the recording closure reads one attribute.
        self._ctx: Tuple[str, ...] = ()
        #: pc -> tag for sites with special meaning (svm.anchor).
        self._site_tags: Dict[int, str] = {}
        self._sym_cache: Dict[int, Optional[str]] = {}
        self._sym_epoch = -1

    # -- wiring --------------------------------------------------------------

    def bind(self, cpu, account):
        """Attach to a machine's CPU (for pc capture and symbolization)
        and cycle account (the charge choke point)."""
        self._cpu = cpu
        self._account = account

    def tag_sites(self, loaded, indices, tag: str):
        """Mark instruction sites (by index into ``loaded``) whose charges
        should carry an extra leaf frame ``tag``. Charges happen with
        ``eip`` already advanced, so the fall-through address is the key
        that matches instruction ``i`` exactly."""
        for index in indices:
            self._site_tags[loaded.next_addrs[index]] = tag

    # -- recording -----------------------------------------------------------

    def enable(self):
        """Install the recording charge on top of whatever ``charge``
        currently resolves to (the class method, or a prior instance
        shadow such as a fault-injection hook, which is saved and
        chained to). Double-enable is refused: the closure would record
        every charge twice and ``disable`` could not unwind the pair."""
        if self._account is None:
            raise RuntimeError("profiler is not bound to a machine")
        if self.enabled:
            raise RuntimeError(
                "profiler is already enabled; disable() it first")
        account = self._account
        # the currently-effective charge: a prior instance shadow if one
        # is installed, else the plain bound class method. Chaining to
        # it (instead of the raw class method) keeps stacked shadows --
        # fault injection, a second recorder -- live while profiling.
        prior_charge = account.charge
        self._saved_shadow = (prior_charge if account.shadowed
                              else _NO_SHADOW)
        cpu = self._cpu
        samples = self._samples

        def recording_charge(category, cycles, _prior=prior_charge,
                             _cpu=cpu, _samples=samples, _prof=self):
            _prior(category, cycles)
            key = (category, _prof._ctx, _cpu.eip)
            cell = _samples.get(key)
            if cell is None:
                _samples[key] = [cycles, 1]
            else:
                cell[0] += cycles
                cell[1] += 1

        account.charge = recording_charge
        self._installed = recording_charge
        self.enabled = True

    def disable(self):
        """Remove the recording charge and restore whatever shadowed
        ``charge`` before :meth:`enable` (or the bare class method).
        Idempotent when not enabled; raises if something else shadowed
        ``charge`` on top of the profiler, since popping would delete
        the wrong layer."""
        if not self.enabled:
            return
        account = self._account
        if account.charge is not self._installed:
            raise RuntimeError(
                "another charge shadow was installed on top of the "
                "profiler; remove it before disable()")
        if self._saved_shadow is _NO_SHADOW:
            del account.charge
        else:
            account.charge = self._saved_shadow
        self._installed = None
        self._saved_shadow = _NO_SHADOW
        self.enabled = False

    def reset(self):
        self._samples = {}
        self._ctx = ()
        if self.enabled:
            # the recording closure captured the old dict; reinstall
            self.disable()
            self.enable()

    # -- context frames ------------------------------------------------------

    def push_phase(self, name: str):
        self._ctx = self._ctx + (name,)

    def pop_phase(self):
        self._ctx = self._ctx[:-1]

    # -- symbolization -------------------------------------------------------

    def _symbolize(self, pc: Optional[int]) -> Optional[str]:
        if pc is None or self._cpu is None:
            return None
        code = self._cpu.code
        if code.epoch != self._sym_epoch:
            self._sym_cache.clear()
            self._sym_epoch = code.epoch
        if pc in self._sym_cache:
            return self._sym_cache[pc]
        sym = None
        if code.contains(pc):
            try:
                loaded = code.program_at(pc)
            except Exception:
                loaded = None
            if loaded is not None:
                best, best_addr = None, -1
                for name in loaded.program.globals_:
                    addr = loaded.symbols.get(name)
                    if addr is not None and best_addr < addr <= pc:
                        best, best_addr = name, addr
                if best is None:
                    for name, addr in loaded.symbols.items():
                        if best_addr < addr <= pc:
                            best, best_addr = name, addr
                sym = (f"{loaded.name}:{best}" if best is not None
                       else loaded.name)
        self._sym_cache[pc] = sym
        return sym

    # -- views ---------------------------------------------------------------

    def category_totals(self) -> Dict[str, int]:
        """Per-category cycle sums over the recorded samples. Equal to
        the ``cycles.*`` counter movement over the enabled window."""
        totals: Dict[str, int] = {}
        for (category, _ctx, _pc), (cycles, _n) in self._samples.items():
            totals[category] = totals.get(category, 0) + cycles
        return totals

    @property
    def total(self) -> int:
        return sum(cell[0] for cell in self._samples.values())

    def snapshot(self, meta: Optional[Dict] = None) -> Dict:
        """The profile document: per-category totals plus every sample
        with its symbolized stack, sorted by cycles descending."""
        samples = []
        for (category, ctx, pc), (cycles, count) in self._samples.items():
            pc_out = (None if pc is None or pc == _SENTINEL_RETURN else pc)
            sym = self._symbolize(pc_out)
            stack = [category]
            stack.extend(ctx)
            if sym is not None:
                stack.append(sym)
            tag = self._site_tags.get(pc) if pc is not None else None
            if tag is not None:
                stack.append(tag)
            samples.append({
                "layer": category,
                "stack": stack,
                "symbol": sym or (ctx[-1] if ctx else category),
                "pc": pc_out,
                "cycles": cycles,
                "count": count,
            })
        samples.sort(key=lambda s: (-s["cycles"], s["stack"]))
        return {
            "schema": PROFILE_SCHEMA,
            "meta": dict(meta or {}),
            "categories": self.category_totals(),
            "total": self.total,
            "samples": samples,
        }


# -- aggregations over profile documents ------------------------------------


def load_profile(path: str) -> Dict:
    import json

    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError(
            f"{path}: not a {PROFILE_SCHEMA} document "
            f"(schema={doc.get('schema')!r})"
        )
    return doc


def collapsed_stacks(doc: Dict) -> Dict[str, List[int]]:
    """Fold samples by semicolon-joined stack: the flamegraph input
    format. Returns ``{folded_stack: [cycles, count]}``."""
    folded: Dict[str, List[int]] = {}
    for s in doc["samples"]:
        key = ";".join(s["stack"])
        cell = folded.get(key)
        if cell is None:
            folded[key] = [s["cycles"], s["count"]]
        else:
            cell[0] += s["cycles"]
            cell[1] += s["count"]
    return folded


def format_collapsed(doc: Dict) -> str:
    folded = collapsed_stacks(doc)
    return "\n".join(f"{stack} {cycles}"
                     for stack, (cycles, _n) in sorted(folded.items()))


def call_tree(doc: Dict) -> Dict:
    """Nest samples into ``{name, self, total, children}`` by stack
    prefix. ``self`` is cycles attributed exactly at that frame,
    ``total`` includes descendants."""
    root = {"name": "all", "self": 0, "total": 0, "children": {}}
    for s in doc["samples"]:
        root["total"] += s["cycles"]
        node = root
        for frame in s["stack"]:
            child = node["children"].get(frame)
            if child is None:
                child = node["children"][frame] = {
                    "name": frame, "self": 0, "total": 0, "children": {},
                }
            child["total"] += s["cycles"]
            node = child
        node["self"] += s["cycles"]
    return root


def format_tree(doc: Dict, min_share: float = 0.002) -> str:
    """Render the call tree, pruning frames below ``min_share`` of the
    profile total."""
    root = call_tree(doc)
    grand = root["total"] or 1
    lines = [f"total: {root['total']} cycles"]

    def walk(node, depth):
        children = sorted(node["children"].values(),
                          key=lambda c: (-c["total"], c["name"]))
        for child in children:
            if child["total"] / grand < min_share:
                continue
            pct = 100.0 * child["total"] / grand
            lines.append(
                f"{'  ' * depth}{child['name']:<40s} "
                f"{child['total']:>12d} ({pct:5.1f}%)  self={child['self']}"
            )
            walk(child, depth + 1)

    walk(root, 1)
    return "\n".join(lines)


def diff_profiles(a: Dict, b: Dict) -> List[Dict]:
    """Per-stack cycle movement from ``a`` to ``b``, largest absolute
    delta first."""
    fa = {k: v[0] for k, v in collapsed_stacks(a).items()}
    fb = {k: v[0] for k, v in collapsed_stacks(b).items()}
    rows = []
    for stack in sorted(set(fa) | set(fb)):
        before, after = fa.get(stack, 0), fb.get(stack, 0)
        if before == after:
            continue
        rows.append({"stack": stack, "before": before, "after": after,
                     "delta": after - before})
    rows.sort(key=lambda r: (-abs(r["delta"]), r["stack"]))
    return rows


def format_diff(a: Dict, b: Dict, limit: int = 30) -> str:
    rows = diff_profiles(a, b)
    ta, tb = a.get("total", 0), b.get("total", 0)
    lines = [f"total: {ta} -> {tb} ({tb - ta:+d} cycles)"]
    for r in rows[:limit]:
        lines.append(f"{r['delta']:>+12d}  {r['before']:>10d} -> "
                     f"{r['after']:<10d}  {r['stack']}")
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more changed stacks")
    return "\n".join(lines)
