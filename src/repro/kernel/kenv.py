"""The instruction-emission DSL simulated kernel code is written in.

Kernel functions are Python generators that yield instructions; the
machine executes each yielded instruction against the cache hierarchy.
:class:`KernelEnv` builds those instructions: it assigns every distinct
access site a stable instruction pointer (via the symbol table) so that
profilers see consistent code addresses, and it resolves object fields to
physical addresses through the struct layout.

Example kernel function::

    def skb_put(env, cpu, skb, length):
        fn = "skb_put"
        yield env.read(fn, skb, "tail")
        yield env.write(fn, skb, "tail")
        yield env.write(fn, skb, "len")

Code between ``yield`` statements runs atomically with respect to other
threads (the machine resumes a generator immediately after executing its
instruction, within the same scheduling quantum), which is what makes the
spinlock implementation in :mod:`repro.kernel.locks` sound.
"""

from __future__ import annotations

from repro.hw.events import Instr
from repro.hw.machine import Machine
from repro.kernel.layout import KObject
from repro.kernel.symbols import SymbolTable


class KernelEnv:
    """Builds instructions with stable ips for simulated kernel code.

    Every executed instruction is built here, so ``Instr`` is constructed
    with positional arguments: keyword construction of a dataclass costs
    about three times as much.
    """

    #: Default cache-line stride for bulk copies: one access per line is
    #: what matters to the cache model, whatever the real copy width.
    BULK_STRIDE = 64

    def __init__(self, machine: Machine, symbols: SymbolTable) -> None:
        self.machine = machine
        self.symbols = symbols

    # ------------------------------------------------------------------
    # Field-level accesses (the common case)
    # ------------------------------------------------------------------

    def read(self, fn: str, obj: KObject, field: str, work: int = 1) -> Instr:
        """Load of one struct field."""
        addr, size = obj.field_addr(field)
        ip = self.symbols.ip_for(fn, f"R.{obj.otype.name}.{field}")
        return Instr("load", fn, ip, addr, size, work)

    def write(self, fn: str, obj: KObject, field: str, work: int = 1) -> Instr:
        """Store to one struct field."""
        addr, size = obj.field_addr(field)
        ip = self.symbols.ip_for(fn, f"W.{obj.otype.name}.{field}")
        return Instr("store", fn, ip, addr, size, work)

    def read_range(
        self, fn: str, obj: KObject, offset: int, size: int, work: int = 1
    ) -> Instr:
        """Load of a raw offset range of an object (untyped data)."""
        addr, _ = obj.offset_addr(offset, size)
        ip = self.symbols.ip_for(fn, f"R.{obj.otype.name}+{offset}")
        return Instr("load", fn, ip, addr, size, work)

    def write_range(
        self, fn: str, obj: KObject, offset: int, size: int, work: int = 1
    ) -> Instr:
        """Store to a raw offset range of an object (untyped data)."""
        addr, _ = obj.offset_addr(offset, size)
        ip = self.symbols.ip_for(fn, f"W.{obj.otype.name}+{offset}")
        return Instr("store", fn, ip, addr, size, work)

    # ------------------------------------------------------------------
    # Raw-address accesses (page tables, static data, lock words, ...)
    # ------------------------------------------------------------------

    def read_at(self, fn: str, site: str, addr: int, size: int, work: int = 1) -> Instr:
        """Load of an arbitrary address under an explicit site label."""
        return Instr("load", fn, self.symbols.ip_for(fn, site), addr, size, work)

    def write_at(self, fn: str, site: str, addr: int, size: int, work: int = 1) -> Instr:
        """Store to an arbitrary address under an explicit site label."""
        return Instr("store", fn, self.symbols.ip_for(fn, site), addr, size, work)

    # ------------------------------------------------------------------
    # Compute and bulk helpers
    # ------------------------------------------------------------------

    def work(self, fn: str, cycles: int, site: str = "compute") -> Instr:
        """Pure compute: burns *cycles* without touching memory."""
        return Instr("exec", fn, self.symbols.ip_for(fn, site), 0, 0, cycles)

    def bulk(
        self,
        fn: str,
        obj: KObject,
        offset: int,
        length: int,
        write: bool,
        stride: int | None = None,
        work_per_access: int = 1,
    ):
        """Yield one access per cache line over [offset, offset+length).

        Models memcpy-style bulk transfers (packet payload copies): the
        cache sees one access per line regardless of the copy width, so a
        line-stride walk reproduces the right miss behaviour at a fraction
        of the simulation cost.
        """
        stride = stride or self.BULK_STRIDE
        pos = offset
        end = offset + length
        while pos < end:
            size = min(8, end - pos)
            if write:
                yield self.write_range(fn, obj, pos, size, work=work_per_access)
            else:
                yield self.read_range(fn, obj, pos, size, work=work_per_access)
            pos += stride

    # ------------------------------------------------------------------
    # Clock access
    # ------------------------------------------------------------------

    def cycle(self, cpu: int) -> int:
        """Current cycle count (RDTSC) of core *cpu*."""
        return self.machine.cores[cpu].cycle
