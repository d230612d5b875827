"""Symbol table: function names <-> fake instruction pointers.

Profilers work in instruction pointers; programmers think in function
names.  Real DProf resolves ips through the kernel's symbol table; here we
invert the construction: every simulated kernel function reserves an ip
region, and each distinct access site inside it interns a stable ip.
Stable ips are essential -- DProf aggregates access samples and object
access histories by (type, offset, ip), and merges execution paths by ip
sequence, so the same source line must produce the same ip on every run.
"""

from __future__ import annotations

from repro.errors import ResolveError

#: Size of the ip region reserved per function ("function length").
FUNCTION_REGION = 4096

#: Base of the fake kernel text segment.
TEXT_BASE = 0xFFFF_0000_0000


class SymbolTable:
    """Interns (function, site) pairs as stable instruction pointers."""

    def __init__(self) -> None:
        self._fn_base: dict[str, int] = {}
        self._fn_sites: dict[str, dict[str, int]] = {}
        self._ip_to_sym: dict[int, tuple[str, str]] = {}
        #: (fn, site) -> ip: kernel code asks for a site's ip on every
        #: instruction it emits, so each site is interned only once.
        self._ips: dict[tuple[str, str], int] = {}
        self._next_base = TEXT_BASE

    def ip_for(self, fn: str, site: str) -> int:
        """Return the stable ip of access site *site* inside function *fn*."""
        ip = self._ips.get((fn, site))
        if ip is None:
            ip = self._intern(fn, site)
        return ip

    def _intern(self, fn: str, site: str) -> int:
        base = self._fn_base.get(fn)
        if base is None:
            base = self._next_base
            self._fn_base[fn] = base
            self._fn_sites[fn] = {}
            self._next_base += FUNCTION_REGION
        sites = self._fn_sites[fn]
        offset = sites.get(site)
        if offset is None:
            offset = len(sites) + 1
            if offset >= FUNCTION_REGION:
                raise ResolveError(f"function {fn} exceeded {FUNCTION_REGION} sites")
            sites[site] = offset
        ip = base + offset
        self._ip_to_sym[ip] = (fn, site)
        self._ips[(fn, site)] = ip
        return ip

    def resolve(self, ip: int) -> str:
        """Function name containing *ip* (what OProfile prints)."""
        sym = self._ip_to_sym.get(ip)
        if sym is None:
            raise ResolveError(f"ip {ip:#x} is not a known symbol")
        return sym[0]

    def resolve_site(self, ip: int) -> tuple[str, str]:
        """(function, site) pair for *ip*."""
        sym = self._ip_to_sym.get(ip)
        if sym is None:
            raise ResolveError(f"ip {ip:#x} is not a known symbol")
        return sym

    def try_resolve(self, ip: int) -> str | None:
        """Like :meth:`resolve` but returns None for unknown ips."""
        sym = self._ip_to_sym.get(ip)
        return sym[0] if sym else None

    def functions(self) -> list[str]:
        """Every function that has interned at least one site."""
        return list(self._fn_base.keys())
