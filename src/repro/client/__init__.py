"""Client API: sessions, prepared programs and plan caching.

Create sessions through :meth:`repro.PolystorePlusPlus.session`; the classes
here are what it hands back.
"""

from repro.client.cache import CachedPlan, PlanCache, ScanSnapshot
from repro.client.session import PreparedProgram, Session

__all__ = [
    "Session",
    "PreparedProgram",
    "PlanCache",
    "ScanSnapshot",
    "CachedPlan",
]
