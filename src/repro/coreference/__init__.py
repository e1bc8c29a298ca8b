"""Co-reference resolution substrate (local stand-in for sameas.org)."""

from .service import CoReferenceError, SameAsService
from .unionfind import UnionFind

__all__ = [
    "UnionFind",
    "SameAsService",
    "CoReferenceError",
]
