"""Versioned, integrity-checked checkpoint framing.

A checkpoint is a self-describing binary blob::

    MAGIC (8 bytes) | header length (4 bytes, big-endian) | header JSON | payload

The header records the format version, a *kind* tag (``"simulator"``,
``"campaign"``, ...), the pickle protocol, the SHA-256 of the payload,
and optional caller metadata.  :func:`load_checkpoint` refuses blobs
whose magic, version, kind, or payload digest do not match, so a
truncated write or a blob from a future format fails loudly instead of
unpickling garbage.

The payload itself is a pickle of the live object graph.  Everything the
simulator schedules is picklable by construction — callbacks are bound
methods or :func:`functools.partial` objects, never lambdas — so a
checkpoint captures the event queue, RNG streams, clock, and all node /
addrman / churn state in one pass, and a restored run is bit-identical
to an uninterrupted one (pinned by the determinism tests).

This module is deliberately stdlib-only: the simulation core imports it
lazily and must not pull the rest of :mod:`repro.store` (which imports
the pipeline layer) into ``repro.simnet``'s import graph.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from typing import Any, Dict, Optional

from ..errors import CheckpointError

#: Bump on any incompatible change to the framing or to what the
#: simulator payload is expected to contain.
CHECKPOINT_FORMAT = 1

MAGIC = b"RPRCKPT\x01"

#: Pinned pickle protocol: the checkpoint digest of identical state must
#: not change when the interpreter's default protocol does.
PICKLE_PROTOCOL = 4

_HEADER_LEN_BYTES = 4
_MAX_HEADER = 1 << 20


#: The pure-Python pickler: the C pickler's dedicated ``set`` fast path
#: never consults ``reducer_override``, so canonicalization needs the
#: Python implementation (present in every supported CPython).
_PicklerBase = getattr(pickle, "_Pickler", pickle.Pickler)


class _CanonicalPickler(_PicklerBase):
    """A pickler that writes sets in sorted element order.

    A set's iteration order depends on its insertion history, so two
    *equal* sets — one grown live, one rebuilt by unpickling a
    checkpoint — can pickle to different bytes.  Emitting elements in
    sorted order makes equal simulation states produce equal checkpoint
    bytes (and therefore equal content-store digests), which is what
    lets ``store diff`` prove a resumed run matches an uninterrupted
    one.  Sets with unorderable elements fall back to default pickling.
    """

    def reducer_override(self, obj: Any):
        kind = type(obj)
        if kind is set or kind is frozenset:
            try:
                return (kind, (sorted(obj),))
            except TypeError:
                return NotImplemented
        return NotImplemented


def _dumps_canonical(obj: Any, *, aliasing: bool = True) -> bytes:
    buf = io.BytesIO()
    pickler = _CanonicalPickler(buf, protocol=PICKLE_PROTOCOL)
    if not aliasing:
        pickler.fast = 1
    pickler.dump(obj)
    return buf.getvalue()


def dump_checkpoint(
    obj: Any,
    *,
    kind: str,
    meta: Optional[Dict[str, Any]] = None,
    aliasing: bool = True,
) -> bytes:
    """Serialize ``obj`` into a framed, digest-protected checkpoint.

    ``aliasing=False`` emits a memo-free pickle: every occurrence of a
    shared object is written out in full instead of as a back-reference.
    Object graphs that are *equal* but share substructure differently —
    a result merged from an unpickled checkpoint plus freshly built
    levels vs. one built in a single process (where interned strings and
    reused specs alias) — then serialize to equal bytes, which is what
    digest-based result comparison needs.  Only valid for acyclic
    payloads; simulator state (cyclic by construction) must keep the
    memo.
    """
    payload = _dumps_canonical(obj, aliasing=aliasing)
    header = {
        "format": CHECKPOINT_FORMAT,
        "kind": kind,
        "pickle_protocol": PICKLE_PROTOCOL,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "meta": meta if meta is not None else {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(len(header_bytes).to_bytes(_HEADER_LEN_BYTES, "big"))
    out.write(header_bytes)
    out.write(payload)
    return out.getvalue()


def read_header(data: bytes) -> Dict[str, Any]:
    """Parse and validate the header without unpickling the payload."""
    if len(data) < len(MAGIC) + _HEADER_LEN_BYTES:
        raise CheckpointError("checkpoint too short to contain a header")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError("bad checkpoint magic (not a repro checkpoint)")
    offset = len(MAGIC)
    header_len = int.from_bytes(
        data[offset : offset + _HEADER_LEN_BYTES], "big"
    )
    if header_len > _MAX_HEADER:
        raise CheckpointError(f"implausible header length {header_len}")
    offset += _HEADER_LEN_BYTES
    raw = data[offset : offset + header_len]
    if len(raw) != header_len:
        raise CheckpointError("checkpoint truncated inside the header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header: not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {header.get('format')!r} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    for name, kind in (("payload_bytes", int), ("payload_sha256", str)):
        if not isinstance(header.get(name), kind):
            raise CheckpointError(f"corrupt checkpoint header: bad {name!r}")
    header["_payload_offset"] = offset + header_len
    return header


def load_checkpoint(data: bytes, *, expect_kind: Optional[str] = None) -> Any:
    """Validate ``data`` and return the unpickled object."""
    header = read_header(data)
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise CheckpointError(
            f"checkpoint kind {header.get('kind')!r}, expected {expect_kind!r}"
        )
    payload = data[header["_payload_offset"] :]
    if len(payload) != header["payload_bytes"]:
        raise CheckpointError(
            f"checkpoint payload truncated: {len(payload)} of "
            f"{header['payload_bytes']} bytes"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointError("checkpoint payload digest mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # a crafted payload can raise anything
        raise CheckpointError(
            f"checkpoint payload does not unpickle: {type(exc).__name__}: {exc}"
        ) from exc
