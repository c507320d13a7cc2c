"""Content-addressed persistence of compiled weight programs and
per-core calibration state.

A compiled program is a pure function of (weights, core geometry, ADC
precision, technology, calibration epoch): everything
:class:`~repro.runtime.engine.CompiledCore` snapshots — the dense
response matrix, the exact bisected code ladders, the drift trims — is
already detached from the device.  Entries are
:class:`~repro.runtime.tiling.TiledMatmul` grids of such snapshots
(every dense program, in-grid ones included) or
:class:`~repro.runtime.tiling.DifferentialProgram` pairs of grids.
:class:`ProgramStore` writes each to disk as one file, ``<digest>.bin``
(store format 3), keyed by a blake2b digest of the cache key and a
:func:`core_fingerprint` of the compiling core, so a fresh session — or
another process — restores the program bit-for-bit instead of
recompiling.  The file holds, in order:

1. one fixed line, ``repro-program-store 3 <checksum>``: the blake2b
   (32 hex digits) of every byte after the line;
2. one JSON header line: kind, digest, fingerprint, calibration epoch,
   the scalars (``meta``) and each array's ``[name, dtype, shape]``;
3. the payload: every array, little-endian float64 or int64,
   concatenated in sorted-name order.

A restore is one read of that file, and a save writes one private temp
file and renames it into place.

Integrity is checked on every load: the checksum first, before any
JSON is parsed or any array built (nothing is unzipped or unpickled),
then the header and the payload layout.  Any damage, header scalars
included, or an entry of another store format (a format-2
``<digest>.bin`` is a bare payload) raises
:class:`~repro.errors.CorruptProgramError`; an entry compiled under a
different calibration epoch raises
:class:`~repro.errors.StaleProgramError` (its compensation snapshot no
longer describes the hardware trims).  Serving paths catch
:class:`~repro.errors.ProgramStoreError` and fall back to a cold
compile; the fresh program then overwrites the stale or damaged entry
(an unknown kind, such as a retired one, counts as damaged).  Format-1
entries (``<digest>.npz``) are never opened: they read as misses.

Calibration records travel separately (:meth:`ProgramStore.
save_calibration`): a small JSON file per core label holding the
drift epoch, compensation trims, and modelled age, so a replacement
core can adopt the fleet's calibration state before warm-starting
programs compiled under it — the persisted ADC register-map idiom of
deployable in-memory compute.  Records carry their own format number
(still 2): their layout did not change with the program entries'.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from ..config import Technology
from ..errors import (
    ConfigurationError,
    CorruptProgramError,
    ProgramStoreError,
    StaleProgramError,
)
from ..health.drift import DriftState
from ..runtime.tiling import DifferentialProgram, TiledMatmul

#: Entry layout version, named in every entry's first line; bumped on
#: any layout change so old entries are rejected as corrupt instead of
#: misread.
STORE_FORMAT = 3

#: Calibration record layout version, kept apart from
#: :data:`STORE_FORMAT` so a program-entry change leaves records valid.
_CALIBRATION_FORMAT = 2

_KINDS = ("tiled", "differential")

#: The only payload dtypes a header may name (8 bytes each).
_DTYPES = ("<f8", "<i8")

#: An entry's first line is this prefix, the blake2b (32 hex digits) of
#: every byte after the line, and a newline; the header line starts at
#: :data:`_HEADER_AT`.
_MAGIC = f"repro-program-store {STORE_FORMAT} ".encode()
_HEADER_AT = len(_MAGIC) + 33


def core_fingerprint(
    technology: Technology,
    rows: int,
    columns: int,
    weight_bits: int,
    adc_bits: int,
) -> str:
    """The identity of a compiling core, as a short stable digest.

    Two cores share a fingerprint exactly when a program compiled on
    one is valid on the other: same grid geometry, same weight/ADC
    precision, same technology parameters (the dataclass ``repr`` is a
    deterministic dump of every spec field).
    """
    payload = (
        f"{int(rows)}x{int(columns)}|w{int(weight_bits)}|a{int(adc_bits)}"
        f"|{technology!r}"
    )
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def _flatten_arrays(state: dict[str, Any], prefix: str = "") -> dict[str, np.ndarray]:
    """Collect ``state["arrays"]`` under dotted ``prefix`` keys."""
    return {f"{prefix}{name}": array for name, array in state["arrays"].items()}


def _checksum(data: bytes | memoryview) -> bytes:
    return hashlib.blake2b(data, digest_size=16).hexdigest().encode()


def _seal(header: dict[str, Any], chunks: list[bytes]) -> bytes:
    """One entry's bytes: the first line, sealing the header line and
    the payload ``chunks`` that follow it."""
    body = b"".join([json.dumps(header).encode(), b"\n", *chunks])
    return _MAGIC + _checksum(body) + b"\n" + body


def _unpack(raw: bytes, offset: int, header: dict[str, Any]) -> dict[str, np.ndarray]:
    """The arrays the header's ``[name, dtype, shape]`` rows carve out
    of ``raw`` from ``offset`` on (read-only views); the rows must cover
    the rest of ``raw`` exactly with :data:`_DTYPES` arrays."""
    arrays = {}
    for name, dtype, shape in header["arrays"]:
        if dtype not in _DTYPES or not all(type(n) is int and n >= 0 for n in shape):
            raise CorruptProgramError(f"array {name!r} is {dtype!r} of shape {shape!r}")
        count = math.prod(shape)
        arrays[name] = np.frombuffer(raw, dtype, count, offset).reshape(shape)
        offset += 8 * count
    if offset != len(raw):
        raise CorruptProgramError(f"layout ends at byte {offset} of {len(raw)}")
    return arrays


class ProgramStore:
    """A directory of persisted compiled programs + calibration records.

    Every public accessor either returns the requested object or
    raises a typed :class:`~repro.errors.ProgramStoreError`;
    absence is ``None`` (a miss, not an error).  Counters
    (``saves``/``save_skips``/``restores``/``misses``/
    ``stale_rejects``/``corrupt_rejects``/``write_failures``) make
    warm-start behaviour observable in tests and benches.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: ``root`` as a string ending in a separator: entry paths are
        #: one concatenation, not a ``Path`` join per call.
        self._prefix = os.path.join(self.root, "")
        #: Entries written (excluding skipped already-present saves).
        self.saves = 0
        #: Saves skipped because a same-epoch entry already exists.
        self.save_skips = 0
        #: Programs successfully restored.
        self.restores = 0
        #: Lookups that found no entry.
        self.misses = 0
        #: Loads rejected for a calibration-epoch mismatch.
        self.stale_rejects = 0
        #: Loads rejected for damaged, unreadable or other-format entries.
        self.corrupt_rejects = 0
        #: Entry or record writes the file system refused.
        self.write_failures = 0
        #: Digests whose last load raised CorruptProgramError: the next
        #: save overwrites them even when the header's epoch matches.
        self._damaged: set[str] = set()

    # -- addressing ----------------------------------------------------------
    def digest(self, key: bytes, fingerprint: str) -> str:
        """Content address of one (cache key, core fingerprint) entry."""
        return hashlib.blake2b(
            fingerprint.encode() + b"|" + key, digest_size=16
        ).hexdigest()

    def _entry_path(self, digest: str) -> str:
        return f"{self._prefix}{digest}.bin"

    def _write(self, path: str | Path, data: bytes) -> None:
        """Write ``path`` atomically through a private temp file (a fresh
        random name, created exclusively, with the usual umask mode), so
        two writers of one entry never share or rename away a temp file.
        A write the file system refuses (say, a directory in the entry's
        place) removes the temp file, counts in ``write_failures`` and
        raises :class:`~repro.errors.ProgramStoreError`."""
        tmp = f"{self._prefix}.{os.urandom(8).hex()}.tmp"
        try:
            with open(tmp, "xb") as file:
                file.write(data)
            os.replace(tmp, path)
        except OSError as error:
            Path(tmp).unlink(missing_ok=True)
            self.write_failures += 1
            raise ProgramStoreError(f"cannot write {path}: {error}") from error
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def __len__(self) -> int:
        """Persisted program entries: regular ``.bin`` files (a
        directory in an entry's place is not one)."""
        return sum(1 for path in self.root.glob("*.bin") if path.is_file())

    def contains(self, key: bytes, fingerprint: str) -> bool:
        """Whether an entry exists (without validating it)."""
        return os.path.exists(self._entry_path(self.digest(key, fingerprint)))

    # -- programs ------------------------------------------------------------
    def save(
        self,
        key: bytes,
        program: TiledMatmul | DifferentialProgram,
        *,
        fingerprint: str,
    ) -> str:
        """Persist one compiled program; returns its digest.

        Content-addressed writes are idempotent: when a valid entry
        with the same calibration epoch already exists the write is
        skipped (``save_skips``), while a stale entry, or one a load
        rejected as damaged, is overwritten atomically.  A write that
        fails raises :class:`~repro.errors.ProgramStoreError`.
        """
        kind, epoch, state = self._disassemble(program)
        digest = self.digest(key, fingerprint)
        path = self._entry_path(digest)
        if digest not in self._damaged and self._peek_epoch(path) == epoch:
            self.save_skips += 1
            return digest
        layout = []
        chunks = []
        for name, array in sorted(self._state_arrays(kind, state).items()):
            array = array.astype(array.dtype.newbyteorder("<"), copy=False)
            layout.append([name, array.dtype.str, list(array.shape)])
            chunks.append(array.tobytes())
        header = {
            "kind": kind,
            "digest": digest,
            "fingerprint": fingerprint,
            "calibration_epoch": epoch,
            "meta": self._state_meta(kind, state),
            "arrays": layout,
        }
        self._write(path, _seal(header, chunks))
        self._damaged.discard(digest)
        self.saves += 1
        return digest

    def load(
        self,
        key: bytes,
        *,
        fingerprint: str,
        epoch: int,
        technology: Technology,
        drift_state: DriftState | None = None,
    ) -> TiledMatmul | DifferentialProgram | None:
        """Restore one compiled program, or ``None`` when absent.

        ``epoch`` is the requesting core's *current* calibration epoch;
        an entry persisted under any other epoch raises
        :class:`~repro.errors.StaleProgramError`.  ``drift_state``
        rebinds restored engines to the requesting core's live drift
        trajectory.  Damaged entries, and entries that exist but cannot
        be read, raise :class:`~repro.errors.CorruptProgramError`, and
        the next :meth:`save` of the digest overwrites them.
        """
        digest = self.digest(key, fingerprint)
        try:
            try:
                with open(self._entry_path(digest), "rb") as file:
                    raw = file.read()
            except FileNotFoundError:
                self.misses += 1
                return None
            except OSError as error:
                raise CorruptProgramError(
                    f"store entry {digest}.bin cannot be read: {error}; "
                    f"delete the entry and recompile"
                ) from error
            header, offset = self._read_header(raw, digest)
            if header["calibration_epoch"] != int(epoch):
                self.stale_rejects += 1
                raise StaleProgramError(
                    f"store entry {digest} was compiled under calibration epoch "
                    f"{header['calibration_epoch']}, core is at epoch {epoch}; "
                    f"recompile (the fresh program overwrites this entry)"
                )
            arrays = self._read_arrays(raw, offset, header, digest)
            program = self._assemble(header, arrays, technology, drift_state)
        except CorruptProgramError:
            self.corrupt_rejects += 1
            self._damaged.add(digest)
            raise
        self.restores += 1
        return program

    # -- calibration records -------------------------------------------------
    def _calibration_path(self, label: str) -> Path:
        digest = hashlib.blake2b(label.encode(), digest_size=8).hexdigest()
        return self.root / f"calibration-{digest}.json"

    def save_calibration(self, label: str, state: DriftState) -> Path:
        """Persist one core's calibration state (epoch, compensation
        trims, modelled age) under ``label``; returns the record path."""
        compensation = state.compensation
        record = {
            "format": _CALIBRATION_FORMAT,
            "label": label,
            "epoch": int(state.epoch),
            "elapsed_s": float(state.elapsed_s),
            "inferences": int(state.inferences),
            "compensation": [
                float(compensation.current_scale),
                float(compensation.gain_scale),
                float(compensation.voltage_offset),
            ],
        }
        path = self._calibration_path(label)
        self._write(path, (json.dumps(record, indent=2) + "\n").encode())
        return path

    def load_calibration(self, label: str) -> dict[str, Any] | None:
        """The persisted calibration record for ``label``, or ``None``."""
        path = self._calibration_path(label)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self.corrupt_rejects += 1
            raise CorruptProgramError(
                f"calibration record for {label!r} is unreadable: {error}; "
                f"delete {path} and re-save"
            ) from error
        if (
            not isinstance(record, dict)
            or record.get("format") != _CALIBRATION_FORMAT
            or not isinstance(record.get("compensation"), list)
            or len(record["compensation"]) != 3
        ):
            self.corrupt_rejects += 1
            raise CorruptProgramError(
                f"calibration record for {label!r} has an unexpected layout; "
                f"delete {path} and re-save"
            )
        return record

    def apply_calibration(self, label: str, state: DriftState) -> bool:
        """Load ``label``'s record into a live
        :class:`~repro.health.DriftState` (:meth:`~repro.health.
        DriftState.restore`); returns whether a record was found."""
        record = self.load_calibration(label)
        if record is None:
            return False
        state.restore(
            epoch=int(record["epoch"]),
            compensation=tuple(float(v) for v in record["compensation"]),
            elapsed_s=float(record["elapsed_s"]),
            inferences=int(record["inferences"]),
        )
        return True

    # -- (dis)assembly -------------------------------------------------------
    def _disassemble(
        self, program: TiledMatmul | DifferentialProgram
    ) -> tuple[str, int, dict[str, Any]]:
        """``(kind, epoch, state)`` of one program."""
        if isinstance(program, DifferentialProgram):
            kind = "differential"
        elif isinstance(program, TiledMatmul):
            kind = "tiled"
        else:
            raise ConfigurationError(
                f"ProgramStore can persist TiledMatmul or DifferentialProgram, "
                f"got {type(program).__name__}"
            )
        return kind, int(program.calibration_epoch), program.state_dict()

    def _state_arrays(self, kind: str, state: dict[str, Any]) -> dict[str, np.ndarray]:
        if kind == "differential":
            arrays = _flatten_arrays(state["positive"], "positive.")
            if state["negative"] is not None:
                arrays.update(_flatten_arrays(state["negative"], "negative."))
            return arrays
        return _flatten_arrays(state)

    def _state_meta(self, kind: str, state: dict[str, Any]) -> dict[str, Any]:
        if kind == "differential":
            return {
                "positive": state["positive"]["meta"],
                "negative": None
                if state["negative"] is None
                else state["negative"]["meta"],
            }
        return dict(state["meta"])

    def _peek_epoch(self, path: str) -> int | None:
        """The existing entry's epoch, read from its first two lines
        alone (the checksum is not verified), or None when the entry is
        absent, of another format or unreadable."""
        try:
            with open(path, "rb") as file:
                if not file.readline().startswith(_MAGIC):
                    return None
                return int(json.loads(file.readline())["calibration_epoch"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _read_header(self, raw: bytes, digest: str) -> tuple[dict[str, Any], int]:
        """An entry's header and the offset of its payload in ``raw``,
        once its first line is this format's and its checksum matches
        every byte after that line (checked before anything is
        parsed)."""
        if raw[:_HEADER_AT] != _MAGIC + _checksum(memoryview(raw)[_HEADER_AT:]) + b"\n":
            raise CorruptProgramError(
                f"store entry {digest}.bin is unreadable: its first line is not "
                f"the format-{STORE_FORMAT} checksum of the rest (damaged, or "
                f"written by another store format); delete the entry and recompile"
            )
        try:
            end = raw.index(b"\n", _HEADER_AT)
            header = json.loads(raw[_HEADER_AT:end])
        except ValueError as error:
            raise CorruptProgramError(
                f"store entry {digest}.bin has an unreadable header: {error}; "
                f"delete the entry and recompile"
            ) from error
        if not isinstance(header, dict):
            header = {}
        kind, named, epoch = (
            header.get(field) for field in ("kind", "digest", "calibration_epoch")
        )
        if kind not in _KINDS or named != digest or not isinstance(epoch, int):
            raise CorruptProgramError(
                f"store entry {digest}.bin names kind {kind!r}, digest "
                f"{named!r}, epoch {epoch!r}; delete the entry and recompile"
            )
        return header, end + 1

    def _read_arrays(
        self, raw: bytes, offset: int, header: dict[str, Any], digest: str
    ) -> dict[str, np.ndarray]:
        try:
            return _unpack(raw, offset, header)
        except (KeyError, TypeError, ValueError) as error:
            raise CorruptProgramError(
                f"store entry {digest}.bin has a payload that does not match "
                f"its header: {error}; delete the entry and recompile"
            ) from error

    def _assemble(
        self,
        header: dict[str, Any],
        arrays: dict[str, np.ndarray],
        technology: Technology,
        drift_state: DriftState | None,
    ) -> TiledMatmul | DifferentialProgram:
        kind = header["kind"]
        meta = header["meta"]
        try:
            if kind == "tiled":
                return TiledMatmul.from_state(
                    arrays, meta, technology, drift_state=drift_state
                )
            state = {
                half: None
                if meta[half] is None
                else {
                    "arrays": {
                        name[len(half) + 1 :]: array
                        for name, array in arrays.items()
                        if name.startswith(f"{half}.")
                    },
                    "meta": meta[half],
                }
                for half in ("positive", "negative")
            }
            return DifferentialProgram.from_state(
                state, technology, drift_state=drift_state
            )
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise CorruptProgramError(
                f"store entry {header['digest']} ({kind}) could not be "
                f"reassembled: {error}; delete the entry and recompile"
            ) from error

    def describe(self) -> str:
        """One-line summary for logs and benches."""
        return (
            f"ProgramStore({self.root}, entries={len(self)}, "
            f"saves={self.saves}, restores={self.restores}, "
            f"misses={self.misses}, stale={self.stale_rejects}, "
            f"corrupt={self.corrupt_rejects}, "
            f"write_failures={self.write_failures})"
        )

    def __repr__(self) -> str:
        return f"<{self.describe()}>"
