"""The one on-disk form of the binary artifacts (index, checkpoints): an
uncompressed zip of `.npy` members, as `np.savez` writes, whose `header`
member holds UTF-8 JSON (format name, version and the non-array fields).

Nothing is ever unpickled: members are parsed with allow_pickle=False. Each
member is read whole, so the zip CRC covers every byte that is parsed, and a
damaged or truncated file raises ValueError naming the path. Timestamps are
fixed, so equal contents give equal bytes.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

_ZIP_MAGIC = b"PK\x03\x04"
_PICKLE_MAGIC = b"\x80"
_FIXED_TIME = (1980, 1, 1, 0, 0, 0)

# what zipfile raises on damaged bytes (a bad CRC or header, a flipped
# compression or encryption flag, a short read), and the .npy parser and the
# JSON decoder on a well-formed zip of other content
_DAMAGE = (zipfile.BadZipFile, NotImplementedError, RuntimeError, EOFError,
           OSError, ValueError)


def write_npz(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    members = {"header": np.frombuffer(json.dumps(header).encode("utf-8"),
                                       dtype=np.uint8), **arrays}
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, array in members.items():
            info = zipfile.ZipInfo(f"{name}.npy", _FIXED_TIME)
            with zf.open(info, "w", force_zip64=True) as out:
                np.lib.format.write_array(out, np.ascontiguousarray(array),
                                          allow_pickle=False)


def read_npz(path, fmt: str, version: int,
             dtypes: dict | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays) of a file written by write_npz for this format and
    version. With `dtypes` (name -> dtype), exactly those 1-d arrays must be
    present; without it, any float64 arrays."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_ZIP_MAGIC))
    if magic != _ZIP_MAGIC:
        hint = (" (a version-1 pickle, which is no longer read: rebuild it)"
                if magic.startswith(_PICKLE_MAGIC) else "")
        raise ValueError(f"{path}: not a {fmt} file{hint}")
    try:
        arrays = {}
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                arrays[info.filename.removesuffix(".npy")] = _member(zf, info)
        header = json.loads(arrays.pop("header").tobytes().decode("utf-8"))
    except KeyError:
        raise ValueError(f"{path}: not a {fmt} file (no header)") from None
    except _DAMAGE as exc:
        raise ValueError(f"{path}: damaged {fmt} file ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError(f"{path}: not a {fmt} file")
    if header.get("version") != version:
        raise ValueError(f"{path}: unsupported {fmt} version "
                         f"{header.get('version')!r} (this build reads {version})")
    if dtypes is not None:
        if set(arrays) != set(dtypes):
            raise ValueError(f"{path}: arrays {sorted(arrays)}, expected "
                             f"{sorted(dtypes)}")
        for name, dtype in dtypes.items():
            if arrays[name].dtype != dtype or arrays[name].ndim != 1:
                raise ValueError(f"{path}: array {name!r} is "
                                 f"{arrays[name].dtype} of shape "
                                 f"{arrays[name].shape}, expected 1-d {np.dtype(dtype)}")
    elif any(a.dtype != np.float64 for a in arrays.values()):
        raise ValueError(f"{path}: arrays must be float64")
    return header, arrays


def _member(zf: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    raw = zf.read(info)  # whole, so the CRC is checked
    return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
