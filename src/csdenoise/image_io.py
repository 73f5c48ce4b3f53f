"""Grayscale image files: binary PGM (P5) and 8-bit PNG.

Pixels map to [0, 1] as v/maxval on read (maxval is 255 for PNG); writes
quantize to 8 bits with round-half-up after clipping. Color PNGs collapse to
luminance with BT.601 weights.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ImageFormatError

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_LUMA = (0.299, 0.587, 0.114)


# -- PGM -------------------------------------------------------------------------


def _read_pgm(data: bytes, path) -> np.ndarray:
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError(f"{path}: truncated PGM header")
        return data[start:pos]

    if next_token() != b"P5":
        raise ImageFormatError(f"{path}: not a binary PGM (P5) file")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise ImageFormatError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad PGM extents {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ImageFormatError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # single whitespace after maxval
    payload = data[pos : pos + width * height]
    if len(payload) != width * height:
        raise ImageFormatError(
            f"{path}: truncated PGM payload ({len(payload)} of {width * height} bytes)"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if pixels.max() > maxval:
        raise ImageFormatError(f"{path}: PGM sample {pixels.max()} exceeds maxval {maxval}")
    return pixels.astype(np.float64) / maxval


def _write_pgm(img_u8: np.ndarray, path):
    header = f"P5\n{img_u8.shape[1]} {img_u8.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img_u8.tobytes())


# -- PNG -------------------------------------------------------------------------


def _png_chunks(data: bytes, path):
    pos = len(_PNG_SIGNATURE)
    while pos < len(data):
        if pos + 8 > len(data):
            raise ImageFormatError(f"{path}: truncated PNG chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        crc = data[pos + 8 + length : pos + 12 + length]
        if len(body) != length or len(crc) != 4:
            raise ImageFormatError(f"{path}: truncated PNG chunk {ctype!r}")
        if struct.unpack(">I", crc)[0] != zlib.crc32(ctype + body):
            raise ImageFormatError(f"{path}: PNG chunk {ctype!r} fails its CRC check")
        yield ctype, body
        pos += 12 + length  # header + body + CRC


def _unfilter_scanlines(raw: bytes, height: int, stride: int, bpp: int, path) -> np.ndarray:
    if len(raw) != height * (stride + 1):
        raise ImageFormatError(f"{path}: PNG payload size mismatch")
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(height):
        row = np.frombuffer(
            raw[y * (stride + 1) + 1 : (y + 1) * (stride + 1)], dtype=np.uint8
        ).astype(np.int64)
        ftype = raw[y * (stride + 1)]
        if ftype == 0:
            cur = row
        elif ftype == 1:
            cur = row.copy()
            for x in range(bpp, stride):
                cur[x] = (cur[x] + cur[x - bpp]) & 0xFF
        elif ftype == 2:
            cur = (row + prev) & 0xFF
        elif ftype == 3:
            cur = row.copy()
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                cur[x] = (cur[x] + (left + prev[x]) // 2) & 0xFF
        elif ftype == 4:
            cur = row.copy()
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                up = prev[x]
                ul = prev[x - bpp] if x >= bpp else 0
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                if pa <= pb and pa <= pc:
                    pred = left
                elif pb <= pc:
                    pred = up
                else:
                    pred = ul
                cur[x] = (cur[x] + pred) & 0xFF
        else:
            raise ImageFormatError(f"{path}: unknown PNG filter type {ftype}")
        out[y] = cur.astype(np.uint8)
        prev = cur
    return out


def _read_png(data: bytes, path) -> np.ndarray:
    header = None
    idat = b""
    for ctype, body in _png_chunks(data, path):
        if ctype == b"IHDR":
            if len(body) != 13:
                raise ImageFormatError(f"{path}: PNG IHDR is {len(body)} bytes, not 13")
            header = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            break
    if header is None:
        raise ImageFormatError(f"{path}: missing PNG IHDR")
    width, height, depth, color, comp, filt, interlace = header
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad PNG extents {width}x{height}")
    if depth != 8:
        raise ImageFormatError(f"{path}: only 8-bit PNG supported (depth {depth})")
    if color not in (0, 2):
        raise ImageFormatError(
            f"{path}: only grayscale or RGB PNG supported (color type {color})"
        )
    if comp or filt or interlace:
        raise ImageFormatError(f"{path}: unsupported PNG compression/interlace flags")
    channels = 1 if color == 0 else 3
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise ImageFormatError(f"{path}: corrupt PNG data stream") from exc
    pixels = _unfilter_scanlines(raw, height, width * channels, channels, path)
    if channels == 1:
        gray = pixels.astype(np.float64)
    else:
        rgb = pixels.reshape(height, width, 3).astype(np.float64)
        gray = _LUMA[0] * rgb[:, :, 0] + _LUMA[1] * rgb[:, :, 1] + _LUMA[2] * rgb[:, :, 2]
    return gray / 255.0


def _png_chunk(ctype: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + ctype
        + body
        + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
    )


def _write_png(img_u8: np.ndarray, path):
    height, width = img_u8.shape
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + img_u8[y].tobytes() for y in range(height))
    payload = (
        _PNG_SIGNATURE
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw, 9))
        + _png_chunk(b"IEND", b"")
    )
    Path(path).write_bytes(payload)


# -- public API --------------------------------------------------------------------


def read_image(path) -> np.ndarray:
    """Load an image file as an (H, W) float array in [0, 1]."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ImageFormatError(f"{path}: cannot read file: {exc}") from exc
    if data[:2] == b"P5":
        return _read_pgm(data, path)
    if data[: len(_PNG_SIGNATURE)] == _PNG_SIGNATURE:
        return _read_png(data, path)
    raise ImageFormatError(f"{path}: unsupported format (need binary PGM or PNG)")


def quantize_unit(img: np.ndarray) -> np.ndarray:
    """[0,1] floats to bytes: clip, then round half away from zero."""
    clipped = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    return np.floor(clipped * 255.0 + 0.5).astype(np.uint8)


def write_image(img: np.ndarray, path):
    """Store as 8-bit PGM or PNG depending on the file extension."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ImageFormatError(f"can only write (H, W) images, got {img.shape}")
    path = Path(path)
    u8 = quantize_unit(img)
    suffix = path.suffix.lower()
    if suffix == ".pgm":
        _write_pgm(u8, path)
    elif suffix == ".png":
        _write_png(u8, path)
    else:
        raise ImageFormatError(f"{path}: unsupported extension {suffix!r} (.pgm/.png)")
