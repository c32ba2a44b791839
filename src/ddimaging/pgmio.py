"""Reading and writing PGM images (ASCII P2 and binary P5).

Loaded samples are mapped linearly to [0, 1] by dividing by the header's
maxval.  Saving quantizes with round-half-up after clamping to [0, 1]
(infinities too) and refuses NaN before it opens the file; 16-bit binary
samples are big-endian, as the format requires.  An 8-bit image therefore
survives a save/load round trip exactly.
"""

import numpy as np


def load_pgm(path):
    """Read a P2 or P5 image into a float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()

    pos = 0

    def skip_space():
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break

    def token():
        nonlocal pos
        skip_space()
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated header")
        return data[start:pos]

    def integer(tok, what):
        # ASCII digits only: int() would also take 1_0, +5 and -0
        if not tok.isdigit():
            raise ValueError(f"{path}: {what} is not an integer: {tok!r}")
        return int(tok)

    magic = token()
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
    width = integer(token(), "width")
    height = integer(token(), "height")
    maxval = integer(token(), "maxval")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad maxval {maxval}")

    count = width * height
    outside = f"{path}: sample outside [0, {maxval}]"
    if magic == b"P2":
        samples = [integer(t, "sample") for t in data[pos:].split()]
        if len(samples) != count:
            raise ValueError(f"{path}: expected {count} samples, got {len(samples)}")
        # checked before the int64 conversion, which overflows past 2**63
        if not all(0 <= v <= maxval for v in samples):
            raise ValueError(outside)
        values = np.array(samples, dtype=np.int64)
    else:
        pos += 1  # exactly one whitespace byte after maxval
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        need, have = count * dtype.itemsize, max(len(data) - pos, 0)
        if have < need:
            raise ValueError(f"{path}: truncated pixel data: {need} bytes needed, "
                             f"{have} present")
        values = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(np.int64)
        if values.max() > maxval:
            raise ValueError(outside)
    field = values.astype(np.float64).reshape(height, width) / float(maxval)
    return field


def save_pgm(field, path, maxval=255, binary=True):
    """Write a [0, 1] field as PGM with round-half-up quantization."""
    if not 0 < maxval < 65536:
        raise ValueError(f"bad maxval {maxval}")
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError(f"expected a 2-D field, got shape {field.shape}")
    nans = np.count_nonzero(np.isnan(field))
    if nans:
        raise ValueError(f"{path}: cannot save {nans} NaN pixel(s)")
    clamped = np.clip(field, 0.0, 1.0)
    values = np.floor(clamped * maxval + 0.5).astype(np.int64)
    values = np.clip(values, 0, maxval)
    height, width = field.shape
    magic = b"P5" if binary else b"P2"
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    with open(path, "wb") as fh:
        fh.write(header)
        if binary:
            if maxval < 256:
                fh.write(values.astype(np.uint8).tobytes())
            else:
                fh.write(values.astype(">u2").tobytes())
        else:
            lines = []
            for row in values:
                lines.append(" ".join(str(v) for v in row))
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
