"""Reading and writing PGM images (ASCII P2 and binary P5).

Loaded samples are mapped linearly to [0, 1] by dividing by the header's
maxval.  Saving quantizes with round-half-up after clamping to [0, 1];
16-bit binary samples are big-endian, as the format requires.  An 8-bit
image therefore survives a save/load round trip exactly.
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

    magic = token()
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
    width = int(token())
    height = int(token())
    maxval = int(token())
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad maxval {maxval}")

    count = width * height
    if magic == b"P2":
        values = np.array([int(t) for t in data[pos:].split()], dtype=np.int64)
        if values.size != count:
            raise ValueError(f"{path}: expected {count} samples, got {values.size}")
    else:
        pos += 1  # exactly one whitespace byte after maxval
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        need, have = count * dtype.itemsize, max(len(data) - pos, 0)
        if have < need:
            raise ValueError(f"{path}: truncated pixel data: {need} bytes needed, "
                             f"{have} present")
        values = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(np.int64)
    if values.min() < 0 or values.max() > maxval:
        raise ValueError(f"{path}: sample outside [0, {maxval}]")
    field = values.astype(np.float64).reshape(height, width) / float(maxval)
    return field


def save_pgm(field, path, maxval=255, binary=True):
    """Write a [0, 1] field as PGM with round-half-up quantization."""
    if not 0 < maxval < 65536:
        raise ValueError(f"bad maxval {maxval}")
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError(f"expected a 2-D field, got shape {field.shape}")
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
