"""Multimodal columns: image/audio/video as opaque ``binary`` columns
with typed metadata (task brief).

Decode tiers:

- ``decode="real"``: REAL byte-level decoding for the formats a
  numpy+stdlib container can parse — 24-bit uncompressed BMP
  (``decode_bmp``), 8-bit truecolor PNG with full 5-filter scanline
  reconstruction over zlib inflate (``decode_png`` — a genuinely
  compressed codec), and 16-bit PCM WAV (``decode_wav``) — plus a
  real nearest-neighbour ``image_resize``. DCT/entropy codecs
  (JPEG/MP3/H.264 containers) raise ``NotImplementedError`` at the
  per-payload seam where PIL / torchaudio / PyAV would plug in
  (those libs aren't in this container).
- ``decode="fake"``: deterministic pseudo-decode (seeded by the
  content hash) with the real output schema — for plumbing tests and
  synthetic corpora with arbitrary payload bytes.

The Ray-side plumbing — schema, batch sizing for large binary
payloads, actor-pool signature, partitioned output layout — is the
same for both tiers.

Schema convention:
``media(media_id: int64, kind: string, payload: binary,
        meta: string-json)`` ->
``features(media_id: int64, kind: string, width: int32, height: int32,
           n_frames: int32, feature: list<float>)``
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa

from leidenalg_ray.util import round6


# ----------------------------------------------------------------------
# Real uncompressed codecs (pure numpy — no external libraries)
# ----------------------------------------------------------------------
def encode_bmp(rgb: np.ndarray) -> bytes:
    """Serialise an (h, w, 3) uint8 RGB array as a standard 24-bit
    uncompressed BMP (BITMAPINFOHEADER, bottom-up rows, 4-byte row
    padding) — a real file any image viewer opens."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    stride = (w * 3 + 3) // 4 * 4
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :w * 3] = rgb[::-1, :, ::-1].reshape(h, w * 3)  # BGR, bottom-up
    pix = rows.tobytes()
    header = (b"BM"
              + (54 + len(pix)).to_bytes(4, "little")
              + b"\x00\x00\x00\x00"
              + (54).to_bytes(4, "little")
              + (40).to_bytes(4, "little")
              + w.to_bytes(4, "little") + h.to_bytes(4, "little")
              + (1).to_bytes(2, "little") + (24).to_bytes(2, "little")
              + (0).to_bytes(4, "little")
              + len(pix).to_bytes(4, "little")
              + (2835).to_bytes(4, "little") * 2
              + (0).to_bytes(4, "little") * 2)
    return header + pix


def decode_bmp(buf: bytes) -> np.ndarray:
    """Parse a 24-bit uncompressed BMP into an (h, w, 3) uint8 RGB
    array. Raises ``NotImplementedError`` on compressed / other-depth
    BMPs (the codec seam)."""
    buf = bytes(buf)
    if buf[:2] != b"BM":
        raise ValueError("not a BMP payload")
    off = int.from_bytes(buf[10:14], "little")
    w = int.from_bytes(buf[18:22], "little", signed=True)
    h = int.from_bytes(buf[22:26], "little", signed=True)
    bpp = int.from_bytes(buf[28:30], "little")
    comp = int.from_bytes(buf[30:34], "little")
    if bpp != 24 or comp != 0:
        raise NotImplementedError(
            f"only 24-bit uncompressed BMP is decodable without "
            f"codec libraries (got bpp={bpp}, compression={comp})")
    hh = abs(h)
    stride = (w * 3 + 3) // 4 * 4
    arr = np.frombuffer(buf, np.uint8, count=stride * hh,
                        offset=off).reshape(hh, stride)
    arr = arr[:, :w * 3].reshape(hh, w, 3)
    if h > 0:
        arr = arr[::-1]           # bottom-up storage
    return np.ascontiguousarray(arr[:, :, ::-1])   # BGR -> RGB


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    import zlib
    return (len(body).to_bytes(4, "big") + tag + body
            + zlib.crc32(tag + body).to_bytes(4, "big"))


def _paeth(a, b, c):
    p = a + b - c
    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
    if pa_ <= pb_ and pa_ <= pc_:
        return a
    return b if pb_ <= pc_ else c


def encode_png(rgb: np.ndarray, filter_type=0) -> bytes:
    """Serialise an (h, w, 3) uint8 RGB array as a standard PNG
    (8-bit truecolor, non-interlaced, zlib-deflated IDAT) — a real
    file any viewer opens. ``filter_type`` applies the given PNG
    row filter (0..4) to every scanline, exercising the decoder's
    unfilter paths."""
    import zlib
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    raw = rgb.reshape(h, w * 3).astype(np.int32)
    out = bytearray()
    prior = np.zeros(w * 3, dtype=np.int32)
    for y in range(h):
        row = raw[y]
        if filter_type == 0:
            filt = row
        elif filter_type == 1:   # Sub
            left = np.concatenate([np.zeros(3, np.int32), row[:-3]])
            filt = (row - left) % 256
        elif filter_type == 2:   # Up
            filt = (row - prior) % 256
        elif filter_type == 3:   # Average
            left = np.concatenate([np.zeros(3, np.int32), row[:-3]])
            filt = (row - (left + prior) // 2) % 256
        elif filter_type == 4:   # Paeth
            filt = np.empty(w * 3, dtype=np.int32)
            for x in range(w * 3):
                a = int(row[x - 3]) if x >= 3 else 0
                b = int(prior[x])
                c = int(prior[x - 3]) if x >= 3 else 0
                filt[x] = (int(row[x]) - _paeth(a, b, c)) % 256
        else:
            raise ValueError(f"unknown PNG filter {filter_type}")
        out.append(filter_type)
        out += filt.astype(np.uint8).tobytes()
        prior = row
    ihdr = (w.to_bytes(4, "big") + h.to_bytes(4, "big")
            + bytes([8, 2, 0, 0, 0]))  # depth 8, truecolor RGB
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(bytes(out)))
            + _png_chunk(b"IEND", b""))


def decode_png(buf: bytes) -> np.ndarray:
    """Parse an 8-bit truecolor non-interlaced PNG into an (h, w, 3)
    uint8 RGB array — a REAL compressed-image decode (zlib inflate +
    full 5-filter scanline reconstruction). Raises
    ``NotImplementedError`` on other bit depths / color types /
    interlacing (the remaining codec seam: palette, alpha, 16-bit,
    Adam7)."""
    import zlib
    buf = bytes(buf)
    if buf[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos, ihdr, idat = 8, None, bytearray()
    while pos + 8 <= len(buf):
        ln = int.from_bytes(buf[pos:pos + 4], "big")
        tag = buf[pos + 4:pos + 8]
        body = buf[pos + 8:pos + 8 + ln]
        if tag == b"IHDR":
            ihdr = body
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
        pos += 12 + ln
    if ihdr is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    w = int.from_bytes(ihdr[0:4], "big")
    h = int.from_bytes(ihdr[4:8], "big")
    depth, ctype, comp, filt_m, interlace = ihdr[8:13]
    if depth != 8 or ctype != 2 or comp != 0 or filt_m != 0 \
            or interlace != 0:
        raise NotImplementedError(
            f"only 8-bit truecolor non-interlaced PNG is decodable "
            f"here (got depth={depth}, color_type={ctype}, "
            f"interlace={interlace})")
    data = zlib.decompress(bytes(idat))
    stride = w * 3
    if len(data) != h * (stride + 1):
        raise ValueError("PNG scanline payload size mismatch")
    rows = np.frombuffer(data, np.uint8).reshape(h, stride + 1)
    out = np.empty((h, stride), dtype=np.int32)
    prior = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        ft = int(rows[y, 0])
        filt = rows[y, 1:].astype(np.int32)
        if ft == 0:
            rec = filt
        elif ft == 1:    # Sub: per-channel cumulative sum mod 256
            rec = np.cumsum(filt.reshape(w, 3), axis=0).reshape(-1) % 256
        elif ft == 2:    # Up
            rec = (filt + prior) % 256
        elif ft == 3:    # Average (left-sequential)
            rec = np.empty(stride, dtype=np.int32)
            for x in range(stride):
                left = rec[x - 3] if x >= 3 else 0
                rec[x] = (filt[x] + (left + prior[x]) // 2) % 256
        elif ft == 4:    # Paeth (left-sequential)
            rec = np.empty(stride, dtype=np.int32)
            for x in range(stride):
                a = rec[x - 3] if x >= 3 else 0
                b = int(prior[x])
                c = int(prior[x - 3]) if x >= 3 else 0
                rec[x] = (filt[x] + _paeth(a, b, c)) % 256
        else:
            raise ValueError(f"unknown PNG filter {ft}")
        out[y] = rec
        prior = rec
    return out.astype(np.uint8).reshape(h, w, 3)


# ----------------------------------------------------------------------
# Baseline JPEG (JFIF): real huffman entropy coding + DCT, pure numpy.
#
# The DCT/IDCT pair is FIXED-POINT (11-bit scaled integer cosine
# matrix, like libjpeg's integer IDCT): the decoded plane is an exact
# integer function of the quantised coefficients, so a planted
# DC-only fixture (constant-colour image) has a closed-form integer
# oracle — the repo's standard exact-fixed-point trick (cf. the
# HyperBall Δq·t accumulator and Burt-constraint quantisation).
# Huffman tables are CUSTOM canonical tables embedded in DHT (valid
# JPEG does not require the Annex K tables): DC symbols 0..11 at
# lengths [4 x 11, 5 x 1], all 162 AC (run, size) symbols at length 8
# — Kraft-complete, all-ones codes unused, decodable by any viewer.
# Subsampling is 4:2:0 (2x2 box average, +2 rounding); chroma
# upsample on decode is nearest (2x repeat). Progressive (SOF2),
# restart markers (DRI) and other samplings raise
# ``NotImplementedError`` — the remaining codec seam.
# ----------------------------------------------------------------------
_JPEG_FP_BITS = 11
_JPEG_FP_SCALE = 1 << _JPEG_FP_BITS        # cosine matrix scale
_JPEG_FP_SHIFT = 2 * _JPEG_FP_BITS         # after D.T @ F @ D
_QY = np.array([                           # Annex K luminance table
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99]], dtype=np.int64)
_QC = np.array([                           # Annex K chrominance table
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99]], dtype=np.int64)


def _dct_int_matrix():
    t = np.empty((8, 8))
    x = np.arange(8)
    for u in range(8):
        c = np.sqrt(0.125) if u == 0 else 0.5
        t[u] = c * np.cos((2 * x + 1) * u * np.pi / 16)
    return np.floor(t * _JPEG_FP_SCALE + 0.5).astype(np.int64)


_DCT_D = _dct_int_matrix()


def _zigzag():
    out = []
    for s in range(15):
        rng = range(max(0, s - 7), min(7, s) + 1)
        for r in (rng if s % 2 else reversed(rng)):
            out.append((r, s - r))
    return out


_ZIG = _zigzag()
_ZR = np.array([r for r, _ in _ZIG])
_ZC = np.array([c for _, c in _ZIG])

# custom canonical huffman tables (see header comment)
_DC_BITS = [0, 0, 0, 11, 1] + [0] * 11          # counts per length 1..16
_DC_VALS = list(range(12))
_AC_VALS = ([0x00, 0xF0]
            + [(r << 4) | s for r in range(16) for s in range(1, 11)])
_AC_BITS = [0] * 7 + [len(_AC_VALS)] + [0] * 8


def _canonical_codes(bits, vals):
    """(symbol -> (code, length)) for a canonical table."""
    out = {}
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[vals[k]] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return out


_DC_ENC = _canonical_codes(_DC_BITS, _DC_VALS)
_AC_ENC = _canonical_codes(_AC_BITS, _AC_VALS)


def _rgb_to_ycbcr_u8(rgb):
    """JFIF colour convert, rounded half-away to uint8 planes (the one
    float step on the encode side — everything after is integer)."""
    r = rgb[..., 0].astype(np.float64)
    g = rgb[..., 1].astype(np.float64)
    b = rgb[..., 2].astype(np.float64)
    y = np.floor(0.299 * r + 0.587 * g + 0.114 * b + 0.5)
    cb = np.floor(-0.168736 * r - 0.331264 * g + 0.5 * b + 128.0 + 0.5)
    cr = np.floor(0.5 * r - 0.418688 * g - 0.081312 * b + 128.0 + 0.5)
    return (np.clip(y, 0, 255).astype(np.int64),
            np.clip(cb, 0, 255).astype(np.int64),
            np.clip(cr, 0, 255).astype(np.int64))


def _fdct_quant(plane, q):
    """Fixed-point forward DCT + quantisation of an (8k, 8m) integer
    plane -> (k, m, 8, 8) int64 quantised coefficients."""
    h, w = plane.shape
    b = (plane - 128).reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
    f_int = np.einsum("ux,bcxy,vy->bcuv", _DCT_D, b, _DCT_D,
                      optimize=True)
    d = (q << _JPEG_FP_SHIFT)
    af = np.abs(f_int)
    s = (2 * af + d) // (2 * d)            # round-half-away on |.|
    return np.sign(f_int) * s


def _mag_bits(v):
    """JPEG magnitude category + value bits for one integer."""
    if v == 0:
        return 0, 0
    size = int(abs(v)).bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code, length):
        if length == 0:
            return
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)      # byte stuffing
            self.nbits -= 8
            self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.put((1 << pad) - 1, pad)  # 1-padding per spec
        return bytes(self.buf)


def _encode_block(wr, coef, dc_pred, dc_tab, ac_tab):
    zz = coef[_ZR, _ZC]
    diff = int(zz[0]) - dc_pred
    size, bits = _mag_bits(diff)
    code, ln = dc_tab[size]
    wr.put(code, ln)
    wr.put(bits, size)
    run = 0
    last_nz = np.flatnonzero(zz[1:])
    last = int(last_nz[-1]) + 1 if len(last_nz) else 0
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_tab[0xF0]        # ZRL
            wr.put(code, ln)
            run -= 16
        size, bits = _mag_bits(v)
        code, ln = ac_tab[(run << 4) | size]
        wr.put(code, ln)
        wr.put(bits, size)
        run = 0
    if last < 63:
        code, ln = ac_tab[0x00]            # EOB
        wr.put(code, ln)
    return int(zz[0])


def _seg(marker, body):
    return bytes([0xFF, marker]) + (len(body) + 2).to_bytes(2, "big") \
        + body


def _dht_body(cls, tid, bits, vals):
    return bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals)


def encode_jpeg(rgb: np.ndarray) -> bytes:
    """Serialise an (h, w, 3) uint8 RGB array as a REAL baseline JFIF
    JPEG: 4:2:0 subsampling, Annex K quantisation tables, custom
    canonical huffman tables embedded in DHT, fixed-point DCT — a
    standards-compliant file any viewer opens."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    y, cb, cr = _rgb_to_ycbcr_u8(rgb)
    ph, pw = -(-h // 16) * 16, -(-w // 16) * 16
    y = np.pad(y, ((0, ph - h), (0, pw - w)), mode="edge")
    cb = np.pad(cb, ((0, ph - h), (0, pw - w)), mode="edge")
    cr = np.pad(cr, ((0, ph - h), (0, pw - w)), mode="edge")
    # 4:2:0 box average with +2 rounding (integer-exact)
    cb = (cb[0::2, 0::2] + cb[0::2, 1::2] + cb[1::2, 0::2]
          + cb[1::2, 1::2] + 2) // 4
    cr = (cr[0::2, 0::2] + cr[0::2, 1::2] + cr[1::2, 0::2]
          + cr[1::2, 1::2] + 2) // 4
    ycof = _fdct_quant(y, _QY)
    cbcof = _fdct_quant(cb, _QC)
    crcof = _fdct_quant(cr, _QC)
    wr = _BitWriter()
    preds = [0, 0, 0]
    for my in range(ph // 16):
        for mx in range(pw // 16):
            for by in range(2):
                for bx in range(2):
                    preds[0] = _encode_block(
                        wr, ycof[2 * my + by, 2 * mx + bx], preds[0],
                        _DC_ENC, _AC_ENC)
            preds[1] = _encode_block(wr, cbcof[my, mx], preds[1],
                                     _DC_ENC, _AC_ENC)
            preds[2] = _encode_block(wr, crcof[my, mx], preds[2],
                                     _DC_ENC, _AC_ENC)
    scan = wr.flush()
    zq_y = bytes(int(_QY[r, c]) for r, c in _ZIG)
    zq_c = bytes(int(_QC[r, c]) for r, c in _ZIG)
    out = (b"\xFF\xD8"
           + _seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
           + _seg(0xDB, b"\x00" + zq_y)
           + _seg(0xDB, b"\x01" + zq_c)
           + _seg(0xC0, b"\x08" + h.to_bytes(2, "big")
                  + w.to_bytes(2, "big") + b"\x03"
                  + b"\x01\x22\x00" + b"\x02\x11\x01" + b"\x03\x11\x01")
           + _seg(0xC4, _dht_body(0, 0, _DC_BITS, _DC_VALS))
           + _seg(0xC4, _dht_body(1, 0, _AC_BITS, _AC_VALS))
           + _seg(0xC4, _dht_body(0, 1, _DC_BITS, _DC_VALS))
           + _seg(0xC4, _dht_body(1, 1, _AC_BITS, _AC_VALS))
           + _seg(0xDA, b"\x03\x01\x00\x02\x11\x03\x11\x00\x3F\x00")
           + scan + b"\xFF\xD9")
    return out


class _BitReader:
    def __init__(self, data):
        self.d = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def _fill(self):
        while self.nbits <= 24 and self.pos < len(self.d):
            byte = self.d[self.pos]
            self.pos += 1
            if byte == 0xFF:
                nxt = self.d[self.pos] if self.pos < len(self.d) else 0
                if nxt == 0x00:
                    self.pos += 1          # unstuff
                else:
                    # a real marker ends the scan; pad with zeros
                    self.pos = len(self.d)
                    byte = 0
            self.acc = (self.acc << 8) | byte
            self.nbits += 8

    def bits(self, k):
        if k == 0:
            return 0
        self._fill()
        if self.nbits < k:
            self.acc <<= (k - self.nbits)
            self.nbits = k
        v = (self.acc >> (self.nbits - k)) & ((1 << k) - 1)
        self.nbits -= k
        self.acc &= (1 << self.nbits) - 1
        return v

    def huff(self, table):
        code = 0
        for ln in range(1, 17):
            code = (code << 1) | self.bits(1)
            sym = table.get((ln, code))
            if sym is not None:
                return sym
        raise ValueError("invalid huffman code in JPEG scan")


def _extend(bits, size):
    if size == 0:
        return 0
    return bits if bits >= (1 << (size - 1)) else bits - (1 << size) + 1


def decode_jpeg(buf: bytes) -> np.ndarray:
    """Parse a baseline JFIF JPEG (SOF0, huffman, 4:2:0 or 4:4:4,
    no restart markers) into an (h, w, 3) uint8 RGB array. The IDCT
    is the same fixed-point integer transform the encoder uses, so
    the decoded planes are an exact integer function of the coded
    coefficients. Progressive (SOF2), arithmetic coding, DRI,
    multi-scan (non-interleaved) files and other samplings raise
    ``NotImplementedError`` — the remaining codec seam. Stray RSTn and
    TEM markers in the header carry no length and are stepped over."""
    buf = bytes(buf)
    if buf[:2] != b"\xFF\xD8":
        raise ValueError("not a JPEG payload")
    pos = 2
    qt = {}
    huff_dc = {}
    huff_ac = {}
    sof = None
    scan_comps = None
    scan_data = None
    while pos + 4 <= len(buf):
        if buf[pos] != 0xFF:
            raise ValueError("JPEG marker expected")
        marker = buf[pos + 1]
        if marker == 0xD9:
            break
        if 0xD0 <= marker <= 0xD7 or marker == 0x01:
            pos += 2                    # RSTn / TEM carry no length
            continue
        ln = int.from_bytes(buf[pos + 2:pos + 4], "big")
        body = buf[pos + 4:pos + 2 + ln]
        if marker == 0xDB:
            bpos = 0
            while bpos < len(body):
                pq, tq = body[bpos] >> 4, body[bpos] & 15
                if pq != 0:
                    raise NotImplementedError("16-bit DQT")
                tab = np.zeros((8, 8), dtype=np.int64)
                vals = body[bpos + 1:bpos + 65]
                for k, (r, c) in enumerate(_ZIG):
                    tab[r, c] = vals[k]
                qt[tq] = tab
                bpos += 65
        elif marker == 0xC0:
            prec = body[0]
            hh = int.from_bytes(body[1:3], "big")
            ww = int.from_bytes(body[3:5], "big")
            nc = body[5]
            comps = []
            for c in range(nc):
                cid, samp, tq = body[6 + 3 * c:9 + 3 * c]
                comps.append((cid, samp >> 4, samp & 15, tq))
            if prec != 8:
                raise NotImplementedError("only 8-bit baseline JPEG")
            sof = (hh, ww, comps)
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                "only baseline sequential JPEG (SOF0) is decodable "
                f"here (got SOF marker 0x{marker:02X})")
        elif marker == 0xC4:
            bpos = 0
            while bpos < len(body):
                cls, tid = body[bpos] >> 4, body[bpos] & 15
                bits = list(body[bpos + 1:bpos + 17])
                nv = sum(bits)
                vals = list(body[bpos + 17:bpos + 17 + nv])
                enc = _canonical_codes(bits, vals)
                dec = {(ln_, code): sym
                       for sym, (code, ln_) in enc.items()}
                (huff_dc if cls == 0 else huff_ac)[tid] = dec
                bpos += 17 + nv
        elif marker == 0xDD:
            raise NotImplementedError("restart markers (DRI)")
        elif marker == 0xDA:
            ns = body[0]
            scan_comps = [(body[1 + 2 * c], body[2 + 2 * c] >> 4,
                           body[2 + 2 * c] & 15) for c in range(ns)]
            scan_data = buf[pos + 2 + ln:]
            break
        pos += 2 + ln
    if sof is None or scan_data is None:
        raise ValueError("JPEG missing SOF/SOS")
    h, w, comps = sof
    if sorted(c for c, _, _ in scan_comps) != sorted(c for c, *_ in comps):
        raise NotImplementedError(
            "multi-scan (non-interleaved) JPEG: the first scan codes "
            f"{len(scan_comps)} of {len(comps)} components")
    samps = [(sx, sy) for _, sx, sy, _ in comps]
    if samps not in ([(2, 2), (1, 1), (1, 1)], [(1, 1)] * 3,
                     [(1, 1)]):
        raise NotImplementedError(
            f"unsupported sampling {samps} (4:2:0, 4:4:4 or "
            "grayscale only)")
    hmax = max(sx for sx, _ in samps)
    vmax = max(sy for _, sy in samps)
    mcw, mch = 8 * hmax, 8 * vmax
    mxs, mys = -(-w // mcw), -(-h // mch)
    rd = _BitReader(scan_data)
    planes = []
    for (cid, sx, sy, tq) in comps:
        planes.append(np.zeros((mys * sy * 8, mxs * sx * 8),
                               dtype=np.int64))
    preds = [0] * len(comps)
    dc_of = {cid: huff_dc[td] for cid, td, _ in scan_comps}
    ac_of = {cid: huff_ac[ta] for cid, _, ta in scan_comps}
    for my in range(mys):
        for mx in range(mxs):
            for ci, (cid, sx, sy, tq) in enumerate(comps):
                for by in range(sy):
                    for bx in range(sx):
                        zz = np.zeros(64, dtype=np.int64)
                        size = rd.huff(dc_of[cid])
                        diff = _extend(rd.bits(size), size)
                        preds[ci] += diff
                        zz[0] = preds[ci]
                        k = 1
                        while k < 64:
                            rs = rd.huff(ac_of[cid])
                            if rs == 0x00:
                                break
                            if rs == 0xF0:
                                k += 16
                                continue
                            k += rs >> 4
                            if k > 63:
                                raise ValueError("AC run overflow")
                            zz[k] = _extend(rd.bits(rs & 15), rs & 15)
                            k += 1
                        coef = np.zeros((8, 8), dtype=np.int64)
                        coef[_ZR, _ZC] = zz
                        coef *= qt[tq]
                        # fixed-point IDCT (exact integer function)
                        acc = _DCT_D.T @ coef @ _DCT_D
                        pix = ((acc + (1 << (_JPEG_FP_SHIFT - 1)))
                               >> _JPEG_FP_SHIFT) + 128
                        yy = (my * sy + by) * 8
                        xx = (mx * sx + bx) * 8
                        planes[ci][yy:yy + 8, xx:xx + 8] = \
                            np.clip(pix, 0, 255)
    # upsample chroma (nearest) and colour convert
    full = []
    for ci, (cid, sx, sy, tq) in enumerate(comps):
        p = planes[ci]
        if sx < hmax:
            p = np.repeat(p, hmax // sx, axis=1)
        if sy < vmax:
            p = np.repeat(p, vmax // sy, axis=0)
        full.append(p[:h, :w].astype(np.float64))
    if len(full) == 1:
        g = np.clip(full[0], 0, 255).astype(np.uint8)
        return np.stack([g, g, g], axis=-1)
    y, cb, cr = full
    r = np.floor(y + 1.402 * (cr - 128.0) + 0.5)
    g = np.floor(y - 0.344136 * (cb - 128.0)
                 - 0.714136 * (cr - 128.0) + 0.5)
    b = np.floor(y + 1.772 * (cb - 128.0) + 0.5)
    out = np.stack([np.clip(r, 0, 255), np.clip(g, 0, 255),
                    np.clip(b, 0, 255)], axis=-1)
    return out.astype(np.uint8)


def decode_image(buf: bytes) -> np.ndarray:
    """Magic-byte dispatch over the real image codecs: 24-bit BMP,
    8-bit RGB PNG, or baseline JFIF JPEG (r5). Progressive JPEG /
    WebP / ... remain the documented ``NotImplementedError`` seam."""
    buf = bytes(buf)
    if buf[:8] == _PNG_SIG:
        return decode_png(buf)
    if buf[:2] == b"BM":
        return decode_bmp(buf)
    if buf[:2] == b"\xFF\xD8":
        return decode_jpeg(buf)
    raise NotImplementedError(
        "unrecognised image container (WebP/AVIF/... need codec "
        "libraries not in this container)")


def encode_wav(samples: np.ndarray, sample_rate=8000) -> bytes:
    """Serialise int16 mono samples as a standard PCM WAV."""
    s = np.asarray(samples, dtype="<i2")
    data = s.tobytes()
    hdr = (b"RIFF" + (36 + len(data)).to_bytes(4, "little") + b"WAVE"
           + b"fmt " + (16).to_bytes(4, "little")
           + (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
           + int(sample_rate).to_bytes(4, "little")
           + int(sample_rate * 2).to_bytes(4, "little")
           + (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
           + b"data" + len(data).to_bytes(4, "little"))
    return hdr + data


def decode_wav(buf: bytes):
    """Parse a 16-bit PCM WAV into (samples: int16 array (n, ch),
    sample_rate). Raises ``NotImplementedError`` on non-PCM /
    other-depth encodings (the codec seam)."""
    buf = bytes(buf)
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(buf):
        cid = buf[pos:pos + 4]
        clen = int.from_bytes(buf[pos + 4:pos + 8], "little")
        body = buf[pos + 8:pos + 8 + clen]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + clen + (clen & 1)
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    audio_fmt = int.from_bytes(fmt[0:2], "little")
    channels = int.from_bytes(fmt[2:4], "little")
    rate = int.from_bytes(fmt[4:8], "little")
    bits = int.from_bytes(fmt[14:16], "little")
    if audio_fmt != 1 or bits != 16:
        raise NotImplementedError(
            f"only 16-bit PCM WAV is decodable without codec "
            f"libraries (got format={audio_fmt}, bits={bits})")
    samples = np.frombuffer(data, dtype="<i2")
    n = len(samples) // channels
    return samples[:n * channels].reshape(n, channels), rate


def image_resize(rgb: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Real nearest-neighbour resize (pure numpy index sampling)."""
    rgb = np.asarray(rgb)
    h, w = rgb.shape[:2]
    yi = (np.arange(out_h) * h) // out_h
    xi = (np.arange(out_w) * w) // out_w
    return rgb[yi][:, xi]


def synth_media_table(n=64, seed=42, payload_bytes=4096):
    """Deterministic fake media corpus for tests/bench."""
    rng = np.random.default_rng(seed)
    kinds = ["image", "audio", "video"]
    rows = {"media_id": [], "kind": [], "payload": [], "meta": []}
    for i in range(n):
        kind = kinds[i % 3]
        payload = rng.integers(0, 256, payload_bytes,
                               dtype=np.uint8).tobytes()
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        rows["payload"].append(payload)
        rows["meta"].append(json.dumps({"codec": "fake", "kind": kind}))
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "kind": pa.array(rows["kind"], pa.string()),
        "payload": pa.array(rows["payload"], pa.binary()),
        "meta": pa.array(rows["meta"], pa.string()),
    })


def _media_features(kind, payload, lum_int_form=False):
    """Shared byte-level decode + feature extraction for the real
    decoders: (width, height, n_frames, 4 features). The ONLY
    divergence between the two callers is the luminance arithmetic —
    ``lum_int_form=True`` uses the integer-numerator form
    ``(299*mr + 587*mg + 114*mb) / 255000`` (one double division on
    each side, so the SQL twin's expression is bit-identical);
    ``False`` uses the conventional ``0.299*m/255`` weights."""
    if kind == "image":
        rgb = decode_image(payload)
        h, w = rgb.shape[:2]
        m = rgb.reshape(-1, 3).mean(axis=0)
        if lum_int_form:
            feats = np.array([m[0] / 255.0, m[1] / 255.0,
                              m[2] / 255.0,
                              (299.0 * m[0] + 587.0 * m[1]
                               + 114.0 * m[2]) / 255000.0])
        else:
            lum = 0.299 * m[0] + 0.587 * m[1] + 0.114 * m[2]
            feats = np.r_[m / 255.0, lum / 255.0][:4]
        return w, h, 1, feats
    if kind == "audio":
        samples, rate = decode_wav(payload)
        x = samples[:, 0].astype(np.float64) / 32768.0
        rms = float(np.sqrt(np.mean(x * x)))
        peak = float(np.abs(x).max(initial=0.0))
        zc = (float(np.mean(np.signbit(x[1:])
                            != np.signbit(x[:-1])))
              if len(x) > 1 else 0.0)
        return 0, 0, len(x), np.array([rms, peak, zc,
                                       len(x) / rate])
    raise NotImplementedError(
        f"kind={kind!r} needs a codec library (PyAV/PIL) not "
        "available in this container")


def synth_real_media_table(n=90):
    """Deterministic REAL media corpus: valid images (even ids —
    24-bit BMP, zlib-compressed 8-bit PNG with the row filter cycling
    0..4 by id, and — r5 — baseline 4:2:0 huffman JPEG for ids with
    i%8==6) and 16-bit PCM WAVs (odd ids), with dimensions/colors/
    samples in closed form of the id — so a byte-level decode has an
    arithmetic oracle regardless of which container carried the
    pixels (for JPEG the oracle replays the fixed-point quantise/
    dequantise closed form of the constant-colour DC-only blocks).
    Image i: (8+(i%13)) x (8+(i%7)) constant color ((i*37)%256,
    (i*59)%256, (i*83)%256). Audio i: 800+(i%5)*80 DC samples of
    value (i*291)%32768 at 8 kHz."""
    rows = {"media_id": [], "kind": [], "payload": [], "meta": []}
    for i in range(n):
        if i % 2 == 0:
            w, h = 8 + (i % 13), 8 + (i % 7)
            rgb = np.empty((h, w, 3), dtype=np.uint8)
            rgb[..., 0] = (i * 37) % 256
            rgb[..., 1] = (i * 59) % 256
            rgb[..., 2] = (i * 83) % 256
            rows["kind"].append("image")
            if i % 4 == 0:
                # every other image ships as a REAL compressed PNG
                # (row filter cycles 0..4 by id, exercising every
                # unfilter path through the gate row)
                rows["payload"].append(
                    encode_png(rgb, filter_type=(i // 4) % 5))
                rows["meta"].append(json.dumps({"codec": "png8"}))
            elif i % 8 == 6:
                # real DCT/entropy codec in the gate fixture
                rows["payload"].append(encode_jpeg(rgb))
                rows["meta"].append(json.dumps({"codec": "jpeg420"}))
            else:
                rows["payload"].append(encode_bmp(rgb))
                rows["meta"].append(json.dumps({"codec": "bmp24"}))
        else:
            ns = 800 + (i % 5) * 80
            v = (i * 291) % 32768
            rows["kind"].append("audio")
            rows["payload"].append(encode_wav(
                np.full(ns, v, dtype=np.int16), 8000))
            rows["meta"].append(json.dumps({"codec": "pcm16"}))
        rows["media_id"].append(i)
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "kind": pa.array(rows["kind"], pa.string()),
        "payload": pa.array(rows["payload"], pa.binary()),
        "meta": pa.array(rows["meta"], pa.string()),
    })


class MediaDecoder:
    """Actor-pool decode/feature-extract stage.

    ``decode="real"``: byte-level decode of the payloads — 24-bit BMP
    and 16-bit PCM WAV parse for real (``decode_bmp``/``decode_wav``);
    images yield (width, height, 1 frame, [mean_r, mean_g, mean_b,
    luminance]/255), audio yields (0, 0, n_samples, [rms, peak, zcr,
    duration_sec]) — all round6 doubles. Compressed codecs and video
    containers raise ``NotImplementedError`` at the per-payload seam
    where PIL / torchaudio / PyAV would plug in.
    ``decode="fake"``: deterministic pseudo-decode — dimensions and an
    8-dim feature vector derived from the payload's blake2b digest, so
    output is reproducible across runs and parallelism levels.
    """

    def __init__(self, decode="fake", feature_dim=8):
        if decode not in ("fake", "real"):
            raise ValueError(f"unknown decode mode {decode!r}")
        self.decode = decode
        self.feature_dim = feature_dim

    def _real_row(self, kind, payload):
        return _media_features(kind, payload, lum_int_form=False)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decode == "real":
            ids = batch["media_id"].to_pylist()
            width = np.empty(len(ids), dtype=np.int32)
            height = np.empty(len(ids), dtype=np.int32)
            n_frames = np.empty(len(ids), dtype=np.int32)
            feats = []
            for i, (k, p) in enumerate(zip(batch["kind"].to_pylist(),
                                           batch["payload"]
                                           .to_pylist())):
                w, h, nf, f = self._real_row(k, p)
                width[i], height[i], n_frames[i] = w, h, nf
                feats.append(round6(f).astype(np.float32))
            return pa.table({
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "width": pa.array(width),
                "height": pa.array(height),
                "n_frames": pa.array(n_frames),
                "feature": pa.array([f.tolist() for f in feats],
                                    pa.list_(pa.float32())),
            })
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        width = np.empty(len(ids), dtype=np.int32)
        height = np.empty(len(ids), dtype=np.int32)
        n_frames = np.empty(len(ids), dtype=np.int32)
        feats = []
        for i, (k, p) in enumerate(zip(kinds, payloads)):
            digest = hashlib.blake2b(p, digest_size=16).digest()
            h = np.frombuffer(digest, dtype=np.uint8).astype(np.float64)
            width[i] = 64 + int(digest[0]) * 4
            height[i] = 64 + int(digest[1]) * 4
            n_frames[i] = 1 if k == "image" else 1 + int(digest[2])
            f = h[: self.feature_dim]
            feats.append(np.round(f / 255.0, 6).astype(np.float32))
        return pa.table({
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "width": pa.array(width),
            "height": pa.array(height),
            "n_frames": pa.array(n_frames),
            "feature": pa.array([f.tolist() for f in feats],
                                pa.list_(pa.float32())),
        })


def decode_features(media_ds, concurrency=4, batch_size=32):
    """Small batch_size: binary payloads are wide rows — batch x
    concurrency must fit worker heaps (ray_guide.md 'Memory-aware')."""
    return media_ds.map_batches(MediaDecoder, batch_format="pyarrow",
                                batch_size=batch_size,
                                zero_copy_batch=True,
                                concurrency=(1, concurrency))


def frame_sample(media_ds, every=2, concurrency=4):
    """Frame sampling plumbing: one output row per sampled frame index
    of video rows (images pass through with frame 0)."""
    def sample(batch: pa.Table) -> pa.Table:
        ids, kinds, frames = [], [], []
        for mid, kind, payload in zip(batch["media_id"].to_pylist(),
                                      batch["kind"].to_pylist(),
                                      batch["payload"].to_pylist()):
            if kind == "video":
                n = 1 + hashlib.blake2b(payload,
                                        digest_size=16).digest()[2]
                for f in range(0, n, every):
                    ids.append(mid)
                    kinds.append(kind)
                    frames.append(f)
            else:
                ids.append(mid)
                kinds.append(kind)
                frames.append(0)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "frame": pa.array(frames, pa.int32()),
        })
    return media_ds.map_batches(sample, batch_format="pyarrow",
                                batch_size=32, zero_copy_batch=True)


class MediaDecoderMd5:
    """SQL-verifiable twin of ``MediaDecoder``: same actor-pool
    plumbing and output shape, but the fake decode derives from the
    payload's md5 digest so a DuckDB oracle reproduces it byte-for-
    byte (``('0x' || substr(md5(text), 2i+1, 2))::INT`` per digest
    byte). Feature components are flat float64 columns (f0..f3)
    because list<float32> renders differently across engines."""

    def __init__(self, decode="fake", feature_dim=4):
        if decode == "real":
            raise NotImplementedError(
                "image/audio codecs are not available in this "
                "container; use decode='fake' (deterministic stub)")
        if decode != "fake":
            raise ValueError(f"unknown decode mode {decode!r}")
        self.feature_dim = feature_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib as _h
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        width = np.empty(len(ids), dtype=np.int64)
        height = np.empty(len(ids), dtype=np.int64)
        n_frames = np.empty(len(ids), dtype=np.int64)
        feats = np.empty((len(ids), self.feature_dim), dtype=np.float64)
        for i, (k, p) in enumerate(zip(kinds, payloads)):
            digest = _h.md5(p).digest()
            width[i] = 64 + digest[0] * 4
            height[i] = 64 + digest[1] * 4
            n_frames[i] = 1 if k == "image" else 1 + digest[2]
            for j in range(self.feature_dim):
                feats[i, j] = round(digest[j] / 255.0, 6)
        cols = {
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "width": pa.array(width),
            "height": pa.array(height),
            "n_frames": pa.array(n_frames),
        }
        for j in range(self.feature_dim):
            cols[f"f{j}"] = pa.array(feats[:, j])
        return pa.table(cols)


class MediaDecoderRealFlat:
    """``MediaDecoder(decode="real")`` with flat float64 feature
    columns (f0..f3, round6) — the SQL-comparable form (list<float32>
    hashes differently across engines). Images: f0..f2 = channel
    means / 255, f3 = (299*mr + 587*mg + 114*mb) / 255000 (the
    integer-numerator luminance form — one double division on both
    sides, so the oracle's arithmetic is bit-identical). Audio:
    f0 = rms, f1 = peak, f2 = zero-crossing rate, f3 = seconds."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        width = np.empty(len(ids), dtype=np.int64)
        height = np.empty(len(ids), dtype=np.int64)
        n_frames = np.empty(len(ids), dtype=np.int64)
        feats = np.empty((len(ids), 4), dtype=np.float64)
        for i, (k, p) in enumerate(zip(batch["kind"].to_pylist(),
                                       batch["payload"].to_pylist())):
            w, h, nf, f = _media_features(k, p, lum_int_form=True)
            width[i], height[i], n_frames[i] = w, h, nf
            feats[i] = f
        cols = {
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "width": pa.array(width),
            "height": pa.array(height),
            "n_frames": pa.array(n_frames),
        }
        f6 = round6(feats)
        for j in range(4):
            cols[f"f{j}"] = pa.array(f6[:, j])
        return pa.table(cols)


def docs_as_media(docs_ds):
    """Register the documents table as a media table (payload = utf8
    text bytes, kind by id residue) — gives the multimodal stages a
    driver-registered input so their plumbing is oracle-verifiable."""
    kinds = ("image", "audio", "video")

    def conv(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        import pyarrow.compute as pc
        return pa.table({
            "media_id": t["doc_id"],
            "kind": pa.array([kinds[i % 3] for i in ids], pa.string()),
            "payload": pc.cast(t["text"], pa.binary()),
        })
    return docs_ds.map_batches(conv, batch_format="pyarrow",
                               zero_copy_batch=True)
