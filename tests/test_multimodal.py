"""Multimodal plumbing: schema, determinism, stub seam."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from leidenalg_ray.stages import multimodal as mm


def test_decode_schema_and_determinism():
    t = mm.synth_media_table(n=30, seed=1)
    out1 = mm.decode_features(rd.from_arrow(t),
                              concurrency=2).to_pandas()
    out2 = mm.decode_features(rd.from_arrow(t),
                              concurrency=2).to_pandas()
    assert set(out1.columns) == {"media_id", "kind", "width", "height",
                                 "n_frames", "feature"}
    a = out1.sort_values("media_id").reset_index(drop=True)
    b = out2.sort_values("media_id").reset_index(drop=True)
    assert a.drop(columns="feature").equals(b.drop(columns="feature"))
    for x, y in zip(a.feature, b.feature):
        assert np.array_equal(x, y)
    assert (a[a.kind == "image"].n_frames == 1).all()


def test_real_decode_seam_moved_to_compressed_codecs():
    """Round 4: decode='real' is a REAL byte-level decoder for
    uncompressed BMP/WAV; the NotImplementedError seam now lives at
    the per-payload compressed-codec boundary (and unknown modes
    still reject at construction)."""
    dec = mm.MediaDecoder(decode="real")   # constructs fine now
    t = pa.table({"media_id": [0], "kind": ["image"],
                  "payload": [b"\x89PNG\r\n\x1a\n" + b"\x00" * 32]})
    with pytest.raises(ValueError):        # not a BMP
        dec(t)
    with pytest.raises(ValueError):
        mm.MediaDecoder(decode="imaginary")


def test_frame_sampling():
    t = mm.synth_media_table(n=12, seed=2)
    out = mm.frame_sample(rd.from_arrow(t), every=2).to_pandas()
    vids = out[out.kind == "video"]
    assert (vids.frame % 2 == 0).all()
    imgs = out[out.kind == "image"]
    assert (imgs.frame == 0).all()


def test_bmp_roundtrip_including_row_padding():
    """encode_bmp/decode_bmp are real 24-bit BMP bytes: roundtrip is
    exact for odd widths (4-byte row padding) and bottom-up storage;
    decode rejects non-BMP and raises the codec seam on other
    depths."""
    import numpy as np
    import pytest

    from leidenalg_ray.stages import multimodal as mm

    rng = np.random.default_rng(7)
    for (h, w) in ((5, 7), (1, 1), (3, 4), (8, 9)):
        rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert np.array_equal(mm.decode_bmp(mm.encode_bmp(rgb)), rgb)
    with pytest.raises(ValueError):
        mm.decode_bmp(b"not a bitmap")
    buf = bytearray(mm.encode_bmp(rng.integers(0, 256, (2, 2, 3),
                                               dtype=np.uint8)))
    buf[28:30] = (32).to_bytes(2, "little")   # 32bpp -> codec seam
    with pytest.raises(NotImplementedError):
        mm.decode_bmp(bytes(buf))


def test_wav_roundtrip_and_features():
    import numpy as np
    import pytest

    from leidenalg_ray.stages import multimodal as mm

    s = (np.sin(np.arange(400) / 5.0) * 20000).astype(np.int16)
    out, rate = mm.decode_wav(mm.encode_wav(s, 16000))
    assert rate == 16000
    assert np.array_equal(out[:, 0], s)
    with pytest.raises(ValueError):
        mm.decode_wav(b"RIFFxxxxJUNK")
    buf = bytearray(mm.encode_wav(s))
    buf[20:22] = (3).to_bytes(2, "little")    # float PCM -> seam
    with pytest.raises(NotImplementedError):
        mm.decode_wav(bytes(buf))


def test_image_resize_nearest_neighbour():
    import numpy as np

    from leidenalg_ray.stages import multimodal as mm

    # column-striped image: resize keeps the stripe values
    rgb = np.zeros((4, 8, 3), dtype=np.uint8)
    rgb[:, 4:, :] = 255
    small = mm.image_resize(rgb, 2, 2)
    assert small.shape == (2, 2, 3)
    assert small[0, 0, 0] == 0 and small[0, 1, 0] == 255
    big = mm.image_resize(rgb, 16, 8)
    assert big.shape == (8, 16, 3)
    assert (big[:, :8] == 0).all() and (big[:, 8:] == 255).all()


def test_media_decoder_real_mode_decodes_actual_bytes():
    """decode='real' parses payload bytes (not a content hash): a
    non-constant image's means come out exactly, and video still
    raises the documented codec seam."""
    import numpy as np
    import pytest

    from leidenalg_ray.stages import multimodal as mm

    rgb = np.zeros((4, 4, 3), dtype=np.uint8)
    rgb[..., 0] = 10
    rgb[:2, :, 0] = 30          # mean_r = 20
    rgb[..., 1] = 7
    t = __import__("pyarrow").table({
        "media_id": [0],
        "kind": ["image"],
        "payload": [mm.encode_bmp(rgb)],
    })
    out = mm.MediaDecoder(decode="real")(t).to_pandas()
    assert out["width"][0] == 4 and out["height"][0] == 4
    f = out["feature"][0]
    assert abs(f[0] - 20 / 255) < 1e-6
    assert abs(f[1] - 7 / 255) < 1e-6
    t2 = __import__("pyarrow").table({
        "media_id": [1], "kind": ["video"], "payload": [b"\x00" * 64],
    })
    with pytest.raises(Exception):
        mm.MediaDecoder(decode="real")(t2)


def test_png_roundtrip_all_filters():
    import numpy as np
    from leidenalg_ray.stages import multimodal as mm
    rng = np.random.default_rng(11)
    rgb = rng.integers(0, 256, (13, 9, 3), dtype=np.uint8)
    for ft in range(5):
        buf = mm.encode_png(rgb, filter_type=ft)
        assert buf[:8] == b"\x89PNG\r\n\x1a\n"
        out = mm.decode_png(buf)
        assert out.shape == rgb.shape
        assert np.array_equal(out, rgb), f"filter {ft}"
        # dispatch sees the same pixels
        assert np.array_equal(mm.decode_image(buf), rgb)


def test_png_is_actually_compressed_and_seams_raise():
    import numpy as np
    import pytest
    from leidenalg_ray.stages import multimodal as mm
    flat = np.zeros((32, 32, 3), dtype=np.uint8)
    buf = mm.encode_png(flat)
    assert len(buf) < 32 * 32 * 3 // 4  # deflate really ran
    # truncated / wrong-type payloads hit the documented seams
    with pytest.raises(ValueError):
        mm.decode_png(b"BM" + bytes(64))
    with pytest.raises(ValueError):
        mm.decode_image(b"\xff\xd8\xff\xe0" + bytes(64))  # broken JPEG
    # grayscale PNG (color type 0) is the documented remaining seam
    import zlib
    ihdr = (8).to_bytes(4, "big") + (8).to_bytes(4, "big") \
        + bytes([8, 0, 0, 0, 0])
    gray = (mm._PNG_SIG + mm._png_chunk(b"IHDR", ihdr)
            + mm._png_chunk(b"IDAT", zlib.compress(bytes(9 * 8)))
            + mm._png_chunk(b"IEND", b""))
    with pytest.raises(NotImplementedError):
        mm.decode_png(gray)


def _jpeg_const_expected(r, g, b):
    """Closed-form decoded colour of a constant-colour image through
    the fixed-point baseline JPEG pipeline (mirrors the SQL oracle
    ``_sql_jpeg_img_ctes``)."""
    import numpy as np

    def cl(x):
        return min(255, max(0, int(x)))

    y = cl(np.floor(0.299 * r + 0.587 * g + 0.114 * b + 0.5))
    cb = cl(np.floor(-0.168736 * r - 0.331264 * g + 0.5 * b + 128.5))
    cr = cl(np.floor(0.5 * r - 0.418688 * g - 0.081312 * b + 128.5))

    def rec(v, q):
        f = 33547264 * (v - 128)
        s = (2 * abs(f) + (q << 22)) // (2 * (q << 22))
        dc = -s if f < 0 else s
        return cl(((524176 * dc * q + (1 << 21)) >> 22) + 128)

    py, pcb, pcr = rec(y, 16), rec(cb, 17), rec(cr, 17)
    return (cl(np.floor(py + 1.402 * (pcr - 128.0) + 0.5)),
            cl(np.floor(py - 0.344136 * (pcb - 128.0)
                        - 0.714136 * (pcr - 128.0) + 0.5)),
            cl(np.floor(py + 1.772 * (pcb - 128.0) + 0.5)))


def test_real_media_fixture_mixes_containers():
    import json
    from leidenalg_ray.stages import multimodal as mm
    t = mm.synth_real_media_table(40)
    codecs = [json.loads(m)["codec"] for m in t["meta"].to_pylist()]
    assert {"png8", "bmp24", "jpeg420", "pcm16"} <= set(codecs)
    # every image decodes to its closed-form constant color (JPEG ids
    # to the fixed-point quantisation closed form)
    import numpy as np
    for mid, kind, payload in zip(t["media_id"].to_pylist(),
                                  t["kind"].to_pylist(),
                                  t["payload"].to_pylist()):
        if kind != "image":
            continue
        rgb = mm.decode_image(payload)
        assert rgb.shape == (8 + mid % 7, 8 + mid % 13, 3)
        exp = ((mid * 37) % 256, (mid * 59) % 256, (mid * 83) % 256)
        if mid % 8 == 6:
            exp = _jpeg_const_expected(*exp)
        assert (rgb[..., 0] == exp[0]).all()
        assert (rgb[..., 1] == exp[1]).all()
        assert (rgb[..., 2] == exp[2]).all()


def test_jpeg_roundtrip_and_seams():
    """Baseline JPEG codec: real huffman entropy coding + fixed-point
    DCT. Constant images decode to the exact closed form; smooth
    gradients round-trip within normal JPEG error; progressive SOF2
    and restart markers raise at the documented seam."""
    import numpy as np
    import pytest
    from leidenalg_ray.stages import multimodal as mm

    rgb = np.empty((11, 19, 3), dtype=np.uint8)
    rgb[..., 0], rgb[..., 1], rgb[..., 2] = 200, 30, 90
    buf = mm.encode_jpeg(rgb)
    assert buf[:2] == b"\xff\xd8" and buf[-2:] == b"\xff\xd9"
    dec = mm.decode_jpeg(buf)
    assert dec.shape == rgb.shape
    assert np.array_equal(
        np.unique(dec.reshape(-1, 3), axis=0)[0],
        np.array(_jpeg_const_expected(200, 30, 90)))
    # dispatch sees JPEG magic
    assert np.array_equal(mm.decode_image(buf), dec)

    xx, yy = np.meshgrid(np.arange(40), np.arange(24))
    grad = np.stack([(xx * 5) % 256, (yy * 7) % 256,
                     ((xx + yy) * 3) % 256], -1).astype(np.uint8)
    out = mm.decode_jpeg(mm.encode_jpeg(grad)).astype(int)
    assert np.abs(out - grad.astype(int)).max() <= 40   # lossy bound
    assert np.abs(out - grad.astype(int)).mean() < 8

    # seams: progressive SOF2 / DRI
    sof2 = buf.replace(b"\xff\xc0", b"\xff\xc2", 1)
    with pytest.raises(NotImplementedError):
        mm.decode_jpeg(sof2)
    dri = buf[:2] + b"\xff\xdd\x00\x04\x00\x08" + buf[2:]
    with pytest.raises(NotImplementedError):
        mm.decode_jpeg(dri)


def test_jpeg_multi_scan_is_a_seam_not_a_key_error():
    """A baseline file whose first scan codes fewer components than the
    frame holds (a non-interleaved, multi-scan JPEG) raises the
    documented ``NotImplementedError``, not a ``KeyError``."""
    buf = mm.encode_jpeg(np.full((8, 8, 3), 100, dtype=np.uint8))
    sos = b"\xff\xda\x00\x0c\x03\x01\x00\x02\x11\x03\x11\x00\x3f\x00"
    assert buf.count(sos) == 1
    one_comp = b"\xff\xda\x00\x08\x01\x01\x00\x00\x3f\x00"
    with pytest.raises(NotImplementedError, match="multi-scan"):
        mm.decode_jpeg(buf.replace(sos, one_comp))


@pytest.mark.parametrize("marker", [b"\xff\xd0", b"\xff\xd7", b"\xff\x01"])
def test_jpeg_header_steps_over_markers_without_length(marker):
    """RSTn (0xD0-0xD7) and TEM (0x01) carry no length field: one
    between two header segments is stepped over and the image decodes
    as without it."""
    xx, yy = np.meshgrid(np.arange(16), np.arange(16))
    rgb = np.stack([xx * 9, yy * 11, (xx + yy) * 5], -1).astype(np.uint8)
    buf = mm.encode_jpeg(rgb)
    sof = buf.index(b"\xff\xc0")
    assert np.array_equal(mm.decode_jpeg(buf[:sof] + marker + buf[sof:]),
                          mm.decode_jpeg(buf))
