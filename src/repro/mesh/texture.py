"""Texture atlas model for textured-mesh streaming cost.

Sec. 4.3 measures Draco streaming at ~107 Mbps "even without texture
(i.e., the surface details of 3D mesh)" — the realistic textured case is
strictly worse.  This module quantifies that caveat: a synthetic skin-like
texture atlas, a DCT-quantization compressor standing in for JPEG, and a
streaming-cost helper that adds the texture bytes to the geometry bytes.

Only the texture's *compressed size behaviour* matters here (resolution,
detail energy, quality factor), so the codec is a real-but-minimal
transform coder: 8x8 DCT, JPEG-style quantization, LZMA entropy stage.
"""

from __future__ import annotations

from dataclasses import dataclass
import lzma

import numpy as np

from repro.checks import fraction

_LZMA_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 1}]


@dataclass
class TextureAtlas:
    """A square single-channel-per-plane texture atlas (YCbCr-like).

    Attributes:
        pixels: ``(H, W, 3)`` float array in [0, 1].
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3), got {self.pixels.shape}")
        if self.pixels.shape[0] % 8 or self.pixels.shape[1] % 8:
            raise ValueError("texture dimensions must be multiples of 8")

    @property
    def resolution(self) -> int:
        """Height (== width for the synthetic atlases)."""
        return self.pixels.shape[0]


def skin_texture(resolution: int = 512, seed: int = 0) -> TextureAtlas:
    """A synthetic skin-like atlas: smooth base tone + pore-scale detail.

    Raises:
        ValueError: For resolutions that are not positive multiples of 8.
    """
    if not resolution > 0 or resolution % 8:
        raise ValueError("resolution must be a positive multiple of 8")
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:resolution, 0:resolution] / resolution
    base = 0.62 + 0.08 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
    detail = rng.normal(0.0, 0.02, (resolution, resolution))
    # Cheap low-pass: average shifted copies to make pore-scale blobs.
    detail = (detail + np.roll(detail, 1, 0) + np.roll(detail, 1, 1)) / 3.0
    luma = np.clip(base + detail, 0.0, 1.0)
    cb = np.full_like(luma, 0.45) + 0.01 * detail
    cr = np.full_like(luma, 0.60) + 0.01 * detail
    return TextureAtlas(np.stack([luma, cb, cr], axis=-1))


_BASE_QUANT = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


class TextureCodec:
    """JPEG-like transform coder: 8x8 DCT + quantization + LZMA.

    Args:
        quality: 1-100, higher is better; scales the quantization table
            the way libjpeg does.
    """

    def __init__(self, quality: int = 75) -> None:
        if not 1 <= quality <= 100:
            raise ValueError(f"quality must be in [1, 100], got {quality}")
        self.quality = quality
        scale = 5000 / quality if quality < 50 else 200 - 2 * quality
        self._quant = np.maximum(1.0, np.floor(_BASE_QUANT * scale / 100 + 0.5))

    def _blocks(self, plane: np.ndarray) -> np.ndarray:
        h, w = plane.shape
        return (
            plane.reshape(h // 8, 8, w // 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(-1, 8, 8)
        )

    def encode(self, atlas: TextureAtlas) -> bytes:
        """Compress the atlas; returns the full payload bytes."""
        from scipy.fftpack import dctn

        coded = []
        for c in range(3):
            plane = atlas.pixels[:, :, c] * 255.0 - 128.0
            blocks = self._blocks(plane)
            coeffs = dctn(blocks, axes=(1, 2), norm="ortho")
            quantized = np.round(coeffs / self._quant).astype(np.int16)
            coded.append(quantized.tobytes())
        header = atlas.resolution.to_bytes(4, "little") + bytes([self.quality])
        return header + lzma.compress(
            b"".join(coded), format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS
        )

    def decode(self, payload: bytes) -> TextureAtlas:
        """Reconstruct the (lossy) atlas.

        Raises:
            ValueError: On truncated payloads.
        """
        if len(payload) < 5:
            raise ValueError("truncated texture payload")
        from scipy.fftpack import idctn

        resolution = int.from_bytes(payload[:4], "little")
        raw = lzma.decompress(
            payload[5:], format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS
        )
        per_plane = (resolution // 8) ** 2 * 64 * 2
        if len(raw) < 3 * per_plane:
            raise ValueError("truncated texture data")
        planes = []
        n_blocks_side = resolution // 8
        for c in range(3):
            quantized = np.frombuffer(
                raw, dtype=np.int16, count=(resolution // 8) ** 2 * 64,
                offset=c * per_plane,
            ).reshape(-1, 8, 8).astype(np.float64)
            coeffs = quantized * self._quant
            blocks = idctn(coeffs, axes=(1, 2), norm="ortho")
            plane = (
                blocks.reshape(n_blocks_side, n_blocks_side, 8, 8)
                .transpose(0, 2, 1, 3)
                .reshape(resolution, resolution)
            )
            planes.append(np.clip((plane + 128.0) / 255.0, 0.0, 1.0))
        return TextureAtlas(np.stack(planes, axis=-1))


def textured_streaming_mbps(
    geometry_bytes: float,
    texture_bytes: float,
    fps: float,
    texture_refresh_fraction: float = 1.0,
) -> float:
    """Streaming cost of geometry + texture at ``fps``.

    ``texture_refresh_fraction`` < 1 models delta-updated textures (only
    part of the atlas changes per frame).
    """
    fraction(texture_refresh_fraction, "texture_refresh_fraction")
    per_frame = geometry_bytes + texture_bytes * texture_refresh_fraction
    return per_frame * 8.0 * fps / 1e6
