"""Multimodal columns: opaque binary payloads + typed metadata.

Images/audio/video are opaque ``binary`` columns with sibling metadata;
decode / feature-extract / resize / frame-sample are worker-cached
``map_batches`` task stages (stages/workercache.py). The actual codec
libraries (Pillow, ffmpeg, …) are NOT in this container, so the decoder
backends are stubbed behind a
clearly-marked seam (``NotImplementedError`` for the real path, a
deterministic fake for tests) — the Ray-side plumbing (schemas, batch
sizing, stage signature, output layout) is real and tested.

Scale notes: media rows are large → small ``batch_size`` (payload bytes
dominate, so a batch of 8-32 rows per task keeps each worker's heap
small); the object store handles spill. Never convert media batches to
pandas (object-dtype copies); stay in Arrow.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("media_kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("mime", pa.string()),
        ("width", pa.int32()),  # -1 when unknown/not applicable
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)

IMAGE_FEATURES_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("feature", pa.list_(pa.float32())),
    ]
)


def _stub_seed(payload: bytes) -> int:
    """Seed for the fake decoders: md5 of the payload's lowercase-hex
    string, first 8 bytes little-endian. Chosen so a DuckDB oracle can
    reproduce it exactly: with ``payload = md5(ref).digest() * 16`` (see
    ``synth_media_batch``) this equals
    ``md5_number_upper(repeat(md5(ref), 16))`` in SQL."""
    return int.from_bytes(
        hashlib.md5(payload.hex().encode()).digest()[:8], "little"
    )


class FakeImageBackend:
    """Deterministic stand-in for a real decoder: 'decodes' payload bytes
    into a pseudo-image, so shapes/dtypes downstream are real. The image
    DIMENSIONS are pure modular arithmetic on the md5 seed (SQL-replicable
    for the DuckDB oracle); only the pixel CONTENT uses numpy RNG."""

    def decode(self, payload: bytes) -> np.ndarray:
        seed = _stub_seed(payload)
        h = 16 + seed % 48
        w = 16 + (seed // 256) % 48
        rng = np.random.RandomState(seed % (2**32))
        return rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)

    def resize(self, img: np.ndarray, size: int) -> np.ndarray:
        # nearest-neighbor via index sampling (no scipy/PIL)
        h, w = img.shape[:2]
        ys = (np.arange(size) * h // size).clip(0, h - 1)
        xs = (np.arange(size) * w // size).clip(0, w - 1)
        return img[ys][:, xs]


class RealImageBackend:
    """Seam for a real decoder (Pillow/torchvision). Not available here."""

    def decode(self, payload: bytes) -> np.ndarray:
        raise NotImplementedError(
            "Real image decoding requires Pillow/opencv, which are not in "
            "this container; plug a backend implementing decode()/resize()."
        )

    def resize(self, img, size):
        raise NotImplementedError


class ImageFeatureExtractor:
    """Actor-pool stage: decode → resize → mean-pooled color histogram
    feature. Backend chosen at construction (init-once-per-actor)."""

    def __init__(self, target_size: int = 32, backend: Optional[object] = None):
        self.target_size = target_size
        self.backend = backend or FakeImageBackend()

    def features(self, img: np.ndarray) -> np.ndarray:
        small = self.backend.resize(img, self.target_size)
        hist = [
            np.histogram(small[..., c], bins=8, range=(0, 256))[0]
            for c in range(small.shape[-1])
        ]
        feat = np.concatenate(hist).astype(np.float32)
        total = feat.sum()
        return feat / total if total else feat

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        widths, heights, feats = [], [], []
        for payload in payloads:
            img = self.backend.decode(payload or b"")
            heights.append(img.shape[0])
            widths.append(img.shape[1])
            feats.append(self.features(img).tolist())
        return pa.Table.from_arrays(
            [
                pa.array(refs, type=pa.string()),
                pa.array(widths, type=pa.int32()),
                pa.array(heights, type=pa.int32()),
                pa.array(feats, type=pa.list_(pa.float32())),
            ],
            schema=IMAGE_FEATURES_SCHEMA,
        )


AUDIO_FEATURES_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("duration_ms", pa.int32()),
        ("sample_rate", pa.int32()),
        ("rms", pa.float32()),
        ("zero_crossings", pa.int32()),
    ]
)

FRAME_FEATURES_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("frame_idx", pa.int32()),
        ("ts_ms", pa.int32()),
        ("feature", pa.list_(pa.float32())),
    ]
)


class FakeAudioBackend:
    """Deterministic stand-in for an audio decoder: payload bytes → a
    pseudo-PCM float array + synthetic sample rate. The sample COUNT is
    modular arithmetic on the md5 seed (SQL-replicable: duration_ms =
    (sr/4 + seed % (7*sr/4)) // 16 for sr=16000); PCM content uses RNG."""

    def decode(self, payload: bytes):
        seed = _stub_seed(payload)
        sample_rate = 16000
        n = sample_rate // 4 + seed % (sample_rate * 2 - sample_rate // 4)
        rng = np.random.RandomState(seed % (2**32))
        return rng.standard_normal(n).astype(np.float32), sample_rate


class AudioFeatureExtractor:
    """Actor-pool stage: decode → duration / RMS / zero-crossing features
    (the plumbing a real librosa/ffmpeg stage would use; decode stubbed)."""

    def __init__(self, backend=None):
        self.backend = backend or FakeAudioBackend()

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        durs, rates, rms, zc = [], [], [], []
        for payload in payloads:
            pcm, sr = self.backend.decode(payload or b"")
            durs.append(int(len(pcm) * 1000 / sr))
            rates.append(sr)
            rms.append(float(np.sqrt(np.mean(pcm**2))) if len(pcm) else 0.0)
            zc.append(int(((pcm[:-1] * pcm[1:]) < 0).sum()) if len(pcm) > 1 else 0)
        return pa.Table.from_arrays(
            [
                pa.array(refs, pa.string()),
                pa.array(durs, pa.int32()),
                pa.array(rates, pa.int32()),
                pa.array(rms, pa.float32()),
                pa.array(zc, pa.int32()),
            ],
            schema=AUDIO_FEATURES_SCHEMA,
        )


class VideoFrameSampler:
    """Actor-pool stage: 'decode' video payload into hash-seeded frames,
    sample every ``stride``-th frame, emit per-frame color-histogram
    features (one output row per sampled frame — a flat_map-shaped
    map_batches)."""

    def __init__(self, stride: int = 5, target_size: int = 16, backend=None):
        self.stride = stride
        self.image = ImageFeatureExtractor(target_size=target_size, backend=backend)

    def frames(self, payload: bytes):
        # frame COUNT is modular arithmetic on the md5 seed (SQL-replicable:
        # n_frames = 10 + seed % 50, sampled indices = series(0, n-1, stride),
        # ts_ms = idx * 100 at 10 fps); frame pixel content uses RNG.
        seed = _stub_seed(payload)
        n_frames = 10 + seed % 50
        rng = np.random.RandomState(seed % (2**32))
        fps = 10
        for i in range(0, n_frames, self.stride):
            yield i, int(i * 1000 / fps), rng.randint(
                0, 256, size=(24, 32, 3), dtype=np.uint8
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        out_ref, out_idx, out_ts, out_feat = [], [], [], []
        for ref, payload in zip(refs, payloads):
            for idx, ts, frame in self.frames(payload or b""):
                out_ref.append(ref)
                out_idx.append(idx)
                out_ts.append(ts)
                out_feat.append(self.image.features(frame).tolist())
        return pa.Table.from_arrays(
            [
                pa.array(out_ref, pa.string()),
                pa.array(out_idx, pa.int32()),
                pa.array(out_ts, pa.int32()),
                pa.array(out_feat, pa.list_(pa.float32())),
            ],
            schema=FRAME_FEATURES_SCHEMA,
        )


def synth_media_batch(batch: pa.Table) -> pa.Table:
    """Build MEDIA_SCHEMA rows from extracted media spans (payload =
    deterministic pseudo-bytes derived from media_ref; stands in for a
    blob-store fetch). ``payload = md5(ref) * 16`` so the stub decoders'
    seed is reproducible in SQL (see ``_stub_seed``)."""
    refs = [r for r in batch.column("media_ref").to_pylist() if r]
    payloads = [hashlib.md5(r.encode()).digest() * 16 for r in refs]
    n = len(refs)
    return pa.Table.from_arrays(
        [
            pa.array(refs, type=pa.string()),
            pa.array(["image"] * n, type=pa.string()),
            pa.array(payloads, type=pa.binary()),
            pa.array(["application/x-fake"] * n, type=pa.string()),
            pa.array([-1] * n, type=pa.int32()),
            pa.array([-1] * n, type=pa.int32()),
            pa.array([-1] * n, type=pa.int32()),
        ],
        schema=MEDIA_SCHEMA,
    )


def media_rows_from_spans(spans):
    """Extracted spans → MEDIA_SCHEMA rows (filter kind == 'media',
    payload fetch stubbed by ``synth_media_batch``)."""
    import pyarrow.compute as pc

    return spans.map_batches(
        lambda b: synth_media_batch(
            b.filter(pc.equal(b.column("kind"), pa.scalar("media")))
        ),
        batch_format="pyarrow",
    )


def media_manifest_dataset(sf_dir: str):
    """SQL-buildable media manifest: one media row per document, with
    ``media_ref = 'img://' + md5('media:' + doc_id)[:12]`` — the DuckDB
    oracle rebuilds the identical ref set from the documents table, so the
    multimodal stages can be hash-verified end to end (the extract-fed
    path stays covered by ``media_rows_from_spans``)."""
    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def to_refs(batch: pa.Table) -> pa.Table:
        refs = [
            "img://" + hashlib.md5(f"media:{i}".encode()).hexdigest()[:12]
            for i in batch.column("doc_id").to_pylist()
        ]
        return pa.table({"media_ref": pa.array(refs, pa.string())})

    return docs.map_batches(to_refs, batch_format="pyarrow").map_batches(
        synth_media_batch, batch_format="pyarrow"
    )


def _feature_stage(media_rows, cls, ctor_kwargs, batch_size):
    """Stage wiring shared by the three media ops: the deterministic stub
    backends are CHEAP state → task pool + worker-local cache
    (stages/workercache.py, no pool spin-up)."""
    from .workercache import worker_cached

    return media_rows.map_batches(
        worker_cached(cls, **ctor_kwargs),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def image_features(media_rows, target_size: int = 32):
    """MEDIA_SCHEMA rows → image features (small batches — payload-heavy
    rows, see module docstring)."""
    return _feature_stage(
        media_rows, ImageFeatureExtractor, {"target_size": target_size}, 16
    )


def audio_features(media_rows):
    """MEDIA_SCHEMA rows → audio features (duration/RMS/zero-crossings)."""
    return _feature_stage(media_rows, AudioFeatureExtractor, {}, 16)


def video_frames(media_rows, stride: int = 5):
    """MEDIA_SCHEMA rows → per-sampled-frame features (flat_map shape:
    one output row per frame)."""
    return _feature_stage(media_rows, VideoFrameSampler, {"stride": stride}, 8)


def media_feature_pipeline(spans, target_size: int = 32):
    """media spans → MEDIA_SCHEMA → image feature extraction."""
    return image_features(media_rows_from_spans(spans), target_size=target_size)


def audio_feature_pipeline(spans):
    """media spans → audio features."""
    return audio_features(media_rows_from_spans(spans))


def video_frame_pipeline(spans, stride: int = 5):
    """media spans → per-sampled-frame features."""
    return video_frames(media_rows_from_spans(spans), stride=stride)
