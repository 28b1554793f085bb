"""ComputeCovid19Plus: the end-to-end diagnosis framework (Figs. 3-4).

Wires the three AI tools into the paper's workflow:

    CT scan ──► [Enhancement AI] ──► Segmentation AI ──► Classification AI
                 (optional)            lung mask ⊙ scan       P(COVID-19)

``use_enhancement`` toggles the first stage, which is exactly the
original-vs-enhanced comparison evaluated in Fig. 13 / §5.2.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ct.hounsfield import LUNG_WINDOW, denormalize_unit, normalize_unit
from repro.parallel.pool import parallel_map, resolve_workers
from repro.parallel.shm import ShmArray, shm_scope
from repro.pipeline.classification import ClassificationAI
from repro.pipeline.enhancement import EnhancementAI
from repro.pipeline.segmentation import SegmentationAI

#: dtype every framework casts its learned stages to: diagnosis and
#: serving run in float32, training stays float64 (docs/backends.md).
INFERENCE_DTYPE = np.float32

# ---------------------------------------------------------------------------
# Worker-side state for the data-parallel inference fan-out.
#
# With the ``fork`` start method the initializer and its argument are
# inherited, not pickled: every worker process holds a *warm replica* of
# the already-constructed (possibly trained) framework — the process
# analogue of DDP keeping one model copy per rank (§4.1, Table 3).
# ---------------------------------------------------------------------------
_WORKER_FRAMEWORK: Optional["ComputeCovid19Plus"] = None


def _adopt_replica(framework: "ComputeCovid19Plus") -> None:
    global _WORKER_FRAMEWORK
    _WORKER_FRAMEWORK = framework


def _score_shared_volume(handle: ShmArray) -> np.floating:
    """Fan-out item: probability for one shared-memory volume."""
    return _WORKER_FRAMEWORK.diagnose(handle.asarray()).probability


def _diagnose_shared_span(
    item: Tuple[int, int],
    volumes: ShmArray,
    segmented: ShmArray,
    masks: ShmArray,
) -> np.floating:
    """Fan-out item: diagnose one scan held as a span of a shared stack.

    Reads slices ``[offset, offset+depth)`` of the shared input, writes
    the segmented volume and lung mask back into the shared outputs,
    and returns only the (scalar) probability through the pipe.
    """
    offset, depth = item
    result = _WORKER_FRAMEWORK.diagnose(volumes.asarray()[offset:offset + depth])
    segmented.asarray()[offset:offset + depth] = result.segmented_volume
    masks.asarray()[offset:offset + depth] = result.lung_mask
    return result.probability


@dataclass
class DiagnosisResult:
    """Output of one pipeline run.

    ``probability`` is a NumPy scalar of the classifier's dtype
    (``np.float32`` by default), not widened to a Python float, so that
    a comparison against it knows which precision produced it.
    """

    probability: np.floating
    prediction: int
    threshold: float
    enhanced: bool
    lung_mask: np.ndarray
    segmented_volume: np.ndarray

    @property
    def label(self) -> str:
        return "COVID-19 positive" if self.prediction else "COVID-19 negative"


class ComputeCovid19Plus:
    """The full framework: enhance → segment → classify.

    Parameters
    ----------
    enhancement, segmentation, classification:
        The three tools; any may be user-trained or default-constructed.
    threshold:
        Decision threshold on the classifier probability (the paper
        operates at 0.061, chosen by :func:`repro.metrics.optimal_threshold`).
    use_enhancement:
        Include the Enhancement AI stage (the green Fig. 3 path) or skip
        it (the §5.2.2 baseline arm).

    The learned stages are cast in place to :data:`INFERENCE_DTYPE`
    (float32) on construction; ``to_dtype(np.float64)`` casts them back,
    e.g. to train one further.
    """

    def __init__(
        self,
        enhancement: Optional[EnhancementAI] = None,
        segmentation: Optional[SegmentationAI] = None,
        classification: Optional[ClassificationAI] = None,
        threshold: float = 0.5,
        use_enhancement: bool = True,
        hu_window=LUNG_WINDOW,
        backend: Optional[str] = None,
    ):
        self.enhancement = enhancement or EnhancementAI()
        self.segmentation = segmentation or SegmentationAI()
        self.classification = classification or ClassificationAI()
        self.threshold = threshold
        self.use_enhancement = use_enhancement
        self.hu_window = hu_window
        self.to_dtype(INFERENCE_DTYPE)
        if backend is not None:
            self.to_backend(backend)

    # ------------------------------------------------------------------
    def enhance_volume_hu(self, volume_hu: np.ndarray) -> np.ndarray:
        """Run Enhancement AI on an HU volume.

        Enhancement AI consumes [0, 1] data (§3.1.1) while the rest of
        the pipeline works in HU (§3.3.1); this handles the round trip.
        """
        unit = normalize_unit(volume_hu, self.hu_window)
        enhanced_unit = self.enhancement.enhance_volume(unit)
        return denormalize_unit(enhanced_unit, self.hu_window)

    def diagnose(self, volume_hu: np.ndarray) -> DiagnosisResult:
        """Full Fig. 4 workflow on one (D, H, W) HU scan."""
        if volume_hu.ndim != 3:
            raise ValueError(f"expected (D, H, W) volume; got shape {volume_hu.shape}")
        work = self.enhance_volume_hu(volume_hu) if self.use_enhancement else volume_hu
        segmented, mask = self.segmentation.apply(work)
        prob = self.classification.predict_proba(segmented)
        return DiagnosisResult(
            probability=prob,
            prediction=int(prob >= self.threshold),
            threshold=self.threshold,
            enhanced=self.use_enhancement,
            lung_mask=mask,
            segmented_volume=segmented,
        )

    def diagnose_batch(
        self,
        volumes_hu: Sequence[np.ndarray],
        workers: Optional[int] = 1,
        bus=None,
    ) -> List[DiagnosisResult]:
        """Fig. 4 workflow on many scans with *stacked* execution.

        The enhancement stage runs once over all slices concatenated
        along the slice axis, and classification runs as one stacked
        forward pass when the scans share a shape — the execution shape
        a serving batch (``repro.serve``) dispatches to a device.  Every
        stage operates per-slice / per-volume in eval mode, so results
        match calling :meth:`diagnose` per scan up to float
        reassociation: BLAS may sum a stacked matmul in another order,
        which moves a float32 probability by a few ulps.

        ``workers=N`` switches to the data-parallel path: scans are
        stacked once into shared memory, each worker process diagnoses
        whole scans on its warm (fork-inherited) framework replica, and
        the segmented volumes / lung masks come back through shared
        output arrays — only scalar probabilities cross the pipe.
        """
        volumes = [np.asarray(v) for v in volumes_hu]
        if not volumes:
            return []
        for v in volumes:
            if v.ndim != 3:
                raise ValueError(f"expected (D, H, W) volumes; got shape {v.shape}")
        plane = volumes[0].shape[1:]
        if any(v.shape[1:] != plane for v in volumes):
            raise ValueError("batched scans must share in-plane (H, W) shape")
        if resolve_workers(workers) > 1 and len(volumes) > 1:
            return self._diagnose_batch_parallel(volumes, workers, bus)
        if self.use_enhancement:
            depths = [v.shape[0] for v in volumes]
            stacked = self.enhance_volume_hu(np.concatenate(volumes, axis=0))
            splits = np.cumsum(depths)[:-1]
            work = np.split(stacked, splits, axis=0)
        else:
            work = volumes
        segmented, masks = zip(*(self.segmentation.apply(w) for w in work))
        probs = self.classification.predict_proba_batch(segmented)
        return [
            DiagnosisResult(
                probability=p,
                prediction=int(p >= self.threshold),
                threshold=self.threshold,
                enhanced=self.use_enhancement,
                lung_mask=mask,
                segmented_volume=seg,
            )
            for p, mask, seg in zip(probs, masks, segmented)
        ]

    def _diagnose_batch_parallel(
        self, volumes: List[np.ndarray], workers: Optional[int], bus,
    ) -> List[DiagnosisResult]:
        """Data-parallel :meth:`diagnose_batch`: whole scans per worker."""
        depths = [v.shape[0] for v in volumes]
        offsets = np.concatenate([[0], np.cumsum(depths)[:-1]])
        with shm_scope() as scope:
            stack = scope.share(
                np.concatenate([np.asarray(v, dtype=np.float64) for v in volumes]))
            segmented = scope.create(stack.shape, np.float64)
            masks = scope.create(stack.shape, np.bool_)
            probs = parallel_map(
                partial(_diagnose_shared_span, volumes=stack,
                        segmented=segmented, masks=masks),
                [(int(o), int(d)) for o, d in zip(offsets, depths)],
                workers=workers, bus=bus, source="repro.pipeline.batch",
                initializer=_adopt_replica, initargs=(self,))
            seg_out = segmented.copy()
            mask_out = masks.copy()
        return [
            DiagnosisResult(
                probability=p,
                prediction=int(p >= self.threshold),
                threshold=self.threshold,
                enhanced=self.use_enhancement,
                lung_mask=mask_out[o:o + d],
                segmented_volume=seg_out[o:o + d],
            )
            for p, o, d in zip(probs, offsets, depths)
        ]

    def score_batch(
        self,
        volumes_hu: Sequence[np.ndarray],
        workers: Optional[int] = 1,
        bus=None,
    ) -> np.ndarray:
        """Probabilities for many scans (for ROC evaluation).

        ``workers=N`` fans the per-scan diagnoses across ``N`` processes
        with warm framework replicas, each scan handed over as a
        shared-memory handle.  Inference is deterministic, so the scores
        are bit-identical to the serial path for every worker count.
        """
        if resolve_workers(workers) > 1 and len(volumes_hu) > 1:
            with shm_scope() as scope:
                handles = [scope.share(np.asarray(v)) for v in volumes_hu]
                probs = parallel_map(
                    _score_shared_volume, handles, workers=workers, bus=bus,
                    source="repro.pipeline.batch",
                    initializer=_adopt_replica, initargs=(self,))
            return np.array(probs)
        return np.array([self.diagnose(v).probability for v in volumes_hu])

    def calibrate_threshold(self, volumes_hu: Sequence[np.ndarray], labels) -> float:
        """Pick the accuracy-optimal threshold on a validation set."""
        from repro.metrics import optimal_threshold

        scores = self.score_batch(volumes_hu)
        self.threshold, _ = optimal_threshold(np.asarray(labels), scores)
        return self.threshold

    def to_dtype(self, dtype) -> "ComputeCovid19Plus":
        """Cast every learned stage to ``dtype``.

        Frameworks start in float32 (:data:`INFERENCE_DTYPE`), which
        halves the bytes every kernel moves at a probability cost of
        ~1e-7 (docs/performance.md); ``to_dtype(np.float64)`` returns to
        double precision.  The threshold-backend segmentation stage is
        dtype-free; an AH-Net backend is cast along with the rest.
        """
        self.enhancement.to_dtype(dtype)
        self.classification.to_dtype(dtype)
        if self.segmentation.ahnet is not None:
            self.segmentation.ahnet.to_dtype(dtype)
        return self

    def to_backend(self, backend: Optional[str]) -> "ComputeCovid19Plus":
        """Select the kernel backend for every learned stage.

        ``framework.to_backend("fast")`` routes all tensor ops through
        the FFT kernel backend (ulp parity tier); ``None`` reverts to
        the thread-scoped default.
        """
        self.enhancement.to_backend(backend)
        self.classification.to_backend(backend)
        if self.segmentation.ahnet is not None:
            self.segmentation.ahnet.to_backend(backend)
        return self

    # ------------------------------------------------------------------
    def save(self, path_prefix: str) -> None:
        """Persist the trained stages for deployment.

        Writes ``<prefix>.enhancement.npz``, ``<prefix>.classification.npz``,
        ``<prefix>.segmentation.npz`` when the segmentation stage is an
        AH-Net (the threshold back-end has no weights) and
        ``<prefix>.meta.npz`` (threshold + configuration flags).
        """
        self.enhancement.save(path_prefix + ".enhancement.npz")
        self.classification.save(path_prefix + ".classification.npz")
        if self.segmentation.ahnet is not None:
            self.segmentation.ahnet.save(path_prefix + ".segmentation.npz")
        np.savez(path_prefix + ".meta.npz",
                 threshold=self.threshold,
                 use_enhancement=self.use_enhancement,
                 hu_window=np.asarray(self.hu_window, dtype=float))

    def load(self, path_prefix: str) -> None:
        """Restore stages saved by :meth:`save` (architectures must match).

        The stages keep the framework's dtype whatever the checkpoint's:
        a float64 training checkpoint loads as a float32 framework.
        """
        dtype = self.classification.model.dtype
        self.enhancement.load(path_prefix + ".enhancement.npz")
        self.classification.load(path_prefix + ".classification.npz")
        if self.segmentation.ahnet is not None:
            self.segmentation.ahnet.load(path_prefix + ".segmentation.npz")
        self.to_dtype(dtype)
        with np.load(path_prefix + ".meta.npz") as meta:
            self.threshold = float(meta["threshold"])
            self.use_enhancement = bool(meta["use_enhancement"])
            self.hu_window = tuple(meta["hu_window"])
