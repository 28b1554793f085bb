"""The stage graph: the Fig. 4 pipeline's StageFn cost records.

``covid_stage_graph`` builds the paper's three-model DAG —
DDnet enhance → AH-Net segment → DenseNet3D classify — plus, on
request, the quantify arm.  The graph holds the per-stage cost records
and which stages may be routed around; which stage follows which, per
request kind, is :class:`repro.workload.WorkloadRouter`'s decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.dag.stage import StageFn

__all__ = ["StageGraph", "covid_stage_graph", "STAGE_MODELS",
           "QUANTIFY_MODEL"]

#: Stage name → (model label, weight footprint GB).  Footprints are the
#: float32 parameter sets of the paper's three models at deploy scale.
STAGE_MODELS = {
    "enhance": ("DDnet", 1.6),
    "segment": ("AH-Net", 0.9),
    "classify": ("DenseNet3D-121", 0.5),
}

#: The quantify arm's model record (COVID-Rate-style lesion segmentation
#: + involvement scoring).  Kept out of :data:`STAGE_MODELS` so the
#: default three-stage chain is untouched; ``covid_stage_graph`` appends
#: it only when ``with_quantify=True``.
QUANTIFY_MODEL = ("COVID-Rate-Seg", 0.7)

#: One paper-scale scan chunk (512×512×32 float32 voxels) in MB.
SCAN_MB = 512 * 512 * 32 * 4 / 1e6


@dataclass(frozen=True)
class StageGraph:
    """The :class:`StageFn` records of one pipeline plus skip metadata.

    ``skippable`` names stages the pipeline can route around without
    changing the *kind* of answer (only its quality) — for the paper
    that is exactly the enhancement stage (the Fig. 13 "original" arm).
    """

    name: str
    stages: Tuple[StageFn, ...]
    skippable: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.sanity_check()

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def stage(self, name: str) -> StageFn:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage {name!r} in graph {self.name!r}")

    def sanity_check(self) -> None:
        """Structural invariants (raises on violation)."""
        names = self.stage_names
        if not names:
            raise ValueError("a stage graph needs at least one stage")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")
        for skip in self.skippable:
            if skip not in names:
                raise ValueError(f"skippable stage {skip!r} not in {names}")
            if skip == names[-1]:
                raise ValueError("the final stage cannot be skippable")


def covid_stage_graph(use_enhancement: bool = True,
                      with_quantify: bool = False) -> StageGraph:
    """The ComputeCOVID19+ pipeline as a stage graph.

    - **enhance** (DDnet, §2.2): consumes the raw low-dose chunk,
      produces the enhanced chunk — the heavy stage (Tables 4–7).
    - **segment** (AH-Net role, §2.3.1): bandwidth-bound lung masking;
      its artifact is the masked volume + mask.
    - **classify** (3D DenseNet-121, §2.3.2): consumes the segmented
      volume, emits a probability — tiny output, modest compute.

    ``use_enhancement=False`` builds the Fig. 13 "original" arm (the
    graph the degradation controller effectively serves).

    ``with_quantify=True`` adds the **quantify** record (COVID-Rate
    style lesion segmentation + percent-of-lung-involvement): it
    consumes the segment artifact and replaces classify as the terminal
    for requests of ``kind="quantify"``.
    """
    specs = {
        "enhance": dict(input_mb=SCAN_MB, output_mb=SCAN_MB,
                        paper="§2.2 / Tables 4-7"),
        # masked volume + boolean mask ≈ 1.25× the float32 chunk.
        "segment": dict(input_mb=SCAN_MB, output_mb=SCAN_MB * 1.25,
                        paper="§2.3.1 / §5.1.1"),
        "classify": dict(input_mb=SCAN_MB * 1.25, output_mb=1e-3,
                         paper="§2.3.2 / Table 9"),
    }
    names = list(STAGE_MODELS) if use_enhancement else list(STAGE_MODELS)[1:]
    stages = []
    for name in names:
        model, space_gb = STAGE_MODELS[name]
        spec = specs[name]
        stages.append(StageFn(name, model, space_gb, spec["input_mb"],
                              spec["output_mb"], meta={"paper": spec["paper"]}))
    if with_quantify:
        model, space_gb = QUANTIFY_MODEL
        # Consumes the segment artifact (masked volume + mask), emits a
        # scalar involvement score + severity band.
        stages.append(StageFn("quantify", model, space_gb, SCAN_MB * 1.25,
                              1e-3, meta={"paper": "COVID-Rate (PAPERS.md)"}))
    return StageGraph(
        name="covid19+" if use_enhancement else "covid19+/no-enhance",
        stages=tuple(stages),
        skippable=("enhance",) if use_enhancement else (),
    )
