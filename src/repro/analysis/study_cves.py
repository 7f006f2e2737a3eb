"""Study 2: the 241-CVE corpus (Section 4.1, Fig. 7, Table 3 input).

The paper studies 241 publicly available CVEs (Aug 2018 – Feb 2022) in
data-processing frameworks — TensorFlow (172), Pillow (44), OpenCV (22),
NumPy (3) — categorizing each by the pipeline task it affects and by
vulnerability class.  The underlying CVE list is not published, so this
module synthesizes a corpus that satisfies every aggregate the paper
states: the per-framework totals, the dominance of loading + processing,
and the legible bars of Fig. 7 (59 DoS CVEs in loading, 54 in
processing, 11 unauthorized reads in loading, the small storing and
visualizing tails).  Interpolated cells are documented in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.attacks.cves import VulnType
from repro.core.apitypes import APIType

#: Per-framework CVE totals stated in the paper.
FRAMEWORK_TOTALS = {
    "tensorflow": 172,
    "pillow": 44,
    "opencv": 22,
    "numpy": 3,
}

#: How each framework's CVEs spread over the pipeline tasks
#: (interpolated; constrained by the framework totals and the task totals
#: below).
FRAMEWORK_TYPE_QUOTAS: Dict[Tuple[str, APIType], int] = {
    ("tensorflow", APIType.LOADING): 25,
    ("tensorflow", APIType.PROCESSING): 143,
    ("tensorflow", APIType.STORING): 4,
    ("pillow", APIType.LOADING): 41,
    ("pillow", APIType.VISUALIZING): 2,
    ("pillow", APIType.STORING): 1,
    ("opencv", APIType.LOADING): 14,
    ("opencv", APIType.PROCESSING): 8,
    ("numpy", APIType.LOADING): 1,
    ("numpy", APIType.PROCESSING): 2,
}

#: api_type → (vuln_type → count).  The 59/54/11/3/1/1 cells are read
#: directly off Fig. 7; the remainder is interpolated.
TYPE_VULN_CELLS: Dict[APIType, Dict[VulnType, int]] = {
    APIType.LOADING: {
        VulnType.DOS: 59,          # Fig. 7 headline bar
        VulnType.INFO_LEAK: 11,    # Fig. 7 second bar
        VulnType.MEM_WRITE: 8,
        VulnType.RCE: 3,
    },
    APIType.PROCESSING: {
        VulnType.DOS: 54,          # Fig. 7 headline bar
        VulnType.INFO_LEAK: 49,
        VulnType.MEM_WRITE: 43,
        VulnType.RCE: 7,
    },
    APIType.STORING: {
        VulnType.DOS: 3,
        VulnType.MEM_WRITE: 1,
        VulnType.INFO_LEAK: 1,
    },
    APIType.VISUALIZING: {
        VulnType.DOS: 1,
        VulnType.INFO_LEAK: 1,
    },
}

#: The vulnerable-API name pools per (framework, type).  The pool sizes
#: for loading/processing match the Table 3 "Total" columns where the
#: applications actually use them (OpenCV 1/1, TensorFlow 2/24,
#: Pillow 2 loading + 1 visualizing, NumPy 1/1).
VULNERABLE_API_POOLS: Dict[Tuple[str, APIType], Tuple[str, ...]] = {
    ("opencv", APIType.LOADING): ("cv2.imread",),
    ("opencv", APIType.PROCESSING): ("cv2.resize",),
    ("tensorflow", APIType.LOADING): (
        "tf.io.decode_image", "tf.saved_model.load",
    ),
    ("tensorflow", APIType.PROCESSING): tuple(
        f"tf.raw_ops.{name}" for name in (
            "Conv2D", "Conv3D", "MaxPool", "AvgPool", "FusedBatchNorm",
            "MatMul", "SparseDenseCwiseMul", "QuantizedConv2D",
            "ResourceGather", "RaggedTensorToTensor", "SparseSplit",
            "Transpose", "Tile", "Cast", "Reshape", "StridedSlice",
            "ConcatV2", "Pack", "UnsortedSegmentSum", "Dilation2D",
            "FractionalMaxPool", "DenseBincount", "CTCLoss",
            "EditDistance",
        )
    ),
    ("tensorflow", APIType.STORING): (
        "tf.io.write_file", "tf.train.Checkpoint.save",
    ),
    ("pillow", APIType.LOADING): ("PIL.Image.open", "PIL.ImageFile.load"),
    ("pillow", APIType.VISUALIZING): ("PIL.Image.show",),
    ("pillow", APIType.STORING): ("PIL.Image.save",),
    ("numpy", APIType.LOADING): ("np.load",),
    ("numpy", APIType.PROCESSING): ("np.einsum",),
}

#: CVEs in shared utility functions, exploitable from multiple API types
#: (the paper names CVE-2019-16249 and CVE-2019-15939 as examples).
UTILITY_CVE_IDS = ("CVE-2019-16249", "CVE-2019-15939")


@dataclass(frozen=True)
class StudyCve:
    """One CVE of the ecosystem study."""

    cve_id: str
    framework: str
    api_name: str
    api_type: APIType
    vuln_type: VulnType
    year: int
    utility: bool = False


def build_corpus() -> List[StudyCve]:
    """Deterministically synthesize the 241-CVE corpus."""
    corpus: List[StudyCve] = []
    serial = 0
    # Expand each task's vulnerability mix into an ordered deck, then deal
    # it across the frameworks' quotas for that task.
    for api_type, cells in TYPE_VULN_CELLS.items():
        deck: List[VulnType] = []
        for vuln_type, count in cells.items():
            deck.extend([vuln_type] * count)
        position = 0
        for (framework, quota_type), quota in FRAMEWORK_TYPE_QUOTAS.items():
            if quota_type is not api_type:
                continue
            pool = VULNERABLE_API_POOLS.get((framework, api_type), ())
            for slot in range(quota):
                vuln_type = deck[position % len(deck)]
                position += 1
                if pool:
                    api_name = pool[slot % len(pool)]
                else:
                    api_name = f"{framework}.internal_{api_type.value}_{slot}"
                year = 2018 + (serial % 5)
                corpus.append(StudyCve(
                    cve_id=f"CVE-{year}-{10_000 + serial}",
                    framework=framework,
                    api_name=api_name,
                    api_type=api_type,
                    vuln_type=vuln_type,
                    year=year,
                ))
                serial += 1
    # Mark the two utility-function CVEs the paper calls out.
    for index, cve_id in enumerate(UTILITY_CVE_IDS):
        original = corpus[index]
        corpus[index] = StudyCve(
            cve_id=cve_id,
            framework=original.framework,
            api_name=f"{original.framework}.util.shared_buffer",
            api_type=original.api_type,
            vuln_type=original.vuln_type,
            year=2019,
            utility=True,
        )
    return corpus


def figure7_counts(corpus: List[StudyCve]) -> Dict[Tuple[APIType, VulnType], int]:
    """Fig. 7 cells: (api_type, vuln_type) -> CVE count."""
    counts: Dict[Tuple[APIType, VulnType], int] = {}
    for cve in corpus:
        key = (cve.api_type, cve.vuln_type)
        counts[key] = counts.get(key, 0) + 1
    return counts


def framework_totals(corpus: List[StudyCve]) -> Dict[str, int]:
    """CVEs per framework (paper: 172/44/22/3)."""
    totals: Dict[str, int] = {}
    for cve in corpus:
        totals[cve.framework] = totals.get(cve.framework, 0) + 1
    return totals


def counts_by_api_type(corpus: List[StudyCve]) -> Dict[APIType, int]:
    """CVEs per pipeline task."""
    counts: Dict[APIType, int] = {t: 0 for t in APIType}
    for cve in corpus:
        counts[cve.api_type] += 1
    return counts
