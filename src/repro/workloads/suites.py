"""Benchmark-suite presets for the CPU (big.LITTLE) experiments.

The paper trains its IL policies on Mi-Bench applications and evaluates
generalisation on CortexSuite and PARSEC applications (Table II, Figs 3-4).
Each application below is a synthetic stand-in parameterised to reflect the
qualitative behaviour of the real benchmark:

* **Mi-Bench** — small embedded kernels: single-threaded, mostly compute
  bound, low-to-moderate memory intensity.
* **CortexSuite** — data-analytics / vision kernels: single-threaded but much
  more memory intensive with lower ILP.
* **PARSEC** — multi-threaded (Blackscholes with 2 and 4 threads): high
  parallel fraction, high big-cluster utilisation.

The distribution shift between the suites is what produces the paper's
offline-IL generalisation gap; the exact MPKI/ILP numbers are synthetic.
"""

from __future__ import annotations

from typing import Dict, List

from repro.soc.snippet import SnippetCharacteristics
from repro.workloads.spec import WorkloadSpec, single_phase_workload


def _mibench(name: str, mpki: float, ilp: float, branch_mpki: float,
             access_rate: float, n_snippets: int = 24,
             description: str = "") -> WorkloadSpec:
    chars = SnippetCharacteristics(
        memory_intensity=mpki,
        memory_access_rate=access_rate,
        external_request_rate=0.55,
        branch_misprediction_mpki=branch_mpki,
        ilp_factor=ilp,
        parallel_fraction=0.05,
        thread_count=1,
        big_fraction=0.9,
    )
    return single_phase_workload(
        name, "mibench", chars, n_snippets=n_snippets, jitter=0.06,
        description=description,
    )


def _cortex(name: str, mpki: float, ilp: float, branch_mpki: float,
            access_rate: float, n_snippets: int = 24,
            description: str = "") -> WorkloadSpec:
    chars = SnippetCharacteristics(
        memory_intensity=mpki,
        memory_access_rate=access_rate,
        external_request_rate=0.75,
        branch_misprediction_mpki=branch_mpki,
        ilp_factor=ilp,
        parallel_fraction=0.1,
        thread_count=1,
        big_fraction=0.92,
    )
    return single_phase_workload(
        name, "cortex", chars, n_snippets=n_snippets, jitter=0.08,
        description=description,
    )


def _parsec_blackscholes(threads: int, n_snippets: int = 24) -> WorkloadSpec:
    """Blackscholes: embarrassingly parallel option-pricing kernel."""
    chars = SnippetCharacteristics(
        memory_intensity=3.0,
        memory_access_rate=0.38,
        external_request_rate=0.6,
        branch_misprediction_mpki=1.5,
        ilp_factor=0.85,
        parallel_fraction=0.95,
        thread_count=threads,
        big_fraction=0.95,
    )
    return single_phase_workload(
        f"blackscholes-{threads}t", "parsec", chars, n_snippets=n_snippets,
        jitter=0.05,
        description=f"PARSEC blackscholes with {threads} threads",
    )


#: Mi-Bench applications (training suite).  MPKI / ILP / branch-MPKI values are
#: synthetic but ordered to reflect the relative behaviour of the kernels.
MIBENCH_APPS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        _mibench("bml", mpki=0.8, ilp=0.90, branch_mpki=2.0, access_rate=0.25,
                 description="basicmath-large: mostly ALU/FPU bound"),
        _mibench("dijkstra", mpki=3.5, ilp=0.70, branch_mpki=6.0, access_rate=0.35,
                 description="graph shortest path: pointer chasing"),
        _mibench("fft", mpki=2.2, ilp=0.85, branch_mpki=1.5, access_rate=0.40,
                 description="fast Fourier transform"),
        _mibench("patricia", mpki=4.5, ilp=0.65, branch_mpki=8.0, access_rate=0.38,
                 description="trie lookups: branchy, cache sensitive"),
        _mibench("qsort", mpki=3.0, ilp=0.75, branch_mpki=9.0, access_rate=0.42,
                 description="quick sort of strings"),
        _mibench("sha", mpki=0.5, ilp=0.92, branch_mpki=1.0, access_rate=0.22,
                 description="SHA hashing: compute bound"),
        _mibench("blowfish", mpki=0.7, ilp=0.88, branch_mpki=1.2, access_rate=0.28,
                 description="Blowfish encryption"),
        _mibench("stringsearch", mpki=1.8, ilp=0.80, branch_mpki=7.0, access_rate=0.33,
                 description="string searching"),
        _mibench("adpcm", mpki=0.4, ilp=0.90, branch_mpki=2.5, access_rate=0.20,
                 description="ADPCM audio codec"),
        _mibench("aes", mpki=1.0, ilp=0.87, branch_mpki=1.0, access_rate=0.30,
                 description="AES encryption"),
    ]
}

#: CortexSuite applications (unseen at design time).
CORTEX_APPS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        _cortex("kmeans", mpki=18.0, ilp=0.45, branch_mpki=3.0, access_rate=0.55,
                description="k-means clustering: streaming, memory bound"),
        _cortex("spectral", mpki=9.0, ilp=0.55, branch_mpki=2.5, access_rate=0.48,
                description="spectral clustering"),
        _cortex("motion-estimation", mpki=11.0, ilp=0.50, branch_mpki=4.0,
                access_rate=0.52, description="motion estimation"),
        _cortex("pca", mpki=13.0, ilp=0.52, branch_mpki=2.0, access_rate=0.50,
                description="principal component analysis"),
    ]
}

#: PARSEC applications (unseen at design time, multi-threaded).
PARSEC_APPS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        _parsec_blackscholes(threads=2),
        _parsec_blackscholes(threads=4),
    ]
}

#: All sixteen applications used in Figure 4, keyed by name.
ALL_CPU_APPS: Dict[str, WorkloadSpec] = {
    **MIBENCH_APPS,
    **CORTEX_APPS,
    **PARSEC_APPS,
}

#: Application subset reported in Table II (name -> paper's column label).
TABLE2_APP_LABELS: Dict[str, str] = {
    "bml": "BML",
    "dijkstra": "Djkstr",
    "fft": "FFT",
    "qsort": "Qsort",
    "motion-estimation": "MtnEst",
    "spectral": "Spctrl",
    "kmeans": "Kmns",
    "blackscholes-2t": "Blkschls2T",
    "blackscholes-4t": "Blkschls4T",
}

#: Application order used on the x-axis of Figure 4.
FIGURE4_APP_ORDER: List[str] = [
    "bml", "dijkstra", "fft", "patricia", "qsort", "sha", "blowfish",
    "stringsearch", "adpcm", "aes",
    "kmeans", "spectral", "motion-estimation", "pca",
    "blackscholes-2t", "blackscholes-4t",
]


def get_workload(name: str) -> WorkloadSpec:
    """Return the preset workload spec for ``name`` (case insensitive)."""
    key = name.lower()
    if key not in ALL_CPU_APPS:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(ALL_CPU_APPS)}"
        )
    return ALL_CPU_APPS[key]


def figure4_workloads() -> List[WorkloadSpec]:
    """All sixteen workloads of Figure 4, in the paper's x-axis order."""
    return [ALL_CPU_APPS[name] for name in FIGURE4_APP_ORDER]


def training_workloads() -> List[WorkloadSpec]:
    """The design-time (offline) training set: the Mi-Bench suite."""
    return list(MIBENCH_APPS.values())


def unseen_workloads() -> List[WorkloadSpec]:
    """Applications unknown at design time: CortexSuite and PARSEC."""
    return list(CORTEX_APPS.values()) + list(PARSEC_APPS.values())
