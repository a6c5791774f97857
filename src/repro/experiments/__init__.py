"""Per-figure/table experiment drivers.

Each ``figNN_*.py`` module regenerates one paper artifact as an
:class:`~repro.core.experiment.ExperimentResult` and exposes a
``shape_checks(result)`` function encoding the paper's qualitative claims
about it.

:data:`DRIVERS` is the static table the registry serves ids, titles and
module names from. Importing this package imports no driver: ``repro
list`` and an all-hit ``repro all`` never load the model. A driver
module is imported when its experiment runs, and its
``@register(exp_id, title=...)`` must agree with its row here.
"""

#: ``{exp_id: (driver module, title)}``, in registry (sorted) order.
DRIVERS = {
    "ext_balance": (
        "repro.experiments.ext_balance",
        "Extension: system balance across XT generations",
    ),
    "ext_multicore": (
        "repro.experiments.ext_multicore",
        "Extension: socket speedup vs active cores (quad-core projection)",
    ),
    "ext_resilience": (
        "repro.experiments.ext_resilience",
        "Extension: checkpoint interval vs Daly optimum under node crashes",
    ),
    "fig01": (
        "repro.experiments.fig01_lustre",
        "Lustre filesystem architecture (simulated)",
    ),
    "fig02": ("repro.experiments.fig02_latency", "Network latency"),
    "fig03": ("repro.experiments.fig03_bandwidth", "Network bandwidth"),
    "fig04": (
        "repro.experiments.fig04_fft",
        "SP/EP Fast Fourier Transform (FFT)",
    ),
    "fig05": (
        "repro.experiments.fig05_dgemm",
        "SP/EP Matrix Multiply (DGEMM)",
    ),
    "fig06": ("repro.experiments.fig06_ra", "SP/EP Random Access (RA)"),
    "fig07": (
        "repro.experiments.fig07_stream",
        "SP/EP Memory Bandwidth (Streams)",
    ),
    "fig08": (
        "repro.experiments.fig08_hpl",
        "Global High Performance LINPACK (HPL)",
    ),
    "fig09": (
        "repro.experiments.fig09_mpifft",
        "Global Fast Fourier Transform (MPI-FFT)",
    ),
    "fig10": (
        "repro.experiments.fig10_ptrans",
        "Global Matrix Transpose (PTRANS)",
    ),
    "fig11": (
        "repro.experiments.fig11_mpira",
        "Global Random Access (MPI-RA)",
    ),
    "fig12_13": (
        "repro.experiments.fig12_13_bidirectional",
        "Bidirectional MPI bandwidth",
    ),
    "fig14": (
        "repro.experiments.fig14_cam_xt",
        "CAM throughput on XT4 vs XT3 (D-grid benchmark)",
    ),
    "fig15": (
        "repro.experiments.fig15_cam_platforms",
        "CAM throughput on XT4 relative to previous results",
    ),
    "fig16": (
        "repro.experiments.fig16_cam_phases",
        "CAM performance by computational phase",
    ),
    "fig17": (
        "repro.experiments.fig17_pop_xt",
        "POP throughput on XT4 vs XT3 (0.1-degree benchmark)",
    ),
    "fig18": (
        "repro.experiments.fig18_pop_platforms",
        "POP throughput on XT4 relative to previous results",
    ),
    "fig19": (
        "repro.experiments.fig19_pop_phases",
        "POP performance by computational phase",
    ),
    "fig20": (
        "repro.experiments.fig20_namd_xt",
        "NAMD performance on XT4 vs XT3",
    ),
    "fig21": (
        "repro.experiments.fig21_namd_modes",
        "NAMD performance impact of SN vs VN",
    ),
    "fig22": (
        "repro.experiments.fig22_s3d",
        "S3D parallel performance (weak scaling, 50^3 points/task)",
    ),
    "fig23": ("repro.experiments.fig23_aorsa", "AORSA parallel performance"),
    "table1": (
        "repro.experiments.table1",
        "Comparison of XT3, XT3 dual-core, and XT4 systems at ORNL",
    ),
}
