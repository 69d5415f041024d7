"""The benchmark's workloads: which `cohom` command runs on which config.

A workload is a fixed config shape; the benchmark's ``--seed`` only picks
the run seed, so the same seed always gives the same config file and the
same CLI arguments.  ``tiny`` shrinks the pair counts for the benchmark's
own smoke tests while keeping each workload's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Seeds handed to the CLI are reduced into the range ``RunConfig`` accepts.
SEED_MODULUS = 2**63


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    #: config sections -> keys -> values; ``None`` for commands without one
    config: Optional[dict] = None
    #: key -> value overrides applied with ``--size tiny``
    tiny: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-amplitude",
            command="simulate",
            why="one large amplitude-mode run: the amplitude kernel and "
                "outcome tabulation dominate",
            config={
                "bench": {"sigma_f_hz": 2.5e5, "tau1_s": 1e-6,
                          "tau2_s": 1e-6},
                "source": {"n_pairs": 2_000_000, "higher_order_ratio": 0.01},
                "detector": {"pulse_sigma_s": 1e-9,
                             "coincidence_window_s": 8e-9},
                "run": {"mode": "amplitude", "heterodyne_filter": "true"},
            },
            tiny={"n_pairs": 40_000},
        ),
        Workload(
            name="simulate-classical",
            command="simulate",
            why="one large classical-mode run: local intensities and "
                "four-column jitter dominate; no outcome tabulation",
            config={
                "bench": {"sigma_f_hz": 2.5e5, "tau1_s": 1e-6,
                          "tau2_s": 3e-6},
                "source": {"mean_photon_number": 0.5, "n_pairs": 4_000_000,
                           "higher_order_ratio": 0.01},
                "detector": {"pulse_sigma_s": 1e-9,
                             "coincidence_window_s": 8e-9},
                "run": {"mode": "classical", "heterodyne_filter": "true"},
            },
            tiny={"n_pairs": 40_000},
        ),
        Workload(
            name="scan-many-points",
            command="scan",
            why="401 small amplitude runs on the CLI's thread pool: per-run "
                "and per-chunk fixed costs dominate",
            config={
                "bench": {"sigma_f_hz": 2.5e5, "tau1_s": 1e-6,
                          "tau21_scan_start_s": -1e-6,
                          "tau21_scan_stop_s": 1e-6,
                          "tau21_scan_steps": 401},
                "source": {"n_pairs": 5000, "higher_order_ratio": 0.01},
                "detector": {"pulse_sigma_s": 1e-9,
                             "coincidence_window_s": 8e-9},
                "run": {"mode": "amplitude", "heterodyne_filter": "true"},
            },
            tiny={"tau21_scan_steps": 41, "n_pairs": 1000},
        ),
        Workload(
            name="validate",
            command="validate",
            why="the built-in consistency suite; the only workload that "
                "runs the validation and optics layers",
        ),
    )
}


def cli_seed(seed: int) -> int:
    """The run seed given to the program for benchmark seed ``seed``."""
    return seed % SEED_MODULUS


def params(workload: Workload, seed: int, tiny: bool) -> Optional[dict]:
    """Flat key -> value view of the config the workload runs with."""
    if workload.config is None:
        return None
    flat = {k: v for section in workload.config.values()
            for k, v in section.items()}
    if tiny:
        flat.update(workload.tiny)
    flat["seed"] = cli_seed(seed)
    return flat


def config_text(workload: Workload, seed: int, tiny: bool) -> Optional[str]:
    """The config file handed to the CLI, or ``None`` if it takes none."""
    flat = params(workload, seed, tiny)
    if flat is None:
        return None
    lines = []
    for section, keys in workload.config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {flat[key]}" for key in keys)
        if section == "run":
            lines.append(f"seed = {flat['seed']}")
        lines.append("")
    return "\n".join(lines)


def cli_args(workload: Workload, config_path: Optional[str],
             seed: int) -> list:
    """Arguments after ``cohom``; data goes to stdout as CSV."""
    args = [workload.command]
    if config_path is not None:
        args += ["--config", config_path, "--seed", str(cli_seed(seed))]
    return args + ["--format", "csv", "--quiet"]


def total_pairs(workload: Workload, seed: int, tiny: bool) -> Optional[int]:
    """Pairs the command simulates, when the config determines it."""
    flat = params(workload, seed, tiny)
    if flat is None:
        return None
    return int(flat["n_pairs"]) * int(flat.get("tau21_scan_steps", 1))
