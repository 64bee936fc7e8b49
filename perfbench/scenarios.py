"""The benchmark's fixed workloads and the reference that checks outputs.

Two single cells, simulated inline on traces generated once per run, and
the Figure 4 Parsec matrix run through ``api.compare``.  The inputs are a
pure function of the seed.  Every simulated result is reduced to a digest
of its cycles, instructions and full statistics tree; a digest must equal
the one recorded in ``reference.json`` for the default seed, or the
per-op reference engine's for any other seed.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.harness.campaign import Campaign, RunSpec
from repro.harness.store import StoreBackend
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.system import build_system
from repro.workloads.generator import generate_workload
from repro.workloads.profiles import get_profile
from repro.workloads.trace import WorkloadTraces

#: The seed whose digests are recorded in ``reference.json``.
DEFAULT_SEED = 1234
#: Share of every trace simulated before the reported cycles start.
WARMUP_FRACTION = 0.35
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class CellWorkload:
    """One benchmark under one scheme, simulated inline."""

    benchmark: str
    scheme: str
    instructions: int


CELLS: Dict[str, CellWorkload] = {
    "cell-mcf-muontrap": CellWorkload("mcf", "muontrap", 20_000),
    "cell-povray-unprotected": CellWorkload("povray", "unprotected", 80_000),
}

CAMPAIGN = "campaign-parsec"
#: Figure 4: every four-thread Parsec benchmark under the four compared
#: schemes, normalised against the unprotected baseline.
CAMPAIGN_SCHEMES = ("insecure-l0", "muontrap", "invisispec-spectre",
                    "stt-spectre")
CAMPAIGN_BASELINE = "unprotected"
CAMPAIGN_SUITE = "parsec"
CAMPAIGN_INSTRUCTIONS = 1_000

WORKLOADS = tuple(CELLS) + (CAMPAIGN,)


def cell_spec(name: str, seed: int) -> RunSpec:
    cell = CELLS[name]
    machine = api.resolve_machine(cell.scheme)
    return RunSpec(profile=get_profile(cell.benchmark),
                   label=machine.mode_label, config=machine,
                   instructions=cell.instructions, seed=seed,
                   warmup_fraction=WARMUP_FRACTION, collect_stats=True)


def build_campaign(seed: int, store: Optional[StoreBackend] = None,
                   jobs: int = 1) -> Campaign:
    """The Figure 4 matrix, as ``api.compare`` builds it."""
    return api.build_comparison(
        list(CAMPAIGN_SCHEMES), CAMPAIGN_SUITE, baseline=CAMPAIGN_BASELINE,
        instructions=CAMPAIGN_INSTRUCTIONS, seed=seed,
        warmup_fraction=WARMUP_FRACTION, collect_stats=True, store=store,
        jobs=jobs)


def compare_campaign(seed: int, store: StoreBackend, jobs: int):
    """Run the Figure 4 matrix through the public facade."""
    return api.compare(
        list(CAMPAIGN_SCHEMES), CAMPAIGN_SUITE, baseline=CAMPAIGN_BASELINE,
        instructions=CAMPAIGN_INSTRUCTIONS, seed=seed,
        warmup_fraction=WARMUP_FRACTION, collect_stats=True, store=store,
        jobs=jobs)


def cell_key(spec: RunSpec) -> str:
    return f"{spec.benchmark}/{spec.label}"


# -- one cell, the way the harness runs it ------------------------------------

def prepare(spec: RunSpec) -> Tuple[WorkloadTraces, object]:
    """Generate and pack the cell's traces; widen the machine to fit them.

    Mirrors ``repro.harness.campaign.run_cell`` up to system construction.
    """
    workload = generate_workload(spec.profile, spec.instructions,
                                 seed=spec.seed)
    for trace in workload:
        trace.packed()
    cores_needed = max(1, spec.profile.num_threads)
    config = spec.config.with_cores(max(spec.config.num_cores, cores_needed))
    return workload, config


def simulate(spec: RunSpec, workload: WorkloadTraces, system, *,
             per_op: bool = False) -> SimulationResult:
    simulator = Simulator(system, use_packed=not per_op)
    return simulator.run(workload, collect_stats=spec.collect_stats,
                         warmup_fraction=spec.warmup_fraction)


def instructions_executed(result: SimulationResult) -> int:
    """Committed instructions on every core, warm-up included."""
    return sum(core.committed_instructions for core in result.core_results)


def digest(result: SimulationResult) -> str:
    """Digest of the simulated outcome: cycles, instructions, stats tree."""
    payload = json.dumps({"cycles": result.cycles,
                          "instructions": result.instructions,
                          "stats": result.stats}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# -- the reference ------------------------------------------------------------

def per_op_digest(spec: RunSpec) -> str:
    """The cell's digest on the per-op reference engine (picklable)."""
    workload, config = prepare(spec)
    system = build_system(config, seed=spec.seed)
    return digest(simulate(spec, workload, system, per_op=True))


def _recorded_sizes() -> Dict[str, int]:
    sizes = {name: cell.instructions for name, cell in CELLS.items()}
    sizes[CAMPAIGN] = CAMPAIGN_INSTRUCTIONS
    return sizes


def recorded_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Digests recorded for the default seed, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(REFERENCE_FILE.read_text())
    entry = recorded["workloads"][workload]
    if (recorded["seed"] != DEFAULT_SEED
            or recorded["warmup_fraction"] != WARMUP_FRACTION
            or entry["instructions"] != _recorded_sizes()[workload]):
        raise RuntimeError(
            f"{REFERENCE_FILE.name} does not describe {workload} as defined; "
            f"re-record it with --record-reference")
    return dict(entry["digests"])


def reference_digests(workload: str, specs: Sequence[RunSpec],
                      jobs: int) -> Dict[str, str]:
    """Expected digest per cell key: recorded, or per-op engine runs."""
    recorded = recorded_digests(workload, specs[0].seed)
    if recorded is not None:
        return recorded
    if jobs <= 1 or len(specs) == 1:
        return {cell_key(spec): per_op_digest(spec) for spec in specs}
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=get_context("fork")) as pool:
        digests = list(pool.map(per_op_digest, specs))
    return {cell_key(spec): value for spec, value in zip(specs, digests)}


def workload_specs(workload: str, seed: int) -> List[RunSpec]:
    if workload in CELLS:
        return [cell_spec(workload, seed)]
    return build_campaign(seed).cells()


def record_reference(jobs: int) -> Path:
    """Write the per-op engine's digests at the default seed."""
    workloads = {}
    for workload in WORKLOADS:
        specs = workload_specs(workload, DEFAULT_SEED)
        with ProcessPoolExecutor(max_workers=max(1, jobs),
                                 mp_context=get_context("fork")) as pool:
            digests = list(pool.map(per_op_digest, specs))
        workloads[workload] = {
            "instructions": _recorded_sizes()[workload],
            "digests": {cell_key(spec): value
                        for spec, value in zip(specs, digests)}}
    REFERENCE_FILE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "warmup_fraction": WARMUP_FRACTION,
         "engine": "per-op", "workloads": workloads},
        indent=1, sort_keys=True) + "\n")
    return REFERENCE_FILE
