"""Machine-readable run reports with deterministic serialization.

A report collects the config echo, the exact closed-form section, optional
estimator / coincidence / relation sections, and provenance. Serialization
is canonical JSON (sorted keys, fixed indentation, repr floats), so a fixed
command line (config, flags, version) is byte-identical; wall time is
therefore only recorded when explicitly requested. Estimates that exceed
their proven upper bound by more than one standard error raise flags
instead of errors so batch runs complete and stay diagnosable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import __version__


@dataclass(frozen=True)
class Report:
    payload: dict

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"


def build_report(config_echo: dict, exact: dict,
                 estimates: dict | None = None,
                 coincidence: dict | None = None,
                 relations: dict | None = None,
                 provenance: dict | None = None) -> Report:
    """Assemble and flag a report; the exact section is mandatory."""
    flags: list[str] = []
    est_section: dict = {}
    if estimates:
        upper = exact.get("h_top_exact")
        for name, est in estimates.items():
            entry = dict(est)
            if upper is not None and entry.get("value") is not None:
                entry["delta_vs_exact"] = entry["value"] - upper
                if entry["value"] > upper + entry.get("stderr", 0.0):
                    flags.append(f"{name}_estimate_exceeds_bound")
            est_section[name] = entry

    payload = {
        "config": config_echo,
        "exact": dict(exact),
        "estimates": est_section or None,
        "coincidence": coincidence,
        "relations": relations,
        "flags": flags,
        "provenance": {
            "version": __version__,
            **(provenance or {}),
        },
    }
    payload["exact"]["h_top_log2"] = (
        exact["h_top_exact"] / math.log(2.0)
        if exact.get("h_top_exact") is not None else None
    )
    return Report(payload=payload)


CSV_HEADER = "method,epsilon,nu,count,exact_flag,pool_size"


def counts_to_csv(rows) -> str:
    """Fixed-column CSV of counting cells for growth-curve plotting."""
    lines = [CSV_HEADER]
    ordered = sorted(rows, key=lambda r: (r.mode, r.epsilon, r.nu))
    for r in ordered:
        lines.append(
            f"{r.mode},{r.epsilon!r},{r.nu},{r.count},{str(r.exact).lower()},{r.pool_size}"
        )
    return "\n".join(lines) + "\n"
