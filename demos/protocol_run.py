"""Run the daily out-of-sample protocol on a small synthetic world.

Each day is split 90/10 by a date-derived seed, every label prices the
held-out decile, and errors aggregate into per-partition reports. The
world is noise-free and constant-vol, so the vol-surface route should be
exact in hull while the direct interpolators show their bias.
"""

import tempfile
from pathlib import Path

from pricelab.harness import ProtocolConfig, cross_date_report, run_protocol
from pricelab.reporting import render_reports
from pricelab.synth import synth_chain


def main():
    chains = synth_chain("bs", n_days=5, dividend=0.01)
    total = sum(len(c) for c in chains)
    print(f"world: {len(chains)} days, {total} quotes, flat vol, no noise")

    config = ProtocolConfig(trim=True, labels=("LI", "BS", "NW", "NWCV", "LIB"))
    result = run_protocol(chains, config)

    print("\nin-hull reports:")
    print(render_reports([result.report(label, "hull") for label in config.labels]))

    with tempfile.TemporaryDirectory(prefix="pricelab_reports_") as out:
        written = result.write(Path(out))
        print(f"\nwrote {len(written)} CSVs to {out} (byte-identical on rerun)")

    matches = cross_date_report(chains)
    print(f"\ncross-date: {len(matches)} same-contract pairs on near-identical spots; "
          f"max |price move| = {max(abs(m.diff) for m in matches):.2e}")
    noisy = synth_chain("bs", n_days=5, dividend=0.01, noise=0.005)
    moved = cross_date_report(noisy)
    print(f"with 0.5% multiplicative noise: max |price move| = "
          f"{max(abs(m.diff) for m in moved):.4f}")


if __name__ == "__main__":
    main()
