"""Write the calibrate workload's quote sets, ``quotes/{merton,vg}.csv``.

Quotes are priced at the benchmark parameters by the adaptive-quadrature
``call_price`` oracle, not by the calibration fast pricer, so they do not
move when the pricer changes.  They were generated once and committed; run

    python3 perfbench/make_quotes.py

from the repository root to regenerate them.  The grid is the
acceptance criterion-9 grid: 7 expiries, 12 strikes on the first three
and 11 on the rest, 80 quotes per family.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from levyhedge.benchmarks import SPOT, merton_benchmark, vg_benchmark  # noqa: E402
from levyhedge.calibration import Quote, QuoteSet, write_quotes  # noqa: E402
from levyhedge.fourier import FourierConfig, call_price, char_fn  # noqa: E402
from levyhedge.levy_core import to_mmm  # noqa: E402
from levyhedge.models import merton_model, vg_model  # noqa: E402

EXPIRIES = (30 / 365, 58 / 365, 86 / 365, 149 / 365, 240 / 365, 275 / 365,
            331 / 365)
MONEYNESS = (0.85, 0.88, 0.92, 0.95, 0.97, 0.99, 1.005, 1.02, 1.05, 1.08,
             1.12, 1.15)


def oracle_quotes(model, spot: float = SPOT) -> QuoteSet:
    """Quote set at ``model``'s parameters, priced by ``call_price``."""
    mmm = to_mmm(model)
    cfg = FourierConfig()
    quotes = []
    for n, expiry in enumerate(EXPIRIES):
        phi = char_fn(mmm, expiry)
        for x in MONEYNESS[:12 if n < 3 else 11]:
            strike = spot * x
            quotes.append(Quote(expiry, strike,
                                call_price(phi, spot, strike, cfg)))
    return QuoteSet(spot=spot, quotes=tuple(quotes))


def main() -> None:
    out = Path(__file__).resolve().parent / "quotes"
    out.mkdir(exist_ok=True)
    write_quotes(out / "merton.csv", oracle_quotes(merton_model(merton_benchmark())))
    write_quotes(out / "vg.csv", oracle_quotes(vg_model(vg_benchmark())))


if __name__ == "__main__":
    main()
