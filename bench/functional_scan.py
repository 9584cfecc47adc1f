"""Workload `functional-scan`: the functional case of Kim & Lee.

One round scans 256 unit functionals with `kim_lee_check` on l_1^2, l_2^2,
l_3^2 and l_inf^2 at two eps, and sweeps `delta_numeric` on l_p^2 for
p in {1, 1.5, 2, 3, inf} at five eps.  One operation is one space: its scan
(where there is one) and its sweep.  The seed draws the eps values, each
from a fixed band, so every seed exercises the same verdicts.

Checks, against refs.py: `consistent` holds on every space; on l_2^2 min eta
equals eps^2/2 within 1e-9; on l_1^2 and l_inf^2 min eta is below 0.02
(every eps here is <= 1); on l_3^2 min eta is positive and nondecreasing in
eps; `delta_numeric` is never below the true modulus by more than 1e-9, and,
where a closed form gives it (p in {1, 2, 3, inf}), within 1e-4 above it.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

import refs
from timing import Round

INF = math.inf
SCAN_PS = (1.0, 2.0, 3.0, INF)
SWEEP_PS = (1.0, 1.5, 2.0, 3.0, INF)
FUNCTIONALS = 256
SCAN_EPS_BANDS = ((0.4, 0.6), (0.8, 1.0))
SWEEP_EPS_BANDS = ((0.2, 0.4), (0.5, 0.7), (0.9, 1.1), (1.3, 1.5), (1.7, 1.9))
NEAR_ZERO_CEIL = 0.02
L2_TOL = 1e-9
BELOW_TOL = 1e-9
ABOVE_TOL = 1e-4


class Workload:
    name = "functional-scan"

    def __init__(self, seed: int, out_dir: str, normlab):
        self.nl = normlab
        rng = random.Random(seed)
        self.scan_eps = [rng.uniform(lo, hi) for lo, hi in SCAN_EPS_BANDS]
        self.sweep_eps = [rng.uniform(lo, hi) for lo, hi in SWEEP_EPS_BANDS]
        self.spaces = {p: normlab.SequenceSpace(2, p) for p in SWEEP_PS}

    def run_round(self, clock) -> Round:
        rnd = Round()
        for p in SWEEP_PS:
            (report, modulus), raw, span = clock.time(self._space, p)
            rnd.add(raw, span)
            errs = self._check_modulus(p, modulus)
            if report is not None:
                errs += self._check_scan(p, report)
            rnd.record(errs)
        return rnd

    def _space(self, p):
        """One operation: the functional scan (where there is one) and the sweep on l_p^2."""
        space = self.spaces[p]
        report = self.nl.kim_lee_check(space, self.scan_eps, FUNCTIONALS) if p in SCAN_PS else None
        return report, self.nl.delta_numeric(space, self.sweep_eps)

    def _check_scan(self, p, report) -> list[str]:
        tag = f"kim_lee_check l_{p}^2"
        eta = report.min_eta
        errs = []
        if not report.consistent:
            errs.append(f"{tag}: not consistent")
        if report.n_samples != FUNCTIONALS or len(eta) != len(self.scan_eps):
            errs.append(f"{tag}: {report.n_samples} functionals, {len(eta)} eps")
            return errs
        if p == 2.0:
            for e, h in zip(self.scan_eps, eta):
                if (Decimal(h) - refs.kim_lee_l2_min_eta(e)).copy_abs() > Decimal(L2_TOL):
                    errs.append(f"{tag}: min eta {h!r} at eps {e!r} is not eps^2/2")
        elif p in (1.0, INF):
            if not all(h < NEAR_ZERO_CEIL for h in eta):
                errs.append(f"{tag}: min eta {eta} not below {NEAR_ZERO_CEIL}")
        elif not (all(h > 0.0 for h in eta) and all(b >= a for a, b in zip(eta, eta[1:]))):
            errs.append(f"{tag}: min eta {eta} not positive and nondecreasing")
        return errs

    def _check_modulus(self, p, modulus) -> list[str]:
        tag = f"delta_numeric l_{p}^2"
        errs = []
        if list(modulus.epsilons) != self.sweep_eps:
            return [f"{tag}: eps {modulus.epsilons} returned for {self.sweep_eps}"]
        for e, d in zip(self.sweep_eps, modulus.delta):
            ref, two_sided = refs.modulus_ref(e, p)
            gap = Decimal(d) - ref
            if gap < -Decimal(BELOW_TOL):
                errs.append(f"{tag}: delta {d!r} at eps {e!r} below the modulus {float(ref)!r}")
            if two_sided and gap > Decimal(ABOVE_TOL):
                errs.append(f"{tag}: delta {d!r} at eps {e!r} above the modulus {float(ref)!r}")
        return errs
