"""The global treatment's row in 60-digit mpmath, from the rate form.

Independent of the kernel's Bose-factor form: each mode's balance is solved
with the exact dressed rates gamma_l = kappa omega^3 / (1 - exp(-omega/T_l))
and upward weights x_l = exp(-omega/T_l),

    k_l = gamma_l c_l,  loss = k_h (1 - x_h) + k_c (1 - x_c),
    n = (k_h x_h + k_c x_c) / loss,  J = omega k_h k_c (x_h - x_c) / loss,

with (c_h, c_c) = (c^2, s^2) for the + mode and (s^2, c^2) for the - mode.
x_h - x_c factors out the larger exponential, so weights that both sit near
1 do not cancel.  The inputs are the exact doubles of the parameters.
"""

import mpmath as mp

from qheatnet.model import _FLOAT_KEYS, NetworkParams

CELLS = ("n_plus", "n_minus", "n_A", "n_B", "X", "J_h", "sigma")


def exact_global_row(params: NetworkParams, digits: int = 60) -> dict | None:
    """The cells named in CELLS as mpf, or None where the exact spectrum is gapless."""
    with mp.workdps(digits):
        omega_h, omega_c, eps, T_h, T_c, kappa = (mp.mpf(getattr(params, name)) for name in _FLOAT_KEYS)
        det = omega_h * omega_c - eps * eps
        if det <= 0:
            return None
        half_gap = (omega_h - omega_c) / 2
        r = mp.sqrt(half_gap * half_gap + eps * eps)
        omega_plus = (omega_h + omega_c) / 2 + r
        if r == 0:
            c2, s2 = mp.mpf(1), mp.mpf(0)
        else:
            wide, small = (r + abs(half_gap)) / (2 * r), eps * eps / (2 * r * (r + abs(half_gap)))
            c2, s2 = (wide, small) if half_gap >= 0 else (small, wide)
        modes = []
        for omega, c_h, c_c in ((omega_plus, c2, s2), (det / omega_plus, s2, c2)):
            a, b = omega / T_h, omega / T_c
            u_h, u_c = -mp.expm1(-a), -mp.expm1(-b)
            x_h, x_c = mp.exp(-a), mp.exp(-b)
            cube = kappa * omega**3
            k_h, k_c = cube / u_h * c_h, cube / u_c * c_c
            loss = k_h * u_h + k_c * u_c
            dx = (x_h if a < b else -x_c) * -mp.expm1(-abs(b - a))
            modes.append(((k_h * x_h + k_c * x_c) / loss, omega * k_h * k_c * dx / loss))
        (n_p, J_p), (n_m, J_m) = modes
        J_h = J_p + J_m
        return {
            "n_plus": n_p,
            "n_minus": n_m,
            "n_A": c2 * n_p + s2 * n_m,
            "n_B": s2 * n_p + c2 * n_m,
            "X": 2 * mp.sqrt(c2 * s2) * (n_p - n_m),
            "J_h": J_h,
            "sigma": J_h / T_c - J_h / T_h,
        }
