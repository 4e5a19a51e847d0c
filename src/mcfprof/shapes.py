"""Initial-datum profile constructors (sphere, cylinder, ovaloid, dumbbell)."""

from __future__ import annotations

import numpy as np

from .geometry import CLOSED, PERIODIC, ProfileCurve, resample_arclength


def sphere_profile(R: float, n: int = 2, nodes: int = 400) -> ProfileCurve:
    """Round sphere of radius R centred at the origin, sampled uniformly in arclength."""
    theta = np.linspace(0.0, np.pi, nodes)
    z = -R * np.cos(theta)
    r = R * np.sin(theta)
    r[0] = 0.0
    r[-1] = 0.0
    return ProfileCurve(z, r, n, CLOSED)


def cylinder_profile(R: float, period: float, n: int = 2, nodes: int = 400) -> ProfileCurve:
    """Round cylinder r = R over one z-period."""
    z = np.linspace(0.0, period, nodes, endpoint=False)
    r = np.full(nodes, float(R))
    return ProfileCurve(z, r, n, PERIODIC, period)


def ovaloid_profile(a: float, b: float, n: int = 2, nodes: int = 400) -> ProfileCurve:
    """Ellipsoid of revolution with z-semi-axis a and radial semi-axis b."""
    theta = np.linspace(0.0, np.pi, 8 * nodes)
    z = -a * np.cos(theta)
    r = b * np.sin(theta)
    r[0] = 0.0
    r[-1] = 0.0
    dense = ProfileCurve(z, r, n, CLOSED)
    return resample_arclength(dense, num=nodes)


def dumbbell_profile(bulb_R: float, neck_r: float, length: float, n: int = 2,
                     nodes: int = 800) -> ProfileCurve:
    """Symmetric dumbbell: two bulbs of radius ~bulb_R joined by a neck of radius neck_r.

    r(z)^2 = (1 - (z/L)^2) * q(z) with L = length/2 and
    q(z) = neck_r^2 + (k bulb_R^2 - neck_r^2) sin^8(pi z / L) + cap_term (z/L)^6.
    The waist sits at z = 0 with r(0) = neck_r; k is solved so the bulb crest
    height equals bulb_R; the (z/L)^6 term rounds the end caps to an
    osculating radius of about 0.8 bulb_R so no spurious curvature spike
    dominates the initial data.  The eighth power makes the waist segment
    nearly cylindrical, which is what makes the neckpinch reach the vicinity
    of its cylinder tangent flow at practical resolutions.
    """
    if not neck_r < bulb_R:
        raise ValueError("dumbbell requires neck_r < bulb_R")
    L = length / 2.0
    zt = np.linspace(-L, L, 16 * nodes)
    cap_term = 0.8 * bulb_R * L - neck_r**2  # cap osculating radius = q(L)/L

    sin8 = np.sin(np.pi * zt / L) ** 8
    cap = cap_term * (zt / L) ** 6
    envelope = 1.0 - (zt / L) ** 2

    def r2_of(k):
        return envelope * (neck_r**2 + (k * bulb_R**2 - neck_r**2) * sin8 + cap)

    # bisect k so that max r = bulb_R
    lo, hi = 0.5, 8.0
    for _ in range(60):
        k = 0.5 * (lo + hi)
        if np.sqrt(np.maximum(r2_of(k), 0.0)).max() > bulb_R:
            hi = k
        else:
            lo = k
    r = np.sqrt(np.maximum(r2_of(0.5 * (lo + hi)), 0.0))
    r[0] = 0.0
    r[-1] = 0.0
    dense = ProfileCurve(zt, r, n, CLOSED)
    return resample_arclength(dense, num=nodes)


def perturb_profile(curve: ProfileCurve, amplitude: float, modes: int, seed: int) -> ProfileCurve:
    """Add a smooth random radial perturbation (sum of low Fourier modes).

    Vanishes at closed-through-axis poles; on a periodic-in-z profile each
    mode has the profile's own period in arclength.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    s = curve.arclength
    closed = curve.topology == CLOSED
    total = s[-1] if closed else s[-1] + curve.spacings()[-1]
    # mode k has k half-waves along a closed profile, k whole waves along a periodic one
    angle = np.pi if closed else 2.0 * np.pi
    bump = np.zeros_like(s)
    for k in range(1, modes + 1):
        phase = rng.uniform(0.0, 2 * np.pi)
        bump += rng.normal() * np.sin(angle * k * s / total + phase)
    bump *= amplitude / max(1.0, np.abs(bump).max())
    r = curve.r.copy()
    if closed:
        taper = np.sin(np.pi * s / total)
        r[1:-1] = r[1:-1] + bump[1:-1] * taper[1:-1]
    else:
        r = r + bump
    out = ProfileCurve(curve.z.copy(), r, curve.n, curve.topology, curve.period)
    return resample_arclength(out)
