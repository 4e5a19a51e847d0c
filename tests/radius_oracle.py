"""Dense reference for the inscribed radius that the tests compare production against."""

import numpy as np

from mcfprof.geometry import CLOSED


def two_point_inscribed_radii(snapshot):
    """Oracle: min(diam, min_y g(y)) over every node, axis mirror and periodic copy y, densely."""
    curve = snapshot.surface
    normal = snapshot.curvature.normal
    pts = np.column_stack((curve.z, curve.r))
    if curve.topology == CLOSED:
        diam = float(np.hypot(curve.z.max() - curve.z.min(), 2.0 * curve.r.max()))
        ys = pts
    else:
        diam = float(np.hypot(curve.period, 2.0 * curve.r.max()))
        ys = np.vstack([pts + [shift, 0.0] for shift in (-curve.period, 0.0, curve.period)])
    ys = np.vstack((ys, ys * [1.0, -1.0]))
    dy = ys[None, :, :] - pts[:, None, :]
    a = np.einsum("ijk,ik->ij", dy, normal)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(a > 0.0, (dy * dy).sum(axis=2) / (2.0 * a), np.inf)
    return np.minimum(diam, g.min(axis=1))
