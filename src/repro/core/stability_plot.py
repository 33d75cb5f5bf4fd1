"""The stability plot function (paper eq. 1.3).

Given the magnitude of a node's AC response ``|T(jw)|`` over frequency,
the stability plot is

    P(w) = d/dw [ (d|T|/dw) * (w / |T|) ] * w
         = d^2 ln|T| / d(ln w)^2

i.e. the second derivative of the log-magnitude with respect to the log of
frequency (the "curvature" of the Bode magnitude plot).  Real poles and
zeros produce broad, bounded features (the log-log slope changes by one
unit per decade-wide transition), whereas a complex pole pair produces a
sharp negative peak at its natural frequency whose depth equals
``-1/zeta**2`` (eq. 1.4), and a complex zero pair produces the mirror-image
positive peak.

Two differentiation schemes are provided:

* ``"gradient"`` (default): second-order central differences on the log
  grid (exactly the discrete analogue of eq. 1.3);
* ``"smoothed"``: a cubic smoothing-spline fit of ln|T| vs ln(w) that is
  differentiated analytically — useful when the AC data is noisy (e.g.
  imported from a measurement), at the cost of slightly flattening very
  sharp peaks.  The ablation benchmark compares the two.

Peak values come from eq. 1.3 in closed form.  When ``T(s)`` is a
driving-point impedance ``[(G + sC)^-1]_kk`` its s-derivatives are exact
(``T' = -e_k^T A^-1 C A^-1 e_k``, ``T'' = 2 e_k^T A^-1 C A^-1 C A^-1 e_k``
with ``A = G + sC``), and since ``ln|T| = Re ln T`` and
``d s / d ln w = s``::

    P = Re[ s T'/T + s^2 (T''/T - (T'/T)^2) ]   at s = jw

(:func:`closed_form_plot`).  :func:`bracketed_minima` finds the minimum
of that exact P near each dominant coarse peak: the bracket spans two
coarse grid steps either side of the peak and is sampled at nine
points, half a coarse step apart (2.9 % in frequency at 40 points per
decade).  A resonance narrower than that spacing can fall between
them, so each lightly damped pole pair of the pencil inside the bracket
gets a search of its own, four damping ratios either side of it.  Each
search zooms 4x a round around its best point until the vertex of the
quartic through the best five points settles, and P is evaluated
there; the deepest search wins.  A bracket whose deepest value is its
edge, or that met a non-finite value or a singular point, is a
fallback: the caller keeps the coarse peak.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.exceptions import StabilityAnalysisError
from repro.waveform.waveform import Waveform

__all__ = ["bracketed_minima", "closed_form_plot",
           "stability_plot", "stability_plot_arrays", "stability_plot_grid",
           "log_log_curvature"]

#: Half-width of the search bracket around a coarse peak, in coarse steps.
BRACKET_STEPS = 2
#: A bracket stops zooming once its quartic vertex moves less than this
#: (in ln w) over a round; each round cuts the vertex error about 256x.
VERTEX_TOL = 1e-6
#: Zoom rounds a bracket may take at most.
MAX_ROUNDS = 12
#: A pole pair seeds the search when its damping ratio is below this
#: many first-round spacings (the nine points may step over its peak).
SEED_DAMPING = 2.0
#: Half-width of the restarted first round around a seed, in the pole
#: pair's damping ratios (at most one first-round spacing).
SEED_REACH = 4.0
#: First-round points across the bracket, in half-widths; then the six
#: points a zoom round adds between the best point's neighbours ``a``
#: and ``b`` (nine equispaced points with ``a``, the best and ``b``).
_FIRST_ROUND = np.linspace(-1.0, 1.0, 9)
_ZOOM = np.array([1, 2, 3, 5, 6, 7]) / 8.0


def closed_form_plot(s, T, dT, d2T) -> np.ndarray:
    """Eq. 1.3 from ``T`` and its first two s-derivatives at ``s = jw``
    (see the module docstring); elementwise over any shape."""
    ratio = dT / T
    return np.real(s * ratio + s * s * (d2T / T - ratio * ratio))


def _quartic_vertex(u: np.ndarray, p: np.ndarray,
                    best: np.ndarray) -> np.ndarray:
    """Minimum of the quartic through the five equispaced points around
    each row's best point: Newton's method on its derivative, started at
    the best point and kept within one spacing of it."""
    index = np.arange(len(u))
    centre = np.minimum(np.maximum(best, 2), u.shape[1] - 3)
    f = [p[index, centre + d] for d in (-2, -1, 0, 1, 2)]
    a1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / 12.0
    a2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / 24.0
    a3 = (-f[0] + 2.0 * f[1] - 2.0 * f[3] + f[4]) / 12.0
    a4 = (f[0] - 4.0 * f[1] + 6.0 * f[2] - 4.0 * f[3] + f[4]) / 24.0
    t = start = (best - centre).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(4):
            slope = a1 + t * (2.0 * a2 + t * (3.0 * a3 + t * 4.0 * a4))
            curve = 2.0 * a2 + t * (6.0 * a3 + t * 12.0 * a4)
            t = np.where(curve > 0, t - slope / curve, t)
    t = np.where(np.isfinite(t),
                 np.minimum(np.maximum(t, start - 1.0), start + 1.0), start)
    return u[index, centre] + t * (u[:, 1] - u[:, 0])


def _searches(centers: np.ndarray, half_widths: np.ndarray,
              resonances: Optional[np.ndarray]) -> tuple:
    """``(owners, centres, half_widths)`` of every search: one across
    each bracket, then one around each pole pair of ``resonances`` that
    lies inside its bracket, damped below :data:`SEED_DAMPING` first-
    round spacings."""
    spacing = half_widths * (_FIRST_ROUND[1] - _FIRST_ROUND[0])
    owner, at, zeta = (np.reshape(resonances, (-1, 3)).T
                       if resonances is not None else np.empty((3, 0)))
    owner = owner.astype(np.intp)
    keep = (np.abs(at - centers[owner]) < half_widths[owner]) \
        & (np.abs(zeta) < SEED_DAMPING * spacing[owner])
    owner, at, zeta = owner[keep], at[keep], zeta[keep]
    reach = np.minimum(np.maximum(SEED_REACH * np.abs(zeta), VERTEX_TOL),
                       spacing[owner])
    return (np.concatenate([np.arange(len(centers)), owner]),
            np.concatenate([centers, at]),
            np.concatenate([half_widths, reach]))


def _search(evaluate: Callable[[np.ndarray, np.ndarray], tuple],
            owners: np.ndarray, centers: np.ndarray, half_widths: np.ndarray,
            seeded: np.ndarray) -> tuple:
    """The lockstep searches of :func:`bracketed_minima` over the windows
    ``centers ± half_widths``, window ``k`` evaluated on bracket
    ``owners[k]``; returns ``(u, value, points, values, reasons)`` per
    window.  A window whose lowest point is still its edge once zoomed
    in reports that edge, reason ``"edge_minimum"``; a ``seeded`` window
    starts from its best interior point, and its minimum must lie below
    both its edges."""
    index = np.arange(len(centers))
    width = len(_FIRST_ROUND)
    points = np.full((len(centers), width + len(_ZOOM) * MAX_ROUNDS + 1),
                     np.nan)
    values = np.full_like(points, np.nan)
    u = centers[:, None] + half_widths[:, None] * _FIRST_ROUND
    p, singular = evaluate(owners, u)
    points[:, :width], values[:, :width] = u, p
    bad, non_finite = singular.any(axis=1), ~np.isfinite(p).all(axis=1)
    lo, hi = u[:, 0].copy(), u[:, -1].copy()
    floor = np.minimum(p[:, 0], p[:, -1])
    best = np.where(seeded, np.argmin(p[:, 1:-1], axis=1) + 1,
                    np.minimum(np.maximum(np.argmin(p, axis=1), 1), width - 2))
    vertex = _quartic_vertex(u, p, best)
    active = ~(bad | non_finite)
    for column in range(width, width + len(_ZOOM) * MAX_ROUNDS, len(_ZOOM)):
        rows = np.flatnonzero(active)
        if not len(rows):
            break
        (a, pa), (m, pm), (b, pb) = [(u[rows, best[rows] + d],
                                      p[rows, best[rows] + d])
                                     for d in (-1, 0, 1)]
        new = a[:, None] + (b - a)[:, None] * _ZOOM
        new_p, singular = evaluate(owners[rows], new)
        points[rows, column:column + len(_ZOOM)] = new
        values[rows, column:column + len(_ZOOM)] = new_p
        u[rows] = np.column_stack([a, new[:, :3], m, new[:, 3:], b])
        p[rows] = np.column_stack([pa, new_p[:, :3], pm, new_p[:, 3:], pb])
        best[rows] = np.minimum(np.maximum(np.argmin(p[rows], axis=1), 1),
                                width - 2)
        moved = _quartic_vertex(u[rows], p[rows], best[rows])
        settled = np.abs(moved - vertex[rows]) <= VERTEX_TOL
        vertex[rows] = moved
        bad[rows] |= singular.any(axis=1)
        non_finite[rows] |= ~np.isfinite(new_p).all(axis=1)
        active[rows] = ~(settled | bad[rows] | non_finite[rows])

    # A window whose edge is still its lowest point has no interior
    # minimum: it reports the edge.
    last = np.argmin(p, axis=1)
    edge = ((last == 0) & (u[:, 0] == lo)) | ((last == width - 1)
                                              & (u[:, -1] == hi))
    best[edge] = last[edge]
    u_min, p_min = u[index, best], p[index, best]
    rows = np.flatnonzero(~(bad | non_finite | edge))
    if len(rows):
        vertex_p, singular = evaluate(owners[rows], vertex[rows, None])
        points[rows, -1], values[rows, -1] = vertex[rows], vertex_p[:, 0]
        bad[rows] |= singular[:, 0]
        non_finite[rows] |= ~np.isfinite(vertex_p[:, 0])
        take = rows[vertex_p[:, 0] < p_min[rows]]
        u_min[take], p_min[take] = vertex[take], values[take, -1]
    edge |= seeded & ~(p_min < floor)
    reasons = ["singular" if bad[k] else "non_finite" if non_finite[k]
               else "edge_minimum" if edge[k] else None for k in index]
    return u_min, p_min, points, values, reasons


def bracketed_minima(evaluate: Callable[[np.ndarray, np.ndarray], tuple],
                     centers: np.ndarray, half_widths: np.ndarray,
                     resonances: Optional[np.ndarray] = None) -> tuple:
    """Minima of P over the brackets ``centers ± half_widths`` (``ln w``).

    ``evaluate(rows, u)`` maps ``(R, E)`` points of the brackets ``rows``
    to ``(values, singular)``.  ``resonances`` (optional) holds pole
    pairs as ``(bracket, ln w_n, zeta)`` rows.  Each bracket is searched
    across its width, and again around each of its pole pairs damped
    below :data:`SEED_DAMPING` first-round spacings, :data:`SEED_REACH`
    damping ratios either side.  Every search of every bracket advances
    in lockstep: nine points across its window, then zoom rounds of six
    points, four times finer around the best point, until the quartic
    vertex through the best five points settles (:data:`VERTEX_TOL`),
    then one evaluation there.  A search stops at a singular or
    non-finite point.  Across the bracket, a minimum on its edge is
    zoomed toward the edge, so a minimum just inside it is found; a
    search around a pole pair starts from its best interior point (a
    neighbouring resonance may reach into its window) and counts only
    when it ends below both edges of its window.

    The bracket's minimum is the deepest of its searches.  It falls
    back when a search met a singular or non-finite point, or when the
    deepest value is the bracket's edge.  Each bracket's arithmetic and
    stopping are its own: its minimum does not depend on the others.

    Returns ``(u, value, points, values, reasons)``: each minimum, every
    evaluation ``(P, K)`` (NaN-padded where a search stopped early) and
    per bracket ``None`` or its fallback reason, ``"singular"``,
    ``"non_finite"`` or ``"edge_minimum"``.
    """
    owners, starts, reaches = _searches(centers, half_widths, resonances)
    seeded = np.arange(len(owners)) >= len(centers)
    u, p, points, values, reasons = _search(evaluate, owners, starts, reaches,
                                            seeded)
    # Bracket k's searches are search k, then its seeds': the deepest
    # that counts wins, the first singular or non-finite one makes the
    # bracket fall back, and each fills a block of the evaluations.
    counts = [reason is None or (reason == "edge_minimum" and not seed)
              for reason, seed in zip(reasons, seeded)]
    score = np.where(counts, p, np.inf)
    best = np.arange(len(centers))
    slots = np.zeros(len(owners), dtype=np.intp)
    taken = np.zeros(len(centers), dtype=np.intp)
    for s in range(len(centers), len(owners)):
        k = owners[s]
        taken[k] += 1
        slots[s] = taken[k]
        if score[s] < score[best[k]]:
            best[k] = s
    fallbacks = [reasons[s] for s in best]
    for s in range(len(owners) - 1, -1, -1):
        if reasons[s] in ("singular", "non_finite"):
            fallbacks[owners[s]] = reasons[s]
    width = points.shape[1]
    columns = slots[:, None] * width + np.arange(width)
    joined = np.full((len(centers), (slots.max(initial=0) + 1) * width),
                     np.nan)
    joined_values = np.full_like(joined, np.nan)
    joined[owners[:, None], columns] = points
    joined_values[owners[:, None], columns] = values
    return u[best], p[best], joined, joined_values, fallbacks


def stability_plot_grid(frequencies: Sequence[float],
                        magnitude_rows: Sequence[Sequence[float]]):
    """Vectorized ``"gradient"`` stability plots over a stack of responses.

    ``magnitude_rows`` is an ``(R, F)`` array of response magnitudes over
    one shared frequency axis (the batched screening pipeline's layout:
    rows are node/sample combinations).  Returns ``(values, ok)`` where
    ``values`` holds the ``(R, F)`` curvature rows and ``ok`` is a boolean
    mask: rows the scalar :func:`stability_plot_arrays` would reject
    (nonpositive magnitudes) are flagged ``False`` and hold NaN — the
    caller falls back to the scalar function for those rows to reproduce
    its exact per-row diagnostics.  A frequency axis the scalar path would
    reject flags every row, for the same reason.

    For valid rows the values are bit-identical to the scalar
    ``method="gradient"`` path: ``np.gradient`` on a shared nonuniform
    axis applies the same elementwise stencil whether the data is one row
    or a stack.
    """
    freq = np.asarray(frequencies, dtype=float)
    mag = np.asarray(magnitude_rows, dtype=float)
    if mag.ndim != 2:
        raise StabilityAnalysisError("magnitude_rows must be a 2-D array")
    rows = mag.shape[0]
    if (freq.ndim != 1 or mag.shape[-1] != len(freq) or len(freq) < 5
            or np.any(freq <= 0) or np.any(np.diff(freq) <= 0)):
        return None, np.zeros(rows, dtype=bool)
    ok = np.all(mag > 0, axis=-1)
    values = np.full(mag.shape, np.nan)
    if np.any(ok):
        u = np.log(freq)
        y = np.log(mag[ok])
        slope = np.gradient(y, u, axis=-1)
        values[ok] = np.gradient(slope, u, axis=-1)
    return values, ok


def stability_plot_arrays(frequencies: Sequence[float],
                          magnitude: Sequence[float],
                          method: str = "gradient",
                          smoothing: Optional[float] = None) -> np.ndarray:
    """Compute the stability-plot values for raw frequency/magnitude arrays.

    Parameters
    ----------
    frequencies:
        Strictly increasing, strictly positive frequencies (Hz or rad/s —
        the result is invariant to the frequency unit because only the
        logarithmic derivative is used).
    magnitude:
        ``|T(jw)|`` samples; must be strictly positive.
    method:
        ``"gradient"`` for central differences, ``"smoothed"`` for a
        smoothing-spline fit of ln|T|(ln w).
    smoothing:
        Per-point residual variance allowed to the smoothing spline (only
        used by ``"smoothed"``).  When ``None`` the noise variance of
        ln|T| is estimated from its second differences, which makes the
        spline track clean data tightly while averaging out measurement
        noise.
    """
    freq = np.asarray(frequencies, dtype=float)
    mag = np.asarray(magnitude, dtype=float)
    if freq.ndim != 1 or mag.ndim != 1 or len(freq) != len(mag):
        raise StabilityAnalysisError("frequencies and magnitude must be 1-D arrays "
                                     "of the same length")
    if len(freq) < 5:
        raise StabilityAnalysisError("the stability plot needs at least 5 frequency points")
    if np.any(freq <= 0):
        raise StabilityAnalysisError("frequencies must be strictly positive")
    if np.any(np.diff(freq) <= 0):
        raise StabilityAnalysisError("frequencies must be strictly increasing")
    if np.any(mag <= 0):
        raise StabilityAnalysisError("response magnitude must be strictly positive "
                                     "(is the node driven?)")

    u = np.log(freq)
    y = np.log(mag)

    if method == "gradient":
        slope = np.gradient(y, u)
        curvature = np.gradient(slope, u)
        return curvature
    if method == "smoothed":
        from scipy.interpolate import UnivariateSpline

        if smoothing is None:
            # Estimate the per-point noise variance of ln|T| from its second
            # differences (for a smooth underlying curve they are dominated
            # by noise, whose variance they amplify by a factor of 6).
            second_diff = np.diff(y, n=2)
            noise_variance = float(np.median(second_diff ** 2)) / 6.0
            smoothing = max(noise_variance, 1e-12)
        spline = UnivariateSpline(u, y, k=3, s=smoothing * len(u))
        return spline.derivative(2)(u)
    raise StabilityAnalysisError(f"unknown stability-plot method {method!r}")


def stability_plot(response: Union[Waveform, Sequence[complex]],
                   frequencies: Optional[Sequence[float]] = None,
                   method: str = "gradient",
                   smoothing: Optional[float] = None) -> Waveform:
    """Compute the stability plot of an AC node response.

    ``response`` may be a complex or real :class:`Waveform` (x = frequency)
    or a plain array (in which case ``frequencies`` must be given).  The
    returned waveform has the same frequency axis and dimensionless y.
    """
    if isinstance(response, Waveform):
        freq = response.x
        mag = np.abs(response.y)
        name = response.name
    else:
        if frequencies is None:
            raise StabilityAnalysisError(
                "frequencies must be provided when response is a plain array")
        freq = np.asarray(frequencies, dtype=float)
        mag = np.abs(np.asarray(response))
        name = "response"
    values = stability_plot_arrays(freq, mag, method=method, smoothing=smoothing)
    return Waveform(freq, values, name=f"stability({name})", x_unit="Hz", y_unit="")


def log_log_curvature(waveform: Waveform, method: str = "gradient") -> Waveform:
    """Alias of :func:`stability_plot` for generic waveforms (readability in
    contexts where the input is not an AC node response)."""
    return stability_plot(waveform, method=method)
