"""Walker-Delta constellation geometry, orbit propagation and ground-station
visibility.

All positions are Earth-centered inertial (ECI) on a spherical Earth. Orbits
are circular two-body; ground stations rotate with the Earth at the sidereal
rate. Everything here is a pure function of configuration and time, so the
module is safe to call from anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError

EARTH_RADIUS_M = 6_371_000.0
EARTH_MU = 3.986004418e14        # m^3/s^2
SIDEREAL_RATE = 7.292115e-5      # rad/s, Earth rotation in the inertial frame


class NodeId(NamedTuple):
    """Network node handle. ``kind`` is "sat" or "gs"; indices are dense
    within a kind. Tuple ordering gives the deterministic tie-break order."""

    kind: str
    index: int


def sat_id(index: int) -> NodeId:
    return NodeId("sat", index)


def gs_id(index: int) -> NodeId:
    return NodeId("gs", index)


class Position3D(NamedTuple):
    """ECI position in meters at a given time."""

    x: float
    y: float
    z: float
    timestamp: float

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class WalkerConfig:
    num_planes: int
    sats_per_plane: int
    altitude_m: float
    inclination_deg: float
    phasing_factor: int = 1
    earth_radius_m: float = EARTH_RADIUS_M
    mu: float = EARTH_MU

    def __post_init__(self):
        if self.num_planes < 1 or self.sats_per_plane < 1:
            raise ConfigurationError("num_planes and sats_per_plane must be >= 1")
        if self.altitude_m <= 0:
            raise ConfigurationError("altitude_m must be positive")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ConfigurationError("inclination_deg must be in [0, 180]")
        if not 0 <= self.phasing_factor < self.num_planes:
            raise ConfigurationError("phasing_factor must be in [0, num_planes)")
        if self.earth_radius_m <= 0 or self.mu <= 0:
            raise ConfigurationError("earth_radius_m and mu must be positive")

    @property
    def num_satellites(self) -> int:
        return self.num_planes * self.sats_per_plane

    @property
    def semi_major_axis_m(self) -> float:
        return self.earth_radius_m + self.altitude_m

    @property
    def mean_motion(self) -> float:
        """Angular rate n = sqrt(mu / a^3) in rad/s."""
        a = self.semi_major_axis_m
        return math.sqrt(self.mu / (a * a * a))

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion


@dataclass(frozen=True)
class GroundStation:
    id: NodeId
    latitude_deg: float
    longitude_deg: float
    min_elevation_deg: float = 15.0
    name: str = ""

    def __post_init__(self):
        if abs(self.latitude_deg) > 90.0:
            raise ConfigurationError("latitude must be in [-90, 90]")
        if not -180.0 <= self.longitude_deg < 180.0:
            raise ConfigurationError("longitude must be in [-180, 180)")
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ConfigurationError("min_elevation must be in [0, 90)")
        if self.id.kind != "gs":
            raise ConfigurationError("ground station id must have kind 'gs'")


@dataclass(frozen=True)
class Constellation:
    """Immutable Walker-Delta geometry: per-satellite orbital angles plus the
    static four-neighbor grid (N, S, W, E with wrap-around, torus topology)."""

    cfg: WalkerConfig
    raan: np.ndarray            # (S,) right ascension of ascending node, rad
    phase0: np.ndarray          # (S,) argument of latitude at epoch, rad
    plane: np.ndarray           # (S,) plane index
    slot: np.ndarray            # (S,) in-plane slot index
    neighbors: np.ndarray = field(repr=False, default=None)  # (S, 4) int, N/S/W/E

    @property
    def num_satellites(self) -> int:
        return len(self.phase0)


def build_walker(cfg: WalkerConfig) -> Constellation:
    """Lay out a Walker-Delta pattern: planes evenly spaced in RAAN over
    360 degrees, slots evenly spaced in phase, with the inter-plane phase
    offset F * 360 / (P * S)."""
    P, S = cfg.num_planes, cfg.sats_per_plane
    n_sats = P * S
    plane = np.repeat(np.arange(P), S)
    slot = np.tile(np.arange(S), P)
    raan = 2.0 * math.pi * plane / P
    phase0 = (2.0 * math.pi * slot / S
              + 2.0 * math.pi * cfg.phasing_factor * plane / (P * S)) % (2.0 * math.pi)
    neighbors = _grid_neighbor_table(P, S)
    return Constellation(cfg=cfg, raan=raan, phase0=phase0,
                         plane=plane, slot=slot, neighbors=neighbors)


def _grid_neighbor_table(num_planes: int, sats_per_plane: int) -> np.ndarray:
    """Static N/S/W/E neighbor indices. N is the in-plane neighbor ahead in
    the direction of motion (increasing phase); W/E are the same slot in the
    previous/next plane, wrapping across the seam."""
    P, S = num_planes, sats_per_plane
    idx = np.arange(P * S)
    plane, slot = idx // S, idx % S
    north = plane * S + (slot + 1) % S
    south = plane * S + (slot - 1) % S
    west = ((plane - 1) % P) * S + slot
    east = ((plane + 1) % P) * S + slot
    return np.stack([north, south, west, east], axis=1)


def grid_neighbors(constellation: Constellation, sat: NodeId) -> tuple[NodeId, NodeId, NodeId, NodeId]:
    """Four grid neighbors of a satellite in (N, S, W, E) order."""
    n, s, w, e = constellation.neighbors[sat.index]
    return sat_id(int(n)), sat_id(int(s)), sat_id(int(w)), sat_id(int(e))


def propagate(constellation: Constellation, t: float) -> np.ndarray:
    """ECI positions of all satellites at time t (seconds), shape (S, 3) in
    meters. Circular orbits: argument of latitude u = phase0 + n*t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    cfg = constellation.cfg
    a = cfg.semi_major_axis_m
    u = constellation.phase0 + cfg.mean_motion * t
    cos_u, sin_u = np.cos(u), np.sin(u)
    cos_raan, sin_raan = np.cos(constellation.raan), np.sin(constellation.raan)
    inc = math.radians(cfg.inclination_deg)
    cos_i, sin_i = math.cos(inc), math.sin(inc)
    x = a * (cos_u * cos_raan - sin_u * cos_i * sin_raan)
    y = a * (cos_u * sin_raan + sin_u * cos_i * cos_raan)
    z = a * (sin_u * sin_i)
    return np.stack([x, y, z], axis=1)


def satellite_position(constellation: Constellation, sat: NodeId, t: float) -> Position3D:
    """Single-satellite convenience wrapper around :func:`propagate`."""
    pos = propagate(constellation, t)[sat.index]
    return Position3D(float(pos[0]), float(pos[1]), float(pos[2]), t)


class StationGeometry(NamedTuple):
    """Ground-station geometry at one instant for G stations and S
    satellites."""

    positions: np.ndarray         # (G, 3) station ECI positions, m
    distances: np.ndarray         # (S, G) satellite-to-station distances, m
    elevations: np.ndarray        # (S, G) satellite elevations, degrees
    access: list[Optional[int]]   # per station: access satellite index or None


def _station_positions(stations, t: float, r: float) -> np.ndarray:
    """(G, 3) ECI station positions; longitude advances at the sidereal
    rate, so stations move under the inertially fixed orbital planes."""
    lat = np.radians([gs.latitude_deg for gs in stations])
    lon = np.radians([gs.longitude_deg for gs in stations]) + SIDEREAL_RATE * t
    return np.stack([r * np.cos(lat) * np.cos(lon),
                     r * np.cos(lat) * np.sin(lon),
                     r * np.sin(lat)], axis=1)


def station_geometry(stations, positions: np.ndarray, t: float,
                     earth_radius_m: float = EARTH_RADIUS_M) -> StationGeometry:
    """Positions of all stations at time t, their distances to the
    satellites at ``positions`` (stamped at the same t), each satellite's
    elevation above each station's local horizontal plane, and each
    station's access satellite: the highest one, or None when it does not
    clear the station's minimum elevation. Exact elevation ties go to the
    lowest satellite index."""
    gs_pos = _station_positions(stations, t, earth_radius_m)
    rel = positions[None, :, :] - gs_pos[:, None, :]              # (G, S, 3)
    dist = np.linalg.norm(rel, axis=2)
    # one 1-D norm per station: a norm along axis 1 differs in the last bits
    up = gs_pos / np.array([np.linalg.norm(p) for p in gs_pos])[:, None]
    sin_el = np.matmul(rel, up[:, :, None])[:, :, 0] / dist
    el = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    best = np.argmax(el, axis=1)   # argmax returns the first (lowest) index on ties
    access = [int(b) if el[g, b] >= gs.min_elevation_deg else None
              for g, (b, gs) in enumerate(zip(best, stations))]
    return StationGeometry(gs_pos, dist.T, el.T, access)


def ground_station_position(gs: GroundStation, t: float,
                            earth_radius_m: float = EARTH_RADIUS_M) -> Position3D:
    """ECI position of one ground station at time t."""
    x, y, z = _station_positions([gs], t, earth_radius_m)[0]
    return Position3D(float(x), float(y), float(z), t)


def elevation_angle(gs: GroundStation, sat_pos: Position3D, t: float,
                    earth_radius_m: float = EARTH_RADIUS_M) -> float:
    """Elevation of a satellite above the station's local horizontal plane,
    in degrees. The satellite position must be stamped at the same time t."""
    if sat_pos.timestamp != t:
        raise ValueError("satellite position timestamp does not match t")
    return float(elevations_from(gs, sat_pos.vec[None, :], t, earth_radius_m)[0])


def elevations_from(gs: GroundStation, positions: np.ndarray, t: float,
                    earth_radius_m: float = EARTH_RADIUS_M) -> np.ndarray:
    """Elevation angles (degrees) from one station to every satellite."""
    return station_geometry([gs], positions, t, earth_radius_m).elevations[:, 0]


def access_satellite(gs: GroundStation, constellation: Constellation, t: float,
                     positions: Optional[np.ndarray] = None) -> Optional[NodeId]:
    """Highest-elevation visible satellite, or None when nothing clears the
    station's minimum elevation. Exact elevation ties go to the lowest
    satellite index."""
    if positions is None:
        positions = propagate(constellation, t)
    best = station_geometry([gs], positions, t,
                            constellation.cfg.earth_radius_m).access[0]
    return None if best is None else sat_id(best)


def great_circle_distance(a: tuple[float, float], b: tuple[float, float],
                          radius_m: float = EARTH_RADIUS_M) -> float:
    """Haversine distance in meters between two (lat_deg, lon_deg) points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    s_lat = math.sin(0.5 * (lat2 - lat1))
    s_lon = math.sin(0.5 * (lon2 - lon1))
    h = s_lat * s_lat + math.cos(lat1) * math.cos(lat2) * s_lon * s_lon
    return 2.0 * radius_m * math.asin(min(1.0, math.sqrt(h)))
