#include "hexgrid/hexgrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace habit::hex {

namespace {

constexpr double kSqrt3 = 1.7320508075688772;
constexpr double kSqrt7 = 2.6457513110645907;

// Axial coordinate bounds: 30-bit fields with a bias; the outermost encoded
// value is reserved so kInvalidCell never decodes as a valid cell.
constexpr int64_t kAxialBias = 1LL << 29;
constexpr int64_t kMaxAxial = (1LL << 29) - 2;

constexpr uint64_t kCoordMask = (1ULL << 30) - 1;

bool AxialInRange(const Axial& a) {
  return a.i >= -kMaxAxial && a.i <= kMaxAxial && a.j >= -kMaxAxial &&
         a.j <= kMaxAxial;
}

// Rounds fractional axial coordinates to the nearest hexagon (cube rounding).
Axial CubeRound(double q, double r) {
  const double x = q;
  const double z = r;
  const double y = -x - z;
  double rx = std::round(x);
  double ry = std::round(y);
  double rz = std::round(z);
  const double dx = std::fabs(rx - x);
  const double dy = std::fabs(ry - y);
  const double dz = std::fabs(rz - z);
  if (dx > dy && dx > dz) {
    rx = -ry - rz;
  } else if (dy > dz) {
    ry = -rx - rz;
  } else {
    rz = -rx - ry;
  }
  return Axial{static_cast<int64_t>(rx), static_cast<int64_t>(rz)};
}

geo::XY AxialToPlane(const Axial& a, double edge_m) {
  geo::XY out;
  out.x = edge_m * (kSqrt3 * static_cast<double>(a.i) +
                    kSqrt3 / 2.0 * static_cast<double>(a.j));
  out.y = edge_m * 1.5 * static_cast<double>(a.j);
  return out;
}

Axial PlaneToAxial(const geo::XY& p, double edge_m) {
  const double q = (kSqrt3 / 3.0 * p.x - p.y / 3.0) / edge_m;
  const double r = (2.0 / 3.0 * p.y) / edge_m;
  return CubeRound(q, r);
}

}  // namespace

double EdgeLengthMeters(int res) {
  assert(res >= 0 && res <= kMaxResolution);
  return kRes0EdgeMeters / std::pow(kSqrt7, res);
}

double CellAreaM2(int res) {
  const double e = EdgeLengthMeters(res);
  return 3.0 * kSqrt3 / 2.0 * e * e;
}

bool IsValidCell(CellId cell) {
  const int res = static_cast<int>(cell >> 60);
  if (res > kMaxResolution) return false;  // unreachable with 4 bits, kept
  return AxialInRange(CellToAxial(cell));
}

int Resolution(CellId cell) {
  if (!IsValidCell(cell)) return -1;
  return static_cast<int>(cell >> 60);
}

Axial CellToAxial(CellId cell) {
  const int64_t i_enc = static_cast<int64_t>((cell >> 30) & kCoordMask);
  const int64_t j_enc = static_cast<int64_t>(cell & kCoordMask);
  return Axial{i_enc - kAxialBias, j_enc - kAxialBias};
}

CellId AxialToCell(int res, Axial axial) {
  if (res < 0 || res > kMaxResolution || !AxialInRange(axial)) {
    return kInvalidCell;
  }
  const uint64_t i_enc = static_cast<uint64_t>(axial.i + kAxialBias);
  const uint64_t j_enc = static_cast<uint64_t>(axial.j + kAxialBias);
  return (static_cast<uint64_t>(res) << 60) | (i_enc << 30) | j_enc;
}

CellId LatLngToCell(const geo::LatLng& p, int res) {
  if (!p.IsValid() || res < 0 || res > kMaxResolution) return kInvalidCell;
  const geo::XY xy = geo::MercatorProject(p);
  return AxialToCell(res, PlaneToAxial(xy, EdgeLengthMeters(res)));
}

geo::LatLng CellToLatLng(CellId cell) {
  assert(IsValidCell(cell));
  const int res = static_cast<int>(cell >> 60);
  const geo::XY xy = AxialToPlane(CellToAxial(cell), EdgeLengthMeters(res));
  return geo::MercatorUnproject(xy);
}

std::array<CellId, 6> Neighbors(CellId cell) {
  std::array<CellId, 6> out;
  out.fill(kInvalidCell);
  if (!IsValidCell(cell)) return out;
  const int res = static_cast<int>(cell >> 60);
  const Axial a = CellToAxial(cell);
  for (size_t d = 0; d < 6; ++d) {
    out[d] = AxialToCell(res, Axial{a.i + kAxialDirections[d].i,
                                    a.j + kAxialDirections[d].j});
  }
  return out;
}

bool AreNeighbors(CellId a, CellId b) {
  if (!IsValidCell(a) || !IsValidCell(b)) return false;
  auto dist = GridDistance(a, b);
  return dist.ok() && dist.value() == 1;
}

Result<int64_t> GridDistance(CellId a, CellId b) {
  if (!IsValidCell(a) || !IsValidCell(b)) {
    return Status::InvalidArgument("grid distance of invalid cell");
  }
  if ((a >> 60) != (b >> 60)) {
    return Status::InvalidArgument(
        "grid distance requires equal resolutions");
  }
  const Axial ca = CellToAxial(a);
  const Axial cb = CellToAxial(b);
  const int64_t di = ca.i - cb.i;
  const int64_t dj = ca.j - cb.j;
  return (std::llabs(di) + std::llabs(dj) + std::llabs(di + dj)) / 2;
}

std::vector<CellId> GridDisk(CellId origin, int k) {
  std::vector<CellId> out;
  if (!IsValidCell(origin) || k < 0) return out;
  out.reserve(1 + 3 * k * (k + 1));
  out.push_back(origin);
  for (int ring = 1; ring <= k; ++ring) {
    std::vector<CellId> r = GridRing(origin, ring);
    out.insert(out.end(), r.begin(), r.end());
  }
  return out;
}

std::vector<CellId> GridRing(CellId origin, int k) {
  std::vector<CellId> out;
  if (!IsValidCell(origin) || k < 0) return out;
  if (k == 0) {
    out.push_back(origin);
    return out;
  }
  out.reserve(6 * k);
  ForEachRingCell(origin, k, [&](CellId c) { out.push_back(c); });
  return out;
}

Result<CellId> CellToParent(CellId cell, int parent_res) {
  if (!IsValidCell(cell)) {
    return Status::InvalidArgument("parent of invalid cell");
  }
  const int res = static_cast<int>(cell >> 60);
  if (parent_res < 0 || parent_res > res) {
    return Status::InvalidArgument("parent resolution must be in [0, res]");
  }
  if (parent_res == res) return cell;
  return LatLngToCell(CellToLatLng(cell), parent_res);
}

std::vector<geo::LatLng> CellBoundary(CellId cell) {
  std::vector<geo::LatLng> out;
  if (!IsValidCell(cell)) return out;
  const int res = static_cast<int>(cell >> 60);
  const double edge = EdgeLengthMeters(res);
  const geo::XY c = AxialToPlane(CellToAxial(cell), edge);
  out.reserve(6);
  for (int v = 0; v < 6; ++v) {
    const double theta = geo::DegToRad(60.0 * v + 30.0);
    geo::XY vert{c.x + edge * std::cos(theta), c.y + edge * std::sin(theta)};
    out.push_back(geo::MercatorUnproject(vert));
  }
  return out;
}

Result<std::vector<CellId>> GridPathCells(CellId a, CellId b) {
  HABIT_ASSIGN_OR_RETURN(int64_t n, GridDistance(a, b));
  const int res = static_cast<int>(a >> 60);
  const Axial ca = CellToAxial(a);
  const Axial cb = CellToAxial(b);
  std::vector<CellId> out;
  out.reserve(n + 1);
  if (n == 0) {
    out.push_back(a);
    return out;
  }
  for (int64_t step = 0; step <= n; ++step) {
    const double t = static_cast<double>(step) / static_cast<double>(n);
    // Interpolate in fractional axial space with a tiny epsilon nudge so
    // midpoints that land exactly on cell borders round deterministically.
    const double q = static_cast<double>(ca.i) +
                     (static_cast<double>(cb.i - ca.i) + 1e-9) * t;
    const double r = static_cast<double>(ca.j) +
                     (static_cast<double>(cb.j - ca.j) + 1e-9) * t;
    const CellId c = AxialToCell(res, CubeRound(q, r));
    if (out.empty() || out.back() != c) out.push_back(c);
  }
  return out;
}

std::vector<CellId> PolygonToCells(const std::vector<geo::LatLng>& ring,
                                   int res) {
  std::vector<CellId> out;
  if (ring.size() < 3 || res < 0 || res > kMaxResolution) return out;

  // Even-odd containment test in lat/lng space.
  auto contains = [&ring](const geo::LatLng& p) {
    bool inside = false;
    const size_t n = ring.size();
    for (size_t i = 0, j = n - 1; i < n; j = i++) {
      const geo::LatLng& vi = ring[i];
      const geo::LatLng& vj = ring[j];
      if ((vi.lat > p.lat) != (vj.lat > p.lat)) {
        const double x_int =
            vj.lng + (p.lat - vj.lat) / (vi.lat - vj.lat) * (vi.lng - vj.lng);
        if (p.lng < x_int) inside = !inside;
      }
    }
    return inside;
  };

  // Axial bounding range from the ring's vertices (with one ring margin,
  // since axial extrema need not coincide with geographic extrema).
  int64_t min_i = 0, max_i = 0, min_j = 0, max_j = 0;
  bool first = true;
  for (const geo::LatLng& v : ring) {
    const CellId c = LatLngToCell(v, res);
    if (c == kInvalidCell) return out;
    const Axial a = CellToAxial(c);
    if (first) {
      min_i = max_i = a.i;
      min_j = max_j = a.j;
      first = false;
    } else {
      min_i = std::min(min_i, a.i);
      max_i = std::max(max_i, a.i);
      min_j = std::min(min_j, a.j);
      max_j = std::max(max_j, a.j);
    }
  }
  for (int64_t i = min_i - 1; i <= max_i + 1; ++i) {
    for (int64_t j = min_j - 1; j <= max_j + 1; ++j) {
      const CellId c = AxialToCell(res, Axial{i, j});
      if (c == kInvalidCell) continue;
      if (contains(CellToLatLng(c))) out.push_back(c);
    }
  }
  return out;
}

std::string CellToString(CellId cell) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(cell));
  return buf;
}

}  // namespace habit::hex
