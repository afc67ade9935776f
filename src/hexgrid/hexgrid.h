// Hierarchical hexagonal spatial index ("H3-workalike").
//
// HABIT uses Uber's H3 purely as a hexagonal tessellation with k-ring
// topology and resolution-controlled cell size. This module reproduces that
// contract over the spherical-Mercator plane instead of the icosahedron:
//
//  * pointy-top hexagon lattice in Mercator meters, axial (i, j) addressing;
//  * 16 resolutions (0..15) with aperture-7 scaling: each resolution's cell
//    edge is 1/sqrt(7) of the previous, calibrated so the per-resolution
//    average edge length matches H3's published table (res 6 ~ 3.23 km,
//    res 9 ~ 174 m, res 10 ~ 65.9 m);
//  * cell ids pack (resolution, i, j) into a single uint64 like H3Index.
//
// Because Mercator is conformal, cells remain regular hexagons locally; their
// ground size shrinks by cos(latitude), which is irrelevant to HABIT's
// regional use (all datasets span a few degrees of latitude).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "geo/latlng.h"
#include "geo/mercator.h"

namespace habit::hex {

/// Packed hexagonal cell identifier: 4 bits resolution, 30 bits i, 30 bits j.
using CellId = uint64_t;

/// Sentinel for "no cell".
inline constexpr CellId kInvalidCell = ~0ULL;

/// Number of supported resolutions (0..15).
inline constexpr int kMaxResolution = 15;

/// Average hexagon edge length at resolution 0, in meters. Chosen so the
/// derived per-resolution values match H3's classic average-edge-length
/// table (edge(r) = kRes0EdgeMeters / sqrt(7)^r).
inline constexpr double kRes0EdgeMeters = 1107712.591;

/// Edge length (meters in the Mercator plane; ~ground meters at the equator)
/// of a cell at the given resolution. Aborts if res is out of range.
double EdgeLengthMeters(int res);

/// Approximate cell area in square meters at the given resolution.
double CellAreaM2(int res);

/// True iff `cell` encodes a structurally valid (resolution, i, j) triple.
bool IsValidCell(CellId cell);

/// Resolution encoded in the cell id (0..15); -1 for invalid ids.
int Resolution(CellId cell);

/// Axial lattice coordinates encoded in the cell id.
struct Axial {
  int64_t i = 0;
  int64_t j = 0;
  bool operator==(const Axial&) const = default;
};

/// Decodes the axial coordinates of the cell.
Axial CellToAxial(CellId cell);

/// Encodes axial coordinates at a resolution into a cell id.
/// Returns kInvalidCell if res or coordinates are out of range.
CellId AxialToCell(int res, Axial axial);

/// Maps a geographic coordinate to its containing cell at `res`.
/// Returns kInvalidCell for invalid coordinates or resolution.
CellId LatLngToCell(const geo::LatLng& p, int res);

/// Geometric center of the cell (the paper's projection option p = c).
geo::LatLng CellToLatLng(CellId cell);

/// The six neighboring cells in axial-direction order.
std::array<CellId, 6> Neighbors(CellId cell);

/// True iff the two cells share an edge (same resolution, grid distance 1).
bool AreNeighbors(CellId a, CellId b);

/// Hexagonal grid distance between two cells of the same resolution
/// (H3's h3_grid_distance); error if resolutions differ or ids invalid.
Result<int64_t> GridDistance(CellId a, CellId b);

/// All cells within grid distance k of `origin` (H3's gridDisk /  kRing),
/// in spiral order starting at the origin.
std::vector<CellId> GridDisk(CellId origin, int k);

/// Only the ring at exactly grid distance k.
std::vector<CellId> GridRing(CellId origin, int k);

/// Pointy-top axial direction vectors, counter-clockwise starting east
/// (Neighbors' order; ForEachRingCell walks the sides in this order).
inline constexpr std::array<Axial, 6> kAxialDirections = {{
    {+1, 0},
    {+1, -1},
    {0, -1},
    {-1, 0},
    {-1, +1},
    {0, +1},
}};

/// Calls `fn(cell)` for each cell at exactly grid distance k >= 1 from the
/// valid cell `origin`, in GridRing's order, without collecting them:
/// k steps in direction 4 reach the ring's starting corner, then each of
/// the six sides is walked in direction order. Cells whose coordinates
/// fall outside the encodable range are skipped, as GridRing skips them.
template <typename Fn>
void ForEachRingCell(CellId origin, int k, Fn&& fn) {
  const int res = static_cast<int>(origin >> 60);
  Axial cur = CellToAxial(origin);
  cur.i += kAxialDirections[4].i * k;
  cur.j += kAxialDirections[4].j * k;
  for (const Axial& dir : kAxialDirections) {
    for (int step = 0; step < k; ++step) {
      const CellId c = AxialToCell(res, cur);
      if (c != kInvalidCell) fn(c);
      cur.i += dir.i;
      cur.j += dir.j;
    }
  }
}

/// The coarser-resolution cell containing this cell's center.
/// parent_res must be <= the cell's resolution.
Result<CellId> CellToParent(CellId cell, int parent_res);

/// The six boundary vertices of the cell, in counter-clockwise order.
std::vector<geo::LatLng> CellBoundary(CellId cell);

/// Cells crossed by walking the straight (Mercator-plane) line from a to b,
/// inclusive of both endpoints (H3's gridPathCells analog). Both cells must
/// share a resolution.
Result<std::vector<CellId>> GridPathCells(CellId a, CellId b);

/// Hex "debug" string, e.g. "8a2d5e71" style hex digits of the packed id.
std::string CellToString(CellId cell);

/// All cells at resolution `res` whose center lies inside `polygon`
/// (H3's polygonToCells / polyfill semantics). The polygon is given as a
/// closed ring of geographic vertices. Returns an empty vector for rings
/// with < 3 vertices. Cost is proportional to the bounding-box cell count,
/// so prefer coarse resolutions for large regions.
std::vector<CellId> PolygonToCells(const std::vector<geo::LatLng>& ring,
                                   int res);

}  // namespace habit::hex
