#include "chip/generator.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "util/deadline.hpp"

namespace pacor::chip {
namespace {

/// Deterministic uniform int in [lo, hi] (modulo; bias irrelevant for
/// benchmark synthesis and stable across standard libraries, unlike
/// std::uniform_int_distribution).
std::int32_t randInt(std::mt19937& rng, std::int32_t lo, std::int32_t hi) {
  return lo + static_cast<std::int32_t>(rng() % static_cast<std::uint32_t>(hi - lo + 1));
}

/// Places `pinCount` control pins evenly spread along the boundary ring
/// with a random rotation. Indices are distinct because pinCount never
/// exceeds the boundary cell count (checked by the callers).
void placeBoundaryPins(Chip& chip, std::int32_t pinCount, std::mt19937& rng) {
  const auto boundary = chip.routingGrid.boundaryCells();
  const std::size_t n = boundary.size();
  const std::size_t offset = rng() % n;
  for (std::int32_t i = 0; i < pinCount; ++i) {
    const std::size_t idx =
        (offset + static_cast<std::size_t>(i) * n / static_cast<std::size_t>(pinCount)) % n;
    chip.pins.push_back({static_cast<PinId>(i), boundary[idx]});
  }
}

/// Assigns activation sequences so that valves sharing a given cluster
/// are pairwise compatible and valves of different groups are provably
/// incompatible: each group (cluster or singleton) gets a unique binary
/// code on the leading steps plus a shared random base, with X's
/// sprinkled over the tail.
void assignGroupSequences(Chip& chip, std::int32_t sequenceLength, std::mt19937& rng) {
  std::vector<std::size_t> groupOf(chip.valves.size());
  std::size_t groups = 0;
  {
    std::vector<bool> inCluster(chip.valves.size(), false);
    for (const auto& cluster : chip.givenClusters) {
      for (const ValveId v : cluster.valves) {
        groupOf[static_cast<std::size_t>(v)] = groups;
        inCluster[static_cast<std::size_t>(v)] = true;
      }
      ++groups;
    }
    for (std::size_t v = 0; v < chip.valves.size(); ++v)
      if (!inCluster[v]) groupOf[v] = groups++;
  }

  std::int32_t codeLen = 1;
  while ((std::size_t{1} << codeLen) < groups) ++codeLen;
  const std::int32_t seqLen = std::max(sequenceLength, codeLen + 2);

  std::vector<std::string> base(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    std::string s(static_cast<std::size_t>(seqLen), '0');
    for (std::int32_t b = 0; b < codeLen; ++b)
      s[static_cast<std::size_t>(b)] = ((g >> b) & 1) ? '1' : '0';
    for (std::int32_t i = codeLen; i < seqLen; ++i)
      s[static_cast<std::size_t>(i)] = (rng() & 1u) ? '1' : '0';
    base[g] = std::move(s);
  }
  for (auto& valve : chip.valves) {
    std::string s = base[groupOf[static_cast<std::size_t>(valve.id)]];
    for (std::int32_t i = codeLen; i < seqLen; ++i)
      if (rng() % 4 == 0) s[static_cast<std::size_t>(i)] = 'X';
    valve.sequence = ActivationSequence(s);
  }
}

class Builder {
 public:
  explicit Builder(const GeneratorParams& p) : p_(p), rng_(p.seed) {
    if (p.width < 8 || p.height < 8)
      throw std::invalid_argument("generator: chip must be at least 8x8");
    if (static_cast<std::int64_t>(p.width) * p.height > grid::Grid::kMaxCells)
      throw std::invalid_argument(
          "generator: width * height exceeds the int32 cell-index range");
    std::int64_t clusteredValves = 0;
    for (const auto s : p.lmClusterSizes) {
      if (s < 2) throw std::invalid_argument("generator: cluster sizes must be >= 2");
      clusteredValves += s;
    }
    for (const auto s : p.plainClusterSizes) {
      if (s < 2) throw std::invalid_argument("generator: cluster sizes must be >= 2");
      clusteredValves += s;
    }
    if (clusteredValves > p.valveCount)
      throw std::invalid_argument("generator: cluster sizes exceed valve count");
    const std::int64_t interior =
        static_cast<std::int64_t>(p.width - 2 * kMargin) * (p.height - 2 * kMargin);
    if (p.valveCount * 4 + p.obstacleCellCount > interior)
      throw std::invalid_argument("generator: chip too small for valves + obstacles");
    const std::int64_t boundary = 2 * (static_cast<std::int64_t>(p.width) + p.height) - 4;
    if (p.pinCount > boundary)
      throw std::invalid_argument("generator: more pins than boundary cells");
  }

  Chip build() {
    Chip chip;
    chip.name = p_.name;
    chip.routingGrid = grid::Grid(p_.width, p_.height);
    chip.delta = p_.delta;

    placePins(chip);
    placeValves(chip);
    placeObstacles(chip);
    assignSequences(chip);

    if (const auto err = chip.validate())
      throw std::logic_error("generator produced invalid chip: " + *err);
    return chip;
  }

 private:
  static constexpr std::int32_t kMargin = 2;  ///< valve/obstacle keep-out ring

  bool isInterior(Point q) const {
    return q.x >= kMargin && q.x < p_.width - kMargin && q.y >= kMargin &&
           q.y < p_.height - kMargin;
  }

  Point randomInterior() {
    return {randInt(rng_, kMargin, p_.width - 1 - kMargin),
            randInt(rng_, kMargin, p_.height - 1 - kMargin)};
  }

  /// Min Chebyshev distance from q to all placed valve cells.
  std::int64_t distToValves(Point q) const {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const Point v : valveCells_) best = std::min(best, geom::chebyshev(q, v));
    return best;
  }

  void placePins(Chip& chip) { placeBoundaryPins(chip, p_.pinCount, rng_); }

  /// Picks a free interior cell maximizing min distance to `centers`
  /// (best-of-k sampling) so clusters spread over the chip.
  Point pickSpreadCenter(const std::vector<Point>& centers) {
    Point best = randomInterior();
    std::int64_t bestScore = -1;
    for (int tries = 0; tries < 24; ++tries) {
      const Point q = randomInterior();
      std::int64_t score = std::numeric_limits<std::int64_t>::max();
      for (const Point c : centers) score = std::min(score, geom::chebyshev(q, c));
      if (centers.empty()) score = 0;
      if (score > bestScore) {
        bestScore = score;
        best = q;
      }
    }
    return best;
  }

  /// Places `size` valves within an expanding Chebyshev radius of a fresh
  /// cluster center, pairwise separation >= 2 so no valve is boxed in.
  std::vector<ValveId> placeClusterValves(Chip& chip, std::int32_t size,
                                          std::vector<Point>& centers) {
    const Point center = pickSpreadCenter(centers);
    centers.push_back(center);
    std::vector<ValveId> members;
    std::int32_t radius = std::max<std::int32_t>(2, p_.clusterRadius);
    int attempts = 0;
    while (static_cast<std::int32_t>(members.size()) < size) {
      if (++attempts > 4000) {
        radius += 2;  // dense chip: widen the cluster footprint
        attempts = 0;
        if (radius > std::max(p_.width, p_.height))
          throw std::invalid_argument("generator: cannot place cluster valves");
      }
      Point q = {center.x + randInt(rng_, -radius, radius),
                 center.y + randInt(rng_, -radius, radius)};
      if (!isInterior(q)) continue;
      if (distToValves(q) < 2) continue;
      members.push_back(addValve(chip, q));
    }
    return members;
  }

  ValveId addValve(Chip& chip, Point q) {
    const auto id = static_cast<ValveId>(chip.valves.size());
    chip.valves.push_back({id, q, ActivationSequence()});
    valveCells_.push_back(q);
    return id;
  }

  void placeValves(Chip& chip) {
    std::vector<Point> centers;
    for (const std::int32_t size : p_.lmClusterSizes)
      chip.givenClusters.push_back({placeClusterValves(chip, size, centers), true});
    for (const std::int32_t size : p_.plainClusterSizes)
      chip.givenClusters.push_back({placeClusterValves(chip, size, centers), false});

    // Remaining valves are singletons scattered across the chip.
    int attempts = 0;
    while (static_cast<std::int32_t>(chip.valves.size()) < p_.valveCount) {
      if (++attempts > 100000)
        throw std::invalid_argument("generator: cannot place singleton valves");
      const Point q = randomInterior();
      if (distToValves(q) < 2) continue;
      addValve(chip, q);
    }
  }

  void placeObstacles(Chip& chip) {
    std::unordered_set<Point> cells;
    int attempts = 0;
    while (static_cast<std::int32_t>(cells.size()) < p_.obstacleCellCount) {
      if (++attempts > 200000)
        throw std::invalid_argument("generator: cannot place obstacles");
      const Point q = randomInterior();
      // Keep a free ring around every valve so terminals stay reachable.
      if (distToValves(q) < 2) continue;
      // Short horizontal/vertical strips emulate flow-layer via blockages.
      const std::int32_t len = randInt(rng_, 1, 3);
      const bool horizontal = (rng_() & 1u) != 0;
      for (std::int32_t k = 0; k < len; ++k) {
        const Point c = horizontal ? Point{q.x + k, q.y} : Point{q.x, q.y + k};
        if (!isInterior(c) || distToValves(c) < 2) break;
        if (static_cast<std::int32_t>(cells.size()) >= p_.obstacleCellCount) break;
        cells.insert(c);
      }
    }
    chip.obstacles.assign(cells.begin(), cells.end());
    std::sort(chip.obstacles.begin(), chip.obstacles.end());
  }

  void assignSequences(Chip& chip) {
    assignGroupSequences(chip, p_.sequenceLength, rng_);
  }

  const GeneratorParams& p_;
  std::mt19937 rng_;
  std::vector<Point> valveCells_;
};

GeneratorParams preset(std::string name, std::int32_t w, std::int32_t h,
                       std::int32_t valves, std::int32_t pins, std::int32_t obs,
                       std::vector<std::int32_t> lmSizes, std::int32_t radius,
                       std::uint32_t seed) {
  GeneratorParams p;
  p.name = std::move(name);
  p.width = w;
  p.height = h;
  p.valveCount = valves;
  p.pinCount = pins;
  p.obstacleCellCount = obs;
  p.lmClusterSizes = std::move(lmSizes);
  p.clusterRadius = radius;
  p.seed = seed;
  return p;
}

/// `count` cluster sizes drawn from a fixed pattern (mostly pairs, some
/// triples/quads), matching the papers' mix of functional units.
std::vector<std::int32_t> patternSizes(std::size_t count) {
  static constexpr std::int32_t kPattern[] = {2, 2, 3, 2, 2, 4, 2, 3, 2, 2};
  std::vector<std::int32_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i) sizes[i] = kPattern[i % std::size(kPattern)];
  return sizes;
}

}  // namespace

Chip generateChip(const GeneratorParams& params) { return Builder(params).build(); }

GeneratorParams chip1Params() {
  return preset("Chip1", 179, 413, 176, 556, 1800, patternSizes(40), 6, 20151);
}

GeneratorParams chip2Params() {
  // The paper notes Chip2 contains only two-valve clusters.
  return preset("Chip2", 231, 265, 56, 495, 1863, std::vector<std::int32_t>(22, 2), 6,
                20152);
}

GeneratorParams s1Params() {
  return preset("S1", 12, 12, 5, 14, 9, {2, 2}, 3, 101);
}

GeneratorParams s2Params() {
  return preset("S2", 22, 22, 10, 40, 54, {3, 2}, 4, 102);
}

GeneratorParams s3Params() {
  return preset("S3", 52, 52, 15, 93, 0, {2, 2, 3, 2, 2}, 5, 103);
}

GeneratorParams s4Params() {
  return preset("S4", 72, 72, 20, 139, 27, {2, 3, 2, 2, 3, 2, 2}, 5, 104);
}

GeneratorParams s5Params() {
  return preset("S5", 152, 152, 40, 306, 135, patternSizes(13), 6, 105);
}

std::vector<GeneratorParams> table1Designs() {
  return {chip1Params(), chip2Params(), s1Params(), s2Params(),
          s3Params(),    s4Params(),    s5Params()};
}

GeneratorParams stressParams(std::uint32_t seed) {
  GeneratorParams p =
      preset("Stress" + std::to_string(seed), 64, 64, 44, 40, 320,
             {3, 4, 3, 2, 3, 4, 2, 3, 3, 2, 4, 3}, 5, 7'000 + seed);
  return p;
}

GeneratorParams randomParams(std::uint32_t seed) {
  // Decorrelate the parameter stream from the Builder's placement stream
  // (which reuses the same seed).
  std::mt19937 rng(seed * 2654435761u + 0x9e3779b9u);
  GeneratorParams p;
  p.name = "Fuzz" + std::to_string(seed);
  p.width = randInt(rng, 14, 44);
  p.height = randInt(rng, 14, 44);
  p.clusterRadius = randInt(rng, 3, 6);
  p.delta = randInt(rng, 1, 4);
  p.sequenceLength = randInt(rng, 8, 24);
  p.seed = seed;

  const std::int32_t lmClusters = randInt(rng, 1, 4);
  for (std::int32_t i = 0; i < lmClusters; ++i)
    p.lmClusterSizes.push_back(randInt(rng, 2, 4));
  const std::int32_t plainClusters = randInt(rng, 0, 2);
  for (std::int32_t i = 0; i < plainClusters; ++i)
    p.plainClusterSizes.push_back(randInt(rng, 2, 3));

  std::int32_t clustered = 0;
  for (const auto s : p.lmClusterSizes) clustered += s;
  for (const auto s : p.plainClusterSizes) clustered += s;
  p.valveCount = clustered + randInt(rng, 0, 5);

  // Feasibility margins mirror the Builder's checks: valves need a 4x
  // interior allowance, obstacles fill part of what remains.
  const std::int64_t interior =
      static_cast<std::int64_t>(p.width - 4) * (p.height - 4);
  const std::int64_t spare = interior - 4 * p.valveCount;
  if (spare > 0)
    p.obstacleCellCount =
        static_cast<std::int32_t>(std::min<std::int64_t>(spare / 2, interior * randInt(rng, 0, 10) / 100));

  const std::int64_t boundary = 2 * (static_cast<std::int64_t>(p.width) + p.height) - 4;
  const std::int32_t wantPins =
      static_cast<std::int32_t>(p.lmClusterSizes.size() + p.plainClusterSizes.size()) +
      p.valveCount + randInt(rng, 4, 12);
  p.pinCount = static_cast<std::int32_t>(std::min<std::int64_t>(wantPins, boundary));
  return p;
}

// --------------------------------------------------------------------------
// FPVA valve arrays.

namespace {

[[noreturn]] void fpvaFail(const std::string& what) {
  throw std::invalid_argument("fpva generator: " + what);
}

/// Distance from coordinate v to the nearest lattice coordinate
/// margin + k * pitch, k in [0, count).
std::int32_t axisDistToLattice(std::int32_t v, std::int32_t margin,
                               std::int32_t pitch, std::int32_t count) {
  if (v <= margin) return margin - v;
  const std::int32_t last = margin + (count - 1) * pitch;
  if (v >= last) return v - last;
  const std::int32_t rem = (v - margin) % pitch;
  return std::min(rem, pitch - rem);
}

}  // namespace

Chip generateFpvaChip(const FpvaParams& params) {
  FpvaParams p = params;
  if (p.rows < 2 || p.cols < 2) fpvaFail("array must be at least 2x2 valves");
  // Auto-scaled defaults (pitch/block = 0), calibrated so the default
  // instance of every size escape-routes to completion: larger arrays
  // need wider corridors between valves and larger cluster blocks (fewer
  // simultaneous cell-disjoint escape paths).
  const std::int32_t n = std::max(p.rows, p.cols);
  if (p.pitch == 0) p.pitch = n <= 16 ? 4 : n <= 32 ? 5 : n <= 64 ? 7 : 8;
  if (p.blockRows == 0 && p.blockCols == 0) {
    if (n <= 24) { p.blockRows = 2; p.blockCols = 2; }
    else if (n <= 32) { p.blockRows = 2; p.blockCols = 4; }
    else if (n <= 64) { p.blockRows = 4; p.blockCols = 4; }
    else { p.blockRows = 4; p.blockCols = 8; }
  } else if (p.blockRows == 0 || p.blockCols == 0) {
    fpvaFail("block rows and columns must be set together");
  }
  if (p.pitch < 3) fpvaFail("pitch must be >= 3 (valves need a free ring)");
  if (p.margin < 2) fpvaFail("margin must be >= 2");
  if (p.blockRows < 1 || p.blockCols < 1 || p.blockRows * p.blockCols < 2)
    fpvaFail("cluster blocks must hold at least 2 valves");
  if (p.lmPercent < 0 || p.lmPercent > 100) fpvaFail("lm percent must be in [0, 100]");
  if (p.obstaclePermille < 0 || p.obstaclePermille > 300)
    fpvaFail("obstacle density must be in [0, 300] per mille");
  if (p.extraPins < 0) fpvaFail("extra pin count must be >= 0");

  // Checked grid-size arithmetic: every product stays in int64 until it
  // is proven to fit the int32 cell-index range (bugfix satellite -- an
  // oversized array must fail loudly here, not corrupt indices later).
  const std::int64_t w64 =
      2 * static_cast<std::int64_t>(p.margin) + (static_cast<std::int64_t>(p.cols) - 1) * p.pitch + 1;
  const std::int64_t h64 =
      2 * static_cast<std::int64_t>(p.margin) + (static_cast<std::int64_t>(p.rows) - 1) * p.pitch + 1;
  if (w64 < 8 || h64 < 8) fpvaFail("array too small: grid must be at least 8x8");
  if (w64 > grid::Grid::kMaxCells || h64 > grid::Grid::kMaxCells ||
      w64 * h64 > grid::Grid::kMaxCells)
    fpvaFail("grid " + std::to_string(w64) + "x" + std::to_string(h64) +
             " exceeds the int32 cell-index range");
  const auto w = static_cast<std::int32_t>(w64);
  const auto h = static_cast<std::int32_t>(h64);

  // Ragged block grid: the last block row/column absorbs the remainder,
  // so every block holds >= blockRows * blockCols >= 2 valves.
  const std::int32_t numBlockRows = std::max(1, p.rows / p.blockRows);
  const std::int32_t numBlockCols = std::max(1, p.cols / p.blockCols);
  const std::int64_t blocks =
      static_cast<std::int64_t>(numBlockRows) * numBlockCols;
  const std::int64_t boundary = 2 * (static_cast<std::int64_t>(w) + h) - 4;
  if (blocks > boundary)
    fpvaFail("array needs " + std::to_string(blocks) +
             " control pins but the boundary has only " + std::to_string(boundary) +
             " cells; increase pitch or the cluster-block size");
  const auto pinCount = static_cast<std::int32_t>(
      std::min<std::int64_t>(blocks + p.extraPins, boundary));

  Chip chip;
  chip.name = p.name.empty()
                  ? "fpva_" + std::to_string(p.rows) + "x" + std::to_string(p.cols)
                  : p.name;
  chip.routingGrid = grid::Grid(w, h);
  chip.delta = p.delta;

  std::mt19937 rng(p.seed);
  placeBoundaryPins(chip, pinCount, rng);

  // Valves on the lattice, row-major: valve (i, j) has id i * cols + j.
  // A load under a request deadline (util::DeadlineScope) stops per row.
  for (std::int32_t i = 0; i < p.rows; ++i) {
    util::checkDeadline();
    for (std::int32_t j = 0; j < p.cols; ++j)
      chip.valves.push_back({static_cast<ValveId>(i * p.cols + j),
                             {p.margin + j * p.pitch, p.margin + i * p.pitch},
                             ActivationSequence()});
  }

  // Cluster blocks in row-major block order. The length-matching flag is
  // spread evenly and deterministically over the blocks (independent of
  // the rng stream): block b is matched iff the running lmPercent quota
  // gains a unit at b.
  std::vector<std::vector<ValveId>> members(static_cast<std::size_t>(blocks));
  for (std::int32_t i = 0; i < p.rows; ++i)
    for (std::int32_t j = 0; j < p.cols; ++j) {
      const std::int32_t bi = std::min(i / p.blockRows, numBlockRows - 1);
      const std::int32_t bj = std::min(j / p.blockCols, numBlockCols - 1);
      members[static_cast<std::size_t>(bi) * static_cast<std::size_t>(numBlockCols) +
              static_cast<std::size_t>(bj)]
          .push_back(static_cast<ValveId>(i * p.cols + j));
    }
  for (std::int64_t b = 0; b < blocks; ++b) {
    const bool lm = (b + 1) * p.lmPercent / 100 > b * p.lmPercent / 100;
    chip.givenClusters.push_back({std::move(members[static_cast<std::size_t>(b)]), lm});
  }

  // Obstacle sprinkling: short strips as in the Table-1 generator, but
  // the valve keep-out test is the O(1) lattice distance, not a linear
  // scan over every valve -- the Table-1 path is quadratic at FPVA scale.
  const auto distToValve = [&](Point q) {
    return std::max(axisDistToLattice(q.x, p.margin, p.pitch, p.cols),
                    axisDistToLattice(q.y, p.margin, p.pitch, p.rows));
  };
  const std::int64_t interior =
      static_cast<std::int64_t>(w - 4) * (h - 4);
  const std::int64_t valveFootprint = static_cast<std::int64_t>(p.rows) * p.cols * 4;
  const std::int64_t spare = std::max<std::int64_t>(0, interior - valveFootprint);
  const auto obstacleTarget = static_cast<std::int32_t>(std::min(
      spare / 2, interior * p.obstaclePermille / 1000));
  if (obstacleTarget > 0) {
    std::unordered_set<Point> cells;
    const auto isInterior = [&](Point q) {
      return q.x >= 2 && q.x < w - 2 && q.y >= 2 && q.y < h - 2;
    };
    int attempts = 0;
    while (static_cast<std::int32_t>(cells.size()) < obstacleTarget) {
      if (++attempts > 400000) break;  // dense array: place what fits
      const Point q{randInt(rng, 2, w - 3), randInt(rng, 2, h - 3)};
      if (distToValve(q) < 2) continue;
      const std::int32_t len = randInt(rng, 1, 3);
      const bool horizontal = (rng() & 1u) != 0;
      for (std::int32_t k = 0; k < len; ++k) {
        const Point c = horizontal ? Point{q.x + k, q.y} : Point{q.x, q.y + k};
        if (!isInterior(c) || distToValve(c) < 2) break;
        if (static_cast<std::int32_t>(cells.size()) >= obstacleTarget) break;
        cells.insert(c);
      }
    }
    chip.obstacles.assign(cells.begin(), cells.end());
    std::sort(chip.obstacles.begin(), chip.obstacles.end());
  }

  util::checkDeadline();
  assignGroupSequences(chip, p.sequenceLength, rng);

  util::checkDeadline();
  if (const auto err = chip.validate())
    throw std::logic_error("fpva generator produced invalid chip: " + *err);
  return chip;
}

bool isFpvaSpec(const std::string& name) { return name.rfind("fpva:", 0) == 0; }

FpvaParams parseFpvaSpec(const std::string& spec) {
  std::string body = isFpvaSpec(spec) ? spec.substr(5) : spec;
  if (body.empty()) fpvaFail("empty spec");
  for (char& c : body)
    if (c == ',') c = ':';

  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= body.size()) {
    const std::size_t colon = body.find(':', start);
    const std::size_t end = colon == std::string::npos ? body.size() : colon;
    if (end > start) tokens.push_back(body.substr(start, end - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (tokens.empty()) fpvaFail("empty spec");

  const auto parseInt = [](const std::string& text, const std::string& what) {
    try {
      std::size_t used = 0;
      const long long v = std::stoll(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
      return v;
    } catch (const std::exception&) {
      fpvaFail("malformed " + what + " '" + text + "'");
    }
  };
  const auto parseDims = [&](const std::string& text, const std::string& what,
                             std::int32_t& rowsOut, std::int32_t& colsOut) {
    const std::size_t x = text.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= text.size())
      fpvaFail("malformed " + what + " '" + text + "' (want ROWSxCOLS)");
    rowsOut = static_cast<std::int32_t>(parseInt(text.substr(0, x), what));
    colsOut = static_cast<std::int32_t>(parseInt(text.substr(x + 1), what));
  };

  FpvaParams p;
  parseDims(tokens.front(), "array size", p.rows, p.cols);
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) fpvaFail("expected key=value, got '" + tok + "'");
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "pitch") p.pitch = static_cast<std::int32_t>(parseInt(val, key));
    else if (key == "margin") p.margin = static_cast<std::int32_t>(parseInt(val, key));
    else if (key == "block") parseDims(val, key, p.blockRows, p.blockCols);
    else if (key == "lm") p.lmPercent = static_cast<std::int32_t>(parseInt(val, key));
    else if (key == "obs") p.obstaclePermille = static_cast<std::int32_t>(parseInt(val, key));
    else if (key == "pins") p.extraPins = static_cast<std::int32_t>(parseInt(val, key));
    else if (key == "seq") p.sequenceLength = static_cast<std::int32_t>(parseInt(val, key));
    else if (key == "delta") p.delta = parseInt(val, key);
    else if (key == "seed") p.seed = static_cast<std::uint32_t>(parseInt(val, key));
    else fpvaFail("unknown key '" + key + "'");
  }
  return p;
}

FpvaParams randomFpvaParams(std::uint32_t seed) {
  // Decorrelate the parameter stream from the placement stream, as in
  // randomParams.
  std::mt19937 rng(seed * 2654435761u + 0x517cc1b7u);
  FpvaParams p;
  p.name = "FpvaFuzz" + std::to_string(seed);
  p.rows = randInt(rng, 3, 7);
  p.cols = randInt(rng, 3, 7);
  p.pitch = randInt(rng, 3, 5);
  p.margin = randInt(rng, 2, 4);
  p.blockRows = randInt(rng, 1, 2);
  p.blockCols = randInt(rng, 1, 2);
  if (p.blockRows * p.blockCols < 2) p.blockCols = 2;
  p.lmPercent = randInt(rng, 0, 100);
  p.obstaclePermille = randInt(rng, 0, 40);
  p.extraPins = randInt(rng, 4, 16);
  p.sequenceLength = randInt(rng, 8, 20);
  p.delta = randInt(rng, 1, 4);
  p.seed = seed;
  return p;
}

}  // namespace pacor::chip
