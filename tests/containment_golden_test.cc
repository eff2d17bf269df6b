// Golden pins of every answer that rests on a point-in-polygon test in
// the paper experiment:
//   * QuerySampler::Draw under kUniformRegion and kWeightedRegion (Zipf
//     weights): the rejection loop tests each bounding-box draw against
//     the region, so an accepted point and the RNG position after it
//     both depend on the test's verdicts;
//   * RStarTree::ProbeInto and TrianTree::ProbeInto (status, region and
//     packet log) on sampler points, uniform service-area points and
//     points 1e-12..1e-6 off region borders and vertices. Border points
//     off the service-area rim land outside the area, so the answers
//     outside the area are pinned too.
// Digests are FNV-1a-64 over a little-endian serialization (doubles by
// bit pattern) on the three paper datasets. A mismatch prints the new
// value; a faster point test must reproduce every digest unchanged.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/rstar.h"
#include "broadcast/air_index.h"
#include "broadcast/experiment.h"
#include "common/rng.h"
#include "geom/point.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

using geom::Point;

constexpr int kDraws = 100000;
constexpr int kCapacity = 128;

class Fnv64 {
 public:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

const std::vector<workload::Dataset>& Datasets() {
  static const std::vector<workload::Dataset>* datasets =
      new std::vector<workload::Dataset>(
          workload::MakePaperDatasets().value());
  return *datasets;
}

bcast::QuerySampler MakeSampler(const sub::Subdivision& sub, bool weighted) {
  if (!weighted) {
    return bcast::QuerySampler::Create(
               sub, bcast::QueryDistribution::kUniformRegion, {})
        .value();
  }
  Rng wrng(29);
  return bcast::QuerySampler::Create(
             sub, bcast::QueryDistribution::kWeightedRegion,
             workload::ZipfWeights(sub.NumRegions(), 0.8, &wrng))
      .value();
}

std::vector<Point> SamplerPoints(const sub::Subdivision& sub, bool weighted,
                                 int n, uint64_t seed) {
  const bcast::QuerySampler sampler = MakeSampler(sub, weighted);
  Rng rng(seed);
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(sampler.Draw(&rng));
  return out;
}

std::vector<Point> AreaPoints(const sub::Subdivision& sub, int n,
                              uint64_t seed) {
  Rng rng(seed);
  const geom::BBox& a = sub.service_area();
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(
        {rng.Uniform(a.min_x, a.max_x), rng.Uniform(a.min_y, a.max_y)});
  }
  return out;
}

/// Offset in [1e-12, 1e-6), log-spread, from integer powers of ten only
/// (no libm transcendental, so the points are the same on every libm).
double NearOffset(Rng* rng) {
  static constexpr double kPow10[] = {1e-12, 1e-11, 1e-10,
                                      1e-9,  1e-8,  1e-7};
  return rng->Uniform(1.0, 10.0) * kPow10[rng->UniformInt(0, 5)];
}

/// Points just off a region border: a random edge of a random region,
/// offset to either side along the edge normal, or a random direction
/// around one of the edge's vertices (one point in four).
std::vector<Point> BorderPoints(const sub::Subdivision& sub, int n,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& ring = sub.Ring(
        static_cast<int>(rng.UniformInt(0, sub.NumRegions() - 1)));
    const size_t k = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ring.size()) - 1));
    const Point a = sub.vertices()[ring[k]];
    const Point b = sub.vertices()[ring[(k + 1) % ring.size()]];
    const double off = NearOffset(&rng);
    if (rng.UniformInt(0, 3) == 0) {
      double ux = 0.0, uy = 0.0, len2 = 0.0;
      do {
        ux = rng.Uniform(-1.0, 1.0);
        uy = rng.Uniform(-1.0, 1.0);
        len2 = ux * ux + uy * uy;
      } while (len2 < 0.01 || len2 > 1.0);
      const double len = std::sqrt(len2);
      out.push_back({a.x + ux / len * off, a.y + uy / len * off});
    } else {
      const Point d = b - a;
      const double len = std::sqrt(d.x * d.x + d.y * d.y);
      const double side = rng.UniformInt(0, 1) == 0 ? -off : off;
      const Point base = a + d * rng.Uniform(0.0, 1.0);
      out.push_back(
          {base.x - d.y / len * side, base.y + d.x / len * side});
    }
  }
  return out;
}

uint64_t DrawDigest(const std::vector<Point>& pts) {
  Fnv64 h;
  for (const Point& p : pts) {
    h.F64(p.x);
    h.F64(p.y);
  }
  return h.value();
}

uint64_t ProbeDigest(const bcast::AirIndex& index,
                     const std::vector<Point>& pts) {
  Fnv64 h;
  bcast::ProbeTrace trace;
  for (const Point& p : pts) {
    const Status st = index.ProbeInto(p, &trace);
    h.I64(static_cast<int64_t>(st.code()));
    h.I64(trace.region);
    h.U64(trace.packets.size());
    for (int packet : trace.packets) h.I64(packet);
  }
  return h.value();
}

void ExpectDigest(const std::string& what, uint64_t got, uint64_t want) {
  EXPECT_EQ(got, want) << what << ": got 0x" << std::hex << got;
  std::printf("%s 0x%016llx\n", what.c_str(),
              static_cast<unsigned long long>(got));
}

TEST(ContainmentGoldenTest, SamplerDrawsArePinned) {
  // {dataset}: {kUniformRegion, kWeightedRegion}
  const uint64_t kWant[3][2] = {
      {0x863909025e8a399dULL, 0x629fd887bb7cd485ULL},  // UNIFORM
      {0x4cd20ecce32eb295ULL, 0x4222fac2b03f2c03ULL},  // HOSPITAL
      {0x9febb07173374546ULL, 0x4bce461a354ee910ULL},  // PARK
  };
  for (size_t d = 0; d < Datasets().size(); ++d) {
    const workload::Dataset& ds = Datasets()[d];
    for (int weighted = 0; weighted < 2; ++weighted) {
      ExpectDigest(ds.name + (weighted ? " weighted" : " uniform"),
                   DrawDigest(SamplerPoints(ds.subdivision, weighted != 0,
                                            kDraws, 101 + d)),
                   kWant[d][weighted]);
    }
  }
}

TEST(ContainmentGoldenTest, BaselineProbesArePinned) {
  // {dataset}: {r* sampler, r* area, r* border,
  //             trian sampler, trian area, trian border}
  const uint64_t kWant[3][6] = {
      // UNIFORM
      {0x2aad744618482f04ULL, 0x0ee069cb0eed49e0ULL, 0xeccf568f74785e29ULL,
       0x70ed72fa2e207c73ULL, 0x127ba3b9f0c47691ULL, 0x228bbbbac260b456ULL},
      // HOSPITAL
      {0x58b7084b637d521aULL, 0xb06307f9b19a9816ULL, 0x4b3442b4e8b30a6aULL,
       0xf976266b3e86cebfULL, 0x5a24a1411f9e38a3ULL, 0x58afafd3e657d993ULL},
      // PARK
      {0x4c05b8b5ab430127ULL, 0xbab3dc465674ca2fULL, 0xe61050ba8465feb5ULL,
       0xde4aad34c233b47dULL, 0xbedd9433dc3705f2ULL, 0x55f9af926b75c9fbULL},
  };
  const int kPerSource = kDraws / 3;
  for (size_t d = 0; d < Datasets().size(); ++d) {
    const workload::Dataset& ds = Datasets()[d];
    const sub::Subdivision& sub = ds.subdivision;
    baselines::RStarTree::Options ropt;
    ropt.packet_capacity = kCapacity;
    const baselines::RStarTree rstar =
        baselines::RStarTree::Build(sub, ropt).value();
    baselines::TrianTree::Options kopt;
    kopt.packet_capacity = kCapacity;
    const baselines::TrianTree trian =
        baselines::TrianTree::Build(sub, kopt).value();
    const std::vector<Point> sources[3] = {
        SamplerPoints(sub, false, kPerSource, 201 + d),
        AreaPoints(sub, kPerSource, 301 + d),
        BorderPoints(sub, kDraws - 2 * kPerSource, 401 + d)};
    const char* kSource[3] = {"sampler", "area", "border"};
    for (int s = 0; s < 3; ++s) {
      ExpectDigest(ds.name + " r*-tree " + kSource[s],
                   ProbeDigest(rstar, sources[s]), kWant[d][s]);
      ExpectDigest(ds.name + " trian-tree " + kSource[s],
                   ProbeDigest(trian, sources[s]), kWant[d][3 + s]);
    }
  }
}

}  // namespace
}  // namespace dtree
