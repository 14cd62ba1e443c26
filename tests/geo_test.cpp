// Unit and property tests for the geo substrate.
#include <cmath>

#include <gtest/gtest.h>

#include "geo/geopoint.h"
#include "geo/grid_index.h"
#include "geo/polygon.h"
#include "geo/vec2.h"
#include "util/rng.h"

namespace ct::geo {
namespace {

// ---------------------------------------------------------------- vec2

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
}

TEST(Vec2, NormalizedAndPerp) {
  const Vec2 v{3.0, 4.0};
  const Vec2 n = v.normalized();
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{0.0, 0.0}));
  // perp is a CCW quarter turn: cross(v, perp) > 0, dot == 0.
  EXPECT_DOUBLE_EQ(v.dot(v.perp()), 0.0);
  EXPECT_GT(v.cross(v.perp()), 0.0);
}

// ---------------------------------------------------------------- geodesy

TEST(Geodesy, HaversineKnownDistances) {
  // Honolulu CC to Kahe point: about 28 km.
  const GeoPoint honolulu{21.3069, -157.8583};
  const GeoPoint kahe{21.3542, -158.1297};
  const double d = haversine_m(honolulu, kahe);
  EXPECT_NEAR(d, 28600.0, 1500.0);
  EXPECT_DOUBLE_EQ(haversine_m(honolulu, honolulu), 0.0);
}

TEST(Geodesy, OneDegreeLatitude) {
  const double d = haversine_m({21.0, -158.0}, {22.0, -158.0});
  EXPECT_NEAR(d, 111195.0, 100.0);  // pi/180 * R
}

TEST(Geodesy, BearingCardinalDirections) {
  const GeoPoint origin{21.0, -158.0};
  EXPECT_NEAR(initial_bearing_deg(origin, {22.0, -158.0}), 0.0, 0.01);
  EXPECT_NEAR(initial_bearing_deg(origin, {20.0, -158.0}), 180.0, 0.01);
  EXPECT_NEAR(initial_bearing_deg(origin, {21.0, -157.0}), 90.0, 0.5);
  EXPECT_NEAR(initial_bearing_deg(origin, {21.0, -159.0}), 270.0, 0.5);
}

TEST(Geodesy, DestinationRoundTrip) {
  util::Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const GeoPoint start{rng.uniform(20.0, 23.0), rng.uniform(-159.0, -156.0)};
    const double bearing = rng.uniform(0.0, 360.0);
    const double dist = rng.uniform(100.0, 300000.0);
    const GeoPoint end = destination(start, bearing, dist);
    EXPECT_NEAR(haversine_m(start, end), dist, dist * 1e-9 + 0.01);
    EXPECT_NEAR(initial_bearing_deg(start, end), bearing, 0.5);
  }
}

TEST(EnuProjection, RoundTrip) {
  const EnuProjection proj({21.45, -157.95});
  util::Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const GeoPoint p{rng.uniform(21.0, 22.0), rng.uniform(-158.5, -157.3)};
    const GeoPoint back = proj.to_geo(proj.to_enu(p));
    EXPECT_NEAR(back.lat_deg, p.lat_deg, 1e-9);
    EXPECT_NEAR(back.lon_deg, p.lon_deg, 1e-9);
  }
}

TEST(EnuProjection, MatchesHaversineLocally) {
  const EnuProjection proj({21.45, -157.95});
  util::Rng rng(33);
  for (int i = 0; i < 50; ++i) {
    const GeoPoint a{rng.uniform(21.2, 21.7), rng.uniform(-158.3, -157.6)};
    const GeoPoint b{rng.uniform(21.2, 21.7), rng.uniform(-158.3, -157.6)};
    const double planar = distance(proj.to_enu(a), proj.to_enu(b));
    const double spherical = haversine_m(a, b);
    if (spherical > 1000.0) {
      EXPECT_NEAR(planar / spherical, 1.0, 0.005);
    }
  }
}

// ---------------------------------------------------------------- bbox

TEST(BBox, ExpandAndContains) {
  BBox box;
  EXPECT_FALSE(box.valid());
  box.expand(Vec2{0.0, 0.0});
  box.expand(Vec2{2.0, 3.0});
  EXPECT_TRUE(box.valid());
  EXPECT_TRUE(box.contains({1.0, 1.0}));
  EXPECT_TRUE(box.contains({0.0, 3.0}));
  EXPECT_FALSE(box.contains({-0.1, 1.0}));
  EXPECT_EQ(box.center(), (Vec2{1.0, 1.5}));
  const BBox bigger = box.inflated(1.0);
  EXPECT_TRUE(bigger.contains({-0.5, -0.5}));
}

// ---------------------------------------------------------------- polygon

Polygon unit_square() {
  return Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

TEST(Polygon, ContainsSquare) {
  const Polygon sq = unit_square();
  EXPECT_TRUE(sq.contains({0.5, 0.5}));
  EXPECT_TRUE(sq.contains({0.01, 0.99}));
  EXPECT_FALSE(sq.contains({1.5, 0.5}));
  EXPECT_FALSE(sq.contains({-0.1, 0.5}));
}

TEST(Polygon, ContainsConcave) {
  // A "U" shape: the notch interior is outside.
  const Polygon u({{0, 0}, {4, 0}, {4, 4}, {3, 4}, {3, 1}, {1, 1}, {1, 4},
                   {0, 4}});
  EXPECT_TRUE(u.contains({0.5, 2.0}));   // left arm
  EXPECT_TRUE(u.contains({3.5, 2.0}));   // right arm
  EXPECT_FALSE(u.contains({2.0, 2.0}));  // notch
  EXPECT_TRUE(u.contains({2.0, 0.5}));   // base
}

TEST(Polygon, AreaAndWinding) {
  EXPECT_DOUBLE_EQ(unit_square().area(), 1.0);  // CCW positive
  const Polygon cw({{0, 0}, {0, 1}, {1, 1}, {1, 0}});
  EXPECT_DOUBLE_EQ(cw.area(), -1.0);
  EXPECT_DOUBLE_EQ(cw.abs_area(), 1.0);
}

TEST(Polygon, Centroid) {
  const Vec2 c = unit_square().centroid();
  EXPECT_NEAR(c.x, 0.5, 1e-12);
  EXPECT_NEAR(c.y, 0.5, 1e-12);
}

TEST(Polygon, DistanceToBoundary) {
  const Polygon sq = unit_square();
  EXPECT_NEAR(sq.distance_to_boundary({0.5, 0.5}), 0.5, 1e-12);
  EXPECT_NEAR(sq.distance_to_boundary({2.0, 0.5}), 1.0, 1e-12);
  EXPECT_NEAR(sq.distance_to_boundary({0.5, 0.1}), 0.1, 1e-12);
}

TEST(Polygon, RequiresThreeVertices) {
  EXPECT_THROW(Polygon({{0, 0}, {1, 1}}), std::invalid_argument);
}

TEST(Polygon, ContainsMatchesWindingIndependence) {
  const Polygon ccw({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const Polygon cw({{0, 0}, {0, 2}, {2, 2}, {2, 0}});
  util::Rng rng(34);
  for (int i = 0; i < 200; ++i) {
    const Vec2 p{rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 3.0)};
    EXPECT_EQ(ccw.contains(p), cw.contains(p));
  }
}

// ---------------------------------------------------------------- linestring

TEST(LineString, LengthAndArclength) {
  const LineString line({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(line.length(), 7.0);
  EXPECT_EQ(line.at_arclength(0.0), (Vec2{0, 0}));
  EXPECT_EQ(line.at_arclength(3.0), (Vec2{3, 0}));
  EXPECT_EQ(line.at_arclength(5.0), (Vec2{3, 2}));
  EXPECT_EQ(line.at_arclength(100.0), (Vec2{3, 4}));  // clamped
}

TEST(LineString, NearestPointAndDistance) {
  const LineString line({{0, 0}, {10, 0}});
  const auto nearest = line.nearest_point({5.0, 3.0});
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(*nearest, (Vec2{5.0, 0.0}));
  EXPECT_DOUBLE_EQ(line.distance({5.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(line.distance({-3.0, 4.0}), 5.0);  // clamps to endpoint
  EXPECT_TRUE(std::isinf(LineString().distance({0, 0})));
}

TEST(ClosestPointOnSegment, ClampsToEndpoints) {
  EXPECT_EQ(closest_point_on_segment({0, 0}, {10, 0}, {5, 5}), (Vec2{5, 0}));
  EXPECT_EQ(closest_point_on_segment({0, 0}, {10, 0}, {-5, 5}), (Vec2{0, 0}));
  EXPECT_EQ(closest_point_on_segment({0, 0}, {10, 0}, {15, 5}), (Vec2{10, 0}));
  EXPECT_EQ(closest_point_on_segment({2, 2}, {2, 2}, {0, 0}), (Vec2{2, 2}));
}

// ---------------------------------------------------------------- hull

TEST(ConvexHull, SquareWithInteriorPoints) {
  const std::vector<Vec2> pts = {{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1},
                                 {0.5, 0.5}, {1.5, 0.2}};
  const auto hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 4u);
}

TEST(ConvexHull, CollinearPointsDropped) {
  const auto hull = convex_hull({{0, 0}, {1, 0}, {2, 0}, {2, 2}, {1, 1}});
  EXPECT_EQ(hull.size(), 3u);
}

TEST(ConvexHull, HullContainsAllPoints) {
  util::Rng rng(35);
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.normal(0, 10), rng.normal(0, 10)});
  }
  const auto hull_pts = convex_hull(pts);
  ASSERT_GE(hull_pts.size(), 3u);
  const Polygon hull(hull_pts);
  for (const Vec2 p : pts) {
    // Interior or on boundary: allow a tiny tolerance via inflation check.
    EXPECT_TRUE(hull.contains(p) || hull.distance_to_boundary(p) < 1e-6);
  }
}

TEST(ConvexHull, SmallInputsPassThrough) {
  EXPECT_TRUE(convex_hull({}).empty());
  EXPECT_EQ(convex_hull({{1, 2}}).size(), 1u);
  EXPECT_EQ(convex_hull({{1, 2}, {3, 4}}).size(), 2u);
}

// ---------------------------------------------------------------- grid index

TEST(GridIndex, NearestMatchesBruteForce) {
  util::Rng rng(36);
  std::vector<Vec2> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  const GridIndex index(pts, 50.0);
  for (int q = 0; q < 200; ++q) {
    const Vec2 query{rng.uniform(-100.0, 1100.0), rng.uniform(-100.0, 1100.0)};
    const std::size_t got = index.nearest(query);
    std::size_t want = 0;
    double best = 1e300;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double d = (pts[i] - query).norm2();
      if (d < best) {
        best = d;
        want = i;
      }
    }
    ASSERT_NE(got, GridIndex::npos);
    // Ties allowed: got may differ from want if distances are equal.
    EXPECT_DOUBLE_EQ((pts[got] - query).norm2(), (pts[want] - query).norm2())
        << "query " << q;
  }
}

TEST(GridIndex, EmptyAndDegenerate) {
  const GridIndex empty({}, 10.0);
  EXPECT_EQ(empty.nearest({0, 0}), GridIndex::npos);
  const GridIndex one({{3.0, 4.0}}, 10.0);
  EXPECT_EQ(one.nearest({100.0, 100.0}), 0u);
  EXPECT_THROW(GridIndex({{0, 0}}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace ct::geo
