// Tests for the unstructured mesh, the coastal band builder, and field
// operations (including the paper's shoreline averaging + extension).
#include <cmath>

#include <gtest/gtest.h>

#include "mesh/coastal_builder.h"
#include "mesh/field.h"
#include "mesh/trimesh.h"
#include "terrain/oahu.h"
#include "util/rng.h"

namespace ct::mesh {
namespace {

/// Two triangles forming the unit square: (0,0)-(1,0)-(1,1)-(0,1).
TriMesh square_mesh() {
  std::vector<Node> nodes(4);
  nodes[0].position = {0, 0};
  nodes[1].position = {1, 0};
  nodes[2].position = {1, 1};
  nodes[3].position = {0, 1};
  std::vector<Element> elements = {{{0, 1, 2}}, {{0, 2, 3}}};
  return TriMesh(std::move(nodes), std::move(elements));
}

TEST(TriMesh, AdjacencyIsSymmetric) {
  const TriMesh mesh = square_mesh();
  for (NodeId n = 0; n < mesh.node_count(); ++n) {
    for (const NodeId m : mesh.neighbors(n)) {
      const auto& back = mesh.neighbors(m);
      EXPECT_NE(std::find(back.begin(), back.end(), n), back.end());
    }
  }
  // Diagonal 0-2 is shared; corners 1 and 3 are not adjacent.
  const auto& n1 = mesh.neighbors(1);
  EXPECT_EQ(std::find(n1.begin(), n1.end(), NodeId{3}), n1.end());
}

TEST(TriMesh, NearestNode) {
  const TriMesh mesh = square_mesh();
  EXPECT_EQ(mesh.nearest_node({0.1, 0.1}), 0u);
  EXPECT_EQ(mesh.nearest_node({0.9, 0.2}), 1u);
  EXPECT_EQ(mesh.nearest_node({5.0, 5.0}), 2u);
}

TEST(TriMesh, LocateInsideAndOutside) {
  const TriMesh mesh = square_mesh();
  const auto inside = mesh.locate({0.7, 0.2});
  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(inside->element, 0u);
  double weight_sum = 0.0;
  for (const double w : inside->weights) {
    EXPECT_GE(w, 0.0);
    weight_sum += w;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
  EXPECT_FALSE(mesh.locate({2.0, 2.0}).has_value());
}

TEST(TriMesh, InterpolationExactForLinearFields) {
  const TriMesh mesh = square_mesh();
  // f(x,y) = 3x - 2y + 1 is reproduced exactly by barycentric interp.
  NodeField f(mesh.node_count());
  for (NodeId n = 0; n < mesh.node_count(); ++n) {
    const auto p = mesh.node(n).position;
    f[n] = 3.0 * p.x - 2.0 * p.y + 1.0;
  }
  util::Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    const geo::Vec2 p{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    EXPECT_NEAR(mesh.interpolate(f, p), 3.0 * p.x - 2.0 * p.y + 1.0, 1e-9);
  }
}

TEST(TriMesh, InterpolationFallsBackToNearestOutside) {
  const TriMesh mesh = square_mesh();
  NodeField f = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(mesh.interpolate(f, {-5.0, -5.0}), 10.0);
  EXPECT_DOUBLE_EQ(mesh.interpolate(f, {6.0, 6.0}), 30.0);
}

TEST(TriMesh, AreasAndValidation) {
  const TriMesh mesh = square_mesh();
  EXPECT_DOUBLE_EQ(mesh.element_signed_area2(0), 1.0);  // 2 * 0.5
  EXPECT_NEAR(mesh.total_area(), 1.0, 1e-12);
  EXPECT_THROW(TriMesh({}, {}), std::invalid_argument);
  std::vector<Node> one(1);
  EXPECT_THROW(TriMesh(std::move(one), {{{0, 1, 2}}}), std::out_of_range);
  NodeField wrong(3);
  EXPECT_THROW(square_mesh().interpolate(wrong, {0, 0}),
               std::invalid_argument);
}

// ------------------------------------------------------------- coastal band

class CoastalMeshTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    terrain_ = terrain::make_oahu_terrain().release();
    CoastalMeshConfig config;
    config.shore_spacing_m = 4000.0;  // coarse: fast tests
    config.cross_shore_spacing_m = 1500.0;
    config.offshore_extent_m = 6000.0;
    config.inland_extent_m = 3000.0;
    cm_ = new CoastalMesh(build_coastal_mesh(*terrain_, config));
  }
  static void TearDownTestSuite() {
    delete cm_;
    delete terrain_;
  }

  static const terrain::Terrain* terrain_;
  static const CoastalMesh* cm_;
};

const terrain::Terrain* CoastalMeshTest::terrain_ = nullptr;
const CoastalMesh* CoastalMeshTest::cm_ = nullptr;

TEST_F(CoastalMeshTest, LatticeDimensions) {
  const std::size_t stations = cm_->stations.size();
  ASSERT_GT(stations, 10u);
  EXPECT_EQ(cm_->mesh.node_count() % stations, 0u);
  const std::size_t offsets = cm_->mesh.node_count() / stations;
  // offshore 6000/1500 = 4 rows + shoreline + inland 3000/1500 = 2 rows.
  EXPECT_EQ(offsets, 7u);
  EXPECT_EQ(cm_->mesh.element_count(), 2 * stations * (offsets - 1));
}

TEST_F(CoastalMeshTest, ShoreNodesAreAtOffsetZero) {
  ASSERT_EQ(cm_->shore_nodes.size(), cm_->stations.size());
  for (std::size_t s = 0; s < cm_->stations.size(); ++s) {
    const NodeId shore = cm_->shore_nodes[s];
    EXPECT_EQ(cm_->offset_of_node[shore], 0.0);
    EXPECT_EQ(cm_->station_of_node[shore], s);
    EXPECT_EQ(cm_->mesh.node(shore).kind, NodeKind::kShore);
    EXPECT_NEAR(geo::distance(cm_->mesh.node(shore).position,
                              cm_->stations[s].position),
                0.0, 1e-9);
  }
}

TEST_F(CoastalMeshTest, OffsetSignsMatchNodeKind) {
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    const double offset = cm_->offset_of_node[n];
    const NodeKind kind = cm_->mesh.node(n).kind;
    if (offset < 0.0) {
      EXPECT_EQ(kind, NodeKind::kOcean);
    } else if (offset == 0.0) {
      EXPECT_EQ(kind, NodeKind::kShore);
    } else {
      EXPECT_EQ(kind, NodeKind::kLand);
    }
  }
}

TEST_F(CoastalMeshTest, OceanNodesAreMostlyBelowSeaLevel) {
  std::size_t ocean = 0;
  std::size_t below = 0;
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    if (cm_->offset_of_node[n] < -2000.0) {
      ++ocean;
      if (cm_->mesh.node(n).elevation_m < 0.0) ++below;
    }
  }
  ASSERT_GT(ocean, 0u);
  // Concave stretches (bays, the harbor) can put a far "offshore" node over
  // the opposite shore; the vast majority must still be wet.
  EXPECT_GT(static_cast<double>(below) / static_cast<double>(ocean), 0.85);
}

TEST_F(CoastalMeshTest, BandWrapsAroundTheIsland) {
  // The first and last station columns must be connected through elements.
  const NodeId first_shore = cm_->shore_nodes.front();
  const NodeId last_shore = cm_->shore_nodes.back();
  const auto& nbrs = cm_->mesh.neighbors(last_shore);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), first_shore), nbrs.end());
}

TEST(CoastalBuilder, Validation) {
  const auto oahu = terrain::make_oahu_terrain();
  CoastalMeshConfig bad;
  bad.shore_spacing_m = -1.0;
  EXPECT_THROW(build_coastal_mesh(*oahu, bad), std::invalid_argument);
  CoastalMeshConfig bad2;
  bad2.offshore_extent_m = 0.0;
  EXPECT_THROW(build_coastal_mesh(*oahu, bad2), std::invalid_argument);
}

// ---------------------------------------------------------------- fields

TEST(Field, SmoothPassIsConservativeAndBounded) {
  const TriMesh mesh = square_mesh();
  const NodeField f = {0.0, 10.0, 0.0, 10.0};
  NodeField smoothed;
  smooth_pass(mesh, f, smoothed, {0, 1, 2, 3});
  for (const double v : smoothed) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(Field, SmoothPassConstantFieldIsFixedPoint) {
  const TriMesh mesh = square_mesh();
  const NodeField f(mesh.node_count(), 4.2);
  NodeField smoothed;
  smooth_pass(mesh, f, smoothed, {0, 1, 2, 3});
  for (const double v : smoothed) EXPECT_DOUBLE_EQ(v, 4.2);
}

TEST(Field, SmoothPassTouchesOnlyAffectedNodes) {
  const TriMesh mesh = square_mesh();
  const NodeField f = {0.0, 10.0, 0.0, 10.0};
  NodeField smoothed{-1.0};  // stale content must not leak
  smooth_pass(mesh, f, smoothed, {0});
  EXPECT_NE(smoothed[0], f[0]);
  EXPECT_EQ(smoothed[1], f[1]);
  EXPECT_EQ(smoothed[2], f[2]);
  EXPECT_EQ(smoothed[3], f[3]);
}

TEST_F(CoastalMeshTest, AverageAndExtendCopiesShoreValuesInland) {
  NodeField wse(cm_->mesh.node_count(), 0.0);
  // Seed a nontrivial field: value depends on station index.
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    wse[n] = static_cast<double>(cm_->station_of_node[n] % 7);
  }
  NodeField fixed = wse;
  NodeField scratch;
  shoreline_average_and_extend(*cm_, make_shoreline_plan(*cm_, 0.0, 0), fixed,
                               scratch);
  // With zero passes, onshore nodes must exactly equal their station's
  // shoreline value.
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    if (cm_->offset_of_node[n] > 0.0) {
      const NodeId shore = cm_->shore_nodes[cm_->station_of_node[n]];
      EXPECT_DOUBLE_EQ(fixed[n], fixed[shore]);
    } else {
      EXPECT_DOUBLE_EQ(fixed[n], wse[n]);
    }
  }
}

TEST_F(CoastalMeshTest, AverageAndExtendSmoothsCoarseArtifacts) {
  // The paper's motivating artifact: 1.5 m next to 0 m on a coarse mesh.
  NodeField fixed(cm_->mesh.node_count(), 0.0);
  for (std::size_t s = 0; s < cm_->stations.size(); ++s) {
    fixed[cm_->shore_nodes[s]] = (s % 2 == 0) ? 1.5 : 0.0;
  }
  NodeField scratch;
  shoreline_average_and_extend(*cm_, make_shoreline_plan(*cm_, 100.0, 3),
                               fixed, scratch);
  double max_jump = 0.0;
  for (std::size_t s = 1; s < cm_->stations.size(); ++s) {
    max_jump = std::max(max_jump, std::abs(fixed[cm_->shore_nodes[s]] -
                                           fixed[cm_->shore_nodes[s - 1]]));
  }
  EXPECT_LT(max_jump, 0.75);  // raw alternation jumps by 1.5
}

TEST(Field, Validation) {
  const TriMesh mesh = square_mesh();
  NodeField wrong(2);
  NodeField out;
  EXPECT_THROW(smooth_pass(mesh, wrong, out, {0}), std::invalid_argument);
  NodeField f(mesh.node_count(), 1.0);
  EXPECT_THROW(smooth_pass(mesh, f, f, {0}), std::invalid_argument);
  EXPECT_THROW(field_min({}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(field_min({3.0, 1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(field_max({3.0, 1.0, 2.0}), 3.0);
}

// --------------------------------------------------- shoreline plan

TEST_F(CoastalMeshTest, ShorelinePlanResolvesBandAndExtension) {
  util::Rng rng(11, "plan");
  NodeField field(cm_->mesh.node_count());
  for (double& v : field) v = rng.uniform(0.0, 2.5);

  for (const int passes : {0, 1, 3}) {
    const ShorelinePlan plan = make_shoreline_plan(*cm_, 2000.0, passes);
    EXPECT_EQ(plan.passes, passes);
    std::vector<NodeId> band;
    for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
      if (std::abs(cm_->offset_of_node[n]) <= 2000.0) band.push_back(n);
    }
    EXPECT_EQ(plan.band_nodes, band);
    ASSERT_EQ(plan.extend_targets.size(), plan.extend_sources.size());

    NodeField in_place = field;
    NodeField scratch;
    shoreline_average_and_extend(*cm_, plan, in_place, scratch);
    for (std::size_t i = 0; i < plan.extend_targets.size(); ++i) {
      const NodeId target = plan.extend_targets[i];
      EXPECT_GT(cm_->offset_of_node[target], 0.0);
      EXPECT_EQ(plan.extend_sources[i],
                cm_->shore_nodes[cm_->station_of_node[target]]);
      EXPECT_EQ(in_place[target], in_place[plan.extend_sources[i]])
          << "passes " << passes << " node " << target;
    }
    // Averaging is conservative: the fix-up stays within the input range.
    EXPECT_GE(field_min(in_place), field_min(field));
    EXPECT_LE(field_max(in_place), field_max(field));
  }
  EXPECT_THROW(make_shoreline_plan(*cm_, 1000.0, -1), std::invalid_argument);
  NodeField wrong(3);
  NodeField scratch;
  EXPECT_THROW(shoreline_average_and_extend(
                   *cm_, make_shoreline_plan(*cm_, 1000.0, 1), wrong, scratch),
               std::invalid_argument);
}

TEST(TriMesh, CsrRowsAreConsistentWithElements) {
  const TriMesh mesh = square_mesh();
  // Every element must appear in the incidence row of each of its nodes.
  for (ElementId e = 0; e < mesh.element_count(); ++e) {
    for (const NodeId n : mesh.element(e).nodes) {
      const auto row = mesh.node_elements(n);
      EXPECT_NE(std::find(row.begin(), row.end(), e), row.end());
    }
  }
  // Diagonal nodes 0 and 2 touch both elements; 1 and 3 touch one.
  EXPECT_EQ(mesh.node_elements(0).size(), 2u);
  EXPECT_EQ(mesh.node_elements(1).size(), 1u);
  EXPECT_EQ(mesh.node_elements(2).size(), 2u);
  EXPECT_EQ(mesh.node_elements(3).size(), 1u);
  EXPECT_EQ(mesh.node_elements(0)[0], 0u);
  EXPECT_THROW(mesh.node_elements(99), std::out_of_range);
  EXPECT_THROW(mesh.neighbors(99), std::out_of_range);
}

}  // namespace
}  // namespace ct::mesh
