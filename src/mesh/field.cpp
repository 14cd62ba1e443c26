#include "mesh/field.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ct::mesh {

void smooth_pass(const TriMesh& mesh, const NodeField& in, NodeField& out,
                 const std::vector<NodeId>& affected) {
  if (in.size() != mesh.node_count()) {
    throw std::invalid_argument("smooth_pass: field size mismatch");
  }
  if (&in == &out) {
    throw std::invalid_argument("smooth_pass: in and out must be distinct");
  }
  out.assign(in.begin(), in.end());
  for (const NodeId n : affected) {
    double sum = in[n];
    std::size_t count = 1;
    for (const NodeId m : mesh.neighbors(n)) {
      sum += in[m];
      ++count;
    }
    out[n] = sum / static_cast<double>(count);
  }
}

ShorelinePlan make_shoreline_plan(const CoastalMesh& cm, double band_m,
                                  int passes) {
  if (passes < 0) {
    throw std::invalid_argument("make_shoreline_plan: passes < 0");
  }
  ShorelinePlan plan;
  plan.passes = passes;
  for (NodeId n = 0; n < cm.mesh.node_count(); ++n) {
    if (std::abs(cm.offset_of_node[n]) <= band_m) plan.band_nodes.push_back(n);
    if (cm.offset_of_node[n] > 0.0) {
      plan.extend_targets.push_back(n);
      plan.extend_sources.push_back(cm.shore_nodes[cm.station_of_node[n]]);
    }
  }
  return plan;
}

void shoreline_average_and_extend(const CoastalMesh& cm,
                                  const ShorelinePlan& plan, NodeField& field,
                                  NodeField& scratch) {
  if (field.size() != cm.mesh.node_count()) {
    throw std::invalid_argument(
        "shoreline_average_and_extend: field size mismatch");
  }
  for (int p = 0; p < plan.passes; ++p) {
    smooth_pass(cm.mesh, field, scratch, plan.band_nodes);
    field.swap(scratch);
  }
  // Extension: targets have offset > 0 and sources are offset-0 shore
  // nodes, so sources are never overwritten mid-loop: reading `field` is
  // the same as reading a snapshot taken after the passes.
  for (std::size_t i = 0; i < plan.extend_targets.size(); ++i) {
    field[plan.extend_targets[i]] = field[plan.extend_sources[i]];
  }
}

double field_min(const NodeField& field) {
  if (field.empty()) throw std::invalid_argument("field_min: empty field");
  return *std::min_element(field.begin(), field.end());
}

double field_max(const NodeField& field) {
  if (field.empty()) throw std::invalid_argument("field_max: empty field");
  return *std::max_element(field.begin(), field.end());
}

void shoreline_values(const CoastalMesh& cm, const NodeField& field,
                      std::vector<double>& out) {
  if (field.size() != cm.mesh.node_count()) {
    throw std::invalid_argument("shoreline_values: field size mismatch");
  }
  out.resize(cm.shore_nodes.size());
  for (std::size_t s = 0; s < cm.shore_nodes.size(); ++s) {
    out[s] = field[cm.shore_nodes[s]];
  }
}

}  // namespace ct::mesh
