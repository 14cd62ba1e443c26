// Committed golden-digest tables shared by the golden tests
// (des_fastpath_test, fastpath_test). A table maps a cell name to the
// digest its outputs fold into; a mismatch prints the computed digest as a
// ready table line.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>

#include "util/digest.h"

namespace ct::golden {

struct Golden {
  std::string_view cell;
  std::string_view digest;
};

inline std::string_view golden_for(std::span<const Golden> table,
                                   std::string_view cell) {
  for (const Golden& g : table) {
    if (g.cell == cell) return g.digest;
  }
  return "<no golden>";
}

inline void expect_golden(std::span<const Golden> table,
                          const std::string& cell,
                          const util::Digest& computed) {
  const std::string hex = computed.hex();
  EXPECT_EQ(hex, golden_for(table, cell))
      << "cell " << cell << " computed digest " << hex << "\n  {\"" << cell
      << "\", \"" << hex << "\"},";
}

}  // namespace ct::golden
