// Docs/parser synchronization: docs/config_reference.md documents exactly
// the config_keys() table: every key parse_simulation_args accepts plus the
// driver-only keys exastp_run peels off first.
//
// The reference uses one `### `key`` heading per key, so the contract is
// mechanical: the set of backtick-quoted heading tokens equals the names of
// the config_keys() rows. A parser key without a
// heading fails here ("undocumented key"); a heading without a parser key
// fails too ("stale documentation"). CI runs this test in every build-and-
// test job, so the reference cannot drift from the parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exastp/engine/simulation_config.h"

namespace exastp {
namespace {

#ifndef EXASTP_SOURCE_DIR
#error "EXASTP_SOURCE_DIR must be defined by the build (see CMakeLists.txt)"
#endif

std::string config_reference_path() {
  return std::string(EXASTP_SOURCE_DIR) + "/docs/config_reference.md";
}

/// Keys documented as `### `key`` headings in docs/config_reference.md.
std::set<std::string> documented_keys() {
  std::ifstream in(config_reference_path());
  EXPECT_TRUE(in.good()) << "cannot open " << config_reference_path();
  std::set<std::string> keys;
  std::string line;
  while (std::getline(in, line)) {
    const std::string prefix = "### `";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t end = line.find('`', prefix.size());
    EXPECT_NE(end, std::string::npos) << "malformed heading: " << line;
    if (end == std::string::npos) continue;
    keys.insert(line.substr(prefix.size(), end - prefix.size()));
  }
  return keys;
}

std::string join(const std::vector<std::string>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? ", " : "") << v[i];
  return os.str();
}

TEST(Docs, ConfigReferenceMatchesParser) {
  std::set<std::string> expected;
  for (const ConfigKey& row : config_keys()) expected.insert(row.name);
  ASSERT_FALSE(expected.empty());

  const std::set<std::string> documented = documented_keys();

  std::vector<std::string> undocumented;
  std::set_difference(expected.begin(), expected.end(), documented.begin(),
                      documented.end(), std::back_inserter(undocumented));
  EXPECT_TRUE(undocumented.empty())
      << "parser keys missing from docs/config_reference.md: "
      << join(undocumented);

  std::vector<std::string> stale;
  std::set_difference(documented.begin(), documented.end(), expected.begin(),
                      expected.end(), std::back_inserter(stale));
  EXPECT_TRUE(stale.empty())
      << "docs/config_reference.md documents keys the parser does not "
         "accept: "
      << join(stale);
}

TEST(Docs, UsageTextCoversEveryKey) {
  // The CLI usage text must mention every accepted key too (it is the
  // terse sibling of the reference).
  const std::string usage = simulation_usage();
  for (const ConfigKey& row : config_keys()) {
    // The scenario passthrough family is spelled "scenario.<key>" in usage.
    const std::string needle =
        row.name == "scenario.*" ? "scenario." : row.name + "=";
    EXPECT_NE(usage.find(needle), std::string::npos)
        << "simulation_usage() does not mention " << row.name;
  }
}

}  // namespace
}  // namespace exastp
