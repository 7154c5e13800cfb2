// Golden bench tables: each deterministic bench named in
// tests/golden/manifest.txt is run, and the FNV-1a 64 digest of its
// standard output must match the recorded one. A digest pins every byte of
// a table, so any change to a number a bench prints fails here. Each bench
// runs with OMP_NUM_THREADS=1: fig07_isolation's sweeps are adaptive and
// print different numbers at other widths, so the pin is what makes its
// digest independent of the host's core count.
//
// Each manifest row is its own test case, Manifest/GoldenBench.Stdout/<bench>.
// CMakeLists.txt registers one ctest entry per row (test_golden.<bench>), so
// `ctest -j` runs the benches side by side; the plain test_golden entry runs
// only the Golden.* checks. Running ./test_golden by hand runs everything.
//
// Re-record only on purpose, with a CHANGES.md line saying why:
//   ./test_golden --record    (from the build directory)
// rewrites the manifest from the benches as built.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

const std::string kManifest =
    std::string(NETSMITH_SOURCE_DIR) + "/tests/golden/manifest.txt";

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Standard output of a bench built next to this test, run single-threaded;
// empty on failure.
std::string run_bench(const std::string& name, int& status) {
  const std::string cmd =
      "OMP_NUM_THREADS=1 " + std::string(NETSMITH_BENCH_DIR) + "/" + name;
  std::string out;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    status = -1;
    return out;
  }
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
    out.append(buf, got);
  status = ::pclose(pipe);
  return out;
}

// (bench, digest) pairs; '#' lines are comments.
std::vector<std::pair<std::string, std::string>> read_manifest() {
  std::vector<std::pair<std::string, std::string>> rows;
  std::ifstream in(kManifest);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string bench, digest;
    fields >> bench >> digest;
    rows.emplace_back(bench, digest);
  }
  return rows;
}

// Every listed bench is built next to this test (the build derives
// test_golden's dependencies from the same manifest).
TEST(Golden, EveryManifestBenchIsBuilt) {
  const auto rows = read_manifest();
  ASSERT_FALSE(rows.empty()) << "no entries in " << kManifest;
  for (const auto& row : rows) {
    const std::string path = std::string(NETSMITH_BENCH_DIR) + "/" + row.first;
    EXPECT_TRUE(std::ifstream(path).good()) << path << " is not built";
  }
}

class GoldenBench
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(GoldenBench, Stdout) {
  const auto& [bench, digest] = GetParam();
  int status = 0;
  const std::string out = run_bench(bench, status);
  ASSERT_EQ(status, 0) << bench << " did not exit cleanly";
  EXPECT_EQ(hex(fnv1a(out)), digest) << bench << " stdout changed:\n" << out;
}

INSTANTIATE_TEST_SUITE_P(
    Manifest, GoldenBench, ::testing::ValuesIn(read_manifest()),
    [](const auto& info) { return info.param.first; });

// Rewrites every digest line of the manifest from the benches as built,
// keeping the comment lines.
int record() {
  std::ifstream in(kManifest);
  std::ostringstream kept;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      kept << line << '\n';
      continue;
    }
    const std::string bench = line.substr(0, line.find(' '));
    int status = 0;
    const std::string digest = hex(fnv1a(run_bench(bench, status)));
    if (status != 0) {
      std::fprintf(stderr, "%s did not exit cleanly\n", bench.c_str());
      return 1;
    }
    kept << bench << ' ' << digest << '\n';
    std::printf("%s -> %s\n", line.c_str(), digest.c_str());
  }
  in.close();
  std::ofstream(kManifest) << kept.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--record") return record();
  return RUN_ALL_TESTS();
}
