// Checked-in replay corpus: every tests/replays/*.replay file must parse and run
// divergence-free through the full reload-strategy matrix under both the baseline and
// the fully-optimized preset. The corpus pins down op mixes that once mattered (cutoff
// boundary remaps, fork/COW/exit interleavings, framebuffer BAT rewrites under tlbia) so
// they stay covered even if the generator's weights drift.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/verify/fuzz/differential.h"

namespace ppcmm {
namespace {

std::vector<std::filesystem::path> ReplayFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(PPCMM_REPLAY_DIR)) {
    if (entry.path().extension() == ".replay") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ReplayCorpus, HasTheCheckedInFiles) { EXPECT_GE(ReplayFiles().size(), 3u); }

class ReplayFile : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(ReplayFile, RunsCleanAcrossTheMatrix) {
  std::ifstream in(GetParam());
  ASSERT_TRUE(in) << "cannot open " << GetParam();
  std::ostringstream text;
  text << in.rdbuf();

  FuzzStream stream;
  std::string error;
  ASSERT_TRUE(ParseStream(text.str(), &stream, &error)) << GetParam() << ": " << error;
  ASSERT_FALSE(stream.ops.empty());

  // Replays named smp_* carry cpu_switch ops; run those on the machine width they were
  // minimized at (cpu_switch is a skip at ncpus=1, which would silently uncover the mix).
  const bool smp = GetParam().stem().string().rfind("smp_", 0) == 0;
  const uint32_t ncpus = smp ? 4 : 1;
  for (const char* preset_name : {"baseline", "all", "all_fb_bat"}) {
    const FuzzPreset preset = FuzzPresetByName(preset_name);
    const MatrixResult result = RunMatrix(stream, preset.config, preset.name,
                                          /*check_period=*/16,
                                          /*break_tlb_invalidate=*/false, ncpus);
    EXPECT_FALSE(result.diverged) << GetParam() << "\n" << result.first_failure.report;
    EXPECT_EQ(result.runs, 3u);  // one per reload strategy
  }
}

std::string ReplayCaseName(const ::testing::TestParamInfo<std::filesystem::path>& info) {
  std::string name = info.param.stem().string();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ReplayFile, ::testing::ValuesIn(ReplayFiles()),
                         ReplayCaseName);

}  // namespace
}  // namespace ppcmm
