// Differential MMU fuzzer driver: random kernel-op streams executed in lockstep against
// the architectural reference oracle, across every optimization preset and reload strategy.
//
//   fuzz [--seed N] [--ops N] [--ncpus N] [--preset NAME] [--check-period N]
//        [--max-seconds S] [--minimize] [--out FILE] [--replay FILE] [--break-flush]
//
// Default: one stream (--seed, --ops) through the full matrix (13 presets x 3 reload
// strategies). With --max-seconds the seed keeps incrementing until the wall-clock budget
// is spent. On divergence the failure report is printed, the stream is shrunk to a
// 1-minimal repro (--minimize), written to --out, and the exit status is 1.
// --replay runs an existing replay file instead of generating a stream. --break-flush
// plants the test-only "skip tlbie on eager page flush" bug to demonstrate detection and
// minimization end to end.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/verify/fuzz/differential.h"
#include "src/verify/fuzz/minimize.h"
#include "src/verify/torture.h"

namespace {

uint64_t ParseNum(const char* flag, const std::string& value) {
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(value.c_str(), &end, 0);
  if (end == value.c_str() || *end != '\0') {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, value.c_str());
    std::exit(2);
  }
  return parsed;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << content;
  return out.good();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  uint32_t ops = 20000;
  uint32_t ncpus = 1;
  uint32_t check_period = 2000;
  uint64_t max_seconds = 0;
  bool minimize = false;
  bool break_flush = false;
  std::string preset_name;
  std::string out_path;
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline_value = false;
    if (const size_t eq = arg.find('='); eq != std::string::npos && arg.rfind("--", 0) == 0) {
      inline_value = arg.substr(eq + 1);
      has_inline_value = true;
      arg.resize(eq);
    }
    const auto next = [&]() -> std::string {
      if (has_inline_value) {
        return inline_value;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = ParseNum("--seed", next());
    } else if (arg == "--ops") {
      ops = static_cast<uint32_t>(ParseNum("--ops", next()));
    } else if (arg == "--ncpus") {
      ncpus = static_cast<uint32_t>(ParseNum("--ncpus", next()));
      if (ncpus == 0) {
        std::fprintf(stderr, "--ncpus wants at least 1 CPU\n");
        return 2;
      }
    } else if (arg == "--check-period") {
      check_period = static_cast<uint32_t>(ParseNum("--check-period", next()));
    } else if (arg == "--max-seconds") {
      max_seconds = ParseNum("--max-seconds", next());
    } else if (arg == "--preset") {
      preset_name = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--minimize") {
      minimize = true;
    } else if (arg == "--break-flush") {
      break_flush = true;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz [--seed N] [--ops N] [--ncpus N] [--preset NAME]\n"
                   "            [--check-period N] [--max-seconds S] [--minimize]\n"
                   "            [--out FILE] [--replay FILE] [--break-flush]\n");
      return 2;
    }
  }

  std::vector<ppcmm::FuzzPreset> presets;
  if (preset_name.empty()) {
    presets = ppcmm::FuzzPresets();
  } else {
    bool found = false;
    for (const ppcmm::FuzzPreset& p : ppcmm::FuzzPresets()) {
      if (p.name == preset_name) {
        presets.push_back(p);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown preset '%s'; known presets:\n", preset_name.c_str());
      for (const ppcmm::FuzzPreset& p : ppcmm::FuzzPresets()) {
        std::fprintf(stderr, "  %s\n", p.name.c_str());
      }
      return 2;
    }
  }

  const auto start_time = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    if (max_seconds == 0) {
      return false;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start_time;
    return std::chrono::duration_cast<std::chrono::seconds>(elapsed).count() >=
           static_cast<int64_t>(max_seconds);
  };

  ppcmm::OpCoverage coverage;
  uint64_t streams_run = 0;
  uint64_t matrix_runs = 0;

  // One stream through the preset matrix; on divergence, report + minimize + exit 1.
  const auto run_stream = [&](const ppcmm::FuzzStream& stream) -> int {
    for (const ppcmm::FuzzPreset& preset : presets) {
      const ppcmm::MatrixResult matrix =
          ppcmm::RunMatrix(stream, preset.config, preset.name, check_period, break_flush,
                           ncpus);
      matrix_runs += matrix.runs;
      coverage.Merge(matrix.coverage);
      if (!matrix.diverged) {
        continue;
      }
      std::fprintf(stderr, "%s\n", matrix.first_failure.report.c_str());
      ppcmm::FuzzStream repro = stream;
      if (minimize) {
        ppcmm::MinimizeOptions min_options;
        min_options.run = matrix.failing_options;
        const ppcmm::MinimizeResult shrunk = ppcmm::MinimizeStream(stream, min_options);
        repro = shrunk.minimized;
        std::fprintf(stderr, "minimized to %zu ops in %u probe runs:\n%s\n",
                     shrunk.minimized.ops.size(), shrunk.probe_runs,
                     ppcmm::SerializeStream(shrunk.minimized).c_str());
        std::fprintf(stderr, "%s\n", shrunk.failure.report.c_str());
      }
      std::ostringstream replay;
      replay << "# " << (minimize ? "minimized " : "") << "fuzz divergence: preset "
             << matrix.failing_options.config_name << ", strategy "
             << ppcmm::ReloadStrategyName(matrix.failing_options.strategy) << "\n"
             << ppcmm::SerializeStream(repro);
      if (!out_path.empty()) {
        if (!WriteFile(out_path, replay.str())) {
          std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        } else {
          std::fprintf(stderr, "replay written to %s\n", out_path.c_str());
        }
      } else {
        std::fprintf(stderr, "%s", replay.str().c_str());
      }
      return 1;
    }
    ++streams_run;
    return 0;
  };

  if (!replay_path.empty()) {
    ppcmm::FuzzStream stream;
    std::string error;
    if (!ppcmm::ParseStream(ReadFileOrDie(replay_path), &stream, &error)) {
      std::fprintf(stderr, "%s: %s\n", replay_path.c_str(), error.c_str());
      return 2;
    }
    std::printf("replaying %s (%zu ops) across %zu preset(s)\n", replay_path.c_str(),
                stream.ops.size(), presets.size());
    if (const int status = run_stream(stream); status != 0) {
      return status;
    }
  } else {
    do {
      std::printf("seed %llu: %u ops across %zu preset(s) x 3 strategies\n",
                  static_cast<unsigned long long>(seed), ops, presets.size());
      std::fflush(stdout);
      // At ncpus > 1 the SMP generator mixes in cpu-switch ops so tasks actually migrate;
      // at ncpus=1 the standard generator keeps every historical (seed, ops) stream intact.
      const ppcmm::FuzzStream stream = ncpus > 1 ? ppcmm::GenerateSmpStream(seed, ops)
                                                 : ppcmm::GenerateStream(seed, ops);
      if (const int status = run_stream(stream); status != 0) {
        return status;
      }
      ++seed;
    } while (!out_of_time() && max_seconds != 0);
  }

  std::printf("clean: %llu stream(s), %llu differential runs, 0 divergences\n",
              static_cast<unsigned long long>(streams_run),
              static_cast<unsigned long long>(matrix_runs));
  std::printf("%s", coverage.Report().c_str());
  return 0;
}
