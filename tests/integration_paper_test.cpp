// Capstone integration test: every fault case of the paper's evaluation
// must stay above a per-case accuracy floor, and the external-factor cases
// must usually be classified as external. Uses fewer trials than the
// benches (this is a regression tripwire, not the measurement).
#include <gtest/gtest.h>

#include "baselines/fchain_scheme.h"
#include "eval/runner.h"
#include "fchain/fchain.h"

namespace fchain {
namespace {

struct CaseFloor {
  const char* label;
  double min_f1;
};

// Without this gtest prints the raw bytes of the struct, label pointer
// included, so the listed test names would change with the address-space
// layout of every run. The label is already the name suffix.
void PrintTo(const CaseFloor& floor, std::ostream* os) {
  *os << "min F1 " << floor.min_f1;
}

class PaperCase : public ::testing::TestWithParam<CaseFloor> {};

TEST_P(PaperCase, FChainF1StaysAboveFloor) {
  const auto [label, min_f1] = GetParam();
  eval::FaultCase chosen;
  bool found = false;
  for (const auto& fault_case : eval::allPaperCases()) {
    if (fault_case.label == label) {
      chosen = fault_case;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << label;

  eval::TrialOptions options;
  options.trials = 6;
  options.base_seed = 42;
  const auto set = eval::generateTrials(chosen, options);
  ASSERT_GE(set.trials.size(), 3u)
      << "too few SLO violations for " << label;

  baselines::FChainScheme scheme(chosen.fchain_config);
  eval::Counts counts;
  for (const auto& trial : set.trials) {
    counts.accumulate(
        scheme.localize(eval::inputFor(trial), scheme.defaultThreshold()),
        trial.record.ground_truth);
  }
  EXPECT_GE(counts.f1(), min_f1)
      << label << ": P=" << counts.precision() << " R=" << counts.recall();
}

// Floors are deliberately looser than the measured values (see
// EXPERIMENTS.md) so that benign seed-to-seed variation does not flake;
// Bottleneck's floor reflects its paper-documented concurrent-fault
// confusion (validation, tested elsewhere, cleans it up).
INSTANTIATE_TEST_SUITE_P(
    AllFaults, PaperCase,
    ::testing::Values(CaseFloor{"RUBiS/MemLeak", 0.8},
                      CaseFloor{"RUBiS/CpuHog", 0.7},
                      CaseFloor{"RUBiS/NetHog", 0.8},
                      CaseFloor{"RUBiS/OffloadBug", 0.8},
                      CaseFloor{"RUBiS/LBBug", 0.5},
                      CaseFloor{"SystemS/MemLeak", 0.8},
                      CaseFloor{"SystemS/CpuHog", 0.8},
                      CaseFloor{"SystemS/Bottleneck", 0.35},
                      CaseFloor{"SystemS/ConcMemLeak", 0.8},
                      CaseFloor{"SystemS/ConcCpuHog", 0.6},
                      CaseFloor{"Hadoop/ConcMemLeak", 0.85},
                      CaseFloor{"Hadoop/ConcCpuHog", 0.85},
                      CaseFloor{"Hadoop/ConcDiskHog", 0.7}),
    [](const ::testing::TestParamInfo<CaseFloor>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (c == '/' ) c = '_';
      }
      return name;
    });

TEST(ExternalFactors, SurgeIsMostlyClassifiedExternal) {
  eval::TrialOptions options;
  options.trials = 5;
  options.base_seed = 42;
  const auto set = eval::generateTrials(eval::rubisWorkloadSurge(), options);
  ASSERT_GE(set.trials.size(), 3u);
  std::size_t external = 0;
  for (const auto& trial : set.trials) {
    const auto verdict =
        core::localizeRecord(trial.record, &trial.discovered, {});
    if (verdict.external_factor) {
      ++external;
      EXPECT_EQ(verdict.external_trend, Trend::Up);
    }
  }
  EXPECT_GE(external * 2, set.trials.size());  // majority of trials
}

TEST(Validation, BottleneckFalseAlarmsAreRemoved) {
  eval::TrialOptions options;
  options.trials = 5;
  options.base_seed = 42;
  options.keep_snapshots = true;
  const auto set = eval::generateTrials(eval::systemsBottleneck(), options);
  ASSERT_GE(set.trials.size(), 2u);

  core::OnlineValidator validator;
  eval::Counts raw, validated;
  for (const auto& trial : set.trials) {
    const auto result =
        core::localizeRecord(trial.record, &trial.discovered, {});
    raw.accumulate(result.pinpointed, trial.record.ground_truth);
    auto confirmed = result.pinpointed;
    if (!result.pinpointed.empty()) {
      confirmed = validator.validate(*trial.snapshot, result);
    }
    validated.accumulate(confirmed, trial.record.ground_truth);
  }
  EXPECT_GE(validated.precision(), raw.precision());
  EXPECT_GE(validated.precision(), 0.9);
  // Validation must not gut recall (paper: recall unchanged).
  EXPECT_GE(validated.recall() + 0.2, raw.recall());
}

}  // namespace
}  // namespace fchain
