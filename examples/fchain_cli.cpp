// fchain_cli: an operator-style command-line tool over the library.
//
//   fchain_cli simulate <case-label> <seed> <out.rec>
//       run one scenario (e.g. RUBiS/CpuHog) and archive the incident
//       record — exactly what a monitoring deployment would have logged.
//   fchain_cli diagnose <in.rec>
//       re-diagnose an archived incident with core::diagnoseIncident
//       (black-box dependency discovery + FChain with the adaptive look-back
//       window) and print its report next to the archived ground truth.
//   fchain_cli export <in.rec> <metrics.csv>
//       dump the 1 Hz metric matrix as CSV for plotting.
//   fchain_cli cases
//       list the known scenario labels.
#include <cstdio>
#include <cstring>
#include <string>

#include "eval/exporter.h"
#include "eval/runner.h"
#include "fchain/incident.h"
#include "sim/record_io.h"

using namespace fchain;

namespace {

std::vector<eval::FaultCase> allCases() {
  auto cases = eval::allPaperCases();
  for (auto& extension : eval::extensionCases()) {
    cases.push_back(std::move(extension));
  }
  return cases;
}

int cmdCases() {
  for (const auto& fault_case : allCases()) {
    std::printf("%s\n", fault_case.label.c_str());
  }
  return 0;
}

int cmdSimulate(const std::string& label, std::uint64_t seed,
                const std::string& out_path) {
  for (const auto& fault_case : allCases()) {
    if (fault_case.label != label) continue;
    eval::TrialOptions options;
    options.trials = 1;
    options.base_seed = seed;
    const auto set = eval::generateTrials(fault_case, options);
    if (set.trials.empty()) {
      std::fprintf(stderr,
                   "the run finished without an SLO violation; try another "
                   "seed\n");
      return 2;
    }
    sim::saveRecord(out_path, set.trials.front().record);
    std::printf("saved incident record to %s (violation at t=%lld)\n",
                out_path.c_str(),
                static_cast<long long>(
                    *set.trials.front().record.violation_time));
    return 0;
  }
  std::fprintf(stderr, "unknown case '%s' (see: fchain_cli cases)\n",
               label.c_str());
  return 1;
}

int cmdDiagnose(const std::string& in_path) {
  const auto record = sim::loadRecord(in_path);
  const auto report = core::diagnoseIncident(record);
  std::printf("%s", core::formatIncidentReport(report, record).c_str());
  if (report.diagnosed && !record.ground_truth.empty()) {
    std::printf("(archived ground truth:");
    for (ComponentId id : record.ground_truth) {
      std::printf(" %s", record.app_spec.components[id].name.c_str());
    }
    std::printf(")\n");
  }
  return 0;
}

int cmdExport(const std::string& in_path, const std::string& csv_path) {
  const auto record = sim::loadRecord(in_path);
  eval::writeMetricsCsv(csv_path, record);
  std::printf("wrote %s\n", csv_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  try {
    if (command == "cases") return cmdCases();
    if (command == "simulate" && argc == 5) {
      return cmdSimulate(argv[2], std::strtoull(argv[3], nullptr, 10),
                         argv[4]);
    }
    if (command == "diagnose" && argc == 3) return cmdDiagnose(argv[2]);
    if (command == "export" && argc == 4) return cmdExport(argv[2], argv[3]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage:\n"
               "  fchain_cli cases\n"
               "  fchain_cli simulate <case-label> <seed> <out.rec>\n"
               "  fchain_cli diagnose <in.rec>\n"
               "  fchain_cli export <in.rec> <metrics.csv>\n");
  return 1;
}
