// The ppj end-to-end benchmark (perfbench/README.md).
//
//   ppj_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <file>]
//
// --trace 0 runs the workload's closed loop through the public service API
// and prints every end-to-end metric; --trace 1 prints the per-layer
// metrics. Either way the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/key.h"
#include "crypto/ocb.h"
#include "layers.h"
#include "oblivious/sort_simd.h"
#include "stats.h"
#include "workload.h"

namespace ppj::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  long seconds = 10;
  int trace = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::strtol(value, nullptr, 10);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args->trace = std::atoi(value);
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds >= 1 && args->seconds <= 600 &&
         (args->trace == 0 || args->trace == 1);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host facts: later runs pair only within one host class.
void PrintHostFacts() {
  const crypto::Ocb probe(crypto::DeriveKey(1, "perfbench-host-probe"));
  std::printf(
      "host {\"nproc\": %ld, \"aes_hardware\": %s, \"simd_tier\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN),
      probe.hardware_accelerated() ? "true" : "false",
      oblivious::SimdTierName(oblivious::ActiveSimdTier()),
      PERFBENCH_BUILD_TYPE, __VERSION__);
}

/// --trace 0: the workload's rounds; prints every end-to-end metric.
RunOutcome RunUntraced(const WorkloadSpec& spec, std::uint64_t seed,
                       std::size_t ops) {
  RunOutcome outcome;
  std::vector<OpRecord> warmup, measured;
  std::vector<double> setup_s;
  std::vector<LoopSummary> rounds;
  double seconds = 0;
  // Rounds of a fresh set-up and an equal slice of the measured work, so
  // set-ups, warm-ups and joins all sample the whole run.
  for (unsigned i = 0; i < spec.setups; ++i) {
    {
      Workload workload(spec, seed, /*traced=*/false);
      setup_s.push_back(SetUpOrExit(workload, &warmup));
      const std::size_t first = ops * i / spec.setups;
      const std::size_t slice = ops * (i + 1) / spec.setups - first;
      std::vector<OpRecord> round;
      const double round_seconds = workload.Run(slice, &round, {}, first);
      rounds.push_back(Summarize(spec, {}, round, round_seconds));
      seconds += round_seconds;
      measured.insert(measured.end(), round.begin(), round.end());
    }
    // Hand the round's freed memory back to the system, so that
    // peak_rss_mb is one round's footprint rather than whatever the
    // allocator kept from earlier rounds (on service-mix that leftover
    // moved the peak between 53 and 68 MB from run to run).
    malloc_trim(0);
  }
  Count(warmup, &outcome);
  Count(measured, &outcome);

  LoopSummary s = Summarize(spec, warmup, measured, seconds);
  // The host stalls its cores in bursts of a second or two, which move a
  // run's mean rate and its tail far more than its medians. The median
  // over rounds leaves out the rounds a burst hit; the tail takes it only
  // where each round holds the samples for the run's own percentile.
  std::vector<double> rates, tails;
  bool round_tails = true;
  for (const LoopSummary& r : rounds) {
    rates.push_back(r.requests_per_s);
    tails.push_back(r.tail_ms);
    round_tails = round_tails && r.tail_pct == s.tail_pct;
  }
  s.requests_per_s = Median(rates);
  if (round_tails) s.tail_ms = Median(tails);
  std::printf(
      "%s: %zu measured operations in %.2f s; latency_tail_ms is p%g of %zu "
      "fresh joins (%zu beyond it), %s\n",
      spec.name.c_str(), measured.size(), seconds, s.tail_pct, s.fresh,
      SamplesBeyond(s.fresh, s.tail_pct),
      round_tails ? "taken per round, median over rounds"
                  : "pooled over all rounds");
  for (OpKind kind :
       {OpKind::kJoin, OpKind::kShardJoin, OpKind::kParallelJoin}) {
    std::vector<double> ms;
    for (const OpRecord& r : measured) {
      if (r.ok && r.kind == kind) ms.push_back(r.latency_ms);
    }
    if (ms.empty()) continue;
    std::printf("%s latency ms (%zu): p10 %.4f, p50 %.4f, p75 %.4f, "
                "p90 %.4f, p99 %.4f\n",
                ToString(kind), ms.size(), Percentile(ms, 10),
                Percentile(ms, 50), Percentile(ms, 75), Percentile(ms, 90),
                Percentile(ms, 99));
  }
  outcome.metrics = {
      {"latency_p50_ms", s.latency_p50_ms, "ms"},
      {"latency_tail_ms", s.tail_ms, "ms"},
      {"shard_latency_p50_ms", s.shard_p50_ms, "ms"},
      {"parallel_latency_p50_ms", s.parallel_p50_ms, "ms"},
      {"reuse_latency_p50_ms", s.reuse_p50_ms, "ms"},
      {"resubmit_latency_p50_ms", s.resubmit_p50_ms, "ms"},
      {"requests_per_s", s.requests_per_s, "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return outcome;
}

void PrintResult(const RunOutcome& outcome) {
  for (const Metric& m : outcome.metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace ppj::perfbench

int main(int argc, char** argv) {
  using namespace ppj::perfbench;  // NOLINT: program entry point
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <1..600> "
                 "--trace <0|1> [--spans-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  PrintHostFacts();
  const std::size_t ops =
      static_cast<std::size_t>(spec->ops_per_second) *
      static_cast<std::size_t>(args.seconds);
  const RunOutcome outcome =
      args.trace == 1 ? RunTraced(*spec, args.seed, ops, args.spans_out)
                      : RunUntraced(*spec, args.seed, ops);
  PrintResult(outcome);
  return 0;
}
