#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "baseline/plain_join.h"
#include "stats.h"

namespace ppj::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The equijoin generators key both relations on column 1
/// (id:int64, key:int64, tag:string[12]).
constexpr std::size_t kKeyColumn = 1;

std::string RowBytes(const relation::Tuple& row) {
  const std::vector<std::uint8_t> bytes = row.Serialize();
  return std::string(bytes.begin(), bytes.end());
}

/// Reports the first few failures on stderr; every failure is counted in
/// the result line regardless.
void NoteFailure(OpKind kind, const std::string& why) {
  static int reported = 0;
  if (reported++ < 5) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", ToString(kind),
                 why.c_str());
  }
}

WorkloadSpec Alg5Serial() {
  WorkloadSpec s;
  s.name = "alg5-serial";
  s.algorithm = core::Algorithm::kAlgorithm5;
  s.shape.size_a = 256;
  s.shape.size_b = 256;
  s.shape.n_max = 2;
  s.shape.result_size = 128;
  s.memory_tuples = 16;
  s.workers = 1;
  s.outstanding = 1;
  s.ops_per_second = 10;
  // Twenty rounds: the short warm-up operations depend on where the
  // service's threads land, which is fixed per set-up, so their medians
  // need many set-ups to repeat from run to run.
  s.setups = 20;
  return s;
}

WorkloadSpec Alg6Scaleout() {
  WorkloadSpec s = Alg5Serial();
  s.name = "alg6-scaleout";
  s.algorithm = core::Algorithm::kAlgorithm6;
  s.epsilon = 1e-6;
  s.alternate_engines = true;
  s.scale_out = 4;
  // The measured joins run one at a time, so only one worker is ever busy
  // with them; three let the warm-up's cache hits spread over the cores
  // the way service-mix's do, instead of riding one core's speed.
  s.workers = 3;
  return s;
}

WorkloadSpec ServiceMix() {
  WorkloadSpec s;
  s.name = "service-mix";
  s.algorithm = core::Algorithm::kAlgorithm5;
  s.shape.size_a = 8;
  s.shape.size_b = 16;
  s.shape.n_max = 4;
  s.shape.result_size = 9;
  s.memory_tuples = 8;
  s.workers = 3;
  s.outstanding = 8;
  s.tenants = 8;
  s.contracts = 64;
  s.repeat_share = 0.25;
  s.resubmit_share = 0.02;
  // About the measured rate on the 4-vCPU host: 14-18 k operations per
  // second in its slower periods, up to 27 k in its faster ones.
  s.ops_per_second = 16000;
  s.setups = 20;
  s.warmup_mix_ops = 192;
  return s;
}

}  // namespace

const char* ToString(OpKind kind) {
  switch (kind) {
    case OpKind::kJoin:
      return "join";
    case OpKind::kShardJoin:
      return "shard-join";
    case OpKind::kParallelJoin:
      return "parallel-join";
    case OpKind::kRepeat:
      return "repeat";
    case OpKind::kResubmit:
      return "resubmit";
  }
  return "?";
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      Alg5Serial(), Alg6Scaleout(), ServiceMix()};
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Result<std::shared_ptr<const Dataset>> MakeDataset(
    const relation::EquijoinSpec& spec) {
  PPJ_ASSIGN_OR_RETURN(relation::TwoTableWorkload tables,
                       relation::MakeEquijoinWorkload(spec));
  auto data = std::make_shared<Dataset>();
  const relation::Schema joined =
      relation::Schema::Concat(tables.a->schema(), tables.b->schema());
  PPJ_ASSIGN_OR_RETURN(std::vector<relation::Tuple> rows,
                       baseline::HashJoin(*tables.a, *tables.b, kKeyColumn,
                                          kKeyColumn, &joined));
  data->expected.reserve(rows.size());
  for (const relation::Tuple& row : rows) {
    data->expected.push_back(RowBytes(row));
  }
  std::sort(data->expected.begin(), data->expected.end());
  data->tables = std::move(tables);
  return std::shared_ptr<const Dataset>(std::move(data));
}

bool MatchesExpected(const Dataset& data,
                     const std::vector<relation::Tuple>& delivered) {
  if (delivered.size() != data.expected.size()) return false;
  std::vector<std::string> rows;
  rows.reserve(delivered.size());
  for (const relation::Tuple& row : delivered) rows.push_back(RowBytes(row));
  std::sort(rows.begin(), rows.end());
  return rows == data.expected;
}

Workload::Workload(const WorkloadSpec& spec, std::uint64_t seed,
                   bool traced)
    : spec_(spec),
      seed_(seed),
      traced_(traced),
      rng_(Mix(seed, 1)),
      next_copro_seed_(Mix(seed, 2)),
      contracts_(spec.contracts),
      repeats_in_flight_(spec.contracts, 0) {}

Workload::~Workload() = default;

relation::EquijoinSpec Workload::ShapeFor(std::size_t contract,
                                          std::uint64_t version) const {
  relation::EquijoinSpec shape = spec_.shape;
  shape.seed = Mix(Mix(seed_, 3 + contract), version);
  return shape;
}

Result<double> Workload::SetUp(std::vector<OpRecord>* warmup,
                               const Observer& observer) {
  // Inputs are generated before the clock starts: they are the client's
  // data, not the service's set-up work.
  for (std::size_t c = 0; c < contracts_.size(); ++c) {
    PPJ_ASSIGN_OR_RETURN(contracts_[c].data, MakeDataset(ShapeFor(c, 0)));
  }

  const Clock::time_point start = Clock::now();
  {
    SpanLog::Scope span(spans_, "service.construct");
    service_ = std::make_unique<service::SovereignJoinService>();
  }
  service::SchedulerOptions sched;
  sched.workers = spec_.workers;
  sched.registry = &registry_;
  PPJ_RETURN_NOT_OK(service_->ConfigureScheduler(sched));
  for (unsigned t = 0; t < spec_.tenants; ++t) {
    PPJ_RETURN_NOT_OK(service_->RegisterParty("tenant-" + std::to_string(t),
                                              Mix(seed_, 100 + t)));
  }
  double ingest_ms = 0;
  for (std::size_t c = 0; c < contracts_.size(); ++c) {
    ContractState& k = contracts_[c];
    k.provider_a = "provider-" + std::to_string(c) + "-a";
    k.provider_b = "provider-" + std::to_string(c) + "-b";
    PPJ_RETURN_NOT_OK(service_->RegisterParty(k.provider_a, Mix(seed_, 2 * c)));
    PPJ_RETURN_NOT_OK(
        service_->RegisterParty(k.provider_b, Mix(seed_, 2 * c + 1)));
    PPJ_ASSIGN_OR_RETURN(
        k.id, service_->CreateContract(
                  {k.provider_a, k.provider_b},
                  "tenant-" + std::to_string(c % spec_.tenants),
                  "perfbench equijoin"));
    const Clock::time_point ingest = Clock::now();
    SpanLog::Scope span(spans_, "service.SubmitRelation");
    PPJ_RETURN_NOT_OK(
        service_->SubmitRelation(k.id, k.provider_a, *k.data->tables.a));
    PPJ_RETURN_NOT_OK(
        service_->SubmitRelation(k.id, k.provider_b, *k.data->tables.b));
    ingest_ms += Ms(Clock::now() - ingest);
  }
  ingest_ms_ = ingest_ms / static_cast<double>(contracts_.size());

  // The warm-up: a fixed script of several requests of every kind the
  // workload's metrics time.
  std::size_t step = 0;
  if (spec_.contracts == 1) {
    // Writes, a fresh join, then a fresh join that fills the reuse cache
    // (the parallel engine when engines alternate: sharded requests bypass
    // the cache).
    constexpr std::size_t kWrites = 64;
    RunOps(
        [&]() -> std::optional<Op> {
          const std::size_t s = step++;
          if (s < kWrites) return Op{.kind = OpKind::kResubmit};
          if (s == kWrites) return FreshOp(0, /*reuse=*/false);
          if (s == kWrites + 1) {
            Op op = FreshOp(0, /*reuse=*/true);
            if (spec_.alternate_engines && op.kind != OpKind::kParallelJoin) {
              op.kind = OpKind::kParallelJoin;
              op.shards = 1;
              op.parallelism = spec_.scale_out;
              next_engine_shards_ = true;
            }
            return op;
          }
          return std::nullopt;
        },
        spec_.outstanding, warmup, observer);
    // Repeats of it, four in flight per worker. One at a time, a hit is
    // mostly two thread wake-ups, whose cost moved its median by a quarter
    // between sets of runs.
    constexpr std::size_t kRepeats = 64;
    std::size_t repeats = 0;
    RunOps(
        [&]() -> std::optional<Op> {
          if (repeats++ == kRepeats) return std::nullopt;
          return RepeatOp();
        },
        4 * std::size_t{spec_.workers}, warmup, observer);
  } else {
    // One fresh join per contract, then a slice of the measured mix.
    RunOps(
        [&]() -> std::optional<Op> {
          const std::size_t s = step++;
          if (s < contracts_.size()) return FreshOp(s, /*reuse=*/true);
          if (s < contracts_.size() + spec_.warmup_mix_ops) return MixOp();
          return std::nullopt;
        },
        spec_.outstanding, warmup, observer);
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Workload::Run(std::size_t ops, std::vector<OpRecord>* out,
                     const Observer& observer, std::size_t first) {
  next_engine_shards_ = first % 2 == 0;
  std::size_t issued = 0;
  const Clock::time_point start = Clock::now();
  RunOps(
      [&]() -> std::optional<Op> {
        if (issued == ops) return std::nullopt;
        ++issued;
        if (spec_.contracts > 1) return MixOp();
        return FreshOp(0, /*reuse=*/false);
      },
      spec_.outstanding, out, observer);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Workload::Op Workload::FreshOp(std::size_t contract, bool reuse) {
  Op op;
  op.contract = contract;
  op.copro_seed = next_copro_seed_++;
  op.reuse = reuse;
  if (spec_.alternate_engines) {
    if (next_engine_shards_) {
      op.kind = OpKind::kShardJoin;
      op.shards = spec_.scale_out;
    } else {
      op.kind = OpKind::kParallelJoin;
      op.parallelism = spec_.scale_out;
    }
    next_engine_shards_ = !next_engine_shards_;
  }
  return op;
}

Workload::Op Workload::MixOp() {
  // Both draws happen for every operation, so the stream of kinds and
  // contracts depends on the seed alone.
  const double r = std::uniform_real_distribution<double>(0, 1)(rng_);
  const std::size_t c = std::uniform_int_distribution<std::size_t>(
      0, contracts_.size() - 1)(rng_);
  if (r < spec_.resubmit_share) {
    // A write to a contract with a repeat still queued would erase the
    // entry that repeat is about to hit; write the next contract instead.
    for (std::size_t i = 0; i < contracts_.size(); ++i) {
      const std::size_t target = (c + i) % contracts_.size();
      if (repeats_in_flight_[target] == 0) {
        return Op{.kind = OpKind::kResubmit, .contract = target};
      }
    }
  } else if (r < spec_.resubmit_share + spec_.repeat_share) {
    if (std::optional<Op> repeat = RepeatOp()) return *repeat;
  }
  return FreshOp(c, /*reuse=*/true);
}

std::optional<Workload::Op> Workload::RepeatOp() const {
  // Only a join whose Wait has returned is repeated, on the relation
  // versions it ran on: its cache entry exists, so the repeat hits.
  if (!last_fresh_) return std::nullopt;
  const auto& [fresh, version] = *last_fresh_;
  if (contracts_[fresh.contract].version != version) return std::nullopt;
  Op repeat = fresh;
  repeat.kind = OpKind::kRepeat;
  return repeat;
}

void Workload::RunOps(const std::function<std::optional<Op>()>& next,
                      std::size_t outstanding, std::vector<OpRecord>* out,
                      const Observer& observer) {
  std::deque<Pending> pending;
  bool exhausted = false;
  while (true) {
    while (!exhausted && pending.size() < outstanding) {
      std::optional<Op> op = next();
      if (!op) {
        exhausted = true;
      } else if (op->kind == OpKind::kResubmit) {
        out->push_back(Resubmit(op->contract));
      } else {
        Submit(*op, &pending, out);
      }
    }
    if (pending.empty()) return;
    out->push_back(Complete(pending.front(), observer));
    pending.pop_front();
  }
}

OpRecord Workload::Resubmit(std::size_t contract) {
  ContractState& k = contracts_[contract];
  OpRecord rec;
  rec.kind = OpKind::kResubmit;
  // Multi-contract providers write new content; a single contract writes
  // the same rows again, so its measured joins keep one expected result.
  std::shared_ptr<const Dataset> data = k.data;
  if (contracts_.size() > 1) {
    Result<std::shared_ptr<const Dataset>> made =
        MakeDataset(ShapeFor(contract, k.version + 1));
    if (!made.ok()) {
      NoteFailure(rec.kind, made.status().ToString());
      return rec;
    }
    data = *made;
  }
  const Clock::time_point start = Clock::now();
  Status status;
  {
    SpanLog::Scope span(spans_, "service.SubmitRelation");
    status = service_->SubmitRelation(k.id, k.provider_a, *data->tables.a);
    if (status.ok()) {
      status = service_->SubmitRelation(k.id, k.provider_b, *data->tables.b);
    }
  }
  rec.latency_ms = Ms(Clock::now() - start);
  rec.ok = status.ok();
  if (rec.ok) {
    k.data = std::move(data);
    ++k.version;
  } else {
    NoteFailure(rec.kind, status.ToString());
  }
  return rec;
}

void Workload::Submit(Op op, std::deque<Pending>* pending,
                      std::vector<OpRecord>* out) {
  const ContractState& k = contracts_[op.contract];
  // Telemetry on for every other request, or every other pair when engines
  // alternate, so each engine sees both settings.
  const std::uint64_t period = spec_.alternate_engines ? 2 : 1;
  op.telemetry = traced_ && (submitted_++ / period) % 2 == 0;
  service::ExecuteOptions options;
  options.algorithm = spec_.algorithm;
  options.memory_tuples = spec_.memory_tuples;
  options.epsilon = spec_.epsilon;
  options.seed = op.copro_seed;
  options.shards = op.shards;
  options.parallelism = op.parallelism;
  options.telemetry = op.telemetry;
  options.allow_reuse = op.reuse;

  Pending p;
  p.op = op;
  p.data = k.data;
  p.version = k.version;
  SpanLog::Scope span(spans_, "service.Submit");
  p.start = Clock::now();
  Result<service::Ticket> ticket = service_->Submit(
      k.id, service::JoinRequest::PairJoin(*p.data->tables.predicate),
      options);
  p.submit_us = Ms(Clock::now() - p.start) * 1e3;
  if (ticket.ok()) span.set_request(ticket->id);
  if (!ticket.ok()) {
    // A refusal is a failed operation, not a dropped one.
    NoteFailure(op.kind, ticket.status().ToString());
    OpRecord rec;
    rec.kind = op.kind;
    rec.telemetry = op.telemetry;
    out->push_back(rec);
    return;
  }
  p.ticket = *ticket;
  if (op.kind == OpKind::kRepeat) ++repeats_in_flight_[op.contract];
  pending->push_back(std::move(p));
}

OpRecord Workload::Complete(const Pending& p, const Observer& observer) {
  Result<service::Response> response = Status::Internal("not waited");
  {
    SpanLog::Scope span(spans_, "service.Wait", p.ticket.id);
    response = service_->Wait(p.ticket);
  }
  OpRecord rec;
  rec.kind = p.op.kind;
  rec.telemetry = p.op.telemetry;
  rec.latency_ms = Ms(Clock::now() - p.start);
  const service::JoinDelivery* delivery = nullptr;
  if (!response.ok()) {
    NoteFailure(rec.kind, response.status().ToString());
  } else if (!response->delivery) {
    NoteFailure(rec.kind, "no delivery");
  } else {
    delivery = &*response->delivery;
    rec.reused = response->reused;
    SpanLog::Scope span(spans_, "client.check", p.ticket.id);
    rec.ok = MatchesExpected(*p.data, delivery->tuples);
    if (!rec.ok) {
      NoteFailure(rec.kind, "result differs from the plaintext join");
    }
  }
  if (observer) {
    std::optional<service::RequestTrace> lifecycle;
    {
      SpanLog::Scope span(spans_, "service.lifecycle", p.ticket.id);
      lifecycle = service_->lifecycle(p.ticket);
    }
    observer(rec, p.submit_us, delivery, lifecycle);
  }
  {
    SpanLog::Scope span(spans_, "service.Release", p.ticket.id);
    service_->Release(p.ticket);
  }
  if (p.op.kind == OpKind::kRepeat) --repeats_in_flight_[p.op.contract];
  if (rec.ok && IsFresh(rec.kind) && p.op.reuse) {
    last_fresh_.emplace(p.op, p.version);
  }
  return rec;
}

LoopSummary Summarize(const WorkloadSpec& spec,
                      const std::vector<OpRecord>& warmup,
                      const std::vector<OpRecord>& measured, double seconds) {
  std::vector<double> fresh, shard, parallel, repeat, resubmit;
  std::size_t completed = 0;
  for (const OpRecord& r : measured) {
    if (!r.ok) continue;
    ++completed;
    if (IsFresh(r.kind)) fresh.push_back(r.latency_ms);
    if (r.kind == OpKind::kShardJoin) shard.push_back(r.latency_ms);
    if (r.kind == OpKind::kParallelJoin) parallel.push_back(r.latency_ms);
  }
  for (const auto* records : {&warmup, &measured}) {
    for (const OpRecord& r : *records) {
      if (!r.ok) continue;
      if (r.kind == OpKind::kRepeat) repeat.push_back(r.latency_ms);
      if (r.kind == OpKind::kResubmit) resubmit.push_back(r.latency_ms);
    }
  }
  LoopSummary s;
  s.fresh = fresh.size();
  s.tail_pct = TailPercentile(fresh.size());
  s.tail_ms = Percentile(fresh, s.tail_pct);
  if (spec.alternate_engines) {
    // Two modes about 45 % apart: a pooled p50 would jump between them.
    s.shard_p50_ms = Median(shard);
    s.parallel_p50_ms = Median(parallel);
    s.latency_p50_ms = (s.shard_p50_ms + s.parallel_p50_ms) / 2;
  } else {
    s.latency_p50_ms = Median(fresh);
    s.shard_p50_ms = s.latency_p50_ms;
    s.parallel_p50_ms = s.latency_p50_ms;
  }
  s.reuse_p50_ms = Median(repeat);
  s.resubmit_p50_ms = Median(resubmit);
  s.requests_per_s =
      seconds > 0 ? static_cast<double>(completed) / seconds : 0;
  return s;
}

void Count(const std::vector<OpRecord>& records, RunOutcome* outcome) {
  outcome->attempted += records.size();
  for (const OpRecord& r : records) {
    if (!r.ok) ++outcome->failed;
  }
}

double SetUpOrExit(Workload& workload, std::vector<OpRecord>* warmup,
                   const Observer& observer) {
  Result<double> seconds = workload.SetUp(warmup, observer);
  if (!seconds.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 seconds.status().ToString().c_str());
    std::exit(1);
  }
  return *seconds;
}

}  // namespace ppj::perfbench
