// fleet_open_loop: a FleetRouter in front of two SimServer backends, all
// in this process, driven open-loop over loopback ServiceClient
// connections the way `rqsim route` serves clients.
//
// One submitting connection sends each job at its due time on a seeded
// Poisson schedule; one waiting thread collects results in submission
// order. Latency runs from the due time, so a stalled generator or a
// growing queue shows up in it. The schedule is a fixed ladder of rates;
// the nominal (500/s) rungs carry the end-to-end metrics.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "layers.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/workload.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/trace.hpp"

namespace rqsim::perfbench {

namespace {

constexpr std::size_t kBackends = 2;
constexpr std::size_t kBatchJobs = 8;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kTrials = 200;
constexpr int kSetupRepeats = 5;

/// Latency limit on a rung's p99 (README.md, max_rate_in_slo).
constexpr double kSloMs = 100.0;

/// The ladder. Each round runs every rung once, in this order, with
/// kMinJobs jobs per rung, so each rung's p99 has ten samples beyond it.
/// A rung is in SLO when it meets the limit in a majority of rounds, so one
/// stall of the shared host cannot move max_rate_in_slo. The fleet absorbs
/// the top rung only with a growing queue, so the ladder brackets its
/// capacity.
constexpr double kRates[] = {250.0, 500.0, 1000.0, 5000.0};
constexpr std::size_t kRungs = std::size(kRates);
constexpr std::size_t kNominal = 1;  // 500 jobs/s
constexpr std::size_t kMinJobs = 1000;

/// Rounds that fit in --seconds; one round sends for about 7.2 s.
std::size_t ladder_rounds(double seconds) {
  double round_s = 0.0;
  for (const double rate : kRates) {
    round_s += static_cast<double>(kMinJobs) / rate;
  }
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds / round_s));
}

/// Job classes, cycled in this order: 2/3 batch-compatible Yorktown
/// circuits (a fixed circuit per class, so jobs of one class merge across
/// tenants) and 1/3 unique QV circuits, which never merge.
struct JobClass {
  const char* circuit;  // nullptr: a fresh qv:5:5:<seed> per job
  bool frames;
};
const JobClass kClasses[] = {
    {"qft:5", false}, {"ghz:5", true}, {nullptr, false},
    {"bv:4", false},  {"grover", false}, {nullptr, false},
};
constexpr std::size_t kClassCount = std::size(kClasses);
const char* const kTenants[] = {"alice", "bob", "carol"};

struct Job {
  std::size_t rung = 0;
  std::string circuit;
  bool frames = false;
  std::string tenant;
  std::uint64_t seed = 0;
  double due_ms = 0.0;  // from the rung's start

  // Outcome.
  bool refused = false;
  bool done = false;
  double sent_ms = 0.0;  // from the rung's start
  double done_ms = 0.0;
  std::uint64_t job_id = 0;
  Json result;
};

std::string job_circuit(const JobClass& cls, std::uint64_t seed, std::size_t index) {
  if (cls.circuit != nullptr) {
    return cls.circuit;
  }
  return "qv:5:5:" + std::to_string(seed * 100003 + index);
}

WorkloadSpec yorktown(const std::string& circuit) {
  WorkloadSpec spec;
  spec.circuit_spec = circuit;
  spec.device = "yorktown";
  return spec;
}

/// The rung's jobs on a Poisson schedule at exactly `rate` on average: the
/// exponential gaps are rescaled so the last job is due at count / rate.
std::vector<Job> make_rung(std::size_t rung, double rate, std::size_t count,
                           std::size_t first_index, Rng& rng) {
  std::vector<double> gaps(count);
  double sum = 0.0;
  for (double& gap : gaps) {
    gap = -std::log(1.0 - rng.uniform());
    sum += gap;
  }
  const double scale = static_cast<double>(count) / rate * 1e3 / sum;
  std::vector<Job> jobs(count);
  double due = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index = first_index + i;
    const JobClass& cls = kClasses[index % kClassCount];
    Job& job = jobs[i];
    job.rung = rung;
    job.seed = rng.next_u64() >> 11;
    job.circuit = job_circuit(cls, job.seed, index);
    job.frames = cls.frames;
    job.tenant = kTenants[(index / kClassCount) % std::size(kTenants)];
    due += gaps[i] * scale;
    job.due_ms = due;
  }
  return jobs;
}

Json op_request(const char* op) {
  Json request = Json::object();
  request.set("op", Json(op));
  return request;
}

/// Two backends and a router in this process, on unix sockets in the
/// current directory. Fixed endpoint names keep the router's consistent-hash
/// placement of each workload class the same on every run.
class Fleet {
 public:
  Fleet() {
    std::vector<std::string> endpoints;
    for (std::size_t i = 0; i < kBackends; ++i) {
      ServerConfig config;
      config.unix_path = "backend-" + std::to_string(i) + ".sock";
      config.service.num_workers = 1;
      config.service.queue_capacity = kQueueCapacity;
      config.service.max_batch_jobs = kBatchJobs;
      servers_.push_back(std::make_unique<SimServer>(std::move(config)));
      endpoints.push_back(servers_.back()->endpoint());
    }
    for (auto& server : servers_) {
      server_threads_.emplace_back([srv = server.get()] { srv->run(); });
    }
    RouterConfig config;
    config.unix_path = "router.sock";
    config.backends = endpoints;
    config.health.interval_ms = 200;
    router_ = std::make_unique<FleetRouter>(std::move(config));
    router_thread_ = std::thread([r = router_.get()] { r->run(); });
  }

  ~Fleet() {
    router_->stop();
    router_thread_.join();
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      servers_[i]->stop();
      server_threads_[i].join();
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ServiceClient connect() const {
    ClientOptions options;
    options.io_timeout_ms = 60000;
    return ServiceClient::connect(router_->endpoint(), options);
  }

  ServiceStats service_stats(std::size_t i) const { return servers_[i]->service().stats(); }

 private:
  std::vector<std::unique_ptr<SimServer>> servers_;
  std::vector<std::thread> server_threads_;
  std::unique_ptr<FleetRouter> router_;
  std::thread router_thread_;
};

/// Runs one rung open-loop: the caller's thread submits on schedule, a
/// second thread waits for results in submission order.
void run_rung(const Fleet& fleet, ServiceClient& submitter, std::vector<Job>& jobs) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> pending;  // indices into jobs, submission order
  bool closed = false;
  const telemetry::TimePoint start = telemetry::clock_now();

  // A job the waiter cannot collect stays !done and counts as failed.
  std::thread waiter([&] {
    try {
      ServiceClient client = fleet.connect();
      for (;;) {
        std::size_t index = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !pending.empty(); });
          if (pending.empty()) {
            return;
          }
          index = pending.front();
          pending.pop_front();
        }
        Job& job = jobs[index];
        Json request = op_request("wait");
        request.set("job", Json(job.job_id));
        job.result = client.request(request);
        job.done_ms = telemetry::ms_between(start, telemetry::clock_now());
        job.done = job.result.get_string("state", "") == "done";
      }
    } catch (const std::exception& e) {
      note(std::string("waiter stopped: ") + e.what());
    }
  });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& job = jobs[i];
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<telemetry::TimePoint::duration>(
                    std::chrono::duration<double, std::milli>(job.due_ms)));
    SubmitParams params;
    params.trials = kTrials;
    params.seed = job.seed;
    params.frames = job.frames;
    params.tenant = job.tenant;
    job.sent_ms = telemetry::ms_between(start, telemetry::clock_now());
    Json accepted;
    {
      RQSIM_SPAN("router.submit");
      accepted = submitter.request(make_submit_request(yorktown(job.circuit), params));
    }
    if (!accepted.get_bool("ok", false)) {
      job.refused = true;
      continue;
    }
    job.job_id = accepted.at("job").as_u64();
    {
      const std::lock_guard<std::mutex> lock(mu);
      pending.push_back(i);
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_one();
  waiter.join();
}

/// Solo run_noisy of the job's (class, seed, trials), as bitstring counts.
std::map<std::string, std::uint64_t> solo_histogram(const Job& job,
                                                    const Workload& load) {
  NoisyRunConfig config;
  config.num_trials = kTrials;
  config.seed = job.seed;
  const NoisyRunResult run = run_noisy(load.circuit, load.noise, config);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [outcome, count] : run.histogram) {
    out[to_bitstring(outcome, static_cast<unsigned>(load.circuit.num_measured()))] = count;
  }
  return out;
}

/// Checks every finished job against its solo reference, on a few threads.
/// Returns per-job verdicts (non-zero = histogram matches).
std::vector<char> check_jobs(const std::vector<Job>& jobs) {
  std::map<std::string, Workload> shared;  // the fixed Yorktown classes
  for (const JobClass& cls : kClasses) {
    if (cls.circuit != nullptr) {
      shared.emplace(cls.circuit, build_workload(yorktown(cls.circuit)));
    }
  }
  std::vector<char> ok(jobs.size(), false);
  constexpr std::size_t kCheckers = 3;
  std::vector<std::thread> checkers;
  for (std::size_t t = 0; t < kCheckers; ++t) {
    checkers.emplace_back([&, t] {
      // A job whose reference cannot be built stays unverified (failed).
      try {
        for (std::size_t i = t; i < jobs.size(); i += kCheckers) {
          const Job& job = jobs[i];
          if (!job.done || !job.result.has("result") ||
              !job.result.at("result").has("histogram")) {
            continue;
          }
          const auto it = shared.find(job.circuit);
          const Workload load =
              it != shared.end() ? it->second : build_workload(yorktown(job.circuit));
          std::map<std::string, std::uint64_t> got;
          for (const auto& [bits, count] :
               job.result.at("result").at("histogram").as_object()) {
            got[bits] = count.as_u64();
          }
          ok[i] = got == solo_histogram(job, load);
        }
      } catch (const std::exception& e) {
        note(std::string("reference check stopped: ") + e.what());
      }
    });
  }
  for (std::thread& checker : checkers) {
    checker.join();
  }
  return ok;
}

struct RungSummary {
  double rate = 0.0;
  std::size_t sent = 0, succeeded = 0, failed = 0, refused = 0;
  double p50_ms = 0.0, p99_ms = 0.0;
  double backlog = 0.0;  // jobs in the system when the last job was due
  double elapsed_ms = 0.0;
  bool in_slo = false;
};

/// Latency from the due time; failed and refused jobs count as missing
/// every limit (+inf), capped at the rung's elapsed time for printing.
RungSummary summarize(const std::vector<Job>& jobs, const std::vector<char>& ok,
                      std::size_t begin, std::size_t end, double rate) {
  RungSummary s;
  s.rate = rate;
  std::vector<double> latency;
  for (std::size_t i = begin; i < end; ++i) {
    const Job& job = jobs[i];
    s.elapsed_ms = std::max({s.elapsed_ms, job.done_ms, job.sent_ms});
    ++s.sent;
    if (job.refused) {
      ++s.refused;
    } else if (!job.done || !ok[i]) {
      ++s.failed;
    } else {
      ++s.succeeded;
    }
    latency.push_back(job.done && ok[i] ? job.done_ms - job.due_ms
                                        : std::numeric_limits<double>::infinity());
  }
  const double last_due = jobs[end - 1].due_ms;
  for (std::size_t i = begin; i < end; ++i) {
    if (!jobs[i].done || jobs[i].done_ms > last_due) {
      s.backlog += 1.0;
    }
  }
  s.p50_ms = std::min(percentile(latency, 0.50), s.elapsed_ms);
  s.p99_ms = std::min(percentile(latency, 0.99), s.elapsed_ms);
  // Little's law: with every job inside the limit, about rate × limit jobs
  // are in the system at any moment; twice that (and at least 16) is a
  // queue that is growing, not just bursty.
  const double backlog_limit = std::max(16.0, 2.0 * rate * kSloMs / 1e3);
  s.in_slo = s.failed == 0 && s.refused == 0 && s.p99_ms <= kSloMs &&
             s.backlog <= backlog_limit;
  return s;
}

/// Runs `rounds` rounds of the ladder, each rung after the previous one has
/// drained. Segment i (rung i % kRungs of round i / kRungs) is
/// jobs[bounds[i], bounds[i + 1]).
std::vector<Job> run_ladder(const Fleet& fleet, ServiceClient& submitter,
                            std::uint64_t seed, std::size_t rounds,
                            std::vector<std::size_t>& bounds) {
  Rng rng(seed);
  std::vector<Job> all;
  bounds.assign(1, 0);
  for (std::size_t i = 0; i < rounds * kRungs; ++i) {
    const std::size_t r = i % kRungs;
    std::vector<Job> jobs = make_rung(r, kRates[r], kMinJobs, all.size(), rng);
    run_rung(fleet, submitter, jobs);
    all.insert(all.end(), jobs.begin(), jobs.end());
    bounds.push_back(all.size());
  }
  return all;
}

/// Per-job service and router numbers from the nominal rungs' JobResults;
/// batch and router counters cover the whole ladder.
void set_service_metrics(Report& report, const Fleet& fleet, ServiceClient& client,
                         const std::vector<Job>& jobs,
                         const std::vector<std::size_t>& nominal) {
  std::vector<double> queue_ms, exec_ms, hop_ms;
  for (const std::size_t i : nominal) {
    const Job& job = jobs[i];
    if (!job.done) {
      continue;
    }
    const Json& result = job.result.at("result");
    const double queue = result.get_number("queue_ms", 0.0);
    const double exec = result.get_number("exec_ms", 0.0);
    queue_ms.push_back(queue);
    exec_ms.push_back(exec);
    hop_ms.push_back(job.done_ms - job.sent_ms - queue - exec);
  }
  report.set("service.queue_ms.p50", percentile(queue_ms, 0.50));
  report.set("service.queue_ms.p99", percentile(queue_ms, 0.99));
  report.set("service.exec_ms.p50", percentile(exec_ms, 0.50));
  report.set("service.exec_ms.p99", percentile(exec_ms, 0.99));
  report.set("router.hop_ms.p50", percentile(hop_ms, 0.50));
  report.set("router.hop_ms.p99", percentile(hop_ms, 0.99));

  ServiceStats total;
  for (std::size_t i = 0; i < kBackends; ++i) {
    const ServiceStats s = fleet.service_stats(i);
    total.rejected += s.rejected;
    total.completed += s.completed;
    total.merged_batches += s.merged_batches;
    total.merged_jobs += s.merged_jobs;
    total.merged_batch_ops += s.merged_batch_ops;
    total.merged_solo_ops += s.merged_solo_ops;
  }
  const double completed = static_cast<double>(total.completed);
  const double executions =
      static_cast<double>(total.merged_batches) + completed -
      static_cast<double>(total.merged_jobs);
  report.set("service.rejected", static_cast<double>(total.rejected));
  report.set("batch.mean_jobs", executions > 0.0 ? completed / executions : 0.0);
  report.set("batch.merge_rate",
             completed > 0.0 ? static_cast<double>(total.merged_jobs) / completed : 0.0);
  report.set("batch.ops_saved_frac",
             total.merged_solo_ops == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(total.merged_batch_ops) /
                             static_cast<double>(total.merged_solo_ops));

  const Json stats = client.request(op_request("stats"));
  const Json& fleet_stats = stats.at("fleet");
  report.set("router.cross_tenant_merge_hit_rate",
             fleet_stats.get_number("cross_tenant_merge_hit_rate", 0.0));
  std::vector<double> routed;
  for (const Json& backend : fleet_stats.at("backends").as_array()) {
    routed.push_back(static_cast<double>(backend.get_u64("jobs_routed", 0)));
  }
  double sum = 0.0, peak = 0.0;
  for (const double r : routed) {
    sum += r;
    peak = std::max(peak, r);
  }
  report.set("router.backend_imbalance",
             sum > 0.0 ? peak / (sum / static_cast<double>(routed.size())) : 0.0);
  const Json& router = fleet_stats.at("router");
  report.set("router.admission_rejects",
             static_cast<double>(router.get_u64("rejected_quota", 0) +
                                 router.get_u64("rejected_no_backend", 0)));
  report.set("router.resubmits", static_cast<double>(router.get_u64("resubmits", 0)));
}

/// Per-rung counts summed over rounds; p99 and backlog are medians over
/// rounds.
void set_rung_metrics(Report& report, const std::vector<RungSummary>& segments) {
  for (std::size_t r = 0; r < kRungs; ++r) {
    const std::string prefix = "loadgen.rung" + std::to_string(r) + ".";
    double sent = 0.0, succeeded = 0.0, failed = 0.0, refused = 0.0;
    std::vector<double> p99, backlog;
    for (std::size_t i = r; i < segments.size(); i += kRungs) {
      const RungSummary& s = segments[i];
      sent += static_cast<double>(s.sent);
      succeeded += static_cast<double>(s.succeeded);
      failed += static_cast<double>(s.failed);
      refused += static_cast<double>(s.refused);
      p99.push_back(s.p99_ms);
      backlog.push_back(s.backlog);
    }
    report.set(prefix + "rate", kRates[r]);
    report.set(prefix + "sent", sent);
    report.set(prefix + "succeeded", succeeded);
    report.set(prefix + "failed", failed);
    report.set(prefix + "refused", refused);
    report.set(prefix + "p99_ms", median(p99));
    report.set(prefix + "backlog", median(backlog));
  }
}

/// Trials per second completed on a rung (open loop: close to the offered
/// rate while the fleet keeps up).
double rung_trials_per_s(const RungSummary& s) {
  return static_cast<double>(s.succeeded * kTrials) / (s.elapsed_ms / 1e3);
}

/// The traced layer pass: one job of each class planned, executed and
/// replayed by the benchmark itself, as the service would run it solo.
void layer_pass(Report& report, std::uint64_t seed, double roof_gbps) {
  LayerPass total;
  KernelReplay replay;
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const Workload load = build_workload(yorktown(job_circuit(kClasses[c], seed, c)));
    const LayerPass pass = run_layer_pass(load.circuit, load.noise, kTrials, seed, 1,
                                          /*plan_only=*/false, kClasses[c].frames);
    if (pass.planned_ops != pass.predicted_ops) {
      report.mismatch("layer pass planned ops differ from predict_cached_ops");
    }
    add_pass(total, pass);
    replay_gates(load.circuit, 20.0, replay);
  }
  set_pass_metrics(report, total, replay, 5, pool_copy_ms(5, 50), 1, roof_gbps);
}

}  // namespace

int run_fleet_workload(const Options& options, Report& report) {
  std::filesystem::create_directories(options.run_dir);
  std::filesystem::current_path(options.run_dir);

  // Set-up: start the backends and the router, connect, and first-touch
  // every job class with one job through the router.
  std::vector<double> setup_s;
  std::optional<Fleet> fleet;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fleet.reset();
    const telemetry::Stopwatch watch;
    fleet.emplace();
    ServiceClient client = fleet->connect();
    for (std::size_t c = 0; c < kClassCount; ++c) {
      SubmitParams params;
      params.trials = kTrials;
      params.frames = kClasses[c].frames;
      const Json accepted = client.request(
          make_submit_request(yorktown(job_circuit(kClasses[c], 0, c)), params));
      Json wait = op_request("wait");
      wait.set("job", Json(accepted.get_u64("job", 0)));
      if (!accepted.get_bool("ok", false) ||
          client.request(wait).get_string("state", "") != "done") {
        report.mismatch("set-up job of class " + std::to_string(c) + " did not finish");
      }
    }
    setup_s.push_back(watch.elapsed_ms() / 1e3);
  }
  ServiceClient submitter = fleet->connect();
  ServiceClient stats_client = fleet->connect();

  const std::size_t rounds = ladder_rounds(options.seconds);
  std::vector<std::size_t> bounds;
  std::vector<Job> jobs = run_ladder(*fleet, submitter, options.seed, rounds, bounds);
  const double rss = peak_rss_mb();
  std::vector<std::size_t> nominal_jobs;
  for (std::size_t i = kNominal; i < rounds * kRungs; i += kRungs) {
    for (std::size_t j = bounds[i]; j < bounds[i + 1]; ++j) {
      nominal_jobs.push_back(j);
    }
  }

  std::vector<Job> traced;
  if (options.trace) {
    const double roof = copy_roof_gbps();
    set_service_metrics(report, *fleet, stats_client, jobs, nominal_jobs);
    telemetry::set_thread_lane("perfbench.main");
    telemetry::start_tracing();
    Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
    traced = make_rung(kNominal, kRates[kNominal], kMinJobs, jobs.size(), rng);
    run_rung(*fleet, submitter, traced);
    layer_pass(report, options.seed, roof);
    telemetry::stop_tracing();
    if (telemetry::export_trace(options.trace_out) < 0) {
      report.mismatch("cannot write trace " + options.trace_out);
    }
    report.set("trace.dropped_events",
               static_cast<double>(telemetry::trace_dropped_events()));
  }

  const std::vector<char> ok = check_jobs(jobs);
  std::vector<RungSummary> segments;  // round-major, kRungs per round
  for (std::size_t i = 0; i < rounds * kRungs; ++i) {
    segments.push_back(summarize(jobs, ok, bounds[i], bounds[i + 1], kRates[i % kRungs]));
  }
  report.attempted += jobs.size();
  for (const RungSummary& s : segments) {
    report.failed += s.failed + s.refused;
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].done && !ok[i]) {
      report.correct = false;
      note("job " + std::to_string(i) + " (" + jobs[i].circuit +
           ") differs from its solo run_noisy");
    }
  }

  // The nominal rate's figures: throughput over all its rounds, latency as
  // the median over rounds of each round's p50 and p99.
  double max_rate = 0.0, nominal_ms = 0.0, nominal_done = 0.0;
  std::vector<double> p50, p99;
  for (std::size_t r = 0; r < kRungs; ++r) {
    std::size_t in_slo = 0;
    for (std::size_t i = r; i < segments.size(); i += kRungs) {
      in_slo += segments[i].in_slo ? 1 : 0;
      if (r == kNominal) {
        nominal_ms += segments[i].elapsed_ms;
        nominal_done += static_cast<double>(segments[i].succeeded);
        p50.push_back(segments[i].p50_ms);
        p99.push_back(segments[i].p99_ms);
      }
    }
    if (2 * in_slo > rounds) {
      max_rate = kRates[r];
    }
  }
  double ops = 0.0, baseline_ops = 0.0, msv_sum = 0.0, finished = 0.0;
  std::vector<double> lag;
  for (const std::size_t i : nominal_jobs) {
    lag.push_back(jobs[i].sent_ms - jobs[i].due_ms);
    if (jobs[i].done) {
      const Json& result = jobs[i].result.at("result");
      ops += result.get_number("ops", 0.0);
      baseline_ops += result.get_number("baseline_ops", 0.0);
      msv_sum += result.get_number("max_live_states", 0.0);
      finished += 1.0;
    }
  }
  const double nominal_jobs_per_s = nominal_done / (nominal_ms / 1e3);
  report.set("setup_s", median(setup_s));
  report.set("trials_per_s", nominal_jobs_per_s * static_cast<double>(kTrials));
  report.set("normalized_computation", baseline_ops > 0.0 ? ops / baseline_ops : 0.0);
  // Mean per-job MSV: the maximum over a thousand jobs flips between
  // neighbouring integers from seed to seed.
  report.set("msv", finished > 0.0 ? msv_sum / finished : 0.0);
  report.set("peak_rss_mb", rss);
  report.set("jobs_per_s", nominal_jobs_per_s);
  report.set("max_rate_in_slo", max_rate);
  report.set("job_p50_ms", median(p50));
  report.set("job_p99_ms", median(p99));
  report.set("loadgen.lag_ms.p99", percentile(lag, 0.99));
  set_rung_metrics(report, segments);

  if (options.trace) {
    const std::vector<char> traced_ok = check_jobs(traced);
    report.attempted += traced.size();
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (!traced[i].done || !traced_ok[i]) {
        report.mismatch("traced job " + std::to_string(i) + " failed its check");
      }
    }
    const RungSummary traced_rung =
        summarize(traced, traced_ok, 0, traced.size(), kRates[kNominal]);
    report.set("trace.overhead_trials_per_s",
               rung_trials_per_s(traced_rung) -
                   nominal_jobs_per_s * static_cast<double>(kTrials));
  }
  report.set("failed_frac",
             static_cast<double>(report.failed) / static_cast<double>(report.attempted));
  for (const RungSummary& s : segments) {
    note("rung " + std::to_string(s.rate) + "/s: sent " + std::to_string(s.sent) +
         " ok " + std::to_string(s.succeeded) + " p50 " + std::to_string(s.p50_ms) +
         " ms p99 " + std::to_string(s.p99_ms) + " ms backlog " +
         std::to_string(s.backlog) + (s.in_slo ? " in SLO" : " OUT of SLO"));
  }
  return 0;
}

}  // namespace rqsim::perfbench
