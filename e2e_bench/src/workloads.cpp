#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cc/cc_domain.h"
#include "env/abr_domain.h"
#include "nn/mat_kernels.h"
#include "obs/metrics.h"
#include "search/search_job.h"
#include "search/shard_runner.h"
#include "store/candidate_store.h"
#include "store/fingerprint.h"
#include "svc/lease_log.h"
#include "svc/supervisor.h"
#include "tools/cli_common.h"
#include "tracing.h"
#include "util/fs.h"
#include "util/thread_pool.h"

namespace e2e {

using nada::util::JsonValue;
namespace search = nada::search;
namespace store = nada::store;

namespace {

/// Seconds on the steady clock (the clock every benchmark timing uses).
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- workload definitions ------------------------------------------------

/// Every SearchConfig and TrainConfig field, written out: the benchmark
/// measures these settings whatever the library's defaults become.
search::SearchConfig funnel_config(std::size_t candidates,
                                   std::size_t full_train_top,
                                   std::size_t seeds, std::size_t window) {
  search::SearchConfig c;
  c.num_candidates = candidates;
  c.early_epochs = 8;
  c.full_train_top = full_train_top;
  c.seeds = seeds;
  c.train.epochs = 24;
  c.train.test_interval = 8;
  c.train.gamma = 0.99;
  c.train.learning_rate = 1e-3;
  c.train.entropy_start = 1.0;
  c.train.entropy_end = 0.05;
  c.train.critic_weight = 0.5;
  c.train.grad_clip = 5.0;
  c.train.reward_scale = 0.0;
  c.train.normalize_advantages = false;
  c.train.advantage_clip = 0.0;
  c.train.huber_delta = 1.0;
  c.train.fidelity = nada::env::Fidelity::kSimulation;
  c.train.evaluate_checkpoints = true;
  c.train.max_eval_traces = 4;
  c.train.emulation_final_eval = false;
  // Pensieve's towers at demo widths (conv filters, rnn hidden, scalar
  // hidden, merge hidden); every other ArchSpec field keeps Pensieve's.
  c.baseline_arch = nada::nn::ArchSpec::pensieve();
  c.baseline_arch.conv_filters = 8;
  c.baseline_arch.rnn_hidden = 8;
  c.baseline_arch.scalar_hidden = 8;
  c.baseline_arch.merge_hidden = 16;
  c.normalization_threshold = 100.0;
  c.normalization_fuzz_runs = 16;
  c.probe_batch = true;
  c.probe_block = 4;
  c.window_size = window;
  return c;
}

std::size_t pool_threads() {
  const std::size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 4);
}

}  // namespace

Workload find_workload(const std::string& name, bool quick, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.gen_seed = seed;
  if (name == "abr-state-stream") {
    w.domain = "abr";
    w.kind = "state";
    w.config = funnel_config(quick ? 48 : 2000, 3, 2, 64);
  } else if (name == "cc-arch-train") {
    w.domain = "cc";
    w.kind = "arch";
    w.threads = pool_threads();
    // Every probed design gets a full-training slot (full_train_top ==
    // num_candidates) and the candidate stream is fixed: what a stream of
    // tens of architectures costs to train varies about 2x between
    // generator seeds, so this workload's seed drives the job seed (probe,
    // training and baseline seeds) instead of the generator.
    w.gen_seed = 77;
    w.job_seed = seed;
    w.config = quick ? funnel_config(12, 12, 2, 0) : funnel_config(48, 48, 2, 0);
  } else if (name == "abr-state-resume") {
    w.domain = "abr";
    w.kind = "state";
    w.mode = Mode::kResume;
    w.config = funnel_config(quick ? 160 : 40000, 3, 2, 64);
  } else if (name == "cc-state-supervised") {
    // The workers build their search with tools::make_search_setup; the
    // checks fail the round if the driver's config below scopes
    // differently (the merge pass would then re-probe what the workers
    // journaled).
    w.domain = "cc";
    w.kind = "state";
    w.mode = Mode::kSupervised;
    w.workers = 3;
    w.config = funnel_config(quick ? 48 : 768, 3, 2, 0);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // The supervised workers build the CLIs' demo config, which keeps 24
  // epochs at every size; the other workloads shrink training in quick mode.
  if (quick && w.mode != Mode::kSupervised) w.config.train.epochs = 8;
  return w;
}

namespace {

// ---- report helpers --------------------------------------------------------

JsonValue num(double v) { return JsonValue::number(v); }
JsonValue str(std::string v) { return JsonValue::string(std::move(v)); }

JsonValue config_json(const Workload& w) {
  const auto& c = w.config;
  JsonValue j = JsonValue::object();
  j.set("domain", str(w.domain));
  j.set("kind", str(w.kind));
  j.set("threads", num(static_cast<double>(w.threads)));
  j.set("workers", num(static_cast<double>(w.workers)));
  j.set("gen_seed", num(static_cast<double>(w.gen_seed)));
  j.set("job_seed", num(static_cast<double>(w.job_seed)));
  j.set("num_candidates", num(static_cast<double>(c.num_candidates)));
  j.set("early_epochs", num(static_cast<double>(c.early_epochs)));
  j.set("full_train_top", num(static_cast<double>(c.full_train_top)));
  j.set("seeds", num(static_cast<double>(c.seeds)));
  j.set("normalization_threshold", num(c.normalization_threshold));
  j.set("normalization_fuzz_runs",
        num(static_cast<double>(c.normalization_fuzz_runs)));
  j.set("probe_batch", JsonValue::boolean(c.probe_batch));
  j.set("probe_block", num(static_cast<double>(c.probe_block)));
  j.set("window_size", num(static_cast<double>(c.window_size)));
  j.set("train", str(store::canonical_train_config(c.train)));
  j.set("baseline_arch", str(store::canonical_arch(c.baseline_arch)));
  return j;
}

JsonValue environment_json() {
  JsonValue j = JsonValue::object();
  j.set("kernel_flavor",
        str(nada::nn::kernel_flavor_name(nada::nn::kernel_flavor())));
  j.set("store_format",
        str(store::journal_extension(store::store_format_from_env())));
  j.set("nproc", num(static_cast<double>(std::thread::hardware_concurrency())));
  j.set("compiler", str(E2E_CXX_COMPILER));
  return j;
}

/// This process's peak resident set since exec, in KiB (VmHWM). Unlike
/// getrusage's ru_maxrss it does not inherit the high-water mark of the
/// process image exec replaced (run.py's interpreter).
long self_peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// CPU seconds and peak RSS (MB) of this process and every child it has
/// reaped (the supervisor reaps its workers).
void add_usage(JsonValue& out) {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  out.set("cpu_s", num(secs(self.ru_utime) + secs(self.ru_stime) +
                       secs(children.ru_utime) + secs(children.ru_stime)));
  // KiB; RUSAGE_CHILDREN reports the largest single reaped descendant, not
  // a sum, so this is the largest resident set of any process of the round.
  out.set("peak_rss_mb",
          num(static_cast<double>(std::max(self_peak_rss_kib(), children.ru_maxrss)) /
              1024.0));
}

JsonValue result_json(const search::SearchResult& r) {
  JsonValue j = JsonValue::object();
  const auto set = [&](const char* key, std::size_t v) {
    j.set(key, num(static_cast<double>(v)));
  };
  set("n_total", r.n_total);
  set("n_compiled", r.n_compiled);
  set("n_normalized", r.n_normalized);
  set("n_early_stopped", r.n_early_stopped);
  set("n_fully_trained", r.n_fully_trained);
  set("n_out_of_shard", r.n_out_of_shard);
  set("n_precheck_cache_hits", r.n_precheck_cache_hits);
  set("n_probe_cache_hits", r.n_probe_cache_hits);
  set("n_full_cache_hits", r.n_full_cache_hits);
  set("n_probes_run", r.n_probes_run);
  set("n_full_trains_run", r.n_full_trains_run);
  j.set("baseline_score", num(r.original_score));
  j.set("best_score", num(r.best_score));
  j.set("best_position",
        num(r.has_best() ? static_cast<double>(r.outcomes[r.best_index].stream_index)
                         : -1.0));
  // Full-training cohort as the program reports it: [position, id,
  // fully_trained, test_score] per selected candidate.
  JsonValue selected = JsonValue::array();
  for (const auto& o : r.outcomes) {
    if (!o.early_probed || o.early_stopped) continue;
    JsonValue row = JsonValue::array();
    row.push_back(num(static_cast<double>(o.stream_index)));
    row.push_back(str(o.id));
    row.push_back(JsonValue::boolean(o.fully_trained));
    row.push_back(num(o.test_score));
    selected.push_back(std::move(row));
  }
  j.set("selected", std::move(selected));
  return j;
}

/// The program's ranking, as the search CLIs print it
/// (tools::print_ranking: RANK,<rank>,<id>,<fingerprint>,<score>), with the
/// full-precision score and stream position of each line attached.
JsonValue ranking_json(const search::SearchResult& result,
                       search::CandidateSource& source,
                       const search::FixedDesign& fixed,
                       std::size_t num_candidates) {
  std::ostringstream printed;
  nada::tools::print_ranking(
      printed, result,
      nada::tools::ranked_fingerprints(source, fixed, result, num_candidates));
  JsonValue rows = JsonValue::array();
  std::istringstream lines(printed.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("RANK,", 0) != 0) continue;
    std::vector<std::string> f;
    std::stringstream fields(line);
    for (std::string cell; std::getline(fields, cell, ',');) f.push_back(cell);
    if (f.size() != 5) throw std::runtime_error("malformed ranking line " + line);
    // The id names the outcome; ids are unique per stream position.
    const auto it = std::find_if(
        result.outcomes.begin(), result.outcomes.end(),
        [&](const search::CandidateOutcome& o) {
          return o.fully_trained && o.id == f[2];
        });
    if (it == result.outcomes.end()) {
      throw std::runtime_error("ranking line names no outcome: " + line);
    }
    JsonValue row = JsonValue::object();
    row.set("rank", num(std::stod(f[1])));
    row.set("id", str(f[2]));
    row.set("fingerprint", str(f[3]));
    row.set("position", num(static_cast<double>(it->stream_index)));
    row.set("score", num(it->test_score));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Stage-step loop shared by local and resume rounds: one operation per
/// next_stage() call. A step that throws ends the round (the job cannot
/// continue) and is counted as failed.
struct StepLoop {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string error;
  std::vector<double> stage_seconds =
      std::vector<double>(static_cast<int>(search::StageKind::kDone), 0.0);
  std::size_t generate_steps = 0;

  void run(search::SearchJob& job) {
    while (!job.done()) {
      const search::StageKind stage = job.next_stage_kind();
      const double start = now_seconds();
      ++attempted;
      try {
        job.next_stage();
      } catch (const std::exception& e) {
        ++failed;
        error = std::string(search::stage_label(stage)) + ": " + e.what();
        return;
      }
      stage_seconds[static_cast<int>(stage)] += now_seconds() - start;
      if (stage == search::StageKind::kGenerate) ++generate_steps;
    }
  }
};

/// Per-layer numbers of a traced round.
struct Layers {
  EnvTallies env;
  Tally gen;
  nada::obs::MetricsRegistry registry;
  std::vector<double> stage_seconds =
      std::vector<double>(static_cast<int>(search::StageKind::kDone), 0.0);
  std::size_t windows = 0;
  double store_open_s = 0.0;
  std::size_t store_records = 0;
  double svc_supervise_s = 0.0;
  double svc_merge_rank_s = 0.0;
  std::size_t workers_spawned = 0;
  std::size_t leases_completed = 0;
  /// Worker processes' MetricsRegistry snapshots (--metrics-out).
  std::vector<JsonValue> worker_snapshots;
};

double counter_sum(const std::vector<const JsonValue*>& snaps,
                   const std::string& name) {
  double total = 0.0;
  for (const JsonValue* s : snaps) {
    total += s->get("counters").get(name).as_number(0.0);
  }
  return total;
}

double histogram_sum(const std::vector<const JsonValue*>& snaps,
                     const std::string& name) {
  double total = 0.0;
  for (const JsonValue* s : snaps) {
    total += s->get("histograms").get(name).get("sum").as_number(0.0);
  }
  return total;
}

JsonValue layers_json(const Layers& l, const search::SearchResult& r) {
  const JsonValue own = l.registry.snapshot();
  std::vector<const JsonValue*> snaps{&own};
  for (const JsonValue& s : l.worker_snapshots) snaps.push_back(&s);
  // Stage seconds: the benchmark's own clock for this process; worker
  // processes contribute their MetricsObserver stage histograms.
  const auto stage_s = [&](search::StageKind k) {
    return l.stage_seconds[static_cast<int>(k)] +
           histogram_sum(snaps, std::string("search.stage.") +
                                    search::stage_label(k) + ".seconds");
  };
  JsonValue j = JsonValue::object();
  const auto set = [&](const char* key, double v) { j.set(key, num(v)); };
  set("search.generate_s", stage_s(search::StageKind::kGenerate));
  set("search.precheck_s", stage_s(search::StageKind::kPrecheck));
  set("search.probe_s", stage_s(search::StageKind::kProbe));
  set("search.baseline_s", stage_s(search::StageKind::kBaseline));
  set("search.select_s", stage_s(search::StageKind::kSelect));
  set("search.full_train_s", stage_s(search::StageKind::kFullTrain));
  set("search.rank_s", stage_s(search::StageKind::kRank));
  set("search.windows",
      static_cast<double>(l.windows) +
          counter_sum(snaps, "search.stage.generate.runs"));
  set("search.probes_run", static_cast<double>(r.n_probes_run) +
                               counter_sum(snaps, "search.candidates.probed"));
  set("search.full_trains_run", static_cast<double>(r.n_full_trains_run));
  set("search.cache_hits", static_cast<double>(r.cache_hits()) +
                               counter_sum(snaps, "search.candidates.cache_hits"));
  set("gen.generate_s", l.gen.seconds());
  set("gen.candidates", static_cast<double>(l.gen.count.load()));
  set("env.step_s", l.env.step.seconds());
  set("env.steps", static_cast<double>(l.env.step.count.load()));
  set("env.reset_s", l.env.reset.seconds());
  set("env.episodes", static_cast<double>(l.env.reset.count.load()));
  set("rl.probe_block_s", histogram_sum(snaps, "rl.probe_block.seconds"));
  set("rl.probe_blocks", counter_sum(snaps, "rl.probe_blocks"));
  set("rl.probe_block_candidates", counter_sum(snaps, "rl.probe_block_candidates"));
  set("dsl.exec_runs", counter_sum(snaps, "dsl.exec.runs"));
  set("dsl.instructions", counter_sum(snaps, "dsl.exec.instructions"));
  set("dsl.cost_units", counter_sum(snaps, "dsl.exec.cost_units"));
  set("nn.matmul_calls", counter_sum(snaps, "nn.matmul.calls"));
  set("nn.matmul_flops", counter_sum(snaps, "nn.matmul.flops"));
  set("store.open_s", l.store_open_s);
  set("store.records", static_cast<double>(l.store_records));
  set("store.lookups", counter_sum(snaps, "store.lookups"));
  set("store.lookup_hits", counter_sum(snaps, "store.lookup_hits"));
  set("store.lookup_s", histogram_sum(snaps, "store.lookup.seconds"));
  set("store.appends", counter_sum(snaps, "store.appends"));
  set("store.append_s", histogram_sum(snaps, "store.append.seconds"));
  set("svc.supervise_s", l.svc_supervise_s);
  set("svc.merge_rank_s", l.svc_merge_rank_s);
  set("svc.workers_spawned", static_cast<double>(l.workers_spawned));
  set("svc.leases_completed", static_cast<double>(l.leases_completed));
  return j;
}

// ---- rounds ----------------------------------------------------------------

/// Everything a round builds before its first stage: domain data, the
/// candidate stream, the thread pool, and either the store + job (local
/// and resume rounds) or the shard runner (supervised rounds). Traced
/// rounds put the timing decorators between the funnel and the domain and
/// source. Members are declared so that destruction runs job -> store ->
/// pool -> stream -> domain.
struct RoundSetup {
  std::unique_ptr<DomainData> data;
  std::unique_ptr<TimedDomain> timed_domain;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<TimedSource> timed_source;
  std::unique_ptr<nada::util::ThreadPool> pool;
  std::unique_ptr<store::CandidateStore> cache;
  std::unique_ptr<search::SearchJob> job;
  std::unique_ptr<search::ShardRunner> runner;
  std::string journal;
  double store_open_s = 0.0;

  [[nodiscard]] const nada::env::TaskDomain& domain() const {
    return timed_domain ? *timed_domain : *data->domain;
  }
  [[nodiscard]] search::CandidateSource& source() const {
    return timed_source ? *timed_source : *stream->source;
  }
};

std::unique_ptr<RoundSetup> set_up(const Workload& w, const RoundOptions& o,
                                   Layers& layers) {
  auto s = std::make_unique<RoundSetup>();
  s->data = build_domain(w.domain);
  if (o.trace) s->timed_domain = std::make_unique<TimedDomain>(*s->data->domain, layers.env);
  s->stream = make_stream(w, s->domain());
  if (o.trace) s->timed_source = std::make_unique<TimedSource>(*s->stream->source, layers.gen);
  if (w.threads > 0) s->pool = std::make_unique<nada::util::ThreadPool>(w.threads);
  if (w.mode == Mode::kSupervised) {
    search::ShardRunnerConfig shard_config;
    shard_config.num_shards = 1;  // lease ranges replace static shards
    shard_config.store_dir = o.dir + "/svc";
    if (o.trace) shard_config.metrics = &layers.registry;
    s->runner = std::make_unique<search::ShardRunner>(
        s->domain(), w.config, w.job_seed, shard_config, s->pool.get());
    return s;
  }
  const auto scope = search::store_scope(s->domain(), w.config, w.job_seed);
  s->journal = journal_file(scope, o.dir);
  const double open_start = now_seconds();
  s->cache = std::make_unique<store::CandidateStore>(s->journal, scope);
  s->store_open_s = now_seconds() - open_start;
  search::JobOptions options;
  options.store = s->cache.get();
  options.pool = s->pool.get();
  if (o.trace) options.metrics = &layers.registry;
  s->job = std::make_unique<search::SearchJob>(s->domain(), w.config, w.job_seed,
                                               s->source(), s->stream->fixed,
                                               options);
  return s;
}

/// Builds the round's set-up once, cold, in this fresh process: what a user
/// pays at the start of every search. setup_s is its duration; run.py
/// reports the median over the rounds of a run.
std::unique_ptr<RoundSetup> timed_set_up(const Workload& w, const RoundOptions& o,
                                         Layers& layers, double& setup_s) {
  const double start = now_seconds();
  auto s = set_up(w, o, layers);
  setup_s = now_seconds() - start;
  return s;
}

/// A local (cold) or resume round: one SearchJob over one store, stepped
/// stage by stage.
JsonValue run_job_round(const Workload& w, const RoundOptions& o) {
  Layers layers;
  double setup_s = 0.0;
  const auto s = timed_set_up(w, o, layers, setup_s);
  PositionLog positions;
  s->job->add_observer(&positions);

  // A resume rewinds the stream exactly as SearchJob::resume() does, then
  // steps the funnel against the journal.
  if (w.mode == Mode::kResume) s->source().reset();
  const double search_start = now_seconds();
  StepLoop loop;
  loop.run(*s->job);
  const double search_end = now_seconds();

  JsonValue out = JsonValue::object();
  out.set("setup_s", num(setup_s));
  out.set("search_s", num(search_end - search_start));
  add_usage(out);
  out.set("steps_attempted", num(static_cast<double>(loop.attempted)));
  out.set("steps_failed", num(static_cast<double>(loop.failed)));
  out.set("error", str(loop.error));
  const search::SearchResult& result = s->job->result();
  out.set("result", result_json(result));
  out.set("events", str(positions.encode()));
  if (loop.failed == 0) {
    out.set("ranking", ranking_json(result, *s->stream->source, s->stream->fixed,
                                    w.config.num_candidates));
  }
  JsonValue journals = JsonValue::array();
  journals.push_back(str(s->journal));
  out.set("journals", std::move(journals));
  if (o.trace) {
    layers.stage_seconds = loop.stage_seconds;
    layers.windows = loop.generate_steps;
    layers.store_open_s = s->store_open_s;
    layers.store_records = s->cache->size();
    out.set("layers", layers_json(layers, result));
  }
  return out;
}

/// cc-state-supervised: svc::Supervisor over shard_worker lease processes,
/// then the driver's merge + global selection + full training pass.
JsonValue run_supervised_round(const Workload& w, const RoundOptions& o) {
  Layers layers;
  double setup_s = 0.0;
  const auto s = timed_set_up(w, o, layers, setup_s);
  search::ShardRunner& runner = *s->runner;
  const std::string svc_dir = o.dir + "/svc";

  nada::svc::SupervisorConfig sc;
  sc.num_workers = w.workers;
  sc.initial_leases = 0;
  sc.max_restarts = 3;
  // Generous: a loaded machine must not turn a slow worker into a stale
  // kill (which would count as a failed operation).
  sc.heartbeat_timeout_seconds = 120.0;
  sc.poll_interval_seconds = 0.05;
  sc.dir = svc_dir;
  sc.prefix = runner.service_prefix();
  sc.resume = false;
  const auto command = [&](const nada::svc::Lease& lease) {
    std::vector<std::string> argv{
        E2E_SHARD_WORKER_BIN, "--mode", "worker",
        "--journal", lease.journal_path,
        "--range-lo", nada::svc::hex_u64(lease.range.lo),
        "--range-hi", nada::svc::hex_u64(lease.range.hi),
        "--store-dir", svc_dir,
        "--domain", w.domain,
        "--search", w.kind,
        "--candidates", std::to_string(w.config.num_candidates),
        "--seed", std::to_string(w.job_seed),
        "--gen-seed", std::to_string(w.gen_seed),
        "--window", std::to_string(w.config.window_size),
        "--quiet"};
    if (o.trace) {
      argv.push_back("--metrics-out");
      argv.push_back(lease.journal_path + ".metrics.json");
    }
    return argv;
  };
  nada::svc::Supervisor supervisor(sc, command);

  const double search_start = now_seconds();
  const nada::svc::SupervisorReport report = supervisor.run();
  const double supervised = now_seconds();
  StageClock clock;
  PositionLog positions;
  std::vector<search::Observer*> observers{&positions, &clock};
  std::size_t failed = 0;
  std::string error;
  search::SearchResult result;
  if (!report.success) {
    ++failed;
    error = "supervisor: " + report.error;
  } else {
    try {
      result = runner.merge_and_rank_paths(report.journal_paths, s->source(),
                                           s->stream->fixed, nullptr, observers);
    } catch (const std::exception& e) {
      ++failed;
      error = std::string("merge: ") + e.what();
    }
  }
  const double search_end = now_seconds();

  JsonValue out = JsonValue::object();
  out.set("setup_s", num(setup_s));
  out.set("search_s", num(search_end - search_start));
  add_usage(out);
  // Operations: the leases granted plus the merge pass's stage steps. A
  // lease that crashed or was restarted is a failed operation; a merge pass
  // that never started counts as one failed step.
  const std::size_t steps = std::max<std::size_t>(clock.started, failed);
  out.set("steps_attempted", num(static_cast<double>(report.spawned + steps)));
  out.set("steps_failed",
          num(static_cast<double>(report.crash_restarts + report.stale_kills +
                                  failed)));
  out.set("error", str(error));
  out.set("result", result_json(result));
  out.set("events", str(positions.encode()));
  if (failed == 0) {
    out.set("ranking", ranking_json(result, *s->stream->source, s->stream->fixed,
                                    w.config.num_candidates));
  }
  JsonValue sup = JsonValue::object();
  sup.set("success", JsonValue::boolean(report.success));
  sup.set("leases_planned", num(static_cast<double>(report.leases_planned)));
  sup.set("leases_completed", num(static_cast<double>(report.leases_completed)));
  sup.set("spawned", num(static_cast<double>(report.spawned)));
  sup.set("crash_restarts", num(static_cast<double>(report.crash_restarts)));
  sup.set("stale_kills", num(static_cast<double>(report.stale_kills)));
  sup.set("splits", num(static_cast<double>(report.splits)));
  JsonValue leases = JsonValue::array();
  for (const auto& p : report.journal_paths) leases.push_back(str(p));
  sup.set("lease_journals", std::move(leases));
  sup.set("merged_journal", str(runner.merged_store_path()));
  out.set("supervisor", std::move(sup));
  JsonValue journals = JsonValue::array();
  for (const auto& p : report.journal_paths) journals.push_back(str(p));
  journals.push_back(str(runner.merged_store_path()));
  out.set("journals", std::move(journals));
  if (o.trace) {
    layers.stage_seconds = clock.seconds;
    layers.windows = clock.generate_steps;
    layers.svc_supervise_s = supervised - search_start;
    layers.svc_merge_rank_s = search_end - supervised;
    layers.workers_spawned = report.spawned;
    layers.leases_completed = report.leases_completed;
    for (const auto& p : report.journal_paths) {
      if (auto text = nada::util::read_file_if_exists(p + ".metrics.json")) {
        layers.worker_snapshots.push_back(JsonValue::parse(*text));
      }
    }
    out.set("layers", layers_json(layers, result));
  }
  return out;
}

}  // namespace

std::unique_ptr<DomainData> build_domain(const std::string& domain) {
  auto data = std::make_unique<DomainData>();
  if (domain == "abr") {
    data->dataset =
        nada::trace::build_dataset(nada::trace::Environment::k4G, 0.05, 21);
    data->video =
        nada::video::make_test_video(nada::video::youtube_ladder(), 42);
    data->domain =
        std::make_unique<nada::env::AbrDomain>(data->dataset, *data->video);
  } else {
    data->dataset =
        nada::trace::build_dataset(nada::trace::Environment::k4G, 0.2, 7);
    data->cc_config.init_rate_mbps = 2.0;
    data->cc_config.steps_per_episode = 60;
    data->domain =
        std::make_unique<nada::cc::CcDomain>(data->dataset, data->cc_config);
  }
  return data;
}

std::unique_ptr<Stream> make_stream(const Workload& w,
                                    const nada::env::TaskDomain& domain) {
  auto s = std::make_unique<Stream>();
  if (w.kind == "state") {
    s->state_gen = std::make_unique<nada::gen::StateGenerator>(
        w.domain == "cc" ? nada::gen::cc_state_space()
                         : nada::gen::abr_state_space(),
        nada::gen::gpt4_profile(), nada::gen::PromptStrategy{}, w.gen_seed);
    s->source = std::make_unique<search::StateCandidateSource>(*s->state_gen);
    s->fixed.arch = &w.config.baseline_arch;
  } else {
    s->arch_gen = std::make_unique<nada::gen::ArchGenerator>(
        nada::gen::gpt4_profile(), nada::gen::PromptStrategy{}, w.gen_seed, 0.25);
    s->source = std::make_unique<search::ArchCandidateSource>(*s->arch_gen);
    s->fixed_state =
        nada::dsl::StateProgram::compile(domain.baseline_state_source());
    s->fixed.state = &*s->fixed_state;
  }
  return s;
}

std::string journal_file(const store::StoreScope& scope, const std::string& dir) {
  return dir + "/" + scope.env + "-" + scope.config_digest.substr(0, 12) +
         store::journal_extension(store::store_format_from_env());
}

JsonValue run_round(const Workload& w, const RoundOptions& o) {
  nada::util::ensure_directories(o.dir);
  JsonValue out = w.mode == Mode::kSupervised ? run_supervised_round(w, o)
                                              : run_job_round(w, o);
  out.set("workload", str(w.name));
  out.set("trace", JsonValue::boolean(o.trace));
  out.set("config", config_json(w));
  out.set("environment", environment_json());
  return out;
}

JsonValue collect_evidence(const Workload& w,
                           const std::vector<std::string>& journals) {
  auto data = build_domain(w.domain);
  auto stream = make_stream(w, *data->domain);
  JsonValue positions = JsonValue::array();
  std::size_t pulled = 0;
  while (pulled < w.config.num_candidates) {
    const auto window = stream->source->generate(
        std::min<std::size_t>(256, w.config.num_candidates - pulled));
    if (window.empty()) break;
    for (const auto& spec : window) {
      JsonValue row = JsonValue::array();
      row.push_back(str(spec.id));
      row.push_back(str(search::fingerprint_of(spec, stream->fixed).hex()));
      positions.push_back(std::move(row));
    }
    pulled += window.size();
  }
  const auto scope = search::store_scope(*data->domain, w.config, w.job_seed);
  JsonValue stores = JsonValue::array();
  for (const std::string& path : journals) {
    JsonValue records = JsonValue::array();
    if (nada::util::read_file_if_exists(path).has_value()) {
      store::CandidateStore journal(path, scope);
      for (const auto& r : journal.records()) {
        JsonValue row = JsonValue::object();
        row.set("fp", str(r.fingerprint.hex()));
        row.set("stage", num(static_cast<double>(static_cast<int>(r.stage))));
        row.set("id", str(r.id));
        row.set("compiled", JsonValue::boolean(r.compiled));
        row.set("normalized", JsonValue::boolean(r.normalized));
        row.set("early_probed", JsonValue::boolean(r.early_probed));
        JsonValue rewards = JsonValue::array();
        for (double x : r.early_rewards) rewards.push_back(num(x));
        row.set("early_rewards", std::move(rewards));
        row.set("fully_trained", JsonValue::boolean(r.fully_trained));
        row.set("test_score", num(r.test_score));
        row.set("curve_len", num(static_cast<double>(r.median_curve.size())));
        records.push_back(std::move(row));
      }
    }
    stores.push_back(std::move(records));
  }
  JsonValue out = JsonValue::object();
  out.set("stream", std::move(positions));
  out.set("journals", std::move(stores));
  return out;
}

}  // namespace e2e
