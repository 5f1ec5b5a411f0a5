// The abr-state-resume journal: tens of thousands of records for the real
// candidate stream under the real store scope, written through the store's
// public API before the timed rounds.
//
// Only the probe and full-training numbers are synthesized (probing every
// candidate for real would take minutes). Everything else is what a cold
// run journals: real ids, sources and fingerprints from the generator;
// real pre-check verdicts (compile + normalization fuzzing with the
// funnel's own seed derivation), so the stage mix is the stream's own; a
// checked record followed by a probed record for every probed candidate,
// as a streaming run appends them; probe curves of early_epochs rewards
// and full-run curves of epochs / test_interval checkpoints; and trained
// records on exactly the positions the documented selection rule picks
// from the probe curves.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "filter/checks.h"
#include "search/search_job.h"
#include "store/candidate_store.h"
#include "util/fs.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {
namespace {

/// The documented selection key: mean of the last max(n/4, 4) probe
/// rewards.
double tail_score(const std::vector<double>& rewards) {
  if (rewards.empty()) return -1e9;
  const std::size_t k = std::max<std::size_t>(rewards.size() / 4, 4);
  const std::size_t start = rewards.size() > k ? rewards.size() - k : 0;
  double sum = 0.0;
  for (std::size_t i = start; i < rewards.size(); ++i) sum += rewards[i];
  return sum / static_cast<double>(rewards.size() - start);
}

nada::util::Rng record_rng(std::uint64_t seed, const nada::store::Fingerprint& fp,
                           std::uint64_t salt) {
  return nada::util::Rng(fp.lo ^ (fp.hi * 0x9e3779b97f4a7c15ULL) ^
                         (seed * 0xbf58476d1ce4e5b9ULL) ^ salt);
}

/// An ABR-shaped probe curve: per-epoch mean QoE rising from a poor start
/// (the real range is roughly -330 .. +15), with epoch-to-epoch noise.
std::vector<double> synth_probe_curve(std::uint64_t seed,
                                      const nada::store::Fingerprint& fp,
                                      std::size_t epochs) {
  auto rng = record_rng(seed, fp, 0x9b0be);
  const double start = rng.uniform(-330.0, -40.0);
  const double finish = rng.uniform(start, 15.0);
  std::vector<double> curve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    const double t = epochs > 1 ? static_cast<double>(e) / (epochs - 1) : 1.0;
    curve[e] = start + (finish - start) * t + rng.uniform(-25.0, 25.0);
  }
  return curve;
}

}  // namespace

nada::util::JsonValue write_resume_journal(const Workload& w,
                                           const std::string& dir) {
  namespace search = nada::search;
  namespace store = nada::store;
  const auto started = std::chrono::steady_clock::now();
  nada::util::ensure_directories(dir);
  auto data = build_domain(w.domain);
  const nada::env::TaskDomain& domain = *data->domain;
  auto stream = make_stream(w, domain);
  const std::uint64_t seed = w.gen_seed;
  const auto scope = search::store_scope(domain, w.config, w.job_seed);
  const std::string path = journal_file(scope, dir);
  std::remove(path.c_str());
  std::remove((path + ".idx").c_str());
  store::CandidateStore journal(path, scope);

  const auto& c = w.config;
  std::vector<store::Fingerprint> position_fp;
  std::unordered_map<std::string, store::OutcomeRecord> first;
  std::size_t checked_only = 0;
  std::size_t probed = 0;
  while (position_fp.size() < c.num_candidates) {
    const auto window = stream->source->generate(
        std::min<std::size_t>(256, c.num_candidates - position_fp.size()));
    if (window.empty()) break;
    for (const auto& spec : window) {
      const auto fp = search::fingerprint_of(spec, stream->fixed);
      position_fp.push_back(fp);
      if (first.count(fp.hex()) > 0) continue;
      store::OutcomeRecord r;
      r.fingerprint = fp;
      r.stage = store::Stage::kChecked;
      r.id = spec.id;
      r.source = spec.source;
      std::optional<nada::dsl::StateProgram> program;
      const auto compile =
          nada::filter::compilation_check(spec.source, domain.catalog(), &program);
      r.compiled = compile.passed;
      r.compile_error = compile.reason;
      if (compile.passed) {
        // The funnel's own normalization seed (SearchJob::precheck_state).
        const auto norm = nada::filter::normalization_check(
            *program, domain.catalog(), c.normalization_threshold,
            c.normalization_fuzz_runs, w.job_seed ^ (fp.lo * 0x9e3779b9ULL));
        r.normalized = norm.passed;
        r.normalization_error = norm.reason;
      }
      journal.put(r);
      if (r.compiled && r.normalized) {
        r.stage = store::Stage::kProbed;
        r.early_probed = true;
        r.early_rewards = synth_probe_curve(seed, fp, c.early_epochs);
        journal.put(r);
        ++probed;
      } else {
        ++checked_only;
      }
      first.emplace(fp.hex(), std::move(r));
    }
  }

  // The documented rule: top full_train_top stream positions by tail score,
  // ties by position. Duplicates compete per position, as in the funnel.
  std::vector<std::size_t> ranked;
  for (std::size_t p = 0; p < position_fp.size(); ++p) {
    if (first.at(position_fp[p].hex()).early_probed) ranked.push_back(p);
  }
  const auto score = [&](std::size_t p) {
    return tail_score(first.at(position_fp[p].hex()).early_rewards);
  };
  std::stable_sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    const double sa = score(a);
    const double sb = score(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  ranked.resize(std::min(ranked.size(), c.full_train_top));
  const std::size_t checkpoints = c.train.epochs / c.train.test_interval;
  std::size_t trained = 0;
  for (std::size_t p : ranked) {
    store::OutcomeRecord r = first.at(position_fp[p].hex());
    if (r.stage == store::Stage::kTrained) continue;  // a duplicate position
    auto rng = record_rng(seed, r.fingerprint, 0x7a1d);
    r.stage = store::Stage::kTrained;
    r.fully_trained = true;
    r.test_score = rng.uniform(-160.0, -10.0);
    r.curve_epochs.clear();
    r.median_curve.clear();
    for (std::size_t k = 1; k <= checkpoints; ++k) {
      r.curve_epochs.push_back(static_cast<double>(k * c.train.test_interval));
      r.median_curve.push_back(r.test_score + rng.uniform(-5.0, 5.0));
    }
    journal.put(r);
    first.at(position_fp[p].hex()) = r;
    ++trained;
  }

  nada::util::JsonValue out = nada::util::JsonValue::object();
  const auto num = [](double v) { return nada::util::JsonValue::number(v); };
  out.set("path", nada::util::JsonValue::string(path));
  out.set("positions", num(static_cast<double>(position_fp.size())));
  out.set("distinct", num(static_cast<double>(first.size())));
  out.set("checked_only", num(static_cast<double>(checked_only)));
  out.set("probed", num(static_cast<double>(probed)));
  out.set("trained", num(static_cast<double>(trained)));
  out.set("records", num(static_cast<double>(journal.size())));
  out.set("seconds",
          num(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            started)
                  .count()));
  return out;
}

}  // namespace e2e
