// Timing decorators for the traced benchmark rounds.
//
// Every per-layer number the benchmark reports is taken from outside the
// program: these wrappers sit between the search funnel and the layers it
// calls, forward every call unchanged, and add the wall time spent inside
// it to a Tally. Forwarding is exact — the store scope, the RNG draws and
// the episode semantics are the wrapped object's own — so a traced round
// must rank identically to an untraced one (run.py checks that).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/domain.h"
#include "search/candidate.h"
#include "search/observer.h"

namespace e2e {

/// Busy time plus an event count, safe to update from pool threads.
struct Tally {
  std::atomic<std::uint64_t> nanos{0};
  std::atomic<std::uint64_t> count{0};

  void add(std::chrono::steady_clock::duration elapsed, std::uint64_t n = 1) {
    nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        std::memory_order_relaxed);
    count.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(nanos.load(std::memory_order_relaxed)) * 1e-9;
  }
};

/// The env layer's tallies: episode starts (construction + reset) and steps.
struct EnvTallies {
  Tally reset;
  Tally step;
};

/// env::TaskDomain decorator: forwards every call to `inner`; the episodes
/// it starts are wrapped so their reset() and step() calls are timed.
class TimedDomain final : public nada::env::TaskDomain {
 public:
  TimedDomain(const nada::env::TaskDomain& inner, EnvTallies& tallies)
      : inner_(&inner), tallies_(&tallies) {}

  [[nodiscard]] const std::string& name() const override;
  [[nodiscard]] const nada::dsl::BindingCatalog& catalog() const override;
  [[nodiscard]] std::size_t num_actions() const override;
  [[nodiscard]] std::size_t episode_length() const override;
  [[nodiscard]] double reward_scale_hint() const override;
  [[nodiscard]] const std::string& baseline_state_source() const override;
  [[nodiscard]] std::unique_ptr<nada::env::Episode> start_train_episode(
      nada::env::Fidelity fidelity, nada::util::Rng& rng) const override;
  [[nodiscard]] std::size_t num_eval_units() const override;
  [[nodiscard]] std::unique_ptr<nada::env::Episode> start_eval_episode(
      std::size_t unit, nada::env::Fidelity fidelity,
      nada::util::Rng& rng) const override;
  [[nodiscard]] std::string scope_env() const override;
  void append_scope_spec(std::ostream& out) const override;

 private:
  const nada::env::TaskDomain* inner_;
  EnvTallies* tallies_;
};

/// search::CandidateSource decorator: times generate() and reset() (the
/// generator's work) and counts the candidates pulled.
class TimedSource final : public nada::search::CandidateSource {
 public:
  TimedSource(nada::search::CandidateSource& inner, Tally& tally)
      : inner_(&inner), tally_(&tally) {}

  [[nodiscard]] std::vector<nada::search::CandidateSpec> generate(
      std::size_t n) override;
  void reset() override;

 private:
  nada::search::CandidateSource* inner_;
  Tally* tally_;
};

/// Stage clock for passes the benchmark cannot step itself (the driver's
/// merge_and_rank_paths): counts the stages started and times each between
/// its start and finish events with the benchmark's own clock.
class StageClock final : public nada::search::Observer {
 public:
  void on_stage_start(nada::search::StageKind stage) override;
  void on_stage_finish(const nada::search::StageEvent& event) override;

  /// Seconds per StageKind (indexed by its integer value).
  std::vector<double> seconds =
      std::vector<double>(static_cast<int>(nada::search::StageKind::kDone), 0.0);
  std::size_t started = 0;
  std::size_t generate_steps = 0;

 private:
  std::chrono::steady_clock::time_point start_{};
};

/// Per-stream-position candidate events, one bit per event type: the
/// evidence run.py uses to account for every position. Kept in both traced
/// and untraced rounds (the cost is a byte per candidate).
class PositionLog final : public nada::search::Observer {
 public:
  void on_candidate(const nada::search::CandidateEvent& event) override;
  /// Two hex digits per position: bit t set when an event of type t
  /// (search::CandidateEventType) fired for that position.
  [[nodiscard]] std::string encode() const;

 private:
  std::vector<std::uint8_t> bits_;
};

}  // namespace e2e
