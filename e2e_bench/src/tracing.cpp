#include "tracing.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// env::Episode decorator: times reset() and step().
class TimedEpisode final : public nada::env::Episode {
 public:
  TimedEpisode(std::unique_ptr<nada::env::Episode> inner, EnvTallies& tallies)
      : inner_(std::move(inner)), tallies_(&tallies) {}

  [[nodiscard]] nada::dsl::Bindings reset() override {
    const auto start = Clock::now();
    nada::dsl::Bindings observation = inner_->reset();
    tallies_->reset.add(Clock::now() - start);
    return observation;
  }
  [[nodiscard]] nada::env::DomainStep step(std::size_t action) override {
    const auto start = Clock::now();
    nada::env::DomainStep out = inner_->step(action);
    tallies_->step.add(Clock::now() - start);
    return out;
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }

 private:
  std::unique_ptr<nada::env::Episode> inner_;
  EnvTallies* tallies_;
};

}  // namespace

const std::string& TimedDomain::name() const { return inner_->name(); }
const nada::dsl::BindingCatalog& TimedDomain::catalog() const {
  return inner_->catalog();
}
std::size_t TimedDomain::num_actions() const { return inner_->num_actions(); }
std::size_t TimedDomain::episode_length() const {
  return inner_->episode_length();
}
double TimedDomain::reward_scale_hint() const {
  return inner_->reward_scale_hint();
}
const std::string& TimedDomain::baseline_state_source() const {
  return inner_->baseline_state_source();
}
std::size_t TimedDomain::num_eval_units() const {
  return inner_->num_eval_units();
}
std::string TimedDomain::scope_env() const { return inner_->scope_env(); }
void TimedDomain::append_scope_spec(std::ostream& out) const {
  inner_->append_scope_spec(out);
}

// Episode construction draws the episode's environment choice; it is
// counted with reset() as the cost of starting an episode. The reset
// tally's count is bumped by reset() itself, so construction adds time
// only.
std::unique_ptr<nada::env::Episode> TimedDomain::start_train_episode(
    nada::env::Fidelity fidelity, nada::util::Rng& rng) const {
  const auto start = Clock::now();
  auto inner = inner_->start_train_episode(fidelity, rng);
  tallies_->reset.add(Clock::now() - start, 0);
  return std::make_unique<TimedEpisode>(std::move(inner), *tallies_);
}

std::unique_ptr<nada::env::Episode> TimedDomain::start_eval_episode(
    std::size_t unit, nada::env::Fidelity fidelity,
    nada::util::Rng& rng) const {
  const auto start = Clock::now();
  auto inner = inner_->start_eval_episode(unit, fidelity, rng);
  tallies_->reset.add(Clock::now() - start, 0);
  return std::make_unique<TimedEpisode>(std::move(inner), *tallies_);
}

std::vector<nada::search::CandidateSpec> TimedSource::generate(std::size_t n) {
  const auto start = Clock::now();
  auto specs = inner_->generate(n);
  tally_->add(Clock::now() - start, specs.size());
  return specs;
}

void TimedSource::reset() {
  const auto start = Clock::now();
  inner_->reset();
  tally_->add(Clock::now() - start, 0);
}

void StageClock::on_stage_start(nada::search::StageKind /*stage*/) {
  ++started;
  start_ = Clock::now();
}

void StageClock::on_stage_finish(const nada::search::StageEvent& event) {
  seconds[static_cast<int>(event.stage)] +=
      std::chrono::duration<double>(Clock::now() - start_).count();
  if (event.stage == nada::search::StageKind::kGenerate) ++generate_steps;
}

void PositionLog::on_candidate(const nada::search::CandidateEvent& event) {
  if (event.index >= bits_.size()) bits_.resize(event.index + 1, 0);
  bits_[event.index] |=
      static_cast<std::uint8_t>(1u << static_cast<int>(event.type));
}

std::string PositionLog::encode() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bits_.size() * 2);
  for (const std::uint8_t b : bits_) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace e2e
