// The benchmark's four workloads and the code that runs one round of each.
//
// A round is one search, start to ranking, in its own process (run.py
// spawns e2e_round once per round), so CPU time and peak RSS belong to that
// round alone. The round reports its timings, the program's outputs, and
// the evidence run.py checks them against: a fresh replay of the candidate
// stream with benchmark-computed fingerprints, and every journal record the
// round left on disk.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/cc_env.h"
#include "env/domain.h"
#include "gen/arch_gen.h"
#include "gen/state_gen.h"
#include "search/candidate.h"
#include "search/types.h"
#include "store/candidate_store.h"
#include "trace/generator.h"
#include "util/json.h"
#include "video/video.h"

namespace e2e {

enum class Mode {
  kLocal,       ///< cold search in this process
  kResume,      ///< resume against a journal written beforehand
  kSupervised,  ///< svc::Supervisor over shard_worker leases, then merge
};

struct Workload {
  std::string name;
  std::string domain;  ///< "abr" | "cc"
  std::string kind;    ///< "state" | "arch"
  Mode mode = Mode::kLocal;
  /// Thread pool size for the search (0 = serial, no pool).
  std::size_t threads = 0;
  /// Supervised only: concurrent shard_worker lease processes.
  std::size_t workers = 0;
  /// The candidate generator's seed and the job seed (store scope, probe,
  /// training and baseline seeds); find_workload derives them from --seed.
  std::uint64_t gen_seed = 1;
  std::uint64_t job_seed = 1234;
  nada::search::SearchConfig config;
};

/// The workload called `name` for `seed`, at full size or at the quick-mode
/// size. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload find_workload(const std::string& name, bool quick,
                                     std::uint64_t seed);

/// A domain's data, fixed for every round and seed: the datasets the
/// search CLIs use (tools/cli_common.h), so supervised workers and the
/// in-process driver score candidates on identical inputs.
struct DomainData {
  nada::trace::Dataset dataset;
  std::optional<nada::video::Video> video;
  nada::cc::CcConfig cc_config;
  std::unique_ptr<nada::env::TaskDomain> domain;
};

[[nodiscard]] std::unique_ptr<DomainData> build_domain(const std::string& domain);

/// The generator behind a workload's candidate stream (Workload::gen_seed),
/// plus the fixed half of the design. Not movable:
/// `fixed` points into the struct and into the workload's config.
struct Stream {
  Stream() = default;
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  std::unique_ptr<nada::gen::StateGenerator> state_gen;
  std::unique_ptr<nada::gen::ArchGenerator> arch_gen;
  std::unique_ptr<nada::search::CandidateSource> source;
  std::optional<nada::dsl::StateProgram> fixed_state;
  nada::search::FixedDesign fixed;
};

[[nodiscard]] std::unique_ptr<Stream> make_stream(
    const Workload& workload, const nada::env::TaskDomain& domain);

/// Journal file for `scope` inside `dir`, in the store's default format.
[[nodiscard]] std::string journal_file(const nada::store::StoreScope& scope,
                                       const std::string& dir);

struct RoundOptions {
  bool trace = false;
  /// Directory for this round's journals (created if absent). Resume
  /// rounds expect the prepared journal here already.
  std::string dir;
};

/// Runs one round and returns its report (checks.py reads the keys).
[[nodiscard]] nada::util::JsonValue run_round(const Workload& workload,
                                              const RoundOptions& options);

/// The evidence run.py checks a round's outputs against: the candidate
/// stream replayed by a fresh generator (ids + fingerprints from
/// search::fingerprint_of) and, per journal in `journals` (same order),
/// every record read back through the store's public API.
[[nodiscard]] nada::util::JsonValue collect_evidence(
    const Workload& workload, const std::vector<std::string>& journals);

/// Writes the abr-state-resume journal into `dir` through
/// CandidateStore::put and returns a summary (path, record counts, time).
[[nodiscard]] nada::util::JsonValue write_resume_journal(
    const Workload& workload, const std::string& dir);

}  // namespace e2e
