// e2e_round: one round of one benchmark workload, in its own process.
//
//   e2e_round round    --workload W --seed S --trace 0|1 --dir D --out F
//   e2e_round prepare  --workload abr-state-resume --seed S --dir D --out F
//   e2e_round evidence --workload W --seed S --journals A[,B...] --out F
//
// `round` runs the search and writes its report to F. `evidence` writes
// what run.py checks a round's outputs against: the candidate stream
// replayed by a fresh generator, and the records of the round's journals.
// `prepare` writes the abr-state-resume journal into D.
// Every mode takes --quick for the tiny self-test sizes. Exit codes: 0 ok
// (a round's own failures are reported inside F), 1 error, 2 bad usage.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/fs.h"
#include "workloads.h"

namespace {

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool quick = false;
  std::string dir;
  std::string out;
  std::vector<std::string> journals;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "e2e_round: " << error << "\n"
            << "usage: e2e_round round|prepare|evidence --workload W --seed S"
            << " [--trace 0|1] [--dir D] [--journals A,B] --out F [--quick]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") a.workload = value(i);
    else if (flag == "--seed") a.seed = std::stoull(value(i));
    else if (flag == "--trace") a.trace = value(i) == "1";
    else if (flag == "--quick") a.quick = true;
    else if (flag == "--dir") a.dir = value(i);
    else if (flag == "--out") a.out = value(i);
    else if (flag == "--journals") {
      std::stringstream list(value(i));
      for (std::string p; std::getline(list, p, ',');) a.journals.push_back(p);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.mode != "round" && a.mode != "prepare" && a.mode != "evidence") {
    usage("bad mode " + a.mode);
  }
  if (a.workload.empty() || a.out.empty()) usage("--workload and --out are required");
  if (a.mode != "evidence" && a.dir.empty()) usage("--dir is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const e2e::Workload workload =
        e2e::find_workload(args.workload, args.quick, args.seed);
    nada::util::JsonValue out;
    if (args.mode == "round") {
      e2e::RoundOptions options;
      options.trace = args.trace;
      options.dir = args.dir;
      out = e2e::run_round(workload, options);
    } else if (args.mode == "prepare") {
      out = e2e::write_resume_journal(workload, args.dir);
    } else {
      out = e2e::collect_evidence(workload, args.journals);
    }
    nada::util::write_file_atomic(args.out, out.dump() + "\n");
  } catch (const std::exception& e) {
    std::cerr << "e2e_round: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
