// Workload definitions and seeded input generation. Inputs come from
// seq::make_dataset and are handed to the program only as FASTA files
// (plus read fragments over the wire); the ASCII copies kept here are what
// the independent checker compares against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Spec {
  std::string name;
  std::string preset;         ///< seq::make_dataset preset
  std::size_t scale = 1;      ///< preset scale divisor
  /// Independent pairs per run, generated from sub-seeds of --seed. Path
  /// times are averaged over them: repeat content, and with it the work,
  /// varies from pair to pair, and only more distinct data averages it out.
  std::size_t datasets = 1;
  std::uint32_t L = 30;       ///< engine / short-request minimum length
  std::uint32_t L_long = 100; ///< long-request minimum length (lazy route)
  /// true: the direct path metrics run each path over every read fragment
  /// instead of over the whole query.
  bool fragment_paths = false;
  std::size_t reads = 0;       ///< read fragments cut from the query
  std::size_t read_len = 150;
  /// Pairs (the first ones) on which the SIMT path runs.
  std::size_t simt_datasets = 3;
  std::size_t closed_requests = 0;  ///< per round, over 2 connections
  std::size_t open_requests = 0;    ///< per round, Poisson arrivals
  double open_qps = 0.0;            ///< fixed offered rate
};

/// The named workload; throws std::invalid_argument for an unknown name.
Spec find_spec(const std::string& name);

struct Inputs {
  std::string ref;    ///< ASCII reference
  std::string query;  ///< ASCII query
  std::vector<std::string> reads;
  std::string ref_fa, query_fa, reads_fa;  ///< written FASTA paths
};

/// Sub-seed of pair `index` within the run seeded `seed`.
std::uint64_t dataset_seed(std::uint64_t seed, std::size_t index);

/// Generates the pair for `seed`, cuts `spec.reads` fragments from the
/// query at seeded positions, and writes the three FASTA files into `dir`.
Inputs make_inputs(const Spec& spec, std::uint64_t seed,
                   const std::string& dir);

}  // namespace pb
