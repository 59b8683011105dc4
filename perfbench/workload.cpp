#include "workload.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "seq/synthetic.h"

namespace pb {
namespace {

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = [] {
    std::vector<Spec> v;
    Spec x;
    x.name = "xchr-l30";
    x.preset = "chrXc_s/chrXh_s";
    x.scale = 4;
    x.datasets = 10;
    x.L = 30;
    x.L_long = 100;
    x.reads = 100;
    x.read_len = 150;
    x.closed_requests = 2000;
    x.open_requests = 250;
    x.open_qps = 6000.0;
    v.push_back(x);

    Spec m;
    m.name = "mammal-l80";
    m.preset = "chr1m_s/chr2h_s";
    m.scale = 4;
    m.datasets = 10;
    m.L = 80;
    m.L_long = 160;
    m.reads = 100;
    m.read_len = 250;
    m.closed_requests = 2000;
    m.open_requests = 250;
    m.open_qps = 6000.0;
    v.push_back(m);

    Spec s = x;
    s.name = "serve-reads";
    s.datasets = 10;
    s.fragment_paths = true;
    s.reads = 2000;
    s.closed_requests = 4000;
    s.open_requests = 500;
    v.push_back(s);
    return v;
  }();
  return all;
}

void write_fasta(const std::string& path,
                 const std::vector<std::pair<std::string, std::string>>& recs) {
  std::ofstream out(path, std::ios::binary);
  for (const auto& [name, seq] : recs) {
    out << '>' << name << '\n';
    for (std::size_t i = 0; i < seq.size(); i += 80) {
      out.write(seq.data() + i,
                static_cast<std::streamsize>(std::min<std::size_t>(80, seq.size() - i)));
      out << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

Spec find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown workload " + name);
}

std::uint64_t dataset_seed(std::uint64_t seed, std::size_t index) {
  return seed * 1000 + index;
}

Inputs make_inputs(const Spec& spec, std::uint64_t seed,
                   const std::string& dir) {
  const gm::seq::DatasetPair pair =
      gm::seq::make_dataset(spec.preset, seed, spec.scale);
  Inputs in;
  in.ref = pair.reference.to_string();
  in.query = pair.query.to_string();

  std::uint64_t x = seed * 0x2545F4914F6CDD1Dull + 17;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::pair<std::string, std::string>> read_recs;
  for (std::size_t k = 0; k < spec.reads; ++k) {
    const std::size_t at = next() % (in.query.size() - spec.read_len);
    in.reads.push_back(in.query.substr(at, spec.read_len));
    read_recs.emplace_back("read" + std::to_string(k), in.reads.back());
  }

  std::filesystem::create_directories(dir);
  in.ref_fa = dir + "/ref.fa";
  in.query_fa = dir + "/query.fa";
  in.reads_fa = dir + "/reads.fa";
  write_fasta(in.ref_fa, {{"ref", in.ref}});
  write_fasta(in.query_fa, {{"query", in.query}});
  write_fasta(in.reads_fa, read_recs);
  return in;
}

}  // namespace pb
