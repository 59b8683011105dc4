#include "seq/fasta.h"

#include <cctype>
#include <fstream>
#include <stdexcept>

#include "util/cli.h"
#include "util/rng.h"

namespace gm::seq {

std::vector<FastaRecord> read_fasta(std::istream& in, NonAcgtPolicy policy) {
  std::vector<FastaRecord> records;
  std::string line;
  util::Xoshiro256 rng(0x5EEDFA57Aull);
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '>') {
      records.push_back({});
      records.back().name = line.substr(1);
      // Fresh deterministic stream per record so record order is the only
      // input to randomization.
      rng = util::Xoshiro256(0x5EEDFA57Aull + records.size());
      continue;
    }
    if (line[0] == ';') continue;  // legacy FASTA comment
    if (records.empty()) {
      throw std::runtime_error("read_fasta: sequence data before any '>' header");
    }
    FastaRecord& rec = records.back();
    for (char c : line) {
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      const std::uint8_t b = encode_base(c);
      if (b != kInvalidBase) {
        rec.sequence.push_back(b);
        continue;
      }
      ++rec.non_acgt;
      switch (policy) {
        case NonAcgtPolicy::kMask:
          rec.sequence.push_back_invalid();
          break;
        case NonAcgtPolicy::kReject:
          throw std::runtime_error(
              std::string("read_fasta: non-ACGT character '") + c +
              "' in record " + rec.name);
        case NonAcgtPolicy::kRandomize:
          rec.sequence.push_back(static_cast<std::uint8_t>(rng.bounded(4)));
          break;
        case NonAcgtPolicy::kSkip:
          break;
      }
    }
  }
  return records;
}

std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         NonAcgtPolicy policy) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_fasta_file: cannot open " + path);
  return read_fasta(in, policy);
}

FastaRecord read_reference_file(const std::string& path) {
  std::vector<FastaRecord> records = read_fasta_file(path);
  if (records.empty()) {
    throw util::InputError("reference FASTA " + path + " holds no record");
  }
  if (records.front().sequence.empty()) {
    throw util::InputError("reference FASTA " + path + ": first record '" +
                           records.front().name + "' is empty");
  }
  return std::move(records.front());
}

std::vector<FastaRecord> read_query_file(const std::string& path) {
  std::vector<FastaRecord> records = read_fasta_file(path);
  std::erase_if(records,
                [](const FastaRecord& r) { return r.sequence.empty(); });
  if (records.empty()) {
    throw util::InputError("query FASTA " + path +
                           " holds no non-empty record");
  }
  return records;
}

void write_fasta(std::ostream& out, const std::string& name,
                 const Sequence& seq, std::size_t width) {
  out << '>' << name << '\n';
  for (std::size_t i = 0; i < seq.size(); i += width) {
    const std::size_t len = std::min(width, seq.size() - i);
    out << seq.to_string(i, len) << '\n';
  }
}

void write_fasta_file(const std::string& path, const std::string& name,
                      const Sequence& seq, std::size_t width) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_fasta_file: cannot open " + path);
  write_fasta(out, name, seq, width);
}

}  // namespace gm::seq
