// FASTA reading/writing with an explicit policy for non-ACGT characters.
//
// The genomic files the paper uses contain N runs and IUPAC codes; the tools
// it compares against treat them as match breakers. The default policy
// (kMask) stores such characters as invalid bases in the Sequence validity
// mask, and the project-wide rule is that an invalid base matches nothing:
// it terminates matches and never appears inside a MEM (docs/TESTING.md).
// Legacy policies remain for auditing and quick looks; the reader records
// how many characters were touched either way.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "seq/sequence.h"

namespace gm::seq {

enum class NonAcgtPolicy {
  kMask,       ///< store as an invalid (masked) base: matches nothing, so it
               ///< terminates MEMs exactly like real tools' N handling —
               ///< the project default
  kReject,     ///< throw std::runtime_error on the first non-ACGT character
  kRandomize,  ///< replace with a deterministic pseudo-random base (seeded
               ///< by record index and offset) — breaks spurious matches
               ///< only probabilistically; kept for legacy comparisons
  kSkip,       ///< drop the character (shifts coordinates; for quick looks)
};

struct FastaRecord {
  std::string name;            ///< header text after '>'
  Sequence sequence;
  std::uint64_t non_acgt = 0;  ///< characters affected by the policy
};

/// Parses every record in the stream. Throws on malformed input (sequence
/// data before any header) or on policy violations.
std::vector<FastaRecord> read_fasta(std::istream& in,
                                    NonAcgtPolicy policy = NonAcgtPolicy::kMask);

std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         NonAcgtPolicy policy = NonAcgtPolicy::kMask);

/// The binaries' input: the reference is the first record of `path`, the
/// queries are its non-empty records in file order. Both throw
/// util::InputError naming the file when the reference is empty or missing
/// or no query is left, and std::runtime_error when `path` will not open.
FastaRecord read_reference_file(const std::string& path);
std::vector<FastaRecord> read_query_file(const std::string& path);

/// Writes one record wrapped at `width` columns.
void write_fasta(std::ostream& out, const std::string& name,
                 const Sequence& seq, std::size_t width = 70);

void write_fasta_file(const std::string& path, const std::string& name,
                      const Sequence& seq, std::size_t width = 70);

}  // namespace gm::seq
