// Test-only reference: the coroutine form of the match kernel.
#pragma once

#include <cstdint>

#include "core/match_kernel.h"
#include "simt/executor.h"

namespace gm::core {

/// Runs block `block` of the coroutine-form match kernel through
/// simt::run_block (appending to params' output lists and flags).
simt::BlockResult run_match_block_reference(const simt::DeviceSpec& spec,
                                            std::uint32_t block,
                                            std::uint32_t grid,
                                            std::uint32_t threads,
                                            const MatchParams& params);

}  // namespace gm::core
