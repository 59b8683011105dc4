// MemFinder adapters for the GPUMEM engine, so the benchmark harness and
// tests treat GPUMEM like any other tool. The SIMT backend builds its index
// *during* extraction (per tile row), as the paper describes, with RunStats
// separating the two times the way Tables III/IV report them; the native
// backend builds its row indexes once at build_index() and reuses them
// across find() calls (build-once / query-many). Either backend can adopt a
// prepared index instead of building one (the --load-index path): native
// row indexes, or a DevicePool whose devices carry row-index sources.
#pragma once

#include <optional>
#include <stdexcept>
#include <utility>

#include "core/device_pool.h"
#include "core/pipeline.h"
#include "mem/finder.h"

namespace gm::core {

class GpumemFinder final : public mem::MemFinder {
 public:
  explicit GpumemFinder(Backend backend = Backend::kSimt)
      : backend_(backend) {}

  /// Extra knobs beyond FinderOptions; call before build_index.
  Config& mutable_config() { return cfg_; }

  std::string name() const override {
    return backend_ == Backend::kSimt ? "gpumem" : "gpumem-native";
  }

  void build_index(const seq::Sequence& ref,
                   const mem::FinderOptions& opt) override {
    prepare(ref, opt, backend_);
    // The native backend supports the build-once / query-many workflow;
    // build its row indexes now so repeated find() calls reuse them. The
    // SIMT backend mirrors the paper: indexing is interleaved with the run
    // and reported via RunStats::index_seconds.
    if (backend_ == Backend::kNative) {
      native_index_.emplace(Engine(cfg_).build_native_index(ref));
    }
  }

  /// Adopts prebuilt native row indexes (e.g. store::LoadedIndex::
  /// native_index()) built for mutable_config()'s geometry over `ref`.
  void adopt_index(const seq::Sequence& ref, const mem::FinderOptions& opt,
                   Engine::NativeIndex index) {
    prepare(ref, opt, Backend::kNative);
    native_index_.emplace(std::move(index));
  }

  /// Adopts a prepared SIMT pool; every find() runs on it, so row indexes
  /// its sources hold stay resident across queries. The pool must outlive
  /// the finder, and its config is the finder's.
  void adopt_index(const mem::FinderOptions& opt, DevicePool& pool) {
    if (opt.min_length != pool.config().min_length) {
      throw std::invalid_argument(name() + ": min_length differs from the "
                                           "adopted pool's");
    }
    cfg_ = pool.config();
    prepare(pool.reference(), opt, Backend::kSimt);
    pool_ = &pool;
  }

  std::vector<mem::Mem> find(const seq::Sequence& query) const override {
    if (ref_ == nullptr) throw std::logic_error("GpumemFinder: no index built");
    Engine engine(cfg_);
    Result result = pool_ != nullptr ? pool_->run(query)
                    : native_index_.has_value()
                        ? engine.run_native_prebuilt(*ref_, query, *native_index_)
                        : engine.run(*ref_, query);
    if (native_index_.has_value()) {
      result.stats.index_seconds = native_index_->build_seconds;
    }
    last_stats_ = result.stats;
    return std::move(result.mems);
  }

  double last_find_modeled_seconds() const override {
    return last_stats_.match_seconds;
  }

  /// Full stats of the last find() (index vs match split, tiling counters).
  const RunStats& last_stats() const { return last_stats_; }

 private:
  /// Shared head of build_index and adopt_index.
  void prepare(const seq::Sequence& ref, const mem::FinderOptions& opt,
               Backend backend) {
    if (backend != backend_) {
      throw std::invalid_argument(name() +
                                  ": the adopted index is for the other backend");
    }
    mem::validate_finder_options(name(), opt);
    ref_ = &ref;
    cfg_.min_length = opt.min_length;
    cfg_.backend = backend_;
    (void)cfg_.validated();
    native_index_.reset();
    pool_ = nullptr;
  }

  Backend backend_;
  Config cfg_;
  const seq::Sequence* ref_ = nullptr;
  std::optional<Engine::NativeIndex> native_index_;
  DevicePool* pool_ = nullptr;  ///< adopted, not owned
  mutable RunStats last_stats_;
};

}  // namespace gm::core
