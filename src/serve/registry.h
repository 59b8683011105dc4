// Multi-tenant reference registry: a directory of *.gmidx index artifacts
// served as named tenants.
//
// Each tenant is one reference genome with a persistent index artifact
// (store/). The registry lazily activates a tenant on first acquire — mmap
// + verify the artifact, materialize the LoadedIndex, spin up a MemService
// whose row-index caches are artifact-backed — and keeps a bounded number
// of unpinned tenants resident, evicting least-recently-used ones when the
// budget is exceeded. Eviction tears the tenant's MemService down (its
// devices release every ledger-accounted buffer, including the cached row
// indexes) and drops the mapping, so a cold tenant costs nothing but its
// file on disk; acquire() hands out shared ownership, so requests in
// flight on an evicted tenant finish safely.
//
// Tenant names are the artifact file stems ("ecoli.gmidx" -> "ecoli");
// the header's embedded reference name is informational (`index-info`).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/service.h"
#include "store/loaded_index.h"

namespace gm::serve {

/// One resident tenant: the verified artifact, its materialized index, and
/// a running artifact-backed MemService. Obtained via
/// ReferenceRegistry::acquire; destroys (and releases all device memory)
/// when the last shared_ptr drops.
class Tenant {
 public:
  Tenant(std::string name, std::string path,
         std::shared_ptr<const store::LoadedIndex> index, ServiceConfig cfg);

  const std::string& name() const noexcept { return name_; }
  const std::string& path() const noexcept { return path_; }
  const store::LoadedIndex& index() const noexcept { return *index_; }
  MemService& service() noexcept { return *service_; }

 private:
  std::string name_;
  std::string path_;
  std::shared_ptr<const store::LoadedIndex> index_;
  std::unique_ptr<MemService> service_;
};

struct RegistryStats {
  std::uint64_t loads = 0;      ///< artifacts opened + services started
  std::uint64_t hits = 0;       ///< acquires served by a resident tenant
  std::uint64_t evictions = 0;  ///< tenants torn down over budget
  std::size_t resident = 0;     ///< at snapshot time (pinned included)
  std::size_t known = 0;        ///< artifacts discovered in the directory
};

class ReferenceRegistry {
 public:
  /// Scans `dir` for *.gmidx files (non-recursive). `base` configures every
  /// tenant's MemService; its `artifact` field is overwritten per tenant.
  /// `max_resident` bounds the number of *unpinned* resident tenants
  /// (pinned tenants never count against, nor are evicted from, the
  /// budget). Throws store::StoreError when the directory is unreadable.
  ReferenceRegistry(std::string dir, ServiceConfig base,
                    std::size_t max_resident = 4);

  /// Known tenant names, sorted.
  std::vector<std::string> tenants() const;

  /// The tenant a query named "<tenant>/<rest>" routes to: its prefix when
  /// that names a known tenant, else `fallback`.
  std::string tenant_of(const std::string& query_name,
                        const std::string& fallback) const;

  /// The artifact path behind `name`; throws StoreError for unknown names.
  std::string artifact_path(const std::string& name) const;

  /// Returns the tenant, activating it on first use (mmap + verify +
  /// service start; evicting the least-recently-used unpinned tenant when
  /// over budget). Throws store::StoreError on unknown names or unusable
  /// artifacts — a corrupt tenant never evicts anyone.
  std::shared_ptr<Tenant> acquire(const std::string& name);

  /// Pins `name` resident: activates it if needed and exempts it from
  /// eviction until unpin(). Returns the tenant.
  std::shared_ptr<Tenant> pin(const std::string& name);
  void unpin(const std::string& name);

  RegistryStats stats() const;

 private:
  struct Slot {
    std::string path;
    std::shared_ptr<Tenant> tenant;  ///< null when cold
    std::uint64_t last_used = 0;
    bool pinned = false;
  };

  std::shared_ptr<Tenant> acquire_locked(const std::string& name);
  void evict_over_budget_locked();
  void publish_locked() const;

  std::string dir_;
  ServiceConfig base_;
  std::size_t max_resident_;

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
  std::uint64_t clock_ = 0;
  RegistryStats stats_;
};

}  // namespace gm::serve
