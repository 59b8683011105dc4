#include "serve/registry.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/registry.h"

namespace gm::serve {

namespace fs = std::filesystem;

Tenant::Tenant(std::string name, std::string path,
               std::shared_ptr<const store::LoadedIndex> index,
               ServiceConfig cfg)
    : name_(std::move(name)), path_(std::move(path)), index_(std::move(index)) {
  cfg.artifact = index_;
  service_ =
      std::make_unique<MemService>(std::move(cfg), index_->reference());
}

ReferenceRegistry::ReferenceRegistry(std::string dir, ServiceConfig base,
                                     std::size_t max_resident)
    : dir_(std::move(dir)),
      base_(std::move(base)),
      max_resident_(max_resident == 0 ? 1 : max_resident) {
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) {
    throw store::StoreError(dir_,
                            "cannot scan registry directory: " + ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || entry.path().extension() != ".gmidx") {
      continue;
    }
    Slot slot;
    slot.path = entry.path().string();
    slots_.emplace(entry.path().stem().string(), std::move(slot));
  }
  stats_.known = slots_.size();
}

std::vector<std::string> ReferenceRegistry::tenants() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) names.push_back(name);
  return names;
}

std::string ReferenceRegistry::tenant_of(const std::string& query_name,
                                         const std::string& fallback) const {
  const std::string prefix = query_name.substr(0, query_name.find('/'));
  std::lock_guard lock(mu_);
  return prefix.size() < query_name.size() && slots_.count(prefix) != 0
             ? prefix
             : fallback;
}

std::string ReferenceRegistry::artifact_path(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = slots_.find(name);
  if (it == slots_.end()) {
    throw store::StoreError(dir_, "no tenant named \"" + name + "\"");
  }
  return it->second.path;
}

std::shared_ptr<Tenant> ReferenceRegistry::acquire(const std::string& name) {
  std::lock_guard lock(mu_);
  return acquire_locked(name);
}

std::shared_ptr<Tenant> ReferenceRegistry::acquire_locked(
    const std::string& name) {
  const auto it = slots_.find(name);
  if (it == slots_.end()) {
    throw store::StoreError(dir_, "no tenant named \"" + name + "\"");
  }
  Slot& slot = it->second;
  slot.last_used = ++clock_;
  if (slot.tenant != nullptr) {
    ++stats_.hits;
    if (obs::enabled()) {
      obs::Registry::global()
          .metrics()
          .counter("registry.hits", "acquires served by a resident tenant")
          .add();
    }
    return slot.tenant;
  }

  // Cold tenant: open + verify + materialize + start its service. Any
  // failure propagates before residency changes, so a corrupt artifact
  // cannot evict a healthy tenant.
  obs::Span span("registry.load", "registry");
  span.attr("tenant", name);
  auto index = std::make_shared<const store::LoadedIndex>(
      store::MappedArtifact::open_file(slot.path));
  auto tenant = std::make_shared<Tenant>(name, slot.path, index, base_);
  slot.tenant = std::move(tenant);
  ++stats_.loads;
  if (obs::enabled()) {
    obs::Registry::global()
        .metrics()
        .counter("registry.loads", "tenants activated from their artifact")
        .add();
  }
  evict_over_budget_locked();
  publish_locked();
  return slot.tenant;
}

std::shared_ptr<Tenant> ReferenceRegistry::pin(const std::string& name) {
  std::lock_guard lock(mu_);
  std::shared_ptr<Tenant> t = acquire_locked(name);
  slots_.at(name).pinned = true;
  return t;
}

void ReferenceRegistry::unpin(const std::string& name) {
  std::lock_guard lock(mu_);
  const auto it = slots_.find(name);
  if (it == slots_.end()) {
    throw store::StoreError(dir_, "no tenant named \"" + name + "\"");
  }
  it->second.pinned = false;
  evict_over_budget_locked();
  publish_locked();
}

void ReferenceRegistry::evict_over_budget_locked() {
  for (;;) {
    std::size_t unpinned = 0;
    Slot* victim = nullptr;
    for (auto& [name, slot] : slots_) {
      if (slot.tenant == nullptr || slot.pinned) continue;
      ++unpinned;
      if (victim == nullptr || slot.last_used < victim->last_used) {
        victim = &slot;
      }
    }
    if (unpinned <= max_resident_ || victim == nullptr) return;
    // Dropping the registry's reference tears the service down (devices
    // release every cached row index against their ledger) and unmaps the
    // artifact — unless callers still hold the shared_ptr, in which case
    // teardown happens when the last in-flight holder releases it.
    victim->tenant.reset();
    ++stats_.evictions;
    if (obs::enabled()) {
      obs::Registry::global()
          .metrics()
          .counter("registry.evictions", "tenants torn down over budget")
          .add();
    }
  }
}

void ReferenceRegistry::publish_locked() const {
  if (!obs::enabled()) return;
  std::size_t resident = 0;
  for (const auto& [name, slot] : slots_) {
    if (slot.tenant != nullptr) ++resident;
  }
  obs::Registry::global()
      .metrics()
      .gauge("registry.resident", "tenants currently resident")
      .set(static_cast<double>(resident));
}

RegistryStats ReferenceRegistry::stats() const {
  std::lock_guard lock(mu_);
  RegistryStats s = stats_;
  s.resident = 0;
  for (const auto& [name, slot] : slots_) {
    if (slot.tenant != nullptr) ++s.resident;
  }
  return s;
}

}  // namespace gm::serve
