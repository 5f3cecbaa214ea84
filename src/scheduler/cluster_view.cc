#include "src/scheduler/cluster_view.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/str.h"

namespace capsys {

const char* CommitResultName(CommitResult result) {
  switch (result) {
    case CommitResult::kCommitted:
      return "committed";
    case CommitResult::kCommittedStale:
      return "committed_stale";
    case CommitResult::kConflict:
      return "conflict";
  }
  return "?";
}

Cluster ClusterSnapshot::ResidualCluster(const Cluster& full) const {
  std::vector<WorkerSpec> specs;
  specs.reserve(static_cast<size_t>(full.num_workers()));
  for (WorkerId w = 0; w < full.num_workers(); ++w) {
    WorkerSpec spec = full.worker(w).spec;
    spec.slots = free_slots[static_cast<size_t>(w)];
    specs.push_back(spec);
  }
  return Cluster(std::move(specs));
}

ClusterView::ClusterView(Cluster cluster)
    : cluster_(std::move(cluster)),
      reserved_(static_cast<size_t>(cluster_.num_workers()), 0),
      usable_(static_cast<size_t>(cluster_.num_workers()), true) {}

uint64_t ClusterView::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

ClusterSnapshot ClusterView::Snapshot() const { return SnapshotFor(kInvalidJobId); }

ClusterSnapshot ClusterView::SnapshotFor(JobId job) const {
  std::lock_guard<std::mutex> lock(mu_);
  ClusterSnapshot snap;
  snap.epoch = epoch_;
  snap.usable = usable_;
  snap.free_slots.resize(reserved_.size());
  const SlotReservation* own = nullptr;
  auto it = by_job_.find(job);
  if (it != by_job_.end()) {
    own = &it->second;
  }
  for (size_t w = 0; w < reserved_.size(); ++w) {
    int held = own != nullptr ? (*own)[w] : 0;
    int free = usable_[w]
                   ? cluster_.worker(static_cast<WorkerId>(w)).spec.slots - reserved_[w] + held
                   : 0;
    snap.free_slots[w] = std::max(0, free);
    snap.total_free += snap.free_slots[w];
  }
  return snap;
}

bool ClusterView::FitsLocked(const SlotReservation& reservation, JobId ignore_job) const {
  const SlotReservation* own = nullptr;
  auto it = by_job_.find(ignore_job);
  if (it != by_job_.end()) {
    own = &it->second;
  }
  for (size_t w = 0; w < reservation.size(); ++w) {
    if (reservation[w] <= 0) {
      continue;
    }
    if (!usable_[w]) {
      return false;
    }
    int held = own != nullptr ? (*own)[w] : 0;
    int free = cluster_.worker(static_cast<WorkerId>(w)).spec.slots - reserved_[w] + held;
    if (reservation[w] > free) {
      return false;
    }
  }
  return true;
}

CommitResult ClusterView::TryCommit(JobId job, uint64_t snapshot_epoch,
                                    const SlotReservation& reservation) {
  CAPSYS_CHECK(reservation.size() == reserved_.size());
  std::lock_guard<std::mutex> lock(mu_);
  bool stale = epoch_ != snapshot_epoch;
  // Even an epoch-exact commit re-validates: the snapshot the *plan* was computed against
  // may be older than the snapshot the caller compares to (paranoia is cheap here, and it
  // makes double-booking structurally impossible).
  if (!FitsLocked(reservation, job)) {
    return CommitResult::kConflict;
  }
  auto it = by_job_.find(job);
  if (it != by_job_.end()) {
    for (size_t w = 0; w < it->second.size(); ++w) {
      reserved_[w] -= it->second[w];
    }
  }
  for (size_t w = 0; w < reservation.size(); ++w) {
    reserved_[w] += reservation[w];
  }
  by_job_[job] = reservation;
  ++epoch_;
  return stale ? CommitResult::kCommittedStale : CommitResult::kCommitted;
}

bool ClusterView::Release(JobId job) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_job_.find(job);
  if (it == by_job_.end()) {
    return false;
  }
  for (size_t w = 0; w < it->second.size(); ++w) {
    reserved_[w] -= it->second[w];
  }
  by_job_.erase(it);
  ++epoch_;
  return true;
}

std::map<JobId, int> ClusterView::MarkWorkerDown(WorkerId w) {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<JobId, int> affected;
  size_t wi = static_cast<size_t>(w);
  if (!usable_[wi]) {
    return affected;
  }
  usable_[wi] = false;
  for (auto& [job, reservation] : by_job_) {
    if (reservation[wi] > 0) {
      affected[job] = reservation[wi];
      reserved_[wi] -= reservation[wi];
      reservation[wi] = 0;
    }
  }
  ++epoch_;
  return affected;
}

void ClusterView::MarkWorkerUp(WorkerId w) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t wi = static_cast<size_t>(w);
  if (usable_[wi]) {
    return;
  }
  usable_[wi] = true;
  ++epoch_;
}

bool ClusterView::IsWorkerUsable(WorkerId w) const {
  std::lock_guard<std::mutex> lock(mu_);
  return usable_[static_cast<size_t>(w)];
}

int ClusterView::TotalSlots() const {
  std::lock_guard<std::mutex> lock(mu_);
  int total = 0;
  for (WorkerId w = 0; w < cluster_.num_workers(); ++w) {
    if (usable_[static_cast<size_t>(w)]) {
      total += cluster_.worker(w).spec.slots;
    }
  }
  return total;
}

int ClusterView::TotalFreeSlots() const {
  std::lock_guard<std::mutex> lock(mu_);
  int total = 0;
  for (WorkerId w = 0; w < cluster_.num_workers(); ++w) {
    if (usable_[static_cast<size_t>(w)]) {
      total += cluster_.worker(w).spec.slots - reserved_[static_cast<size_t>(w)];
    }
  }
  return total;
}

ResourceVector ClusterView::TotalCapacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResourceVector cap;
  for (WorkerId w = 0; w < cluster_.num_workers(); ++w) {
    if (!usable_[static_cast<size_t>(w)]) {
      continue;
    }
    const WorkerSpec& spec = cluster_.worker(w).spec;
    cap.cpu += spec.cpu_capacity;
    cap.io += spec.io_bandwidth_bps;
    cap.net += spec.net_bandwidth_bps;
  }
  return cap;
}

SlotReservation ClusterView::ReservationOf(JobId job) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_job_.find(job);
  if (it == by_job_.end()) {
    return {};
  }
  return it->second;
}

std::string ClusterView::CheckInvariants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> summed(reserved_.size(), 0);
  for (const auto& [job, reservation] : by_job_) {
    if (reservation.size() != reserved_.size()) {
      return Sprintf("job %lld reservation has %zu workers, cluster has %zu",
                     static_cast<long long>(job), reservation.size(), reserved_.size());
    }
    for (size_t w = 0; w < reservation.size(); ++w) {
      if (reservation[w] < 0) {
        return Sprintf("job %lld holds negative slots on worker %zu",
                       static_cast<long long>(job), w);
      }
      if (reservation[w] > 0 && !usable_[w]) {
        return Sprintf("job %lld holds %d slots on unusable worker %zu",
                       static_cast<long long>(job), reservation[w], w);
      }
      summed[w] += reservation[w];
    }
  }
  for (size_t w = 0; w < reserved_.size(); ++w) {
    if (summed[w] != reserved_[w]) {
      return Sprintf("worker %zu accounting mismatch: reserved %d but jobs hold %d", w,
                     reserved_[w], summed[w]);
    }
    int slots = cluster_.worker(static_cast<WorkerId>(w)).spec.slots;
    if (reserved_[w] > slots) {
      return Sprintf("worker %zu double-booked: %d reserved for %d slots", w, reserved_[w],
                     slots);
    }
  }
  return "";
}

}  // namespace capsys
