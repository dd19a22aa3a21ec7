#include "cluster/des.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mcsd::sim {

void Simulator::schedule_at(SimTime when, Handler handler) {
  if (when < now_) {
    throw std::invalid_argument("Simulator: scheduling into the past");
  }
  queue_.push(Event{when, next_seq_++, std::move(handler)});
}

void Simulator::schedule_in(SimTime delay, Handler handler) {
  schedule_at(now_ + delay, std::move(handler));
}

void Simulator::run(SimTime until) {
  while (!queue_.empty()) {
    // priority_queue::top returns const ref; move via const_cast is the
    // standard idiom — the element is popped immediately after.
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    if (until >= 0.0 && event.when > until) {
      now_ = until;
      return;
    }
    now_ = event.when;
    ++events_processed_;
    event.handler();
  }
}

void fill_shares(std::vector<ShareSlot>& slots, double cores, ShareMode mode) {
  for (auto& s : slots) s.share = 0.0;
  std::vector<ShareSlot*> open;
  open.reserve(slots.size());
  for (auto& s : slots) {
    if (s.cap > 0.0 && (mode == ShareMode::kEqualShare || s.weight > 0.0)) {
      open.push_back(&s);
    }
  }
  double remaining = cores;
  while (remaining > 1e-12 && !open.empty()) {
    double total_weight = 0.0;
    if (mode == ShareMode::kProportional) {
      for (const ShareSlot* s : open) total_weight += s->weight;
      if (total_weight <= 0.0) break;
    }
    double given = 0.0;
    std::vector<ShareSlot*> still_open;
    for (ShareSlot* s : open) {
      const double per =
          mode == ShareMode::kProportional
              ? remaining * s->weight / total_weight
              : remaining / static_cast<double>(open.size());
      const double want = s->cap - s->share;
      const double grant = std::min(per, want);
      s->share += grant;
      given += grant;
      if (s->share + 1e-12 < s->cap) still_open.push_back(s);
    }
    if (given <= 1e-12) break;  // everyone capped
    remaining -= given;
    open = std::move(still_open);
  }
}

namespace {
constexpr double kDoneEps = 1e-9;
}  // namespace

MalleableCpu::MalleableCpu(Simulator& sim, std::size_t cores,
                           double core_speed, double interference_per_job,
                           ShareMode mode)
    : sim_(sim),
      cores_(static_cast<double>(cores)),
      core_speed_(core_speed),
      interference_(interference_per_job),
      mode_(mode) {
  if (cores == 0 || core_speed <= 0.0) {
    throw std::invalid_argument("MalleableCpu needs cores and speed > 0");
  }
}

void MalleableCpu::submit(double serial_wall_seconds, double parallel_ref_work,
                          Completion done) {
  if (serial_wall_seconds < 0.0 || parallel_ref_work < 0.0) {
    throw std::invalid_argument("MalleableCpu work must be non-negative");
  }
  advance_to_now();
  const std::uint64_t id = next_id_++;
  tasks_.emplace(id, Task{serial_wall_seconds, parallel_ref_work, 0.0,
                          std::move(done)});
  reschedule();
}

double MalleableCpu::outstanding_ref_seconds() {
  advance_to_now();
  double total = 0.0;
  for (const auto& [id, task] : tasks_) {
    total += task.serial_left * core_speed_ + task.parallel_left;
  }
  return total;
}

double MalleableCpu::interference_factor() const noexcept {
  if (tasks_.size() <= 1) return 1.0;
  return 1.0 + interference_ * static_cast<double>(tasks_.size() - 1);
}

double MalleableCpu::phase_seconds(const Task& task, double infl) const {
  if (task.serial_left > 0.0) {
    const double rate = std::min(task.share, 1.0);
    return rate > 0.0 ? task.serial_left / rate
                      : std::numeric_limits<double>::infinity();
  }
  const double rate = task.share * core_speed_ / infl;
  return rate > 0.0 ? task.parallel_left / rate
                    : std::numeric_limits<double>::infinity();
}

void MalleableCpu::refill_shares() {
  slots_.clear();
  slots_.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) {
    ShareSlot slot;
    // A task in its serial phase can use at most one core; once it goes
    // parallel it may spread across the whole node.
    slot.cap = task.serial_left > 0.0 ? std::min(1.0, cores_) : cores_;
    slot.weight = task.serial_left * core_speed_ + task.parallel_left;
    slots_.push_back(slot);
  }
  fill_shares(slots_, cores_, mode_);
  std::size_t i = 0;
  for (auto& [id, task] : tasks_) task.share = slots_[i++].share;
}

void MalleableCpu::advance_to_now() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0.0 || tasks_.empty()) return;
  const double infl = interference_factor();
  for (auto& [id, task] : tasks_) {
    if (task.serial_left > 0.0) {
      const double rate = std::min(task.share, 1.0);
      const double used = std::min(task.serial_left, dt * rate);
      task.serial_left -= used;
      // One core busy for used/rate seconds at min(share,1) cores
      // collapses to exactly `used` core-seconds.
      busy_core_seconds_ += used;
    } else {
      const double rate = task.share * core_speed_ / infl;
      const double used = std::min(task.parallel_left, dt * rate);
      task.parallel_left -= used;
      busy_core_seconds_ += used * infl / core_speed_;
    }
  }
}

void MalleableCpu::reschedule() {
  // Retire finished tasks; completions go through the event queue at
  // `now` in submission (id) order — deterministic, non-reentrant.
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    Task& task = it->second;
    if (task.serial_left <= kDoneEps) task.serial_left = 0.0;
    if (task.serial_left <= 0.0 && task.parallel_left <= kDoneEps) {
      if (task.done) sim_.schedule_at(sim_.now(), std::move(task.done));
      it = tasks_.erase(it);
    } else {
      ++it;
    }
  }
  if (tasks_.empty()) return;

  refill_shares();
  const double infl = interference_factor();
  double dt_min = std::numeric_limits<double>::infinity();
  for (const auto& [id, task] : tasks_) {
    dt_min = std::min(dt_min, phase_seconds(task, infl));
  }
  // Water-filling grants every claimant a positive share when cores are
  // positive, so some boundary is always finite.
  if (!std::isfinite(dt_min)) return;

  if (sim_.now() + dt_min <= sim_.now()) {
    // Sub-resolution boundary: `now + dt` would not advance the clock and
    // the timer would respin at this instant forever.  End the bounding
    // phase of the task(s) at the minimum directly and retry.
    const double cutoff = dt_min * (1.0 + 1e-9);
    for (auto& [id, task] : tasks_) {
      if (phase_seconds(task, infl) > cutoff) continue;
      if (task.serial_left > 0.0) {
        task.serial_left = 0.0;
      } else {
        task.parallel_left = 0.0;
      }
    }
    reschedule();
    return;
  }

  const std::uint64_t epoch = ++timer_epoch_;
  sim_.schedule_in(dt_min, [this, epoch] {
    if (epoch != timer_epoch_) return;  // superseded by an arrival
    advance_to_now();
    reschedule();
  });
}

}  // namespace mcsd::sim
