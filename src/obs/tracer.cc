#include "obs/tracer.h"

#include <algorithm>
#include <type_traits>

namespace wimpy::obs {

// The arena stores events in raw byte chunks and flattens with memcpy;
// both are only sound for a trivially copyable, trivially destructible
// record.
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(std::is_trivially_destructible_v<TraceEvent>);

const char* CategoryName(Category category) {
  switch (category) {
    case Category::kEngine:
      return "engine";
    case Category::kRequest:
      return "request";
    case Category::kTask:
      return "task";
    case Category::kNet:
      return "net";
    case Category::kApp:
      return "app";
    case Category::kAlert:
      return "alert";
    case Category::kHealth:
      return "health";
  }
  return "app";
}

Tracer::~Tracer() { DetachEngineHook(); }

const char* Tracer::Intern(std::string_view name) {
  auto it = interned_->find(name);
  if (it == interned_->end()) {
    it = interned_->emplace(name).first;
  }
  return it->c_str();
}

void Tracer::AttachEngineHook(sim::Scheduler* sched) {
  DetachEngineHook();
  hooked_ = sched;
  sched->SetExecuteHook(&Tracer::EngineTrampoline, this);
}

void Tracer::DetachEngineHook() {
  if (hooked_ != nullptr) {
    hooked_->SetExecuteHook(nullptr, nullptr);
    hooked_ = nullptr;
  }
}

void Tracer::EngineTrampoline(void* ctx, SimTime t, std::uint64_t seq) {
  Tracer* self = static_cast<Tracer*>(ctx);
  // Engine hook events keep the scheduler's own sequence number instead
  // of consuming a tracer-local one (kEngine records stay diffable
  // against the engine's executed-event stream).
  if (self->cur_ == self->cur_end_) self->NewChunk();
  ::new (static_cast<void*>(self->cur_++))
      TraceEvent{t, seq, "event", 0, 0, Category::kEngine, 'i'};
  ++self->count_;
}

void Tracer::NewChunk() {
  ChunkPtr chunk;
  if (!free_chunks_.empty()) {
    chunk = std::move(free_chunks_.back());
    free_chunks_.pop_back();
    ++chunk_reuses_;
  } else {
    chunk.reset(new std::byte[kChunkEvents * sizeof(TraceEvent)]);
    ++chunk_allocs_;
  }
  cur_ = ChunkData(chunk);
  cur_end_ = cur_ + kChunkEvents;
  chunks_.push_back(std::move(chunk));
}

void Tracer::Flatten() const {
  flat_cache_.clear();
  flat_cache_.reserve(count_);
  std::size_t remaining = count_;
  for (const ChunkPtr& chunk : chunks_) {
    const std::size_t n = std::min(kChunkEvents, remaining);
    const TraceEvent* data = ChunkData(chunk);
    flat_cache_.insert(flat_cache_.end(), data, data + n);
    remaining -= n;
  }
}

void Tracer::RecycleChunks() {
  for (ChunkPtr& chunk : chunks_) {
    free_chunks_.push_back(std::move(chunk));
  }
  chunks_.clear();
  cur_ = nullptr;
  cur_end_ = nullptr;
  count_ = 0;
}

int Tracer::open_spans(std::int32_t track) const {
  auto it = open_spans_.find(track);
  return it == open_spans_.end() ? 0 : it->second;
}

TraceLog Tracer::TakeLog() {
  TraceLog log;
  if (flat_cache_.size() == count_) {
    // events() already paid for the flatten — hand the vector over.
    log.events = std::move(flat_cache_);
  } else {
    log.events.reserve(count_);
    std::size_t remaining = count_;
    for (const ChunkPtr& chunk : chunks_) {
      const std::size_t n = std::min(kChunkEvents, remaining);
      const TraceEvent* data = ChunkData(chunk);
      log.events.insert(log.events.end(), data, data + n);
      remaining -= n;
    }
  }
  log.interned = interned_;  // keepalive for Intern'd name pointers
  RecycleChunks();
  flat_cache_.clear();
  open_spans_.clear();
  return log;
}

}  // namespace wimpy::obs
