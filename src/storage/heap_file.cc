#include "storage/heap_file.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <span>
#include <string>
#include <thread>

#include "storage/fault_injection.h"

namespace equihist {

HeapFile::HeapFile(const PageConfig& config)
    : config_(config), tuples_per_page_(config.TuplesPerPage()) {
  // Enforced in every build mode: under NDEBUG an assert would skip the
  // check and let a zero-tuple geometry divide by zero later. Fallible
  // callers validate first (Table::Create); reaching here with a bad
  // config is direct constructor misuse.
  const Status config_status = ValidatePageConfig(config);
  if (!config_status.ok()) {
    AbortOnStatus(config_status, "HeapFile: invalid PageConfig");
  }
}

void HeapFile::Append(Value value) {
  if (pages_.empty() || pages_.back().full()) {
    pages_.emplace_back(tuples_per_page_);
  }
  const bool appended = pages_.back().Append(value);
  assert(appended);
  (void)appended;
  ++tuple_count_;
}

void HeapFile::AppendAll(const std::vector<Value>& values) {
  pages_.reserve(pages_.size() +
                 (values.size() + tuples_per_page_ - 1) / tuples_per_page_);
  std::span<const Value> rest = values;
  while (!rest.empty()) {
    if (pages_.empty() || pages_.back().full()) {
      pages_.emplace_back(tuples_per_page_);
    }
    Page& page = pages_.back();
    const std::size_t take =
        std::min<std::size_t>(rest.size(), page.capacity() - page.size());
    page.AppendAll(rest.first(take));
    rest = rest.subspan(take);
    tuple_count_ += take;
  }
}

Result<const Page*> HeapFile::ReadPage(std::uint64_t page_id,
                                       IoStats* stats) const {
  if (page_id >= pages_.size()) {
    return Status::NotFound("page id out of range");
  }
  const Page* page = &pages_[page_id];
  if (injector_ != nullptr) {
    switch (injector_->Decide(page_id)) {
      case FaultKind::kNone:
        break;
      case FaultKind::kTransient:
        return Status::Unavailable("injected transient read error on page " +
                                   std::to_string(page_id));
      case FaultKind::kLost:
        return Status::DataLoss("page " + std::to_string(page_id) +
                                " is unreadable (lost)");
      case FaultKind::kCorrupt:
        // The injector hands back a payload whose bytes no longer match
        // the stored checksum; the verification below is the detection a
        // real engine performs on every page it trusts.
        page = injector_->CorruptedCopy(page_id, pages_[page_id]);
        break;
    }
    if (!page->ChecksumOk()) {
      return Status::DataLoss("page " + std::to_string(page_id) +
                              " failed checksum verification");
    }
    if (injector_->InjectsLatency(page_id)) {
      injector_->RecordLatencyInjected();
      std::this_thread::sleep_for(
          std::chrono::microseconds(injector_->latency_micros()));
    }
  }
  if (stats != nullptr) {
    stats->pages_read += 1;
    stats->tuples_read += page->size();
  }
  return page;
}

void HeapFile::ReadPagesFaultFree(std::span<const std::uint64_t> page_ids,
                                  IoStats* stats,
                                  std::vector<const Page*>& out) const {
  assert(injector_ == nullptr);
  const Page* const pages = pages_.data();
  const std::size_t count = page_ids.size();
  std::uint64_t tuples = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // The pages lie scattered over the file, and size() reads the header,
    // which may straddle two cache lines: fetch both of its ends.
    if (i + kReadAheadPages < count) {
      const auto* ahead = reinterpret_cast<const char*>(
          pages + page_ids[i + kReadAheadPages]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + sizeof(Page) - 1);
    }
    assert(page_ids[i] < pages_.size());
    const Page* page = pages + page_ids[i];
    tuples += page->size();
    out.push_back(page);
  }
  if (stats != nullptr) {
    stats->pages_read += count;
    stats->tuples_read += tuples;
  }
}

Result<const Page*> HeapFile::ReadPageRetrying(std::uint64_t page_id,
                                               const RetryPolicy& policy,
                                               IoStats* stats) const {
  std::uint64_t retries = 0;
  Result<const Page*> result = RetryTransient(
      policy, [&]() { return ReadPage(page_id, stats); }, &retries);
  if (stats != nullptr) stats->transient_retries += retries;
  return result;
}

}  // namespace equihist
